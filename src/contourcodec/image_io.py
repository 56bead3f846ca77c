"""8-bit image I/O (binary PGM/PPM) and synthetic stereo test scenes.

Depth images are treated directly as disparity maps (Middlebury convention):
larger values mean closer surfaces.  The pixel shift is ``pixel_shift``,
``alpha * value * value_scale`` rounded half to even, so an 8-bit depth value
maps to a sub-pixel-scaled disparity via the scene/config ``value_scale``.
The scene renderer and DIBR warping (``augment._warp``) both shift by it.

The synthetic scene generator renders any in-between viewpoint analytically
from a shared texture canvas, so the right view equals the left view warped
by its own disparity (exact ground-truth correspondence, occlusions aside).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ImageFormatError(ValueError):
    """Raised for files that are not valid binary 8-bit PGM/PPM."""


@dataclass(frozen=True, eq=False)
class _Image:
    """8-bit image record, row-major; only images of one class compare equal.

    A subclass names its ``_kind``, its ``_shape`` text, its trailing
    ``_channels`` and its binary PNM ``_magic``."""

    pixels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.pixels)
        if a.ndim < 2 or a.shape[2:] != self._channels or a.size == 0:
            raise ValueError(f"{self._kind} image must be a non-empty {self._shape} array")
        if a.dtype != np.uint8:
            if np.any((a < 0) | (a > 255)):
                raise ValueError(f"{self._kind} samples must lie in [0, 255]")
            a = a.astype(np.uint8)
        object.__setattr__(self, "pixels", a)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True, eq=False)
class DepthImage(_Image):
    """8-bit single-channel depth/disparity map, row-major: pixels is an
    (height, width) uint8 array."""

    _kind, _shape, _channels, _magic = "depth", "2D", (), b"P5"


@dataclass(frozen=True, eq=False)
class ColorImage(_Image):
    """8-bit RGB image, row-major: pixels is an (height, width, 3) uint8
    array."""

    _kind, _shape, _channels, _magic = "color", "(h, w, 3)", (3,), b"P6"


# ---------------------------------------------------------------------------
# Binary PGM (P5) / PPM (P6), maxval 255
# ---------------------------------------------------------------------------

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


def _parse_pnm(data: bytes, magic: bytes):
    """Parse a binary PNM header, returning (width, height, payload offset)."""
    if data[:2] != magic:
        raise ImageFormatError(f"malformed header: expected magic {magic!r}")
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and (data[pos] in _WHITESPACE or data[pos] == ord("#")):
            if data[pos] == ord("#"):
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
            pos += 1
        if pos == start:
            raise ImageFormatError("malformed header: truncated")
        tokens.append(data[start:pos])
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ImageFormatError("malformed header: missing payload separator")
    pos += 1
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError("malformed header: non-numeric field") from exc
    if width <= 0 or height <= 0:
        raise ImageFormatError("malformed header: non-positive dimensions")
    if maxval != 255:
        raise ImageFormatError("unsupported bit depth")
    return width, height, pos


def _load_pnm(path, cls):
    with open(path, "rb") as f:
        data = f.read()
    w, h, off = _parse_pnm(data, cls._magic)
    shape = (h, w) + cls._channels
    size = math.prod(shape)
    payload = data[off : off + size]
    if len(payload) < size:
        raise ImageFormatError("short read")
    return cls(np.frombuffer(payload, np.uint8).reshape(shape).copy())


def load_depth(path) -> DepthImage:
    """Load a binary 8-bit PGM (P5) file as a depth image."""
    return _load_pnm(path, DepthImage)


def load_color(path) -> ColorImage:
    """Load a binary 8-bit PPM (P6) file as a color image."""
    return _load_pnm(path, ColorImage)


def _save_pnm(path, image: _Image) -> None:
    """Write a depth image as binary PGM (P5), a color image as PPM (P6)."""
    with open(path, "wb") as f:
        f.write(image._magic + b"\n%d %d\n255\n" % (image.width, image.height))
        f.write(image.pixels.tobytes())


save_depth = save_color = _save_pnm


# ---------------------------------------------------------------------------
# Synthetic stereo scenes
# ---------------------------------------------------------------------------


@dataclass
class SceneSpec:
    """Descriptor for a synthetic desk-scale stereo scene.

    Foreground shapes are rectangles with per-row jittered vertical sides and
    a constant per-shape disparity value strictly above the background value.
    """

    width: int = 192
    height: int = 144
    shapes: int = 2
    jitter: int = 0
    texture: str = "noise"  # flat | stripes | noise
    bg_value: int = 40
    fg_min: int = 90
    fg_max: int = 140
    value_scale: float = 0.1  # disparity pixels per 8-bit value unit
    margin: int = 18
    min_size: int = 16
    max_size: int = 40

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("zero-size image")
        if not 0 <= self.bg_value < self.fg_min <= self.fg_max <= 255:
            raise ValueError("need 0 <= bg_value < fg_min <= fg_max <= 255")
        if self.shapes < 0 or self.jitter < 0 or self.margin < 0:
            raise ValueError("shapes, jitter and margin must be >= 0")
        if not 0 < self.value_scale < math.inf:
            raise ValueError("value_scale must be finite and > 0")
        if self.min_size > self.max_size:
            raise ValueError("need min_size <= max_size")
        if self.min_size < 2 * self.jitter + 6:
            raise ValueError("need min_size >= 2 * jitter + 6")
        if self.texture not in ("flat", "stripes", "noise"):
            raise ValueError(f"unknown texture style {self.texture!r}")


def parse_key_values(text: str, kind: str, converters: dict) -> dict:
    """Parse ``key = value`` lines ('#' starts a comment) into a dict of
    converted values.  ``converters`` maps each accepted key to the function
    that converts its value text; errors name the ``kind`` of file, the line
    and, for a bad value, the key."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{kind} line {lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in converters:
            raise ValueError(f"{kind} line {lineno}: unknown key {key!r}")
        try:
            values[key] = converters[key](val)
        except ValueError as exc:
            raise ValueError(f"{kind} line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def checked(cls, name: str, convert):
    """Converter of the value text of ``cls``'s field ``name`` that also runs
    ``cls``'s own checks on the value, every other field at its default."""
    return lambda text: getattr(cls(**{name: convert(text)}), name)


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse a key=value scene descriptor (one pair per line, # comments).
    The value orders bg_value < fg_min <= fg_max, min_size <= max_size and
    min_size >= 2 * jitter + 6 are checked on the whole spec."""
    types = {"int": int, "float": float, "str": str}
    order = ("bg_value", "fg_min", "fg_max", "min_size", "max_size")
    converters = {f.name: types[f.type] if f.name in order else checked(SceneSpec, f.name, types[f.type]) for f in dataclasses.fields(SceneSpec)}
    # jitter's own check (>= 0) is margin's; its bound on min_size waits for the whole spec
    converters["jitter"] = checked(SceneSpec, "margin", int)
    values = parse_key_values(text, "scene spec", converters)
    try:
        return SceneSpec(**values)
    except ValueError as exc:
        raise ValueError(f"scene spec: {exc}") from exc


def pixel_shift(value, alpha: float, scale: float):
    """Horizontal warp shift (pixels) of a depth value or an array of them, as
    int64: ``alpha * value * scale`` in float64, rounded half to even."""
    return np.rint(alpha * np.asarray(value, np.float64) * scale).astype(np.int64)


def _box_blur(a: np.ndarray, k: int) -> np.ndarray:
    out = a.astype(float)
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (k // 2, k - k // 2 - 1)
        ap = np.pad(out, pad, mode="edge")
        c = np.cumsum(ap, axis=axis)
        c = np.concatenate([np.zeros_like(np.take(c, [0], axis=axis)), c], axis=axis)
        hi = np.take(c, range(k, c.shape[axis]), axis=axis)
        lo = np.take(c, range(0, c.shape[axis] - k), axis=axis)
        out = (hi - lo) / k
    return out


def _texture(rng: np.random.Generator, h: int, w: int, base, style: str) -> np.ndarray:
    base = np.asarray(base, float).reshape(1, 1, 3)
    if style == "flat":
        tex = np.broadcast_to(base, (h, w, 3)).copy()
    elif style == "stripes":
        phase = rng.integers(0, 7)
        stripes = (((np.arange(w) + phase) // 4) % 2) * 2.0 - 1.0
        tex = np.broadcast_to(base + 36.0 * stripes[None, :, None], (h, w, 3))
    else:  # noise
        raw = rng.integers(-70, 71, size=(h, w, 3)).astype(float)
        tex = base + np.stack([_box_blur(raw[..., i], 3) for i in range(3)], axis=-1)
    return np.clip(np.rint(tex), 0, 255).astype(np.uint8)


@dataclass
class _Shape:
    x0: int
    x1: int  # exclusive
    y0: int
    y1: int  # exclusive
    value: int
    left_jit: np.ndarray  # per-row offsets of the left boundary
    right_jit: np.ndarray
    patch: np.ndarray  # (y1-y0, x1-x0+2*jitter, 3) texture anchored at x0-jitter


@dataclass
class _Scene:
    spec: SceneSpec
    bg_canvas: np.ndarray  # (h, width + bg shift, 3)
    shapes: list


def _place_shapes(rng: np.random.Generator, spec: SceneSpec):
    """Non-overlapping rectangles with at least ``margin`` between them and to
    the border; the whole layout is retried when a greedy placement jams."""
    for _layout in range(300):
        boxes = []
        rects = []
        for _ in range(spec.shapes):
            placed = False
            for _attempt in range(300):
                sw = int(rng.integers(spec.min_size, spec.max_size + 1))
                sh = int(rng.integers(spec.min_size, spec.max_size + 1))
                sw = min(sw, spec.width - 2 * spec.margin)
                sh = min(sh, spec.height - 2 * spec.margin)
                if sw < 2 * spec.jitter + 6 or sh < 2 * spec.jitter + 6:
                    raise ValueError("scene too small for the requested shapes")
                x0 = int(rng.integers(spec.margin, spec.width - spec.margin - sw + 1))
                y0 = int(rng.integers(spec.margin, spec.height - spec.margin - sh + 1))
                if all(b[1] <= x0 or x0 + sw <= b[0] or b[3] <= y0 or y0 + sh <= b[2] for b in boxes):
                    placed = True
                    break
            if not placed:
                break
            boxes.append((x0 - spec.margin, x0 + sw + spec.margin, y0 - spec.margin, y0 + sh + spec.margin))
            rects.append((x0, y0, sw, sh))
        if len(rects) == spec.shapes:
            return rects
    raise ValueError("cannot place shapes with the requested margins")


def _build_scene(seed: int, spec: SceneSpec) -> _Scene:
    rng = np.random.default_rng(seed)
    bg_shift = pixel_shift(spec.bg_value, 1.0, spec.value_scale)
    canvas = _texture(rng, spec.height, spec.width + bg_shift, (88, 96, 104), spec.texture)

    rects = _place_shapes(rng, spec)
    shapes = []
    for x0, y0, sw, sh in rects:
        value = int(rng.integers(spec.fg_min, spec.fg_max + 1))
        jit = spec.jitter
        left_jit = rng.integers(-jit, jit + 1, size=sh) if jit else np.zeros(sh, int)
        right_jit = rng.integers(-jit, jit + 1, size=sh) if jit else np.zeros(sh, int)
        base = rng.integers(40, 216, size=3)
        patch = _texture(rng, sh, sw + 2 * jit, base, spec.texture)
        shapes.append(_Shape(x0, x0 + sw, y0, y0 + sh, value, left_jit, right_jit, patch))

    # nearer shapes drawn last so they win occlusions, same as a z-buffer
    shapes.sort(key=lambda s: (s.value, s.x0, s.y0))
    return _Scene(spec, canvas, shapes)


def _render(scene: _Scene, alpha: float):
    spec = scene.spec
    h, w = spec.height, spec.width
    depth = np.full((h, w), spec.bg_value, np.uint8)
    sbg = pixel_shift(spec.bg_value, alpha, spec.value_scale)
    color = scene.bg_canvas[:, sbg : sbg + w].copy()
    for s in scene.shapes:
        shift = pixel_shift(s.value, alpha, spec.value_scale)
        jit = spec.jitter
        for i, r in enumerate(range(s.y0, s.y1)):
            cl = s.x0 + int(s.left_jit[i]) - shift
            cr = s.x1 + int(s.right_jit[i]) - shift
            cl = max(cl, 0)
            cr = min(cr, w)
            if cl >= cr:
                continue
            depth[r, cl:cr] = s.value
            tex_off = cl - (s.x0 - jit - shift)
            color[r, cl:cr] = s.patch[i, tex_off : tex_off + (cr - cl)]
    return DepthImage(depth), ColorImage(color)


def render_scene_view(seed: int, spec: SceneSpec, alpha: float):
    """Ground-truth rendering of the scene at viewpoint ``alpha`` in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _render(_build_scene(seed, spec), alpha)


def make_synthetic_scene(seed: int, spec: SceneSpec):
    """Deterministic synthetic stereo pair: views at alpha=0 (left) and 1 (right)."""
    scene = _build_scene(seed, spec)
    return _render(scene, 0.0), _render(scene, 1.0)
