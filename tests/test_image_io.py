import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import format_scene_spec
from contourcodec import image_io
from contourcodec.contour import detect_contours
from contourcodec.image_io import (
    ColorImage,
    DepthImage,
    ImageFormatError,
    SceneSpec,
    _parse_pnm,
    load_color,
    load_depth,
    make_synthetic_scene,
    parse_scene_spec,
    pixel_shift,
    render_scene_view,
    save_color,
    save_depth,
)


def test_load_depth_identity(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = load_depth(path)
    assert (img.width, img.height) == (2, 2)
    assert img.pixels.tolist() == [[0, 255], [128, 64]]


def test_load_depth_header_comments(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5 # comment\n# another\n 2\n2 255\n" + bytes(4))
    assert load_depth(path).width == 2


def test_load_depth_rejects_16_bit(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ImageFormatError, match="unsupported bit depth"):
        load_depth(path)


def test_load_depth_short_read(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(ImageFormatError, match="short read"):
        load_depth(path)


def test_load_depth_bad_magic(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ImageFormatError, match="malformed header"):
        load_depth(path)


@pytest.mark.parametrize("header", [b"P5\n1_0 +1\n2_55\n", b"P5\n10 1\n+255\n", b"P5\n10 0x1\n255\n", b"P5\n-10 1\n255\n"])
def test_load_depth_rejects_fields_that_are_not_decimal_digits(tmp_path, header):
    # Python's int reads 1_0, +1 and 2_55 as 10, 1 and 255
    path = tmp_path / "t.pgm"
    path.write_bytes(header + bytes(10))
    with pytest.raises(ImageFormatError, match="malformed header: non-numeric field"):
        load_depth(path)


@pytest.mark.parametrize("data, error", [(b"P5 4", "truncated"), (b"P5\n0 4\n255\n", "non-positive dimensions")])
def test_load_depth_rejects_a_truncated_header_or_a_zero_dimension(tmp_path, data, error):
    path = tmp_path / "t.pgm"
    path.write_bytes(data)
    with pytest.raises(ImageFormatError, match=f"malformed header: {error}"):
        load_depth(path)


def test_load_depth_reads_leading_zeros_as_decimal(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n010 01\n0255\n" + bytes(range(10)))
    assert load_depth(path).pixels.tolist() == [list(range(10))]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_depth(tmp_path / "absent.pgm")


def test_depth_save_load_roundtrip(tmp_path, rng):
    img = DepthImage(rng.integers(0, 256, size=(13, 7), dtype=np.uint8))
    save_depth(tmp_path / "r.pgm", img)
    assert load_depth(tmp_path / "r.pgm") == img


def test_color_save_load_roundtrip(tmp_path, rng):
    img = ColorImage(rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8))
    save_color(tmp_path / "r.ppm", img)
    assert load_color(tmp_path / "r.ppm") == img


# the binary PNM header: magic, then width, height and maxval, each token
# after any run of whitespace and '#' comments, then one whitespace byte
_SEP = rb"(?:\s|#[^\n]*(?![^\n])\n?)*"
_TOKEN = rb"([^\s#]+)(?![^\s#])"
_PNM_HEADER = re.compile(rb"(P[56])" + (_SEP + _TOKEN) * 3 + rb"\s")


def expected_pnm(data: bytes, cls):
    """The image a valid file holds, or None where the loader must raise
    ImageFormatError."""
    m = _PNM_HEADER.match(data)
    if m is None or m[1] != cls._magic:
        return None
    if not all(t.isdigit() for t in m.groups()[1:]):  # ASCII decimal digits only
        return None
    width, height, maxval = (int(t) for t in m.groups()[1:])
    shape = (height, width) + cls._channels
    if width <= 0 or height <= 0 or maxval != 255 or len(data) - m.end() < math.prod(shape):
        return None
    return cls(np.frombuffer(data, np.uint8, math.prod(shape), m.end()).reshape(shape))


_PNM_BYTE = st.one_of(st.sampled_from(list(b" \t\n#+-_0123456789P56")), st.integers(0, 255))


@given(
    color=st.booleans(),
    size=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    edits=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "overwrite"]), st.integers(0, 2 ** 16), _PNM_BYTE),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=300)
def test_corrupt_pnm_loads_its_header_image_or_fails(tmp_path_factory, color, size, edits):
    """Inserting, deleting or overwriting bytes of a valid P5/P6 file gives
    either the image its header describes or ImageFormatError."""
    cls, save, load = (ColorImage, save_color, load_color) if color else (DepthImage, save_depth, load_depth)
    path = tmp_path_factory.getbasetemp() / ("fuzz.ppm" if color else "fuzz.pgm")
    save(path, cls(np.random.default_rng(size).integers(0, 256, size + cls._channels, dtype=np.uint8)))
    data = bytearray(path.read_bytes())
    for op, pos, value in edits:
        pos %= len(data) + (op == "insert")
        if op == "insert":
            data.insert(pos, value)
        elif op == "delete":
            del data[pos]
        else:
            data[pos] = value
    path.write_bytes(data)
    want = expected_pnm(bytes(data), cls)
    if want is None:
        with pytest.raises(ImageFormatError):
            load(path)
    else:
        assert load(path) == want


_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


def reference_parse_pnm(data: bytes, magic: bytes):
    """The former header parser, a scanning loop per token, kept as the
    reference for the one token pattern."""
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
    if not all(t.isdigit() for t in tokens):  # ASCII decimal digits only, as Netpbm allows
        raise ImageFormatError("malformed header: non-numeric field")
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0:
        raise ImageFormatError("malformed header: non-positive dimensions")
    if maxval != 255:
        raise ImageFormatError("unsupported bit depth")
    return width, height, pos


def _parse_outcome(parse, data, magic):
    try:
        return parse(data, magic)
    except ImageFormatError as err:
        return str(err)


_SEPARATOR = st.one_of(
    st.sampled_from(list(map(bytes, zip(b" \t\n\r\x0b\x0c")))),
    st.builds(lambda text, end: b"#" + text + end, st.binary(max_size=8), st.sampled_from([b"\n", b"\n", b"\n", b""])),
)
_DIGITS = st.integers(0, 300).map(b"%d".__mod__)
_FIELD = st.one_of(st.just(b"255"), _DIGITS, _DIGITS, st.sampled_from([b"0255", b"+1", b"-1"]), st.binary(min_size=1, max_size=3))


@st.composite
def pnm_headers(draw):
    """A magic, mostly the expected one, then up to four fields and a tail,
    each after a run of whitespace and '#' comments with or without a
    newline; a field is mostly decimal digits, else junk."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    data = draw(st.sampled_from([magic] * 4 + [b"P5", b"P6", b"P", b""]))
    fields = [draw(_FIELD) for _ in range(draw(st.sampled_from([3, 3, 3, 3, 0, 1, 2, 4])))]
    for field in fields + [draw(st.binary(max_size=3))]:
        data += b"".join(draw(st.lists(_SEPARATOR, min_size=draw(st.sampled_from([1, 1, 1, 0])), max_size=3))) + field
    return data, magic


@given(pnm_headers())
@settings(max_examples=500)
def test_header_tokens_parse_like_the_scanning_loops(header):
    """Whitespace, '#' comments with and without a newline, digits and junk
    after the magic give the former parser's fields or its error message."""
    data, magic = header
    assert _parse_outcome(_parse_pnm, data, magic) == _parse_outcome(reference_parse_pnm, data, magic)


def test_sample_range_validation():
    with pytest.raises(ValueError):
        DepthImage(np.array([[300, 0]]))
    with pytest.raises(ValueError):
        ColorImage(np.zeros((2, 2), int))


def test_scene_determinism():
    spec = SceneSpec(width=96, height=80, shapes=2, jitter=1)
    a = make_synthetic_scene(7, spec)
    b = make_synthetic_scene(7, spec)
    for (xa, xb) in zip(a[0] + a[1], b[0] + b[1]):
        assert xa == xb


def test_scene_zero_jitter_gives_axis_aligned_rectangles():
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=0, texture="flat")
    (depth, _), _ = make_synthetic_scene(1, spec)
    contours = detect_contours(depth, 30)
    assert len(contours) == 1
    c = contours[0]
    assert c.is_closed
    # a clockwise rectangle cut at its top-left corner turns right exactly
    # three times inside the chain
    assert set(c.rest) <= {"s", "r"} and c.rest.count("r") == 3


def test_scene_jitter_lengthens_contours():
    base = dict(width=96, height=80, shapes=1, texture="flat")
    (d0, _), _ = make_synthetic_scene(5, SceneSpec(jitter=0, **base))
    (d2, _), _ = make_synthetic_scene(5, SceneSpec(jitter=2, **base))
    len0 = sum(len(c) for c in detect_contours(d0, 30))
    len2 = sum(len(c) for c in detect_contours(d2, 30))
    assert len2 > len0


def test_scene_zero_size_rejected():
    with pytest.raises(ValueError, match="zero-size"):
        SceneSpec(width=0, height=10)


@pytest.mark.parametrize("sizes", [dict(min_size=0), dict(min_size=-5), dict(min_size=8, jitter=2), dict(min_size=17, max_size=20, jitter=6)])
def test_scene_shapes_too_small_for_their_jitter_rejected_for_every_seed(sizes):
    # a shape side below 2 * jitter + 6 cannot be drawn: the spec is refused
    # for every seed, not only for the seeds that happen to draw one
    for seed in range(8):
        with pytest.raises(ValueError, match=r"^need min_size >= 2 \* jitter \+ 6$"):
            make_synthetic_scene(seed, SceneSpec(**sizes))


def test_scene_margin_leaving_no_room_for_a_shape_rejected():
    # 30 - 2 * 13 = 4 pixels are left a side, below the 2 * jitter + 6 = 6
    # that a shape side needs at the default jitter 0
    with pytest.raises(ValueError, match="scene too small for the requested shapes"):
        make_synthetic_scene(0, SceneSpec(width=30, height=30, margin=13))


@pytest.mark.parametrize("sizes", [dict(min_size=6), dict(min_size=6, max_size=6), dict(min_size=10, jitter=2), dict(min_size=18, jitter=6)])
def test_scene_shapes_at_the_jitter_bound_build_for_every_seed(sizes):
    for seed in range(8):
        (depth, _), _ = make_synthetic_scene(seed, SceneSpec(width=96, height=80, **sizes))
        assert detect_contours(depth, 30)


@pytest.mark.parametrize("texture", ["flat", "stripes", "noise"])
def test_every_texture_style_renders(texture):
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=1, texture=texture)
    (depth, color), (rdepth, rcolor) = make_synthetic_scene(2, spec)
    assert color.pixels.shape == (80, 96, 3)
    assert rcolor.pixels.shape == (80, 96, 3)
    assert detect_contours(depth, 30)


def float_box_blur(a: np.ndarray, k: int) -> np.ndarray:
    """The k x k box blur by float cumulative sums along each axis, edges
    repeated, that the noise texture was first made with."""
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


@given(seed=st.integers(0, 2 ** 32 - 1), h=st.integers(1, 40), w=st.integers(1, 700), base=st.lists(st.integers(0, 255), min_size=3, max_size=3))
@example(seed=0, h=1, w=1, base=[88, 96, 104])
@example(seed=1, h=1, w=700, base=[0, 128, 255])
@example(seed=2, h=40, w=1, base=[40, 215, 100])
@settings(max_examples=60, deadline=None)
def test_noise_texture_matches_the_float_cumsum_blur(seed, h, w, base):
    raw = np.random.default_rng(seed).integers(-70, 71, size=(h, w, 3)).astype(float)
    blurred = np.stack([float_box_blur(raw[..., i], 3) for i in range(3)], axis=-1)
    expected = np.clip(np.rint(np.reshape(base, (1, 1, 3)) + blurred), 0, 255).astype(np.uint8)
    got = image_io._texture(np.random.default_rng(seed), h, w, base, "noise")
    assert got.dtype == np.uint8 and np.array_equal(got, expected)


def test_pixel_shift_rounds_half_to_even_on_arrays_and_scalars():
    values = [1, 3, 5, 7]
    shifts = pixel_shift(np.array(values, np.uint8), 1.0, 0.5)
    assert shifts.dtype == np.int64 and shifts.tolist() == [0, 2, 2, 4]
    assert [pixel_shift(v, 1.0, 0.5) for v in values] == [0, 2, 2, 4]


def test_warp_correspondence_invariant():
    """Left disparity warped to the right view lands on equal disparity."""
    spec = SceneSpec(width=112, height=96, shapes=2, jitter=1)
    (ld, _), (rd, _) = make_synthetic_scene(11, spec)
    h, w = ld.pixels.shape
    checked = 0
    mismatches = 0
    warped_to = {}
    for r in range(h):
        for c in range(w):
            v = int(ld.pixels[r, c])
            tc = c - pixel_shift(v, 1.0, spec.value_scale)
            if 0 <= tc < w:
                key = (r, tc)
                # z-buffer: the larger disparity wins the collision
                if key not in warped_to or v >= warped_to[key]:
                    warped_to[key] = v
    for (r, c), v in warped_to.items():
        checked += 1
        if int(rd.pixels[r, c]) != v:
            mismatches += 1
    assert checked > 0
    assert mismatches == 0


def test_scene_spec_text_roundtrip():
    spec = SceneSpec(width=64, height=48, shapes=1, jitter=2, texture="stripes", value_scale=0.05)
    assert parse_scene_spec(format_scene_spec(spec)) == spec
    with pytest.raises(ValueError, match="unknown key"):
        parse_scene_spec("bogus=1\n")


def test_render_view_alpha_zero_is_left():
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=1)
    left, _ = make_synthetic_scene(3, spec)
    depth, color = render_scene_view(3, spec, 0.0)
    assert depth == left[0] and color == left[1]
