import dataclasses
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import settings

from contourcodec.aec import _read_stream
from contourcodec.contour import ABSOLUTE, OPPOSITE, Contour, cracks, to_relative
from contourcodec.image_io import ColorImage, SceneSpec

# one profile for every property test: example timings on a small shared
# machine vary too much for hypothesis' per-example deadline
settings.register_profile("contourcodec", deadline=None)
settings.load_profile("contourcodec")


def random_contour(rng: np.random.Generator, length: int, start=(200, 200)) -> Contour:
    """Valid random chain (no 180-degree turns), free to wander off any image."""
    first = ABSOLUTE[rng.integers(0, 4)]
    dirs = [first]
    for _ in range(length - 1):
        options = [d for d in ABSOLUTE if d != OPPOSITE[dirs[-1]]]
        dirs.append(options[rng.integers(0, len(options))])
    return to_relative(start, dirs)


def canonical(contour: Contour) -> Contour:
    """A closed contour rotated to start at its topmost-then-leftmost corner;
    an open one unchanged."""
    if not contour.is_closed:
        return contour
    pts = contour.points()[:-1]
    dirs = contour.absolute_dirs()
    i = min(range(len(pts)), key=lambda j: pts[j])
    return to_relative(pts[i], dirs[i:] + dirs[:i])


def textured_color(rng: np.random.Generator, height: int, width: int) -> ColorImage:
    """Smooth random texture with enough horizontal detail for the proxy."""
    raw = rng.integers(0, 256, size=(height, width, 3)).astype(float)
    smooth = (raw + np.roll(raw, 1, axis=1) + np.roll(raw, 1, axis=0)) / 3.0
    return ColorImage(np.clip(smooth, 0, 255).astype(np.uint8))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def contour_from_boundary_columns(bcols, start_row: int = 0) -> Contour:
    """Open top-to-bottom contour crossing row r at column bcols[r]."""
    dirs = []
    for r, b in enumerate(bcols):
        if r > 0 and b != bcols[r - 1]:
            d = "W" if b < bcols[r - 1] else "E"
            dirs.extend([d] * abs(b - bcols[r - 1]))
        dirs.append("S")
    return to_relative((start_row, bcols[0]), dirs)


def contour_row_shifts(original: Contour, approximated: Contour):
    """Per-row (original column, new column) pairs of vertical edges, matched
    by the order rows are crossed along the two contours.

    Both contours share endpoints, so they cross the same multiset of rows;
    pairing in traversal order matches each vertical edge with its shifted
    counterpart.
    """

    def crossings(c: Contour):
        return [(row, q) for vertical, row, q in cracks(c.start, c.absolute_dirs()) if vertical]

    by_row = defaultdict(deque)
    for row, q in crossings(original):
        by_row[row].append(q)
    return [(row, by_row[row].popleft() if by_row[row] else q, q) for row, q in crossings(approximated)]


def window_entry(model, window: tuple) -> tuple:
    """The entry of a context-model window given by its tuple."""
    i = model.id(window)
    return model.entries[i] or model.fill(i)


def payload_bits(data: bytes) -> int:
    """Length in bits of the arithmetic payload of an encoded stream."""
    return 8 * len(_read_stream(data)[1])


def format_scene_spec(spec: SceneSpec) -> str:
    return "".join(f"{f.name}={getattr(spec, f.name)}\n" for f in dataclasses.fields(SceneSpec))
