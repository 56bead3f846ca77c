import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import canonical, random_contour
from contourcodec.contour import (
    ABSOLUTE,
    OPPOSITE,
    Contour,
    Segment,
    crack,
    cracks,
    detect_contours,
    edge_maps,
    format_contours,
    join_segments,
    parse_contours,
    segment_endpoint,
    segment_vertical_columns,
    split_segments,
    step,
    to_relative,
    trace_edge_maps,
    turn,
)
from contourcodec.image_io import DepthImage, SceneSpec, make_synthetic_scene


def contour_edge_maps(contours, height: int, width: int):
    """Rasterize contours back into crack-edge maps (inverse of tracing)."""
    vert = np.zeros((height, width + 1), bool)
    horiz = np.zeros((height + 1, width), bool)
    for c in contours:
        for vertical, row, col in cracks(c.start, c.absolute_dirs()):
            (vert if vertical else horiz)[row, col] = True
    return vert, horiz


# ---------------------------------------------------------------------------
# Reference tracer: walks the 2-D maps one corner at a time and consumes each
# crack through ``crack``.  trace_edge_maps must return exactly what it returns.
# ---------------------------------------------------------------------------


def _available(vert, horiz, p, q):
    h, w1 = vert.shape
    dirs = []
    if q < w1 - 1 and horiz[p, q]:
        dirs.append("E")
    if p < h and vert[p, q]:
        dirs.append("S")
    if q > 0 and horiz[p, q - 1]:
        dirs.append("W")
    if p > 0 and vert[p - 1, q]:
        dirs.append("N")
    return dirs


def _consume(vert, horiz, p, q, d):
    vertical, row, col = crack((p, q), d)
    (vert if vertical else horiz)[row, col] = False


def _trace_from(vert, horiz, p, q) -> Contour:
    start = (p, q)
    d = _available(vert, horiz, p, q)[0]
    _consume(vert, horiz, p, q, d)
    p, q = step((p, q), d)
    dirs = [d]
    while True:
        # straight, then right, then left; never reverse
        options = _available(vert, horiz, p, q)
        d = next((c for c in (dirs[-1], turn(dirs[-1], "r"), turn(dirs[-1], "l")) if c in options), None)
        if d is None:
            break
        _consume(vert, horiz, p, q, d)
        p, q = step((p, q), d)
        dirs.append(d)
    return canonical(to_relative(start, dirs))


def _corner_degrees(vert, horiz) -> np.ndarray:
    h, w1 = vert.shape
    deg = np.zeros((h + 1, w1), np.int8)
    deg[:h, :] += vert
    deg[1:, :] += vert
    deg[:, : w1 - 1] += horiz
    deg[:, 1:] += horiz
    return deg


def reference_trace(vert, horiz):
    vert = vert.copy()
    horiz = horiz.copy()
    contours = []
    while True:
        ends = np.argwhere(_corner_degrees(vert, horiz) == 1)
        if len(ends) == 0:
            break
        for p, q in ends:
            if len(_available(vert, horiz, p, q)) == 1:
                contours.append(_trace_from(vert, horiz, int(p), int(q)))
    while True:
        seeds = np.argwhere(_corner_degrees(vert, horiz) > 0)
        if len(seeds) == 0:
            break
        for p, q in seeds:
            if _available(vert, horiz, p, q):
                contours.append(_trace_from(vert, horiz, int(p), int(q)))
    return contours


@given(st.integers(1, 12), st.integers(1, 12), st.floats(0, 1), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0.0, 0)  # no crack at all
@example(5, 7, 1.0, 0)  # every crack, border ones too: a degree-4 junction at each inner corner
@example(1, 12, 0.9, 3)
@example(12, 1, 0.9, 3)
@settings(max_examples=400)
def test_trace_matches_reference_tracer(h, w, density, seed):
    # random maps set border cracks and make junctions of degree 3 and 4,
    # which no detected test scene has, so only this test pins their tie rules
    rng = np.random.default_rng(seed)
    vert = rng.random((h, w + 1)) < density
    horiz = rng.random((h + 1, w)) < density
    before = vert.copy(), horiz.copy()
    assert trace_edge_maps(vert, horiz) == reference_trace(vert, horiz)
    assert np.array_equal(vert, before[0]) and np.array_equal(horiz, before[1])


def test_large_scene_contours_are_pinned():
    spec = SceneSpec(width=1280, height=960, shapes=40, jitter=4, texture="noise", min_size=40, max_size=100)
    digests = (
        "2c3ac03f8c703f98ae3955bb9265b45dcf91324b51a1ed2694174f0e659dc0a8",
        "430dfe84a6507e31c0a6dd570798cd5e50dbc59ede41a7d09efdaee4cdd8fdd8",
    )
    for (depth, _), digest in zip(make_synthetic_scene(8, spec), digests):
        contours = detect_contours(depth, 30)
        assert len(contours) == 40 and sum(map(len, contours)) == 25_030
        assert hashlib.sha256(format_contours(contours).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "vert_shape, horiz_shape",
    [((3, 5), (4, 5)), ((3, 5), (3, 4)), ((3, 5), (4, 4, 1)), ((5,), (2, 4)), ((2, 0), (3, 0))],
)
def test_trace_rejects_edge_maps_of_mismatched_shapes(vert_shape, horiz_shape):
    message = re.escape(f"{vert_shape} and {horiz_shape}")
    with pytest.raises(ValueError, match=message):
        trace_edge_maps(np.zeros(vert_shape, bool), np.zeros(horiz_shape, bool))


@pytest.mark.parametrize("shape", [(4, 4, 3), (4,), ()])
def test_edge_maps_rejects_depth_that_is_not_2d(shape):
    with pytest.raises(ValueError, match="2-D"):
        edge_maps(np.zeros(shape, np.uint8), 30)


@pytest.mark.parametrize("pixels", [[[0, 2 ** 32]], [[-5, 0]]])
def test_edge_maps_rejects_samples_outside_8_bits(pixels):
    # 2**32 would wrap to 0 in a 32-bit cast and hide the step
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        edge_maps(np.array(pixels, np.int64), 1)


def test_invalid_symbols_rejected():
    with pytest.raises(ValueError, match="invalid relative symbol"):
        Contour((0, 0), "E", "slx")
    with pytest.raises(ValueError, match="invalid absolute direction"):
        Contour((0, 0), "X", "s")


def test_flat_image_has_no_contours():
    assert detect_contours(DepthImage(np.full((4, 4), 9, np.uint8)), 50) == []


def test_vertical_boundary_single_chain():
    img = np.full((4, 4), 200, np.uint8)
    img[:, 2:] = 50
    contours = detect_contours(DepthImage(img), 50)
    assert contours == [Contour((0, 2), "S", "sss")]


def test_single_pixel_closed_square():
    img = np.full((5, 5), 50, np.uint8)
    img[2, 2] = 200
    contours = detect_contours(DepthImage(img), 50)
    assert len(contours) == 1
    c = contours[0]
    assert len(c) == 4 and c.is_closed
    assert c.start == (2, 2)  # topmost-then-leftmost cut
    assert c == Contour((2, 2), "E", "rrr")


def test_threshold_is_inclusive():
    img = np.full((2, 2), 100, np.uint8)
    img[:, 1] = 150
    assert detect_contours(DepthImage(img), 50)
    assert not detect_contours(DepthImage(img), 51)


def test_to_relative_examples():
    c = to_relative((0, 0), ["E", "E", "S"])
    assert (c.first, c.rest) == ("E", "sr")
    c = to_relative((0, 0), ["S", "W"])
    assert (c.first, c.rest) == ("S", "r")


def test_doubling_back_rejected():
    # the reversal as the first, a middle and the last pair
    for dirs in ("EWWS", "ESNE", "SSEW"):
        with pytest.raises(ValueError, match="doubling back"):
            to_relative((0, 0), dirs)


@pytest.mark.parametrize("prev, nxt", [(a, b) for a in ABSOLUTE for b in ABSOLUTE if b != OPPOSITE[a]])
def test_turn_inverts_to_relative(prev, nxt):
    rel = to_relative((0, 0), [prev, nxt]).rest
    assert turn(prev, rel) == nxt


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 120))
@settings(max_examples=60)
def test_relative_absolute_roundtrip(seed, length):
    c = random_contour(np.random.default_rng(seed), length)
    assert to_relative(c.start, c.absolute_dirs()) == c


def test_split_keeps_corner_edge_in_earlier_segment():
    c = to_relative((0, 0), ["E", "S", "W"])
    segs = split_segments(c)
    assert [s.dirs for s in segs] == ["ES", "W"]
    assert segs[0].dirpair == ("S", "E")


def test_split_two_direction_contour_is_one_segment():
    segs = split_segments(to_relative((0, 0), ["E", "E", "S", "S"]))
    assert len(segs) == 1
    assert segs[0].length == 4 and segs[0].vertical_count == 2
    assert segs[0].dirpair == ("S", "E")


def reference_split(contour: Contour) -> list:
    """The split as a state machine: track the one vertical and the one
    horizontal direction of the open segment, and close it at the first step
    whose axis already holds the other direction."""
    dirs = contour.absolute_dirs()
    pts = contour.points()
    segments = []
    seg_start = 0
    vert = horiz = None
    for i, d in enumerate(dirs):
        axis_vertical = d in "SN"
        current = vert if axis_vertical else horiz
        if current is not None and current != d:
            segments.append(Segment(pts[seg_start], (vert or "S", horiz or "E"), "".join(dirs[seg_start:i])))
            seg_start = i
            vert = horiz = None
        if axis_vertical:
            vert = d
        else:
            horiz = d
    segments.append(Segment(pts[seg_start], (vert or "S", horiz or "E"), "".join(dirs[seg_start:])))
    return segments


@st.composite
def straight_run_chains(draw):
    """Chains of 1..150 steps from any start direction, built from straight
    runs, so that one-axis segments of every direction occur."""
    length = draw(st.integers(1, 150))
    dirs = [draw(st.sampled_from(ABSOLUTE))]
    while len(dirs) < length:
        d = draw(st.sampled_from([d for d in ABSOLUTE if d != OPPOSITE[dirs[-1]]]))
        dirs += d * draw(st.integers(1, 12))
    return to_relative((40, 40), dirs[:length])


@given(straight_run_chains())
@settings(max_examples=300)
@example(to_relative((0, 0), "S"))
@example(to_relative((0, 0), "NNNEESSS"))
@example(to_relative((0, 0), "EEEESSWWW"))
@example(to_relative((0, 0), "WWNNNEEE"))
@example(to_relative((0, 0), "SSWNNN"))
def test_split_equals_reference_state_machine(contour):
    assert split_segments(contour) == reference_split(contour)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 150))
@settings(max_examples=60)
def test_split_concat_identity(seed, length):
    c = random_contour(np.random.default_rng(seed), length)
    segs = split_segments(c)
    assert join_segments(segs) == c
    for s in segs:
        assert all(d in s.dirpair for d in s.dirs)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 150))
@settings(max_examples=60)
def test_split_segments_are_maximal(seed, length):
    # every boundary must be a genuine violation: the next segment's first
    # direction cannot coexist with the directions already used before it
    c = random_contour(np.random.default_rng(seed), length)
    segs = split_segments(c)
    for a, b in zip(segs, segs[1:]):
        first = b.dirs[0]
        used = {d for d in a.dirs if d in "SN"} if first in "SN" else {d for d in a.dirs if d in "EW"}
        assert used and first not in used


def test_segment_endpoint_formula_paper_case():
    seg = Segment((1, 4), ("S", "W"), "SWSWSS")
    assert seg.length == 6 and seg.vertical_count == 4
    assert segment_endpoint(seg) == (5, 2)


def test_segment_endpoint_degenerate_axes():
    assert segment_endpoint(Segment((3, 5), ("N", "E"), "NNNN")) == (-1, 5)
    assert segment_endpoint(Segment((3, 5), ("S", "W"), "WWW")) == (3, 2)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 120))
@settings(max_examples=60)
def test_segment_endpoint_matches_walk(seed, length):
    c = random_contour(np.random.default_rng(seed), length)
    for seg in split_segments(c):
        p, q = seg.start
        for d in seg.dirs:
            if d == "S":
                p += 1
            elif d == "N":
                p -= 1
            elif d == "E":
                q += 1
            else:
                q -= 1
        assert segment_endpoint(seg) == (p, q)


def test_segment_vertical_columns():
    cols = segment_vertical_columns(Segment((1, 4), ("S", "W"), "SWSWSS"))
    assert cols == {1: 4, 2: 3, 3: 2, 4: 2}


@given(st.integers(-40, 40), st.integers(-40, 40), st.sampled_from(ABSOLUTE))
def test_crack_is_the_same_walked_backwards(p, q, d):
    assert crack((p, q), d) == crack(step((p, q), d), OPPOSITE[d])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 80))
@settings(max_examples=60)
def test_cracks_of_a_chain_index_into_edge_maps(seed, length):
    # shift a random chain so that its bounding box is the whole h x w lattice
    c = random_contour(np.random.default_rng(seed), length)
    pts = c.points()
    p0 = min(p for p, _ in pts)
    q0 = min(q for _, q in pts)
    h = max(p for p, _ in pts) - p0
    w = max(q for _, q in pts) - q0
    vert, horiz = edge_maps(np.zeros((h, w), np.uint8), 30)
    found = list(cracks((c.start[0] - p0, c.start[1] - q0), c.absolute_dirs()))
    assert len(found) == len(c)
    for vertical, row, col in found:
        rows, cols = (vert if vertical else horiz).shape
        assert 0 <= row < rows and 0 <= col < cols


def test_detection_idempotent_on_rasterized_edges(rng):
    for _ in range(8):
        img = DepthImage(rng.integers(0, 256, size=(14, 17), dtype=np.uint8))
        contours = detect_contours(img, 96)
        vert, horiz = contour_edge_maps(contours, img.height, img.width)
        assert trace_edge_maps(vert, horiz) == contours
        # and the rasterization covers exactly the thresholded cracks
        v0, h0 = edge_maps(img, 96)
        assert np.array_equal(vert, v0) and np.array_equal(horiz, h0)


def test_dump_roundtrip(rng):
    contours = [random_contour(rng, int(n)) for n in rng.integers(1, 60, size=10)]
    text = format_contours(contours)
    assert parse_contours(text) == contours
    assert parse_contours("# comment\n" + text) == contours
    with pytest.raises(ValueError, match="bad contour dump"):
        parse_contours("start=oops\n")


def test_no_edge_traversed_twice(rng):
    for _ in range(6):
        img = DepthImage(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        contours = detect_contours(img, 80)
        seen = set()
        for c in contours:
            p, q = c.start
            for d in c.absolute_dirs():
                if d == "S":
                    edge = ("v", p, q)
                elif d == "N":
                    edge = ("v", p - 1, q)
                elif d == "E":
                    edge = ("h", p, q)
                else:
                    edge = ("h", p, q - 1)
                assert edge not in seen
                seen.add(edge)
                dp, dq = {"E": (0, 1), "S": (1, 0), "W": (0, -1), "N": (-1, 0)}[d]
                p, q = p + dp, q + dq
