import logging.handlers
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contour_from_boundary_columns, contour_row_shifts, textured_color
from contourcodec import augment
from contourcodec.aec import AecParams, estimate_rate
from contourcodec.approx import ApproxConfig, approximate_contour
from contourcodec.augment import (
    _fill_holes_row,
    _warp,
    approximate_stereo,
    augment_color,
    augment_depth,
    logger,
    side_parity,
    synthesize_view,
)
from contourcodec.cli import psnr
from contourcodec.config import PipelineConfig
from contourcodec.contour import DIR_VECTOR, OPPOSITE, cracks, detect_contours, to_relative
from contourcodec.image_io import ColorImage, DepthImage, SceneSpec, make_synthetic_scene, pixel_shift, render_scene_view
from contourcodec.swim import SwimConfig


def warp_depth(depth: DepthImage, alpha: float, direction: int, scale: float = 1.0):
    """Forward-warp the depth map itself. Returns (DepthImage, hole mask)."""
    out_d, _, valid = _warp(depth, ColorImage(np.zeros(depth.pixels.shape + (3,), np.uint8)), alpha, direction, scale)
    return DepthImage(out_d), ~valid


def warp_view(depth: DepthImage, color: ColorImage, alpha: float, direction: int, scale: float = 1.0):
    """Forward-warp a color image by its depth. Returns (ColorImage, hole mask)."""
    _, out_c, valid = _warp(depth, color, alpha, direction, scale)
    return ColorImage(out_c), ~valid


def fig_case():
    """Open contour whose row-2 vertical edge shifts from column 3 to 2,
    flipping the pixel with top-left corner (2, 2) to the background."""
    orig_cols = [4, 4, 3, 2, 2, 2, 2, 2]
    appr_cols = [4, 4, 2, 2, 2, 2, 2, 2]
    orig = contour_from_boundary_columns(orig_cols)
    appr = contour_from_boundary_columns(appr_cols)
    depth = np.zeros((8, 8), np.uint8)
    for r, b in enumerate(orig_cols):
        depth[r, :b] = 200
        depth[r, b:] = 50
    return DepthImage(depth), orig, appr


class TestAugmentDepth:
    def test_identity_when_unchanged(self):
        depth, orig, _ = fig_case()
        out, flips, _ = augment_depth(depth, orig, orig)
        assert out == depth and not flips.any()

    def test_corner_pixel_flips_to_background(self):
        depth, orig, appr = fig_case()
        out, flips, _ = augment_depth(depth, orig, appr)
        assert np.argwhere(flips).tolist() == [[2, 2]]
        assert out.pixels[2, 2] == 50

    def test_redetection_yields_approximated_contour(self):
        depth, orig, appr = fig_case()
        out, _, _ = augment_depth(depth, orig, appr)
        assert detect_contours(out, 50) == [appr]

    def test_only_side_flips_change(self):
        depth, orig, appr = fig_case()
        out, _, _ = augment_depth(depth, orig, appr)
        flips = side_parity(orig, 8, 8) != side_parity(appr, 8, 8)
        changed = out.pixels != depth.pixels
        assert np.all(changed <= flips)
        assert np.array_equal(out.pixels[~flips], depth.pixels[~flips])

    def test_endpoint_mismatch_rejected(self):
        depth, orig, _ = fig_case()
        other = contour_from_boundary_columns([5, 5, 5, 5, 5, 5, 5, 5])
        with pytest.raises(ValueError, match="endpoint mismatch"):
            augment_depth(depth, orig, other)

    def test_contour_outside_the_image_rejected(self):
        # the contour runs along rows -2..0, above a 4x5 image: wrapped onto
        # rows 2-3, it would rewrite pixel (3, 1) from 160 to 150
        outside, inside = to_relative((0, 2), "NNWSS"), to_relative((0, 2), "W")
        depth = DepthImage(np.tile(np.array([150, 160, 160, 160, 160], np.uint8), (4, 1)))
        with pytest.raises(ValueError, match="contour leaves the image lattice"):
            side_parity(outside, 4, 5)
        with pytest.raises(ValueError, match="contour leaves the image lattice"):
            augment_depth(depth, outside, inside)

    def test_flipped_pixel_without_donor_keeps_its_value(self, caplog):
        # the loop around pixel (0, 0) grows to the whole 2x2 image: (0, 1)
        # copies its row, (1, 0) its column, and (1, 1) finds only flipped
        # pixels in both
        depth = DepthImage(np.array([[10, 20], [30, 40]], np.uint8))
        original, approximated = to_relative((0, 0), "ESWN"), to_relative((0, 0), "EESSWWNN")
        with caplog.at_level("WARNING", logger="contourcodec.augment"):
            out, flips, _ = augment_depth(depth, original, approximated)
        assert flips.tolist() == [[False, True], [True, True]]
        assert out.pixels.tolist() == [[10, 10], [10, 40]]
        assert caplog.messages == ["no donor found for flipped pixel (1, 1); value kept"]


def reference_side_parity(contour, height, width):
    """One whole-image cumsum of the vertical-edge counts, as side_parity
    computed it before it summed only the contour's rows."""
    contour.check_inside(height, width)
    counts = np.zeros((height, width + 1), np.int32)
    for vertical, row, col in cracks(contour.start, contour.absolute_dirs()):
        if vertical:
            counts[row, col] += 1
    return (np.cumsum(counts, axis=1)[:, :-1] % 2).astype(np.uint8)


@st.composite
def contours_in_image(draw):
    """(contour, height, width): a closed rectangle, or an open crack walk
    of 1-60 steps that never steps straight back and stays on the lattice,
    so it may touch itself, run along the border or end anywhere."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        p0, p1 = sorted(draw(st.sets(st.integers(0, h), min_size=2, max_size=2)))
        q0, q1 = sorted(draw(st.sets(st.integers(0, w), min_size=2, max_size=2)))
        dirs = "E" * (q1 - q0) + "S" * (p1 - p0) + "W" * (q1 - q0) + "N" * (p1 - p0)
        return to_relative((p0, q0), dirs), h, w
    start = p, q = draw(st.integers(0, h)), draw(st.integers(0, w))
    dirs = []
    for _ in range(draw(st.integers(1, 60))):
        options = [
            d for d, (dp, dq) in DIR_VECTOR.items()
            if (not dirs or d != OPPOSITE[dirs[-1]]) and 0 <= p + dp <= h and 0 <= q + dq <= w
        ]
        dirs.append(draw(st.sampled_from(options)))  # every corner has two lattice neighbours
        p, q = p + DIR_VECTOR[dirs[-1]][0], q + DIR_VECTOR[dirs[-1]][1]
    return to_relative(start, dirs), h, w


@settings(max_examples=300)
@given(contours_in_image())
def test_side_parity_matches_the_whole_image_cumsum(case):
    contour, h, w = case
    side = side_parity(contour, h, w)
    assert side.dtype == np.uint8
    assert np.array_equal(side, reference_side_parity(contour, h, w))


class TestAugmentColor:
    @pytest.mark.parametrize("side_shape", [(1, 5), (4, 1), (5, 4)])
    def test_rejects_side_of_another_shape(self, side_shape):
        color = ColorImage(np.zeros((4, 5, 3), np.uint8))
        with pytest.raises(ValueError, match=r"flips of shape \(4, 5\) and side of shape"):
            augment_color(color, np.zeros((4, 5), bool), np.zeros(side_shape, np.uint8))

    def test_empty_mask_identity(self, rng):
        depth, orig, _ = fig_case()
        color = textured_color(rng, 8, 8)
        _, flips, side = augment_depth(depth, orig, orig)
        assert augment_color(color, flips, side) == color

    def test_uniform_background_donor(self):
        depth, orig, appr = fig_case()
        _, flips, side = augment_depth(depth, orig, appr)
        pix = np.zeros((8, 8, 3), np.uint8)
        for r, b in enumerate([4, 4, 3, 2, 2, 2, 2, 2]):
            pix[r, :b] = (200, 100, 10)
            pix[r, b:] = (10, 20, 30)
        out = augment_color(ColorImage(pix), flips, side)
        assert out.pixels[2, 2].tolist() == [10, 20, 30]
        untouched = ~flips
        assert np.array_equal(out.pixels[untouched], pix[untouched])

    def test_fill_stays_in_donor_range(self, rng):
        spec = SceneSpec(width=112, height=96, shapes=1, jitter=2)
        (depth, color), _ = make_synthetic_scene(21, spec)
        cfg = ApproxConfig(lagrange=20.0, aec=AecParams(), swim=SwimConfig())
        for contour in detect_contours(depth, 30):
            approx, _ = approximate_contour(contour, color, cfg)
            newd, holes, side = augment_depth(depth, contour, approx)
            filled = augment_color(color, holes, side)
            if not holes.any():
                continue
            for ch in range(3):
                lo = int(color.pixels[..., ch][~holes].min())
                hi = int(color.pixels[..., ch][~holes].max())
                got = filled.pixels[..., ch][holes].astype(int)
                assert got.min() >= lo - 1 and got.max() <= hi + 1
            depth, color = newd, filled

    def test_fallback_and_unfilled_holes_are_logged(self, caplog):
        color = ColorImage(np.array([[[10] * 3, [99] * 3, [31] * 3]], np.uint8))
        with caplog.at_level("WARNING", logger="contourcodec.augment"):
            # the hole's neighbours both lie on the other side
            mixed = augment_color(color, np.array([[False, True, False]]), np.array([[0, 1, 0]], np.uint8))
            alone = augment_color(color, np.ones((1, 3), bool), np.zeros((1, 3), np.uint8))
        assert mixed.pixels[0, 1].tolist() == [20] * 3  # rint(20.5): to even
        assert alone == color
        assert caplog.messages == [
            "1 hole(s) without a same-side donor; filling from any neighbour",
            "3 hole(s) without a same-side donor; filling from any neighbour",
            "isolated hole(s) left unfilled",
        ]

    @pytest.mark.parametrize("corner", [(479, 639), (0, 0), (957, 1277)])
    def test_fill_memory_scales_with_the_holes_not_the_image(self, corner):
        """A 3x3 flip in a 960x1280 image allocates about the output copy,
        at the image's centre and at two of its corners."""
        h, w = 960, 1280
        color = ColorImage(np.full((h, w, 3), 7, np.uint8))
        flags = np.zeros((h, w), bool)
        flags[corner[0] : corner[0] + 3, corner[1] : corner[1] + 3] = True
        side = np.zeros((h, w), np.uint8)
        budget = 2 * color.pixels.nbytes
        tracemalloc.start()
        try:
            out = augment_color(color, flags, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == color
        assert peak < budget


def _reference_augment_depth(depth: DepthImage, original, approximated):
    """Searches the row, then the column, each in its own loop."""
    if original.start != approximated.start or original.end != approximated.end:
        raise ValueError("contour endpoint mismatch")
    h, w = depth.pixels.shape
    side_o = side_parity(original, h, w)
    side_a = side_parity(approximated, h, w)
    changed = side_o != side_a

    out = depth.pixels.copy()
    donor_ok = ~changed
    for r, c in np.argwhere(changed):
        want = side_a[r, c]
        value = None
        for dist in range(1, w):
            for cc in (c - dist, c + dist):
                if 0 <= cc < w and donor_ok[r, cc] and side_a[r, cc] == want:
                    value = depth.pixels[r, cc]
                    break
            if value is not None:
                break
        if value is None:
            for dist in range(1, h):
                for rr in (r - dist, r + dist):
                    if 0 <= rr < h and donor_ok[rr, c] and side_a[rr, c] == want:
                        value = depth.pixels[rr, c]
                        break
                if value is not None:
                    break
        if value is None:
            logger.warning("no donor found for flipped pixel (%d, %d); value kept", r, c)
            value = depth.pixels[r, c]
        out[r, c] = value
    return DepthImage(out), changed, side_a


def _reference_augment_color(color: ColorImage, flips, side) -> ColorImage:
    """Every pass rolls the whole image four ways and masks the wrap-around."""
    if not flips.shape == side.shape == color.pixels.shape[:2]:
        raise ValueError("flips and side do not match the color image")
    work = color.pixels.astype(np.float64)
    holes = flips

    def fill_pass(require_side: bool) -> bool:
        nonlocal holes
        total = np.zeros_like(work)
        num = np.zeros(holes.shape, np.float64)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nb_val = np.roll(work, (dr, dc), axis=(0, 1))
            ok = ~np.roll(holes, (dr, dc), axis=(0, 1))
            if require_side:
                ok &= np.roll(side, (dr, dc), axis=(0, 1)) == side
            if dr == -1:
                ok[-1:, :] = False
            elif dr == 1:
                ok[:1, :] = False
            elif dc == -1:
                ok[:, -1:] = False
            else:
                ok[:, :1] = False
            sel = holes & ok
            total[sel] += nb_val[sel]
            num[sel] += 1.0
        fillable = holes & (num > 0)
        if not fillable.any():
            return False
        work[fillable] = total[fillable] / num[fillable][:, None]
        holes = holes & ~fillable
        return True

    while holes.any():
        if fill_pass(require_side=True):
            continue
        logger.warning("%d hole(s) without a same-side donor; filling from any neighbour", int(holes.sum()))
        if not fill_pass(require_side=False):
            logger.warning("isolated hole(s) left unfilled")
            break
    return ColorImage(np.clip(np.rint(work), 0, 255).astype(np.uint8))


def logged(fn, *args):
    """fn(*args) and the messages it logs to the augment logger."""
    handler = logging.handlers.BufferingHandler(capacity=10 ** 6)
    logger.addHandler(handler)
    try:
        result = fn(*args)
    finally:
        logger.removeHandler(handler)
    return result, [record.getMessage() for record in handler.buffer]


def rerouted(contour, rng, height, width):
    """The contour with one random run of its moves reversed or shuffled:
    the same endpoints, and the pixels between the two routes change side.
    None when no try is a chain without U-turns inside the image."""
    dirs = contour.absolute_dirs()
    i, j = sorted(rng.integers(0, len(dirs) + 1, 2))
    runs = [dirs[i:j][::-1]] + [[dirs[k] for k in rng.permutation(range(i, j))] for _ in range(10)]
    for run in runs:
        moves = dirs[:i] + run + dirs[j:]
        if any(OPPOSITE[a] == b for a, b in zip(moves, moves[1:])):
            continue
        candidate = to_relative(contour.start, moves)
        if all(0 <= p <= height and 0 <= q <= width for p, q in candidate.points()):
            return candidate
    return None


class TestAugmentAgainstReference:
    """The one-search depth flip and the framed-box fill give the outputs and
    the log messages of the row-then-column loops and the rolled fill."""

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        hole_rate=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        edges=st.sets(st.sampled_from(["top", "bottom", "left", "right"])),
        side_levels=st.sampled_from([1, 2]),
    )
    @settings(max_examples=400)
    def test_augment_color(self, seed, shape, hole_rate, edges, side_levels):
        rng = np.random.default_rng(seed)
        flags = rng.random(shape) < hole_rate
        for edge in edges:
            flags[{"top": np.s_[0], "bottom": np.s_[-1], "left": np.s_[:, 0], "right": np.s_[:, -1]}[edge]] = True
        # random sides leave holes with no same-side donor: the fallback fires
        side = rng.integers(0, side_levels, shape).astype(np.uint8)
        color = ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8))
        inputs = [a.copy() for a in (color.pixels, flags, side)]
        expected, expected_log = logged(_reference_augment_color, color, flags, side)
        got, got_log = logged(augment_color, color, flags, side)
        assert got.pixels.dtype == np.uint8 and np.array_equal(got.pixels, expected.pixels)
        assert got_log == expected_log
        assert all(np.array_equal(a, b) for a, b in zip(inputs, (color.pixels, flags, side)))

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        levels=st.integers(2, 4),
    )
    @settings(max_examples=300)
    def test_augment_depth(self, seed, shape, levels):
        """Contours of a random few-level map against reroutes of themselves;
        some flipped pixels have no donor in their row, some none at all."""
        rng = np.random.default_rng(seed)
        values = rng.choice(np.arange(0, 256, 40), levels, replace=False).astype(np.uint8)
        pixels = rng.choice(values, shape)
        depth = DepthImage(pixels.copy())
        for original in detect_contours(depth, 30):
            approximated = rerouted(original, rng, *shape)
            if approximated is None:
                continue
            want, want_log = logged(_reference_augment_depth, depth, original, approximated)
            got, got_log = logged(augment_depth, depth, original, approximated)
            assert np.array_equal(got[0].pixels, want[0].pixels)
            assert all(np.array_equal(g, e) for g, e in zip(got[1:], want[1:]))
            assert got_log == want_log
        assert np.array_equal(depth.pixels, pixels)


class TestWarp:
    def test_alpha_zero_identity(self, rng):
        spec = SceneSpec(width=96, height=80, shapes=1)
        (depth, color), _ = make_synthetic_scene(5, spec)
        out, holes = warp_view(depth, color, 0.0, -1, spec.value_scale)
        assert out == color and not holes.any()

    def test_direction_other_than_plus_or_minus_one_rejected(self):
        depth = DepthImage(np.full((4, 6), 3, np.uint8))
        with pytest.raises(ValueError, match="direction must be -1 or \\+1"):
            _warp(depth, ColorImage(np.zeros((4, 6, 3), np.uint8)), 0.5, 0, 1.0)

    def test_uniform_disparity_rigid_shift(self):
        depth = DepthImage(np.full((4, 6), 3, np.uint8))
        color = ColorImage(np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3))
        out, holes = warp_view(depth, color, 1.0, -1, 1.0)
        assert np.array_equal(out.pixels[:, :3], color.pixels[:, 3:])
        assert sorted(set(np.argwhere(holes)[:, 1].tolist())) == [3, 4, 5]

    def test_disocclusion_band_width(self):
        # foreground strip of disparity 6 over background of 2: the uncovered
        # band behind the object is exactly the disparity difference
        depth = np.full((8, 32), 2, np.uint8)
        depth[:, 12:20] = 6
        color = ColorImage(np.full((8, 32, 3), 99, np.uint8))
        _, holes = warp_view(DepthImage(depth), color, 1.0, -1, 1.0)
        hole_cols = sorted(set(np.argwhere(holes)[:, 1].tolist()))
        assert [c for c in hole_cols if c < 30] == [14, 15, 16, 17]

    def test_forward_backward_recovery(self, rng):
        spec = SceneSpec(width=112, height=96, shapes=2, jitter=1)
        (depth, color), _ = make_synthetic_scene(9, spec)
        wd, holes1 = warp_depth(depth, 0.5, -1, spec.value_scale)
        wc, _ = warp_view(depth, color, 0.5, -1, spec.value_scale)
        back, holes2 = warp_view(wd, wc, 0.5, 1, spec.value_scale)
        ok = ~holes2
        diff = back.pixels[ok] != color.pixels[ok]
        assert diff.mean() < 0.02  # occluded sources excepted

    @pytest.mark.parametrize("direction", [-1, 1])
    @pytest.mark.parametrize("value", [1, 3, 5, 7])
    def test_one_row_moves_by_pixel_shift(self, value, direction):
        # at scale 0.5 every shift is a half: 0.5, 1.5, 2.5 and 3.5 pixels
        w = 12
        color = np.arange(w * 3, dtype=np.uint8).reshape(1, w, 3)
        out_d, out_c, valid = _warp(DepthImage(np.full((1, w), value, np.uint8)), ColorImage(color), 1.0, direction, 0.5)
        cols = np.arange(w) + direction * pixel_shift(value, 1.0, 0.5)
        inside = (cols >= 0) & (cols < w)
        want_valid = np.zeros((1, w), bool)
        want_valid[0, cols[inside]] = True
        want_color = np.zeros_like(color)
        want_color[0, cols[inside]] = color[0, inside]
        assert np.array_equal(valid, want_valid)
        assert np.array_equal(out_c, want_color)
        assert np.array_equal(out_d, np.where(want_valid, value, 0))

    def test_zbuffer_prefers_larger_disparity(self):
        depth = np.zeros((1, 6), np.uint8)
        depth[0, 1] = 2  # lands on column 3 going right... direction +1
        depth[0, 2] = 1
        color = ColorImage(np.stack([np.arange(6)] * 1)[..., None].repeat(3, axis=-1).astype(np.uint8))
        out, _ = warp_view(DepthImage(depth), color, 1.0, 1, 1.0)
        # sources 1 (disp 2) and 2 (disp 1) both land on column 3
        assert out.pixels[0, 3, 0] == 1


def _reference_warp(depth, color, alpha, direction, scale):
    """The lexsort z-buffer: writes sorted so the larger disparity, then the
    rightmost source, lands last."""
    d = depth.pixels
    h, w = d.shape
    shifts = np.rint(alpha * d.astype(np.float64) * scale).astype(np.int64)
    cols = np.arange(w)[None, :] + direction * shifts
    rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
    inside = (cols >= 0) & (cols < w)
    src_c = np.broadcast_to(np.arange(w)[None, :], (h, w))[inside]
    disp = d[inside]
    order = np.lexsort((src_c, disp))
    tgt = rows[inside][order] * w + cols[inside][order]
    out_d = np.zeros(h * w, d.dtype)
    valid = np.zeros(h * w, bool)
    out_d[tgt] = disp[order]
    valid[tgt] = True
    out_c = np.zeros((h * w, 3), color.pixels.dtype)
    out_c[tgt] = color.pixels[inside][order]
    return out_d.reshape(h, w), out_c.reshape(h, w, 3), valid.reshape(h, w)


def _reference_fill_holes_row(colors, disp, valid):
    """Walks each row's hole runs and copies the background-side donor."""
    h, w = valid.shape
    for r in range(h):
        c = 0
        while c < w:
            if valid[r, c]:
                c += 1
                continue
            c1 = c
            while c1 < w and not valid[r, c1]:
                c1 += 1
            left = c - 1 if c > 0 else None
            right = c1 if c1 < w else None
            donor = None
            if left is not None and right is not None:
                donor = left if disp[r, left] <= disp[r, right] else right
            elif left is not None:
                donor = left
            elif right is not None:
                donor = right
            if donor is not None:
                colors[r, c:c1] = colors[r, donor]
            c = c1


def _reference_synthesize(left, right, alpha, scale):
    """Masked per-case blend of the two reference warps, then the run walk."""
    dl, cl, vl = _reference_warp(*left, alpha, -1, scale)
    dr, cr, vr = _reference_warp(*right, 1.0 - alpha, 1, scale)
    out = np.zeros_like(cl, np.float64)
    both = vl & vr
    out[both] = (1.0 - alpha) * cl[both] + alpha * cr[both]
    out[vl & ~vr] = cl[vl & ~vr]
    out[vr & ~vl] = cr[vr & ~vl]
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    _reference_fill_holes_row(out, np.where(vl, dl, dr), vl | vr)
    return out


def every_level(rng, shape):
    """A depth map of ``shape`` (at least 256 pixels) holding each of the
    256 sample values, in random places."""
    return rng.permutation(np.resize(np.arange(256, dtype=np.uint8), shape[0] * shape[1])).reshape(shape)


class TestAgainstLoops:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
        levels=st.integers(1, 6),
        alpha=st.floats(0.0, 1.0),
        direction=st.sampled_from([-1, 1]),
        scale=st.sampled_from([0.05, 0.1, 0.25, 1.0]),
    )
    @settings(max_examples=150)
    def test_warp(self, seed, shape, levels, alpha, direction, scale):
        rng = np.random.default_rng(seed)
        # few depth levels: many targets receive sources of different disparities
        depth = DepthImage(rng.choice(rng.integers(0, 256, levels), size=shape).astype(np.uint8))
        color = ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8))
        expected = _reference_warp(depth, color, alpha, direction, scale)
        got = _warp(depth, color, alpha, direction, scale)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(256, 320)),
        alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        direction=st.sampled_from([-1, 1]),
    )
    @settings(max_examples=60)
    def test_warp_every_depth_level_at_scale_one(self, seed, shape, alpha, direction):
        # shifts of 0..255 pixels: the largest keys, and targets beyond both row ends
        rng = np.random.default_rng(seed)
        depth = DepthImage(every_level(rng, shape))
        color = ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8))
        expected = _reference_warp(depth, color, alpha, direction, 1.0)
        got = _warp(depth, color, alpha, direction, 1.0)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
        hole_rate=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        levels=st.integers(1, 4),
    )
    @settings(max_examples=150)
    def test_fill_holes_row(self, seed, shape, hole_rate, levels):
        rng = np.random.default_rng(seed)
        valid = rng.random(shape) >= hole_rate
        disp = rng.integers(0, levels, shape).astype(np.uint8)  # equal disparities on both sides
        colors = rng.integers(0, 256, shape + (3,), dtype=np.uint8)
        expected = colors.copy()
        _reference_fill_holes_row(expected, disp, valid)
        _fill_holes_row(colors, disp, valid)
        assert colors.dtype == expected.dtype and np.array_equal(colors, expected)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
        alpha=st.floats(0.01, 0.99),
        scale=st.sampled_from([0.05, 0.1, 0.25]),
    )
    @settings(max_examples=100)
    def test_synthesize_view(self, seed, shape, alpha, scale):
        rng = np.random.default_rng(seed)
        left, right = (
            (
                DepthImage(rng.choice(rng.integers(0, 256, 3), size=shape).astype(np.uint8)),
                ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8)),
            )
            for _ in range(2)
        )
        expected = _reference_synthesize(left, right, alpha, scale)
        assert np.array_equal(synthesize_view(left, right, alpha, scale).pixels, expected)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(256, 320)),
        alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_synthesize_view_every_depth_level_at_scale_one(self, seed, shape, alpha):
        # at alpha 0 and 1 one view is not shifted and the other moves by up
        # to 255 pixels; blended pixels take weights 0 and 1
        rng = np.random.default_rng(seed)
        left, right = (
            (
                DepthImage(every_level(rng, shape)),
                ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8)),
            )
            for _ in range(2)
        )
        expected = _reference_synthesize(left, right, alpha, 1.0)
        assert np.array_equal(synthesize_view(left, right, alpha, 1.0).pixels, expected)


class TestSynthesize:
    def test_zero_disparity_pair_identity(self, rng):
        color = textured_color(rng, 32, 48)
        depth = DepthImage(np.zeros((32, 48), np.uint8))
        out = synthesize_view((depth, color), (depth, color), 0.5, 1.0)
        assert out == color

    def test_midview_matches_ground_truth(self):
        spec = SceneSpec(width=128, height=96, shapes=2, jitter=0)
        left, right = make_synthetic_scene(13, spec)
        out = synthesize_view(left, right, 0.5, spec.value_scale)
        _, truth = render_scene_view(13, spec, 0.5)
        assert psnr(out, truth) > 30.0

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 24), st.integers(1, 80)),
        levels=st.integers(1, 4),
        alpha=st.floats(0.0, 1.0),
        scale=st.sampled_from([0.05, 0.1, 0.25, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_any_rows_synthesized_alone_are_those_rows_of_the_view(self, seed, shape, levels, alpha, scale, data):
        """Warping, blending and hole filling read only the row they write,
        which lets a sweep synthesize only the rows its approximation
        changed.  Few depth levels in two unrelated views give occlusions,
        disocclusion holes and rows no view reaches."""
        rng = np.random.default_rng(seed)
        left, right = (
            (
                DepthImage(rng.choice(rng.integers(0, 256, levels), size=shape).astype(np.uint8)),
                ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8)),
            )
            for _ in range(2)
        )
        rows = sorted(data.draw(st.sets(st.integers(0, shape[0] - 1), min_size=1)))
        crop = [tuple(type(image)(image.pixels[rows]) for image in view) for view in (left, right)]
        whole = synthesize_view(left, right, alpha, scale).pixels
        assert np.array_equal(synthesize_view(*crop, alpha, scale).pixels, whole[rows])


class TestApproximateStereo:
    def test_flat_views_unchanged(self, rng):
        color = textured_color(rng, 32, 48)
        depth = DepthImage(np.full((32, 48), 25, np.uint8))
        cfg = ApproxConfig(lagrange=4.0, aec=AecParams(), swim=SwimConfig())
        res = approximate_stereo((depth, color), (depth, color), cfg, threshold=30, scale=1.0)
        assert res.left.depth == depth and res.left.color == color
        assert res.right.depth == depth and res.right.color == color
        assert res.left.contours == [] and res.right.contours == []

    def test_penalty_keeps_projected_edges(self):
        spec = SceneSpec(width=128, height=96, shapes=2, jitter=2, texture="noise")
        left, right = make_synthetic_scene(17, spec)
        cfg = ApproxConfig(lagrange=8.0, interview_weight=1e6, aec=AecParams(), swim=SwimConfig())
        res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
        moved = 0
        total = 0
        for orig, appr in zip(res.right.original_contours, res.right.contours):
            for _, qo, qn in contour_row_shifts(orig, appr):
                total += 1
                moved += qo != qn
        assert total > 0
        assert moved <= 0.01 * total

    def test_each_contour_is_priced_with_its_views_weight(self, monkeypatch):
        weights = []

        class RecordingProxy(augment.RowProxy):
            def __init__(self, image, cfg, weight=0.0, memo=None):
                super().__init__(image, cfg, weight, memo)
                weights.append(weight)

        monkeypatch.setattr(augment, "RowProxy", RecordingProxy)
        spec = SceneSpec(width=96, height=80, shapes=2, jitter=2, texture="noise")
        left, right = make_synthetic_scene(17, spec)
        cfg = ApproxConfig(lagrange=8.0, interview_weight=7.0, aec=AecParams(), swim=SwimConfig())
        res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
        left_n, right_n = len(res.left.original_contours), len(res.right.original_contours)
        assert left_n and right_n
        assert weights == [0.0] * left_n + [7.0] * right_n

    def test_self_touching_approximation_keeps_the_original(self, caplog):
        # at lambda 0.5 and K=2 the left view's second contour approximates
        # to a chain that runs along one crack twice, so approximate_contour
        # falls back to the original contour and prices it at its own rate
        spec = SceneSpec(width=96, height=80, jitter=2, texture="noise")
        left, right = make_synthetic_scene(1, spec)
        cfg = PipelineConfig(context=2).approx_config(0.5)
        with caplog.at_level("WARNING", logger="contourcodec.approx"):
            res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
        original = res.left.original_contours[1]
        assert res.left.contours[1] == original
        assert res.left.costs[1].distortion == 0.0
        assert res.left.costs[1].rate == estimate_rate(original, cfg.aec)
        assert "self-touching contour; keeping the original" in caplog.text
