import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contour_from_boundary_columns, contour_row_shifts, textured_color
from contourcodec.aec import AecParams, estimate_rate
from contourcodec.approx import ApproxConfig, approximate_contour
from contourcodec.augment import (
    _fill_holes_row,
    _warp,
    approximate_stereo,
    augment_color,
    augment_depth,
    side_parity,
    synthesize_view,
)
from contourcodec.cli import psnr
from contourcodec.config import PipelineConfig
from contourcodec.contour import detect_contours, to_relative
from contourcodec.image_io import ColorImage, DepthImage, SceneSpec, make_synthetic_scene, render_scene_view
from contourcodec.swim import SwimConfig


def warp_depth(depth: DepthImage, alpha: float, direction: int, scale: float = 1.0):
    """Forward-warp the depth map itself. Returns (DepthImage, hole mask)."""
    out_d, _, valid = _warp(depth, None, alpha, direction, scale)
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
        out, mask = augment_depth(depth, orig, orig)
        assert out == depth and mask.empty

    def test_corner_pixel_flips_to_background(self):
        depth, orig, appr = fig_case()
        out, mask = augment_depth(depth, orig, appr)
        assert np.argwhere(mask.flags != 0).tolist() == [[2, 2]]
        assert out.pixels[2, 2] == 50

    def test_redetection_yields_approximated_contour(self):
        depth, orig, appr = fig_case()
        out, _ = augment_depth(depth, orig, appr)
        assert detect_contours(out, 50) == [appr]

    def test_only_side_flips_change(self):
        depth, orig, appr = fig_case()
        out, mask = augment_depth(depth, orig, appr)
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


class TestAugmentColor:
    def test_empty_mask_identity(self, rng):
        depth, orig, _ = fig_case()
        color = textured_color(rng, 8, 8)
        _, mask = augment_depth(depth, orig, orig)
        assert augment_color(color, mask) == color

    def test_uniform_background_donor(self):
        depth, orig, appr = fig_case()
        _, mask = augment_depth(depth, orig, appr)
        pix = np.zeros((8, 8, 3), np.uint8)
        for r, b in enumerate([4, 4, 3, 2, 2, 2, 2, 2]):
            pix[r, :b] = (200, 100, 10)
            pix[r, b:] = (10, 20, 30)
        out = augment_color(ColorImage(pix), mask)
        assert out.pixels[2, 2].tolist() == [10, 20, 30]
        untouched = mask.flags == 0
        assert np.array_equal(out.pixels[untouched], pix[untouched])

    def test_fill_stays_in_donor_range(self, rng):
        spec = SceneSpec(width=112, height=96, shapes=1, jitter=2)
        (depth, color), _ = make_synthetic_scene(21, spec)
        cfg = ApproxConfig(lagrange=20.0, aec=AecParams(), swim=SwimConfig())
        for contour in detect_contours(depth, 30):
            approx, _ = approximate_contour(contour, depth, color, cfg)
            newd, mask = augment_depth(depth, contour, approx)
            filled = augment_color(color, mask)
            holes = mask.flags != 0
            if not holes.any():
                continue
            for ch in range(3):
                lo = int(color.pixels[..., ch][~holes].min())
                hi = int(color.pixels[..., ch][~holes].max())
                got = filled.pixels[..., ch][holes].astype(int)
                assert got.min() >= lo - 1 and got.max() <= hi + 1
            depth, color = newd, filled


class TestWarp:
    def test_alpha_zero_identity(self, rng):
        spec = SceneSpec(width=96, height=80, shapes=1)
        (depth, color), _ = make_synthetic_scene(5, spec)
        out, holes = warp_view(depth, color, 0.0, -1, spec.value_scale)
        assert out == color and not holes.any()

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
    out_c = None
    if color is not None:
        out_c = np.zeros((h * w, 3), color.pixels.dtype)
        out_c[tgt] = color.pixels[inside][order]
        out_c = out_c.reshape(h, w, 3)
    return out_d.reshape(h, w), out_c, valid.reshape(h, w)


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


class TestAgainstLoops:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
        levels=st.integers(1, 6),
        alpha=st.floats(0.0, 1.0),
        direction=st.sampled_from([-1, 1]),
        scale=st.sampled_from([0.05, 0.1, 0.25, 1.0]),
        with_color=st.booleans(),
    )
    @settings(max_examples=150)
    def test_warp(self, seed, shape, levels, alpha, direction, scale, with_color):
        rng = np.random.default_rng(seed)
        # few depth levels: many targets receive sources of different disparities
        depth = DepthImage(rng.choice(rng.integers(0, 256, levels), size=shape).astype(np.uint8))
        color = ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8)) if with_color else None
        expected = _reference_warp(depth, color, alpha, direction, scale)
        got = _warp(depth, color, alpha, direction, scale)
        for g, e in zip(got, expected):
            if e is None:
                assert g is None
                continue
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
