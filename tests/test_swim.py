import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import textured_color
from contourcodec import swim
from contourcodec.augment import approximate_stereo, synthesize_view
from contourcodec.cli import run_sweep
from contourcodec.config import PipelineConfig
from contourcodec.image_io import ColorImage, SceneSpec, make_synthetic_scene
from contourcodec.swim import (
    RowProxy,
    SwimConfig,
    _ks_distances,
    _match_blocks,
    block_scores,
    haar_row,
    laplace_fit,
    laplace_ks,
    luminance,
    row_distortion,
    swim_score,
    window_anchor,
)

SQRT2 = math.sqrt(2.0)

README_SWEEP = Path(__file__).with_name("data") / "sweep_readme.csv"


def best_match(synth_lum: np.ndarray, ref_lum: np.ndarray, row: int, col: int, cfg: SwimConfig):
    """Best horizontally shifted reference block for the target block at
    (row, col); ties go to the smallest |shift|, then the smallest shift.

    Returns (reference block, shift).
    """
    n = cfg.block
    h, w = synth_lum.shape
    if not (0 <= row <= h - n and 0 <= col <= w - n):
        raise ValueError("target block out of bounds")
    target = synth_lum[None, row : row + n, col : col + n]
    matched, shifts = _match_blocks(target, ref_lum[row : row + n], np.array([col]), cfg.window)
    return matched[0], int(shifts[0])


def block_distortion(coeffs_test: np.ndarray, coeffs_ref: np.ndarray, bins: int) -> float:
    """KS distance between coefficient histograms binned on their joint range.

    Values equal to the joint maximum land in the last bin; a zero-width
    joint range gives distortion 0.
    """
    a = np.asarray(coeffs_test, np.float64).ravel()
    b = np.asarray(coeffs_ref, np.float64).ravel()
    if a.size != b.size:
        raise ValueError("coefficient matrices must have the same shape")
    return float(_ks_distances(a[None], b[None], bins)[0])


class TestHaar:
    def test_constant_row_has_no_detail(self):
        assert haar_row([2, 2, 2, 2]).tolist() == [0, 0, 0]

    def test_alternating_row(self):
        got = haar_row([1, -1, 1, -1])
        assert got == pytest.approx([SQRT2, SQRT2, 0.0], abs=1e-12)

    def test_output_length_and_level_order(self):
        out = haar_row(np.arange(16.0))
        assert out.shape == (15,)
        # level 1 first: eight pairwise differences of a linear ramp
        assert out[:8] == pytest.approx([-1 / SQRT2] * 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            haar_row([1.0, 2.0, 3.0])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        assert haar_row(a + b) == pytest.approx((haar_row(a) + haar_row(b)).tolist(), abs=1e-9)

    def test_orthonormal_energy(self, rng):
        row = rng.normal(size=16)
        coeffs = haar_row(row)
        approx = row.sum() / 4.0  # the dropped scaling coefficient of 16 samples
        assert np.dot(row, row) == pytest.approx(np.dot(coeffs, coeffs) + approx * approx)


class TestBestMatch:
    def test_identical_images_match_at_zero(self, rng):
        lum = luminance(textured_color(rng, 32, 48))
        block, shift = best_match(lum, lum, 8, 16, SwimConfig(block=8, window=5))
        assert shift == 0
        assert np.array_equal(block, lum[8:16, 16:24])

    def test_pure_shift_recovered(self, rng):
        lum = luminance(textured_color(rng, 24, 64))
        ref = np.roll(lum, 3, axis=1)  # content moves right by 3
        _, shift = best_match(lum, ref, 8, 16, SwimConfig(block=8, window=5))
        assert shift == 3

    def test_window_zero_is_colocated(self, rng):
        lum = luminance(textured_color(rng, 16, 16))
        block, shift = best_match(lum, np.zeros_like(lum), 0, 0, SwimConfig(block=16, window=0))
        assert shift == 0 and block.shape == (16, 16)


class TestBlockDistortion:
    def test_identical_blocks(self, rng):
        c = rng.normal(size=(8, 7))
        assert block_distortion(c, c.copy(), 10) == 0.0

    def test_disjoint_constant_blocks(self):
        c_o = np.zeros((8, 7))
        c_s = np.ones((8, 7))
        assert block_distortion(c_s, c_o, 2) == 1.0

    def test_permutation_invariance(self, rng):
        c_o = rng.normal(size=(8, 7))
        c_s = rng.normal(size=(8, 7))
        d0 = block_distortion(c_s, c_o, 10)
        perm = rng.permutation(c_s.ravel()).reshape(c_s.shape)
        assert block_distortion(perm, c_o, 10) == d0

    def test_zero_range(self):
        c = np.full((4, 3), 5.0)
        assert block_distortion(c, c, 10) == 0.0


class TestSwimScore:
    def test_identical_images(self, rng):
        img = textured_color(rng, 48, 64)
        d, s = swim_score(img, img, SwimConfig())
        assert d == 0.0 and s == 1.0

    def test_noise_ladder_is_monotone(self, rng):
        ref = textured_color(rng, 48, 64)
        cfg = SwimConfig()
        scores = []
        for sigma in (8, 32, 90):
            noisy = np.clip(
                ref.pixels.astype(float) + rng.normal(0, sigma, ref.pixels.shape), 0, 255
            ).astype(np.uint8)
            scores.append(swim_score(ColorImage(noisy), ref, cfg)[1])
        assert scores[0] > scores[1] > scores[2]

    def test_block_count_normalization(self, rng):
        img = textured_color(rng, 40, 70)
        other = textured_color(np.random.default_rng(99), 40, 70)
        cfg = SwimConfig(block=16, window=2)
        scores = block_scores(img, other, cfg)
        assert scores.shape == (40 // 16, 70 // 16)
        d, _ = swim_score(img, other, cfg)
        assert d == pytest.approx(scores.sum() / scores.size)

    def test_too_small_image_rejected(self, rng):
        img = textured_color(rng, 8, 8)
        with pytest.raises(ValueError, match="smaller than one block"):
            swim_score(img, img, SwimConfig(block=16))

    def test_images_of_different_sizes_rejected(self, rng):
        with pytest.raises(ValueError, match="identical dimensions"):
            block_scores(textured_color(rng, 16, 16), textured_color(rng, 16, 32), SwimConfig(block=8))

    def test_translation_robustness(self, rng):
        # a small global shift re-matches inside the search window, while the
        # same comparison without search sees a large distortion; a constant
        # margin keeps the shift from dragging new content into edge blocks
        pix = textured_color(rng, 48, 96).pixels.copy()
        pix[:, :24] = (120, 90, 60)
        ref = ColorImage(pix)
        moved = pix.copy()
        moved[:, 4:] = pix[:, :-4]
        moved[:, :4] = (120, 90, 60)
        shifted = ColorImage(moved)
        d_matched, _ = swim_score(shifted, ref, SwimConfig(block=16, window=10))
        d_unmatched, _ = swim_score(shifted, ref, SwimConfig(block=16, window=0))
        assert d_unmatched > 0
        assert d_matched <= 0.05 * d_unmatched


class TestNarrowRange:
    # np.histogram refuses a joint range only a few ULPs wide ("Too many
    # bins for data range"); the metric bins on its own edges instead
    C = np.array([37.58979648787686, 37.58979648787687])

    def test_identical_blocks_score_zero(self):
        with pytest.raises(ValueError, match="Too many bins"):
            np.histogram(self.C, bins=2, range=(self.C.min(), self.C.max()))
        assert block_distortion(self.C, self.C, 2) == 0.0

    def test_different_blocks_score_in_unit_range(self):
        other = np.full(2, self.C[0])
        for bins in (1, 2, 3, 10):
            assert 0.0 <= block_distortion(self.C, other, bins) <= 1.0
        assert block_distortion(self.C, other, 2) > 0.0

    def test_tiny_image_against_itself(self):
        img = ColorImage(np.array([[[60, 120, 120], [0, 60, 120]], [[120, 60, 0], [60, 0, 0]]], np.uint8))
        assert swim_score(img, img, SwimConfig(block=2, window=0, bins=2)) == (0.0, 1.0)

    def test_palette_image_against_itself(self):
        pix = np.random.default_rng(1).choice(np.array([0, 60, 120], np.uint8), size=(51, 76, 3))
        img = ColorImage(pix)
        assert swim_score(img, img, SwimConfig(block=2, window=0, bins=2)) == (0.0, 1.0)


def _reference_best_match(synth_lum, ref_lum, row, col, cfg):
    """The per-block search: one np.mean per shift, strict < in (|k|, k) order."""
    n = cfg.block
    h, w = synth_lum.shape
    if not (0 <= row <= h - n and 0 <= col <= w - n):
        raise ValueError("target block out of bounds")
    target = synth_lum[row : row + n, col : col + n]
    best = None
    best_err = math.inf
    for k in sorted(range(-cfg.window, cfg.window + 1), key=lambda k: (abs(k), k)):
        c = col + k
        if c < 0 or c + n > ref_lum.shape[1]:
            continue
        cand = ref_lum[row : row + n, c : c + n]
        err = float(np.mean((cand - target) ** 2))
        if err < best_err:
            best_err = err
            best = (cand, k)
    if best is None:
        raise ValueError("no in-bounds candidate block")
    return best


def _reference_block_distortion(coeffs_test, coeffs_ref, bins):
    """KS distance of two np.histogram calls on the joint range."""
    a = np.asarray(coeffs_test, np.float64).ravel()
    b = np.asarray(coeffs_ref, np.float64).ravel()
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 0.0
    ha, _ = np.histogram(a, bins=bins, range=(lo, hi))
    hb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    return float(np.max(np.abs(np.cumsum(hb) / b.size - np.cumsum(ha) / a.size)))


def _reference_block_scores(synth, ref, cfg):
    """The per-block loop block_scores replaced."""
    lum_s = luminance(synth)
    lum_r = luminance(ref)
    n = cfg.block
    rows, cols = lum_s.shape[0] // n, lum_s.shape[1] // n
    if rows == 0 or cols == 0:
        raise ValueError("image smaller than one block")
    scores = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            matched, _ = _reference_best_match(lum_s, lum_r, i * n, j * n, cfg)
            c_s = haar_row(lum_s[i * n : (i + 1) * n, j * n : (j + 1) * n])
            scores[i, j] = _reference_block_distortion(c_s, haar_row(matched), cfg.bins)
    return scores


PALETTE = np.array([0, 60, 120], np.uint8)


def _flat_against_periodic(rng, h, w):
    """A constant test image and a reference whose period divides every
    block size: every shift's squared errors are one multiset in another
    order, so only the summation order separates them."""
    period = 2 ** int(rng.integers(0, 4))
    ref = np.tile(rng.integers(0, 256, (h, period, 3), dtype=np.uint8), (1, w // period + 1, 1))[:, :w]
    return ColorImage(np.full((h, w, 3), rng.integers(0, 256, 3), np.uint8)), ColorImage(ref)


@st.composite
def image_pairs(draw):
    """(test, reference) images of 1..80 pixels a side, most of them full of
    ties: 3-level palettes, horizontally periodic tiles, rolled copies, flat
    images against periodic ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["noise", "palette", "tile", "rolled", "flat"]))
    if kind == "flat":
        return _flat_against_periodic(rng, h, w)
    if kind == "noise":
        return tuple(ColorImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8)) for _ in range(2))
    if kind == "palette":
        test = rng.choice(PALETTE, size=(h, w, 3))
        ref = test.copy()
        repaint = rng.random((h, w)) < rng.uniform(0.0, 0.3)
        ref[repaint] = rng.choice(PALETTE, size=(int(repaint.sum()), 3))
        return ColorImage(test), ColorImage(ref)
    if kind == "tile":
        period = int(rng.integers(1, 9))
        test = np.tile(rng.choice(PALETTE, size=(h, period, 3)), (1, w // period + 1, 1))[:, :w]
    else:
        test = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    return ColorImage(test), ColorImage(np.roll(test, int(rng.integers(-12, 13)), axis=1))


class TestAgainstPerBlockLoop:
    @given(
        pair=image_pairs(),
        block=st.sampled_from([2, 4, 8, 16]),
        window=st.integers(0, 12),
        bins=st.integers(1, 12),
    )
    @settings(max_examples=60)
    def test_block_scores(self, pair, block, window, bins):
        synth, ref = pair
        cfg = SwimConfig(block=block, window=window, bins=bins)
        try:
            expected = _reference_block_scores(synth, ref, cfg)
        except ValueError as exc:
            if "smaller than one block" in str(exc):
                with pytest.raises(ValueError, match="smaller than one block"):
                    block_scores(synth, ref, cfg)
            return  # otherwise a range np.histogram refuses
        got = block_scores(synth, ref, cfg)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_summation_order_decides_ties(self):
        # summation order picks the match, and changes the score, in about a
        # fifth of these cases
        rng = np.random.default_rng(7)
        for case in range(48):
            n = (2, 4, 8, 16)[case % 4]
            synth, ref = _flat_against_periodic(rng, int(rng.integers(n, 40)), int(rng.integers(n, 60)))
            cfg = SwimConfig(block=n, window=int(rng.integers(0, 13)), bins=int(rng.integers(1, 13)))
            try:
                expected = _reference_block_scores(synth, ref, cfg)
            except ValueError:
                continue  # a range np.histogram refuses
            assert block_scores(synth, ref, cfg).tobytes() == expected.tobytes()

    @given(
        pair=image_pairs(),
        block=st.sampled_from([2, 4, 8, 16]),
        window=st.integers(0, 12),
        at=st.tuples(st.integers(-2, 80), st.integers(-2, 80)),
    )
    @settings(max_examples=80)
    def test_best_match(self, pair, block, window, at):
        lum_s, lum_r = luminance(pair[0]), luminance(pair[1])
        cfg = SwimConfig(block=block, window=window)
        try:
            expected, shift = _reference_best_match(lum_s, lum_r, *at, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                best_match(lum_s, lum_r, *at, cfg)
            return
        got, got_shift = best_match(lum_s, lum_r, *at, cfg)
        assert got_shift == shift
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        size=st.integers(1, 60),
        bins=st.integers(1, 12),
        levels=st.integers(1, 6),
        on_grid=st.booleans(),
    )
    @settings(max_examples=100)
    def test_block_distortion(self, seed, size, bins, levels, on_grid):
        rng = np.random.default_rng(seed)
        # few distinct values; small integers also fall on inner bin edges
        values = rng.integers(-3, 4, size=levels).astype(float) if on_grid else rng.normal(size=levels)
        a, b = rng.choice(values, size=(2, size))
        try:
            expected = _reference_block_distortion(a, b, bins)
        except ValueError:
            return  # a range np.histogram refuses
        assert block_distortion(a, b, bins) == expected


def _kind_pixels(rng, kind, h, w):
    """An (h, w, 3) image of one flat colour, of 3-level palette values or
    of uniform noise."""
    if kind == "flat":
        return np.full((h, w, 3), rng.integers(0, 256, 3), np.uint8)
    if kind == "palette":
        return rng.choice(PALETTE, size=(h, w, 3))
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


class TestEqualStrips:
    """``block_scores`` leaves a block row (strip) that equals its reference
    at 0 without evaluating it; evaluating it gives exactly that."""

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from(["flat", "palette", "noise"]),
        block=st.sampled_from([2, 4, 8, 16]),
        extra=st.integers(0, 50),
        window=st.integers(0, 12),
        bins=st.integers(1, 12),
    )
    @settings(max_examples=120)
    def test_equal_strip_matches_at_shift_zero_and_scores_zero(self, seed, kind, block, extra, window, bins):
        rng = np.random.default_rng(seed)
        width = block + extra  # most widths leave columns outside every block
        strip = luminance(_kind_pixels(rng, kind, block, width))
        cols = width // block
        targets = strip[:, : cols * block].reshape(block, cols, block).transpose(1, 0, 2)
        matched, shifts = _match_blocks(targets, strip.copy(), np.arange(cols) * block, window)
        assert shifts.tolist() == [0] * cols
        assert np.array_equal(matched, targets)
        scores = _ks_distances(haar_row(targets).reshape(cols, -1), haar_row(matched).reshape(cols, -1), bins)
        assert scores.tobytes() == np.zeros(cols).tobytes()

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        kinds=st.tuples(*[st.sampled_from(["flat", "palette", "noise"])] * 2),
        block=st.sampled_from([2, 4, 8]),
        strips=st.integers(1, 5),
        extra=st.tuples(st.integers(0, 7), st.integers(0, 30)),
        window=st.integers(0, 12),
        bins=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_one_differing_strip_leaves_the_others_at_zero(self, seed, kinds, block, strips, extra, window, bins, data):
        rng = np.random.default_rng(seed)
        h, w = strips * block + extra[0] % block, block + extra[1]
        ref = _kind_pixels(rng, kinds[0], h, w)
        i = data.draw(st.integers(0, strips - 1))
        rows = slice(i * block, (i + 1) * block)
        synth = ref.copy()
        synth[rows] = _kind_pixels(rng, kinds[1], block, w)
        synth[i * block + int(rng.integers(block)), int(rng.integers(w)), int(rng.integers(3))] ^= 1 + int(rng.integers(255))
        cfg = SwimConfig(block=block, window=window, bins=bins)
        scores = block_scores(ColorImage(synth), ColorImage(ref), cfg)
        others = np.delete(scores, i, axis=0)
        assert others.tobytes() == np.zeros_like(others).tobytes()
        assert scores[i].tobytes() == block_scores(ColorImage(synth[rows]), ColorImage(ref[rows]), cfg)[0].tobytes()
        try:
            expected = _reference_block_scores(ColorImage(synth), ColorImage(ref), cfg)
        except ValueError:
            return  # a range np.histogram refuses
        assert scores.tobytes() == expected.tobytes()


# sha256 of block_scores(view, reference).tobytes() for the README scene's
# three synthesized views at lambda 2, recorded with the per-block loop
README_VIEW_SCORES = {
    0.25: "eb67962cf216f081082967f56ab052ecb558537e6e3e43efcd59c40bd3f88979",
    0.5: "30399047dec5f69269bb4f702a2c58a7a8ba97ad8f7edf33123860339d276557",
    0.75: "6b9538f0e0c207c17cfea0311c281a7bf477e3c8d1171ce51a2504ae5bd577bf",
}


def test_readme_view_block_scores_match_pinned_hashes():
    """Bit-pins the metric on the README sweep's lambda-2 views; the CSV's
    %.6g swim_d would hide last-bit drift."""
    spec = SceneSpec(width=128, height=96, jitter=2, texture="noise")
    left, right = make_synthetic_scene(2, spec)
    cfg = PipelineConfig(seed=2)
    stereo = approximate_stereo(left, right, cfg.approx_config(2.0), threshold=cfg.threshold, scale=spec.value_scale)
    for alpha, digest in README_VIEW_SCORES.items():
        reference = synthesize_view(left, right, alpha, spec.value_scale)
        view = synthesize_view((stereo.left.depth, stereo.left.color), (stereo.right.depth, stereo.right.color), alpha, spec.value_scale)
        scores = block_scores(view, reference, cfg.swim_config())
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest


class TestLaplace:
    def test_fit_mean_absolute(self):
        assert laplace_fit([1, -1, 2, -2]) == 1.5
        assert laplace_fit([0.0, 0.0]) == 0.0

    def test_fit_empty_rejected(self):
        with pytest.raises(ValueError):
            laplace_fit([])

    def test_fit_is_maximum_likelihood(self, rng):
        def loglik(sigma, data):
            return -data.size * math.log(2.0 * sigma) - np.abs(data).sum() / sigma

        for _ in range(25):
            data = rng.laplace(0, rng.uniform(0.2, 5.0), size=40)
            s = laplace_fit(data)
            assert loglik(s, data) >= loglik(s - 1e-3, data)
            assert loglik(s, data) >= loglik(s + 1e-3, data)

    @settings(max_examples=300)
    @given(
        n=st.sampled_from([2, 4, 8, 16, 32]),
        extra=st.integers(0, 24),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 255.0]),
    )
    def test_stacked_fit_equals_the_row_fits(self, n, extra, seed, scale):
        """Fitting a stack of Haar rows at once is bit-equal to fitting each
        row on its own, and one row fits to a Python float."""
        row = np.random.default_rng(seed).uniform(0.0, scale, n + extra)
        stack = haar_row(sliding_window_view(row, n))
        fits = [laplace_fit(r) for r in stack]
        assert laplace_fit(stack) == fits
        assert all(type(f) is float for f in fits)

    def test_ks_equal_scales(self):
        assert laplace_ks(0.7, 0.7) == 0.0
        assert laplace_ks(0.0, 0.0) == 0.0

    def test_ks_known_values(self):
        assert laplace_ks(1.0, 2.0) == pytest.approx(0.25, abs=1e-12)
        assert laplace_ks(1.0, 3.0) == pytest.approx(3 ** -0.5 - 3 ** -1.5, abs=1e-12)

    def test_ks_one_sided_zero(self):
        assert laplace_ks(0.0, 2.0) == 1.0

    def test_ks_negative_rejected(self):
        with pytest.raises(ValueError):
            laplace_ks(-1.0, 1.0)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=50)
    def test_ks_symmetry_and_range(self, a, b):
        v = laplace_ks(a, b)
        assert v == laplace_ks(b, a)
        assert 0.0 <= v <= 1.0

    def test_ks_increases_with_scale_ratio(self):
        values = [laplace_ks(1.0, r) for r in (1.5, 2.0, 4.0, 9.0)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_ks_matches_grid_oracle(self, rng):
        for _ in range(25):
            sa, sb = rng.uniform(0.1, 10.0, size=2)
            assert laplace_ks(sa, sb) == pytest.approx(
                2.0 * _grid_ks(sa, sb), abs=1e-9
            )


def _laplace_cdf(c, sigma):
    c = np.asarray(c, float)
    neg = 0.5 * np.exp(np.minimum(c, 0.0) / sigma)
    pos = 1.0 - 0.5 * np.exp(-np.maximum(c, 0.0) / sigma)
    return np.where(c < 0, neg, pos)


def _grid_ks(sa, sb):
    """Refined grid search for max |F_a - F_b|; no closed form used."""
    hi = max(sa, sb)
    lo_edge, hi_edge = -30.0 * hi, 30.0 * hi
    for _ in range(4):
        grid = np.linspace(lo_edge, hi_edge, 8193)
        gap = np.abs(_laplace_cdf(grid, sa) - _laplace_cdf(grid, sb))
        i = int(np.argmax(gap))
        step = grid[1] - grid[0]
        lo_edge, hi_edge = grid[i] - 2 * step, grid[i] + 2 * step
    return float(gap.max())


class TestRowDistortion:
    def test_zero_shift_is_zero(self, rng):
        img = textured_color(rng, 24, 64)
        assert row_distortion(img, 5, 16, 20, 20, SwimConfig()) == 0.0

    def test_beyond_window_is_infinite(self, rng):
        img = textured_color(rng, 24, 64)
        cfg = SwimConfig(block=16, window=10)
        assert row_distortion(img, 5, 16, 20, 20 + cfg.window + 1, cfg) == math.inf

    def test_constant_row_any_shift_is_zero(self):
        img = ColorImage(np.full((8, 64, 3), 77, np.uint8))
        cfg = SwimConfig(block=16, window=10)
        for k in (-10, -3, 1, 10):
            assert row_distortion(img, 3, 16, 30, 30 + k, cfg) == 0.0

    def test_truncated_comparison_window_is_infinite(self, rng):
        img = textured_color(rng, 8, 32)
        cfg = SwimConfig(block=16, window=10)
        # shifting right by 8 pushes the comparison window past the left edge
        assert row_distortion(img, 2, 0, 4, 12, cfg) == math.inf

    def test_row_bounds_checked(self, rng):
        img = textured_color(rng, 8, 32)
        with pytest.raises(ValueError, match="row out of image"):
            row_distortion(img, 9, 0, 4, 4, SwimConfig())

    def test_window_anchor(self):
        assert window_anchor(20, 64, 16) == 16
        assert window_anchor(62, 64, 16) == 48  # clamped to fit
        assert window_anchor(3, 64, 16) == 0
        with pytest.raises(ValueError):
            window_anchor(3, 8, 16)


def _raw_row_distortion(lum, row, start, shift, cfg):
    """The row proxy recomputed from raw slices of the luminance image."""
    h, w = lum.shape
    n = cfg.block
    if not 0 <= row < h:
        raise ValueError("row out of image")
    if start < 0 or start + n > w:
        raise ValueError("window out of image")
    shifted = start - shift
    if abs(shift) > cfg.window or shifted < 0 or shifted + n > w:
        return math.inf
    u = lum[row, start : start + n]
    v = lum[row, shifted : shifted + n]
    return laplace_ks(laplace_fit(haar_row(u)), laplace_fit(haar_row(v)))


class TestRowProxy:
    # The proxy fits a stack of windows in one pass.  Its scales equal the
    # scalar fits of raw slices only because the coefficient magnitudes are
    # made C-contiguous before the sum: over the last axis of that layout
    # numpy sums each window pairwise, as np.mean does on one window, while
    # on the layout haar_row leaves for a sliding_window_view stack it adds
    # the columns in sequence.  On 96x128 uniform noise (default_rng(0)
    # .random) with N = 16 that layout changed the last bit of 2164 of the
    # 10848 scales.  Windows of 8 or fewer pixels have too few coefficients
    # to tell the orders apart; test_approx.py's TestRowCostFill covers N up
    # to 32.
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        height=st.integers(1, 6),
        width=st.integers(8, 40),
        block=st.sampled_from([4, 8]),
        window=st.integers(0, 6),
        windows=st.lists(st.tuples(st.integers(-2, 7), st.integers(-3, 40)), min_size=1, max_size=12),
    )
    @settings(max_examples=60)
    def test_matches_raw_slices(self, seed, height, width, block, window, windows):
        rng = np.random.default_rng(seed)
        img = ColorImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
        lum = luminance(img)
        cfg = SwimConfig(block=block, window=window)
        proxy = RowProxy(img, cfg)
        shifts = range(-window - 2, window + 3)  # both sides of the match window
        q_orig = 20
        # windows at both image edges, and the first ones beyond them
        edges = [(0, 0), (height - 1, width - block), (height, 0), (0, width - block + 1), (-1, 0)]
        for row, start in (edges + windows) * 2:  # the second pass is served from the memo
            for shift in shifts:
                try:
                    expected = _raw_row_distortion(lum, row, start, shift, cfg)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        row_distortion(proxy, row, start, q_orig, q_orig + shift, cfg)
                    with pytest.raises(ValueError, match=str(exc)):
                        row_distortion(img, row, start, q_orig, q_orig + shift, cfg)
                    continue
                assert row_distortion(proxy, row, start, q_orig, q_orig + shift, cfg) == expected
                assert row_distortion(img, row, start, q_orig, q_orig + shift, cfg) == expected

    def test_rejects_other_config(self, rng):
        img = textured_color(rng, 8, 32)
        proxy = RowProxy(img, SwimConfig(block=16, window=10))
        assert row_distortion(proxy, 2, 16, 20, 21, SwimConfig(block=16, window=10)) >= 0.0
        with pytest.raises(ValueError, match="different SwimConfig"):
            row_distortion(proxy, 2, 16, 20, 21, SwimConfig(block=8, window=10))


class FullImageRowProxy:
    """The former ``RowProxy``, which converted the whole image to luminance
    when built; the reference for the row-by-row conversion."""

    def __init__(self, image, cfg: SwimConfig):
        self.lum = luminance(image)
        self.cfg = cfg

    def _check_range(self, row: int, window_start: int) -> None:
        h, w = self.lum.shape
        if not 0 <= row < h:
            raise ValueError("row out of image")
        if window_start < 0 or window_start + self.cfg.block > w:
            raise ValueError("window out of image")

    def _vector(self, row: int, window_start: int) -> list:
        self._check_range(row, window_start)
        w = self.lum.shape[1]
        n, win = self.cfg.block, self.cfg.window
        lo, hi = max(window_start - win, 0), min(window_start + win, w - n)
        scales = laplace_fit(haar_row(sliding_window_view(self.lum[row, lo : hi + n], n)))
        own = scales[window_start - lo]
        return [
            laplace_ks(own, scales[start - lo]) if lo <= start <= hi else math.inf
            for start in range(window_start + win, window_start - win - 1, -1)
        ]


class TestRowProxyReadsRows:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        color=st.booleans(),
        height=st.integers(1, 6),
        block=st.sampled_from([2, 4, 8, 16, 32]),
        extra=st.integers(0, 40),
        window=st.integers(0, 12),
        windows=st.lists(st.tuples(st.integers(-1, 6), st.integers(-2, 80)), max_size=8),
    )
    @settings(max_examples=80)
    def test_vector_is_bit_equal_to_the_full_image_proxy(self, seed, color, height, block, extra, window, windows):
        rng = np.random.default_rng(seed)
        width = block + extra
        pixels = rng.integers(0, 256, (height, width, 3) if color else (height, width), dtype=np.uint8)
        image = ColorImage(pixels) if color else pixels
        cfg = SwimConfig(block=block, window=window)
        proxy, reference = RowProxy(image, cfg), FullImageRowProxy(image, cfg)
        assert proxy.shape == reference.lum.shape
        # windows at both image borders, first and last row, then any
        for row, start in [(0, 0), (height - 1, width - block), (0, width - block), (height - 1, 0), *windows]:
            try:
                expected = reference._vector(row, start)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    proxy._vector(row, start)
                continue
            assert np.array(proxy._vector(row, start)).tobytes() == np.array(expected).tobytes()

    def test_pricing_a_row_allocates_far_less_than_a_luminance_image(self):
        """Building a proxy of a 960x1280 color image and pricing one row
        allocates under a hundredth of one float64 luminance copy."""
        h, w = 960, 1280
        image = ColorImage(np.random.default_rng(0).integers(0, 256, (h, w, 3), dtype=np.uint8))
        budget = h * w * np.dtype(np.float64).itemsize // 100
        tracemalloc.start()
        try:
            costs = RowProxy(image, SwimConfig()).edge_costs(480, 640, [635, 645])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(0.0 < c < math.inf for c in costs)
        assert peak < budget

    def test_stereo_approximation_of_read_only_inputs(self):
        """The proxies read the input pixels while the views are approximated;
        an edit in place of a read-only input would raise."""
        spec = SceneSpec(width=96, height=80, shapes=2, jitter=2, texture="noise")
        left, right = make_synthetic_scene(3, spec)
        cfg = PipelineConfig(seed=3).approx_config(2.0)
        expected = approximate_stereo(left, right, cfg, threshold=PipelineConfig().threshold, scale=spec.value_scale)
        for view in (left, right):
            for image in view:
                image.pixels.setflags(write=False)
        result = approximate_stereo(left, right, cfg, threshold=PipelineConfig().threshold, scale=spec.value_scale)
        for got, want in ((result.left, expected.left), (result.right, expected.right)):
            assert (got.depth, got.color, got.contours) == (want.depth, want.color, want.contours)
        assert result.left.contours != result.left.original_contours  # the views were edited


class TestSharedMemo:
    """Proxies that share a memo price each window of equal input once, and
    every window they price equals the full-image reference's."""

    # at window start 0 both configs compare the 12-pixel span at offset 0:
    # a memo keyed without block and window would mix them up
    CONFIGS = (SwimConfig(block=8, window=4), SwimConfig(block=4, window=8))

    def test_two_images_and_two_configs_share_one_memo(self):
        rng = np.random.default_rng(7)
        first = rng.integers(0, 256, (6, 40, 3), dtype=np.uint8)
        second = first.copy()
        second[[1, 4]] = rng.integers(0, 256, (2, 40, 3), dtype=np.uint8)
        memo = {}
        distinct = set()
        for pixels, weight in ((first, 0.0), (second, 1e6)):
            for cfg in self.CONFIGS:
                proxy = RowProxy(ColorImage(pixels), cfg, weight, memo)
                reference = FullImageRowProxy(ColorImage(pixels), cfg)
                for row in range(6):
                    for start in range(40 - cfg.block + 1):
                        assert np.array(proxy._vector(row, start)).tobytes() == np.array(reference._vector(row, start)).tobytes()
                        distinct.add((cfg.block, cfg.window, start, pixels[row].tobytes()))
        windows = sum(40 - cfg.block + 1 for cfg in self.CONFIGS)  # of one row, both configs
        # the six rows of the first image, then only the two new rows of the second
        assert len(memo) == len(distinct) == (6 + 2) * windows

    def test_a_proxy_without_a_memo_makes_its_own(self, rng):
        image = textured_color(rng, 8, 32)
        cfg = SwimConfig(block=8, window=4)
        one, other = RowProxy(image, cfg), RowProxy(image, cfg)
        assert one.memo is not other.memo
        one.edge_costs(2, 12, [11, 13])
        assert len(one.memo) == 1 and other.memo == {}

    def test_readme_sweep_prices_each_distinct_window_once(self, monkeypatch):
        """The README sweep (lambda 0, 2, 8) prices 390 row windows, proxy
        by proxy; 134 of them are distinct, and the sweep's one memo computes
        only those.  The memo lives for one call: a second sweep computes
        the 134 again."""
        fits = []
        fit = swim.laplace_fit
        monkeypatch.setattr(swim, "laplace_fit", lambda coeffs: fits.append(1) or fit(coeffs))
        spec = SceneSpec(width=128, height=96, jitter=2, texture="noise")
        left, right = make_synthetic_scene(2, spec)
        config = PipelineConfig(seed=2)
        for _ in range(2):
            fits.clear()
            csv = run_sweep(left, right, config, (0.0, 2.0, 8.0), spec.value_scale, timing=False)
            assert len(fits) == 134
            assert csv.encode() == README_SWEEP.read_bytes()
        fits.clear()
        for lam in (0.0, 2.0, 8.0):
            approximate_stereo(left, right, config.approx_config(lam), threshold=config.threshold, scale=spec.value_scale)
        assert len(fits) == 390


class TestUpperBound:
    def test_rowwise_bound_holds(self, rng):
        """Block KS distance never exceeds the sum of per-row KS distances
        when every row is binned on the shared grid."""
        bins = 10
        for _ in range(200):
            c_o = rng.normal(size=(8, 7))
            c_s = rng.normal(size=(8, 7))
            lo = min(c_o.min(), c_s.min())
            hi = max(c_o.max(), c_s.max())
            f_o = np.stack([np.cumsum(np.histogram(r, bins, (lo, hi))[0]) for r in c_o])
            f_s = np.stack([np.cumsum(np.histogram(r, bins, (lo, hi))[0]) for r in c_s])
            block = np.max(np.abs(f_o.sum(axis=0) - f_s.sum(axis=0)))
            rows = np.abs(f_o - f_s).max(axis=1).sum()
            assert block <= rows + 1e-12
