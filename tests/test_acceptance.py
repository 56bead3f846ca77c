"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and budgets are fixed here, not tuned at runtime.
"""

import math
import time
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest

from conftest import canonical, contour_row_shifts, payload_bits, random_contour, textured_color
from contourcodec import aec
from contourcodec.aec import AecParams, estimate_rate
from contourcodec.approx import (
    ApproxConfig,
    approximate_segment,
    segment_path_cost,
)
from contourcodec.augment import approximate_stereo, synthesize_view
from contourcodec.cli import run_sweep
from contourcodec.config import PipelineConfig
from contourcodec.contour import (
    Segment,
    detect_contours,
    segment_endpoint,
    segment_vertical_columns,
    split_segments,
)
from contourcodec.image_io import SceneSpec, make_synthetic_scene, pixel_shift
from contourcodec.swim import (
    SwimConfig,
    block_scores,
    laplace_fit,
    laplace_ks,
    luminance,
    row_distortion,
    row_proxy,
    swim_score,
    window_anchor,
)

SMALL_SWIM = SwimConfig(block=8, window=4)


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def make_segment(rng, max_len=12):
    t = int(rng.integers(2, max_len + 1))
    v = int(rng.integers(1, t))
    dir_v = "SN"[rng.integers(0, 2)]
    dir_h = "EW"[rng.integers(0, 2)]
    dirs = [dir_v] * v + [dir_h] * (t - v)
    rng.shuffle(dirs)
    start = (int(rng.integers(14, 22)), int(rng.integers(20, 26)))
    return Segment(start, (dir_v, dir_h), "".join(dirs))


def test_01_codec_roundtrip_and_rate_bound():
    rng = np.random.default_rng(1001)
    params = AecParams()
    start = time.perf_counter()
    for _ in range(1000):
        contours = [
            random_contour(rng, int(rng.integers(1, 201)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        data = aec.encode(contours, params)
        assert aec.decode(data, params) == contours
        estimate = sum(estimate_rate(c, params) for c in contours)
        assert payload_bits(data) <= estimate + 16 + 0.01 * estimate
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"1000 contour sets round-trip losslessly within the rate bound ({elapsed:.1f}s)")


def test_02_laplace_mle_exactness():
    rng = np.random.default_rng(1002)
    for _ in range(10_000):
        data = rng.laplace(0.0, rng.uniform(0.1, 5.0), size=int(rng.integers(1, 65)))
        reference = math.fsum(abs(x) for x in data) / data.size
        assert abs(laplace_fit(data) - reference) <= 1e-12

    def loglik(sigma, data):
        return -data.size * math.log(2.0 * sigma) - np.abs(data).sum() / sigma

    for _ in range(100):
        data = rng.laplace(0.0, rng.uniform(0.2, 4.0), size=50)
        s = laplace_fit(data)
        assert loglik(s, data) >= loglik(s - 1e-3, data)
        assert loglik(s, data) >= loglik(s + 1e-3, data)
    report(2, "scale estimate equals the mean absolute value and maximizes the likelihood")


def _laplace_cdf(c, sigma):
    c = np.asarray(c, float)
    neg = 0.5 * np.exp(np.minimum(c, 0.0) / sigma)
    pos = 1.0 - 0.5 * np.exp(-np.maximum(c, 0.0) / sigma)
    return np.where(c < 0, neg, pos)


def _grid_ks(sa, sb):
    hi = max(sa, sb)
    lo_edge, hi_edge = -30.0 * hi, 30.0 * hi
    for _ in range(4):
        grid = np.linspace(lo_edge, hi_edge, 8193)
        gap = np.abs(_laplace_cdf(grid, sa) - _laplace_cdf(grid, sb))
        i = int(np.argmax(gap))
        step = grid[1] - grid[0]
        lo_edge, hi_edge = grid[i] - 2 * step, grid[i] + 2 * step
    return float(gap.max())


def test_03_closed_form_ks_vs_grid_oracle():
    assert laplace_ks(1.0, 2.0) == 0.25
    rng = np.random.default_rng(1003)
    for _ in range(100):
        sa, sb = rng.uniform(0.1, 10.0, size=2)
        assert abs(laplace_ks(sa, sb) - 2.0 * _grid_ks(sa, sb)) <= 1e-6
    report(3, "closed-form KS matches the numeric CDF-gap oracle to 1e-6")


def test_04_rowwise_upper_bound():
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        c_o = rng.normal(size=(8, 7))
        c_s = rng.normal(size=(8, 7))
        lo = min(c_o.min(), c_s.min())
        hi = max(c_o.max(), c_s.max())
        f_o = np.stack([np.cumsum(np.histogram(r, 10, (lo, hi))[0]) for r in c_o])
        f_s = np.stack([np.cumsum(np.histogram(r, 10, (lo, hi))[0]) for r in c_s])
        block = np.max(np.abs(f_o.sum(axis=0) - f_s.sum(axis=0)))
        rows = np.abs(f_o - f_s).max(axis=1).sum()
        assert block <= rows + 1e-12
    report(4, "block KS never exceeds the sum of row KS on 1000 block pairs")


def test_05_dp_equals_exhaustive_search():
    rng = np.random.default_rng(1005)
    color = textured_color(rng, 40, 48)
    lambdas = [0.0, 0.1, 1.0, 10.0]
    start = time.perf_counter()
    for _ in range(200):
        seg = make_segment(rng)
        cols = segment_vertical_columns(seg)
        cfg = ApproxConfig(lagrange=float(rng.choice(lambdas)), aec=AecParams(), swim=SMALL_SWIM)
        _, cost = approximate_segment(seg, (), color, cols, cfg)
        proxy = row_proxy(color, cfg.swim)
        best = math.inf
        dir_v, dir_h = seg.dirpair
        for vpos in combinations(range(seg.length), seg.vertical_count):
            dirs = [dir_h] * seg.length
            for i in vpos:
                dirs[i] = dir_v
            total = segment_path_cost(seg, dirs, (), proxy, cols, cfg).total
            if total < best:
                best = total
        assert abs(cost.total - best) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"DP equals the exhaustive minimum on 200 segments ({elapsed:.1f}s)")


def test_06_lagrangian_monotonicity():
    rng = np.random.default_rng(1006)
    color = textured_color(rng, 40, 48)
    violations = 0
    for _ in range(50):
        seg = make_segment(rng)
        cols = segment_vertical_columns(seg)
        rates, dists = [], []
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            cfg = ApproxConfig(lagrange=lam, aec=AecParams(), swim=SMALL_SWIM)
            _, cost = approximate_segment(seg, (), color, cols, cfg)
            rates.append(cost.rate)
            dists.append(cost.distortion)
        violations += sum(b > a + 1e-9 for a, b in zip(rates, rates[1:]))
        violations += sum(b < a - 1e-9 for a, b in zip(dists, dists[1:]))
    assert violations == 0
    report(6, "rate non-increasing and distortion non-decreasing over the lambda sweep")


def _proxy_by_block(view, color, depth, shift_fn, swim_cfg):
    """Accumulate row-distortion proxy into mid-view blocks; the shifted row
    window straddles up to two blocks, so its value is split by overlap."""
    lum = luminance(color)
    h, w = lum.shape
    n = swim_cfg.block
    proxy = defaultdict(float)
    for orig, appr in zip(view.original_contours, view.contours):
        for row, qo, qn in contour_row_shifts(orig, appr):
            left = depth.pixels[row, qo - 1] if qo > 0 else 0
            right = depth.pixels[row, min(qo, w - 1)]
            value = row_distortion(lum, row, window_anchor(qo, w, n), qo, qn, swim_cfg)
            anchor_mid = window_anchor(qo, w, n) + shift_fn(int(max(left, right)))
            anchor_mid = min(max(anchor_mid, 0), w - n)
            first = anchor_mid // n
            offset = anchor_mid - first * n
            proxy[(row // n, first)] += value * (n - offset) / n
            if offset:
                proxy[(row // n, first + 1)] += value * offset / n
    return proxy


def test_07_proxy_tracks_block_distortion():
    start = time.perf_counter()
    swim_cfg = SwimConfig()
    pairs = []
    for seed in range(15):
        spec = SceneSpec(width=192, height=144, shapes=3, jitter=2, texture="noise")
        left, right = make_synthetic_scene(seed, spec)
        lam = [1.0, 4.0, 16.0][seed % 3]
        # merging is disabled so every original row pairs exactly with its
        # shifted counterpart; the experiment isolates the proxy model
        cfg = ApproxConfig(lagrange=lam, merge=False, aec=AecParams(), swim=swim_cfg)
        res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
        reference = synthesize_view(left, right, 0.5, spec.value_scale)
        modified = synthesize_view(
            (res.left.depth, res.left.color), (res.right.depth, res.right.color), 0.5, spec.value_scale
        )
        scores = block_scores(modified, reference, swim_cfg)
        proxy = defaultdict(float)
        for blocks in (
            _proxy_by_block(res.left, left[1], left[0],
                            lambda d: -pixel_shift(d, 0.5, spec.value_scale), swim_cfg),
            _proxy_by_block(res.right, right[1], right[0],
                            lambda d: pixel_shift(d, 0.5, spec.value_scale), swim_cfg),
        ):
            for key, value in blocks.items():
                proxy[key] += value
        for (bi, bj), value in proxy.items():
            if bi < scores.shape[0] and bj < scores.shape[1]:
                pairs.append((scores[bi, bj], value))
    elapsed = time.perf_counter() - start
    assert len(pairs) >= 300
    arr = np.array(pairs)
    corr = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
    assert corr >= 0.4
    assert elapsed < 120.0
    report(7, f"proxy vs block distortion Pearson r = {corr:.3f} on {len(pairs)} blocks ({elapsed:.1f}s)")


def test_08_structural_preservation():
    rng = np.random.default_rng(1008)
    color = textured_color(rng, 40, 48)
    for _ in range(100):
        seg = make_segment(rng)
        cfg = ApproxConfig(lagrange=float(rng.uniform(0, 8)), aec=AecParams(), swim=SMALL_SWIM)
        out, _ = approximate_segment(seg, (), color, segment_vertical_columns(seg), cfg)
        assert out.start == seg.start
        assert segment_endpoint(out) == segment_endpoint(seg)
        assert out.length == seg.length
        assert out.vertical_count == seg.vertical_count
    checked = 0
    for seed in range(4):
        spec = SceneSpec(width=128, height=96, shapes=2, jitter=2, texture="noise")
        left, right = make_synthetic_scene(seed, spec)
        for lam in (0.0, 4.0):
            cfg = ApproxConfig(lagrange=lam, aec=AecParams(), swim=SwimConfig())
            res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
            for view in (res.left, res.right):
                for orig, appr in zip(view.original_contours, view.contours):
                    assert appr.start == orig.start and appr.end == orig.end
                    assert len(split_segments(appr)) <= len(split_segments(orig))
                    checked += 1
    assert checked > 0
    report(8, f"endpoints, lengths and segment counts preserved ({checked} contours)")


def test_09_coding_gain_with_bounded_quality_loss():
    params = AecParams()
    swim_cfg = SwimConfig()
    wins = 0
    worst_drop = 0.0
    for seed in range(50):
        spec = SceneSpec(width=112, height=96, shapes=2, jitter=2, texture="noise")
        left, right = make_synthetic_scene(seed, spec)
        original_bits = 8 * (
            len(aec.encode(detect_contours(left[0], 30), params))
            + len(aec.encode(detect_contours(right[0], 30), params))
        )
        reference = synthesize_view(left, right, 0.5, spec.value_scale)
        scores = {}
        bits = {}
        for lam in (0.0, 8.0):
            cfg = ApproxConfig(lagrange=lam, aec=params, swim=swim_cfg)
            res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
            bits[lam] = 8 * (
                len(aec.encode(res.left.contours, params))
                + len(aec.encode(res.right.contours, params))
            )
            synth = synthesize_view(
                (res.left.depth, res.left.color), (res.right.depth, res.right.color), 0.5, spec.value_scale
            )
            _, scores[lam] = swim_score(synth, reference, swim_cfg)
        wins += bits[8.0] < original_bits
        worst_drop = max(worst_drop, scores[0.0] - scores[8.0])
        assert scores[0.0] - scores[8.0] <= 0.05
    assert wins >= 45  # 90% of 50 scenes
    report(9, f"lambda=8 beats original contour bits on {wins}/50 scenes; worst S drop {worst_drop:.4f}")


def _timed_segment(rng, v, w, reps=7):
    # wide zigzag: the rectangle spans more columns than the match window
    horizontal = 26
    dirs = []
    for i in range(v):
        dirs.append("S")
        dirs.extend(["E"] * (horizontal // v + (i < horizontal % v)))
    seg = Segment((4, 4), ("S", "E"), "".join(dirs))
    color = textured_color(rng, v + 16, horizontal + 80)
    cols = segment_vertical_columns(seg)
    cfg = ApproxConfig(lagrange=1.0, aec=AecParams(), swim=SwimConfig(block=8, window=w))
    approximate_segment(seg, (), color, cols, cfg)  # warm model caches
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        approximate_segment(seg, (), color, cols, cfg)
        best = min(best, time.perf_counter() - t0)
    return best


def test_10_complexity_scaling():
    rng = np.random.default_rng(1010)
    t_v1 = _timed_segment(rng, 8, 10)
    t_v2 = _timed_segment(rng, 16, 10)
    ratio_v = t_v2 / t_v1
    t_w1 = _timed_segment(rng, 8, 5)
    t_w2 = _timed_segment(rng, 8, 10)
    ratio_w = t_w2 / t_w1
    assert ratio_v <= 2.5
    assert ratio_w <= 2.5
    report(10, f"doubling V scales {ratio_v:.2f}x, doubling W scales {ratio_w:.2f}x (budget 2.5x)")


def test_11_redetection_roundtrip():
    checked = 0
    for seed in range(6):
        spec = SceneSpec(width=128, height=96, shapes=2, jitter=2, texture="noise")
        left, right = make_synthetic_scene(seed, spec)
        for lam in (2.0, 8.0):
            cfg = ApproxConfig(lagrange=lam, aec=AecParams(), swim=SwimConfig())
            res = approximate_stereo(left, right, cfg, threshold=30, scale=spec.value_scale)
            for view in (res.left, res.right):
                redetected = {canonical(c) for c in detect_contours(view.depth, 30)}
                approximated = {canonical(c) for c in view.contours}
                assert redetected == approximated
                checked += len(approximated)
    report(11, f"augmented depth re-detects to the approximated contours exactly ({checked} contours)")


def test_12_sweep_determinism():
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=2, texture="noise")
    left, right = make_synthetic_scene(5, spec)
    cfg = PipelineConfig(lambdas=(0.0, 4.0), alphas=(0.5,))
    a = run_sweep(left, right, cfg, cfg.lambdas, spec.value_scale, timing=False)
    b = run_sweep(left, right, cfg, cfg.lambdas, spec.value_scale, timing=False)
    assert a == b
    assert a.splitlines()[0].startswith("lambda,contour_bits,proxy_distortion")
    report(12, "sweep output is bit-identical across reruns (timing columns zeroed)")
