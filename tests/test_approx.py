import logging
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import textured_color
from contourcodec.aec import AecParams, context_model, estimate_rate
from contourcodec.approx import (
    ApproxConfig,
    RdCost,
    approximate_contour,
    approximate_segment,
    merge_segments,
    project_onto_rectangle,
    segment_path_cost,
)
from contourcodec.contour import (
    DIR_VECTOR,
    OPPOSITE,
    Contour,
    Segment,
    crack,
    detect_contours,
    segment_endpoint,
    segment_vertical_columns,
    split_segments,
)
from contourcodec.image_io import ColorImage, DepthImage
from contourcodec.swim import (
    RowProxy,
    SwimConfig,
    haar_row,
    laplace_fit,
    laplace_ks,
    luminance,
    row_distortion,
    row_proxy,
    window_anchor,
)

SMALL = dict(aec=AecParams(), swim=SwimConfig(block=8, window=4))


def small_cfg(lagrange, merge=True):
    return ApproxConfig(lagrange=lagrange, merge=merge, **SMALL)


def random_segment(rng, max_len=12):
    """Random two-direction segment placed so all proxy windows fit."""
    t = int(rng.integers(2, max_len + 1))
    v = int(rng.integers(1, t))
    dir_v = "SN"[rng.integers(0, 2)]
    dir_h = "EW"[rng.integers(0, 2)]
    dirs = [dir_v] * v + [dir_h] * (t - v)
    rng.shuffle(dirs)
    start = (int(rng.integers(14, 22)), int(rng.integers(20, 26)))
    return Segment(start, (dir_v, dir_h), "".join(dirs))


def brute_force_minimum(seg, prior, color, cols, cfg):
    """Exhaustive minimum over all same-endpoint paths (the DP oracle)."""
    dir_v, dir_h = seg.dirpair
    t, v = seg.length, seg.vertical_count
    proxy = row_proxy(color, cfg.swim)
    best = math.inf
    opposite = {"E": "W", "W": "E", "S": "N", "N": "S"}
    for vpos in combinations(range(t), v):
        dirs = [dir_h] * t
        for i in vpos:
            dirs[i] = dir_v
        if prior and dirs[0] == opposite[prior[-1]]:
            continue  # the DP forbids 180-degree turns at the seam
        cost = segment_path_cost(seg, dirs, prior, proxy, cols, cfg)
        if cost.total < best:
            best = cost.total
    return best


logger = logging.getLogger(__name__)


def dict_dp_segment(seg: Segment, prior_dirs, color, vertical_columns, cfg: ApproxConfig, *, forbidden_last: str | None = None):
    """The former dict-of-(window, p, q) DP, kept as the reference for the
    dense one: states are inserted on first arrival, vertical move first,
    and replaced only by a strictly cheaper arrival.

    ``prior_dirs`` are the directions already coded before this segment (the
    context seed); only the last K count.  ``vertical_columns`` maps each
    pixel row crossed by the original segment's vertical edges to the edge
    column.
    ``forbidden_last`` excludes paths ending in that direction, so the next
    segment of the contour can never be forced into a 180-degree turn.
    ``color`` is the view's color image or a ``swim.RowProxy`` of it, whose
    weight prices each shift; callers that approximate several segments of
    one image share one proxy.

    Returns (approximated Segment, RdCost).
    """
    k = cfg.aec.context_len
    prior = tuple(prior_dirs)[-k:]
    if seg.length == 0:
        return seg, RdCost(0.0, 0.0, 0.0)
    first_row, end_row = sorted((seg.start[0], segment_endpoint(seg)[0]))
    missing = [r for r in range(first_row, end_row) if r not in vertical_columns]
    if missing:
        raise ValueError(f"vertical_columns missing rows {missing}")

    dir_v, dir_h = seg.dirpair
    p_end, q_end = segment_endpoint(seg)
    proxy = row_proxy(color, cfg.swim)
    model = context_model(cfg.aec)
    lagrange = cfg.lagrange
    opp_v, opp_h = OPPOSITE[dir_v], OPPOSITE[dir_h]
    dp_v = DIR_VECTOR[dir_v][0]
    dq_h = DIR_VECTOR[dir_h][1]
    row_offset = crack((0, 0), dir_v)[1]  # pixel row of a vertical edge leaving (p, q)

    layer = {(prior, seg.start[0], seg.start[1]): 0.0}
    parents = []
    for _ in range(seg.length):
        nxt = {}
        par = {}
        for state, cost in layer.items():
            recent, p, q = state
            last = recent[-1] if recent else None
            bits = model[recent][0]
            # vertical evaluated first (tie preference); a move into an
            # occupied state must be strictly cheaper to replace it
            if p != p_end and last != opp_v:
                c = cost + lagrange * bits[dir_v]
                row = p + row_offset
                c += proxy.edge_costs(row, vertical_columns[row], (q,))[0]
                new = ((recent + (dir_v,))[-k:], p + dp_v, q)
                old = nxt.get(new)
                if old is None or c < old:
                    nxt[new] = c
                    par[new] = (state, dir_v)
            if q != q_end and last != opp_h:
                c = cost + lagrange * bits[dir_h]
                new = ((recent + (dir_h,))[-k:], p, q + dq_h)
                old = nxt.get(new)
                if old is None or c < old:
                    nxt[new] = c
                    par[new] = (state, dir_h)
        if not nxt:
            raise ValueError("unreachable endpoint: malformed segment")
        layer = nxt
        parents.append(par)

    best_state = None
    best_cost = math.inf
    for state, cost in layer.items():
        if forbidden_last is not None and state[0] and state[0][-1] == forbidden_last:
            continue
        if cost < best_cost:
            best_cost = cost
            best_state = state
    if best_state is None or math.isinf(best_cost):
        # reachable when a projected merge candidate leaves no finite path;
        # callers reject the infinite cost
        logger.debug("every candidate path has infinite distortion; keeping the original segment")
        original = segment_path_cost(seg, seg.dirs, prior, proxy, vertical_columns, cfg)
        return seg, RdCost(math.inf, original.rate, math.inf)

    dirs = []
    state = best_state
    for par in reversed(parents):
        state, d = par[state]
        dirs.append(d)
    dirs.reverse()
    result = Segment(seg.start, seg.dirpair, "".join(dirs))
    cost = segment_path_cost(result, dirs, prior, proxy, vertical_columns, cfg)
    return result, cost


@st.composite
def tie_heavy_cases(draw):
    """Segment DP inputs where many paths cost the same: mostly flat color
    (every finite row cost 0), lambda 0 or > 0, K 1-5, prior windows that
    may block the first move, forbidden last moves, proxies with penalty
    weights, and match windows narrow enough (or original columns far enough
    away) for infinite row costs."""
    k = draw(st.integers(1, 5))
    dir_v, dir_h = draw(st.sampled_from("SN")), draw(st.sampled_from("EW"))
    v = draw(st.integers(0, 6))
    h = draw(st.integers(0 if v else 1, 6))
    dirs = draw(st.permutations([dir_v] * v + [dir_h] * h))
    seg = Segment((draw(st.integers(12, 24)), draw(st.integers(16, 30))), (dir_v, dir_h), "".join(dirs))
    cols = segment_vertical_columns(seg)
    if draw(st.booleans()):
        cols = {row: col + draw(st.integers(-7, 7)) for row, col in cols.items()}
    prior = tuple(draw(st.lists(st.sampled_from("NESW"), max_size=k)))
    seed = draw(st.integers(0, 2**16))
    color = ColorImage(np.full((40, 48, 3), 90, np.uint8)) if draw(st.integers(0, 3)) else textured_color(np.random.default_rng(seed), 40, 48)
    cfg = ApproxConfig(
        lagrange=draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])),
        aec=AecParams(context_len=k),
        swim=SwimConfig(block=8, window=draw(st.sampled_from([1, 2, 4, 10]))),
    )
    proxy = RowProxy(color, cfg.swim, draw(st.sampled_from([0.0, 1.0, 1e6])))
    options = dict(forbidden_last=draw(st.sampled_from([None, "N", "E", "S", "W"])))
    return (seg, prior, proxy, cols, cfg), options


def _outcome(dp, args, options):
    try:
        seg, cost = dp(*args, **options)
    except ValueError as err:
        return "ValueError", str(err)
    return seg, repr(cost)


class TestTieRule:
    """The dense DP against the former dict DP: same path and repr-equal
    cost (or the same error) where ties abound."""

    @settings(max_examples=400)
    @given(tie_heavy_cases())
    def test_same_path_and_cost_as_dict_dp(self, case):
        args, options = case
        reference = _outcome(dict_dp_segment, args, options)
        assert _outcome(approximate_segment, args, options) == reference

    def test_flat_staircases_break_ties_like_dict_dp(self):
        flat = ColorImage(np.full((40, 48, 3), 90, np.uint8))
        for k in range(1, 6):
            cfg = ApproxConfig(aec=AecParams(context_len=k), swim=SwimConfig(block=8, window=4))
            for dirs in ("SESESE", "EESSSE", "SSSEEE", "ESESSE", "SE" * 8, "E" * 6 + "S" * 8 + "E" * 4):
                seg = Segment((16, 20), ("S", "E"), dirs)
                cols = segment_vertical_columns(seg)
                for prior in ((), ("E",) * k, ("S",) * k):
                    args = (seg, prior, flat, cols, cfg)
                    for forbidden in (None, "S", "E"):
                        options = dict(forbidden_last=forbidden)
                        assert _outcome(approximate_segment, args, options) == _outcome(dict_dp_segment, args, options)


def _scalar_row_cost(lum, row, q_orig, q, swim, weight):
    """(row distortion, shifted-edge cost) from two scalar window fits."""
    n, w = swim.block, lum.shape[1]
    start = window_anchor(q_orig, w, n)
    shifted = start - (q - q_orig)
    if abs(q - q_orig) > swim.window or not 0 <= shifted <= w - n:
        distortion = math.inf
    else:
        u, v = lum[row, start : start + n], lum[row, shifted : shifted + n]
        distortion = laplace_ks(laplace_fit(haar_row(u)), laplace_fit(haar_row(v)))
    return distortion, distortion + weight * (q - q_orig) ** 2


@st.composite
def row_fill_cases(draw):
    """Noise images with N 2-32 and W 0-12; edge columns drawn often at the
    image edges, so windows sit at both ends of a row."""
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    height, width = draw(st.integers(1, 4)), draw(st.integers(n, n + 30))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 256, (height, width, 3), dtype=np.uint8)
    edge_column = st.sampled_from([0, width]) | st.integers(0, width)
    rows = draw(st.lists(st.integers(0, height - 1), min_size=1, max_size=4))
    cols = {row: draw(edge_column) for row in rows}
    swim = SwimConfig(block=n, window=draw(st.integers(0, 12)))
    return ColorImage(pixels), swim, rows, cols, draw(st.none() | edge_column), draw(st.sampled_from([0.0, 1.0, 1e6]))


class TestRowCostFill:
    """The row proxy fits the 2W + 1 windows of one shift vector in one
    stacked pass; every cost read from it must equal the scalar fits."""

    @settings(max_examples=300)
    @given(row_fill_cases())
    def test_grid_and_proxy_match_scalar_fits(self, case):
        image, swim, rows, cols, q_orig, weight = case
        lum = luminance(image)
        table = RowProxy(image, swim, weight)
        proxy = RowProxy(image, swim)
        origs = [cols[row] if q_orig is None else q_orig for row in rows]
        columns = range(min(origs) - swim.window - 2, max(origs) + swim.window + 3)  # beyond +-W on both sides
        for row, orig in zip(rows, origs):
            start = window_anchor(orig, lum.shape[1], swim.block)
            expected = []
            for q in columns:
                distortion, cost = _scalar_row_cost(lum, row, orig, q, swim, weight)
                assert row_distortion(proxy, row, start, orig, q, swim) == distortion
                assert table.edge_costs(row, orig, (q,)) == [cost]
                expected.append(cost)
            assert table.edge_costs(row, orig, columns) == expected


class TestPriorWindow:
    """The segment DP reads only the last K prior directions."""

    def test_long_prior_is_cut_to_the_window(self, rng):
        color = textured_color(rng, 40, 48)
        seg = Segment((16, 20), ("S", "E"), "SESE")
        cols = segment_vertical_columns(seg)
        cfg = small_cfg(1.0)
        full = approximate_segment(seg, ("E", "E", "S", "E", "S"), color, cols, cfg)
        assert full == approximate_segment(seg, ("S", "E", "S"), color, cols, cfg)


class TestApproximateSegment:
    def test_zero_lambda_zero_distortion(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(10):
            seg = random_segment(rng)
            cols = segment_vertical_columns(seg)
            _, cost = approximate_segment(seg, (), color, cols, small_cfg(0.0))
            assert cost.distortion == 0.0

    def test_matches_brute_force(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(40):
            seg = random_segment(rng)
            cols = segment_vertical_columns(seg)
            lam = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
            cfg = small_cfg(lam)
            _, cost = approximate_segment(seg, (), color, cols, cfg)
            oracle = brute_force_minimum(seg, (), color, cols, cfg)
            assert cost.total == pytest.approx(oracle, abs=1e-9)

    def test_matches_brute_force_with_prior_context(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(15):
            seg = random_segment(rng)
            prior = (seg.dirpair[0],) * 3  # consistent with any first step
            cols = segment_vertical_columns(seg)
            cfg = small_cfg(1.0)
            _, cost = approximate_segment(seg, prior, color, cols, cfg)
            oracle = brute_force_minimum(seg, prior, color, cols, cfg)
            assert cost.total == pytest.approx(oracle, abs=1e-9)

    def test_only_move_against_the_prior_is_unreachable(self):
        color = ColorImage(np.full((40, 48, 3), 90, np.uint8))
        for dirs, prior in (("SSS", ("N",)), ("EEEE", ("W",))):
            seg = Segment((16, 20), ("S", "E"), dirs)
            for dp in (approximate_segment, dict_dp_segment):
                with pytest.raises(ValueError) as err:
                    dp(seg, prior, color, segment_vertical_columns(seg), small_cfg(1.0))
                assert str(err.value) == "unreachable endpoint: malformed segment"

    def test_structure_preserved(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(25):
            seg = random_segment(rng)
            out, _ = approximate_segment(seg, (), color, segment_vertical_columns(seg), small_cfg(2.0))
            assert out.start == seg.start
            assert out.length == seg.length
            assert out.vertical_count == seg.vertical_count
            assert segment_endpoint(out) == segment_endpoint(seg)

    def test_large_lambda_does_not_increase_rate(self, rng):
        color = textured_color(rng, 48, 64)
        seg = Segment((18, 20), ("S", "E"), "SESESESESESE")
        cols = segment_vertical_columns(seg)
        cfg = small_cfg(1e6)
        out, cost = approximate_segment(seg, (), color, cols, cfg)
        original = segment_path_cost(seg, seg.dirs, (), color, cols, cfg)
        assert cost.rate <= original.rate

    def test_lagrangian_monotonicity(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(12):
            seg = random_segment(rng)
            cols = segment_vertical_columns(seg)
            rates, dists = [], []
            for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
                _, cost = approximate_segment(seg, (), color, cols, small_cfg(lam))
                rates.append(cost.rate)
                dists.append(cost.distortion)
            for a, b in zip(rates, rates[1:]):
                assert b <= a + 1e-9
            for a, b in zip(dists, dists[1:]):
                assert b >= a - 1e-9

    def test_reported_cost_is_path_cost(self, rng):
        color = textured_color(rng, 40, 48)
        seg = random_segment(rng)
        cols = segment_vertical_columns(seg)
        cfg = small_cfg(1.5)
        out, cost = approximate_segment(seg, (), color, cols, cfg)
        recomputed = segment_path_cost(out, out.dirs, (), color, cols, cfg)
        assert cost.total == recomputed.total
        assert abs(cost.total - (cost.distortion + cfg.lagrange * cost.rate)) <= 1e-9


def pair_costs(a, b, prior, color, cfg):
    """The pair's per-segment costs, priced as ``approximate_contour`` prices
    them: ``a`` may not end against ``b``'s first step, and ``b`` is coded
    after ``a``'s approximation."""
    a_seg, cost_a = approximate_segment(a, prior, color, segment_vertical_columns(a), cfg, forbidden_last=OPPOSITE[b.dirs[0]])
    _, cost_b = approximate_segment(b, prior + tuple(a_seg.dirs), color, segment_vertical_columns(b), cfg)
    return dict(cost_a=cost_a, cost_b=cost_b)


class TestMerge:
    def test_projection_fig_case(self):
        # first pair {E,S} overshoots right, second {W,S} comes back: edges
        # beyond the joint rectangle land on its right side
        a = Segment((0, 0), ("S", "E"), "EEEESS")
        b = Segment((2, 4), ("S", "W"), "WWS")
        proj, shifts = project_onto_rectangle(a, b)
        assert proj.start == (0, 0)
        assert segment_endpoint(proj) == (3, 2)
        assert proj.dirs == "EESSS"
        assert shifts == [(0, 4, 2), (1, 4, 2)]

    def test_projection_degenerate_loop(self):
        a = Segment((0, 0), ("S", "E"), "ES")
        b = Segment((1, 1), ("N", "W"), "WN")
        assert project_onto_rectangle(a, b) is None

    def test_monotone_pair_merges_with_zero_projection(self, rng):
        color = textured_color(rng, 48, 64)
        # a jittered staircase split in two at an interior point: the joint
        # optimization can move the junction, so the merge wins
        a = Segment((16, 20), ("S", "E"), "SEESSE")
        b = Segment((19, 23), ("S", "E"), "ESSEES")
        proj, shifts = project_onto_rectangle(a, b)
        assert shifts == []
        cfg = small_cfg(4.0)
        res = merge_segments(a, b, (), color, cfg, **pair_costs(a, b, (), color, cfg))
        assert res is not None
        projected, merged, cost = res
        assert projected == proj
        assert merged.start == a.start
        assert segment_endpoint(merged) == segment_endpoint(b)

    def test_merged_segment_never_ends_in_forbidden_last(self, rng):
        color = textured_color(rng, 48, 64)
        a = Segment((16, 20), ("S", "E"), "SEESSE")
        b = Segment((19, 23), ("S", "E"), "ESSEES")
        cfg = small_cfg(4.0)
        costs = pair_costs(a, b, (), color, cfg)
        last = merge_segments(a, b, (), color, cfg, **costs)[1].dirs[-1]
        res = merge_segments(a, b, (), color, cfg, forbidden_last=last, **costs)
        assert res is not None and res[1].dirs[-1] != last

    def test_deep_detour_rejected_at_small_lambda(self, rng):
        color = textured_color(rng, 48, 64)
        # a overshoots right before descending, so its vertical edges sit 4
        # columns outside the joint rectangle; projecting them costs real
        # distortion, and with lambda = 0 there is no rate gain to pay for it
        a = Segment((16, 20), ("S", "E"), "EEEEEESS")
        b = Segment((18, 26), ("S", "W"), "WWWWSS")
        _, shifts = project_onto_rectangle(a, b)
        assert shifts and all(qp != qo for _, qo, qp in shifts)
        cfg = small_cfg(0.0)
        res = merge_segments(a, b, (), color, cfg, **pair_costs(a, b, (), color, cfg))
        assert res is None


class TestApproximateContour:
    def _scene(self, rng):
        depth = np.full((48, 64), 40, np.uint8)
        bcols = [30, 30, 32, 31, 30, 30, 31, 32, 32, 30, 30, 30]
        for r, b in enumerate(bcols, 12):
            depth[r, 20:b] = 160
        depth[12:24, 20] = 160  # keep a clean left side
        return DepthImage(depth), textured_color(rng, 48, 64)

    def test_segment_count_never_grows(self, rng):
        depth, color = self._scene(rng)
        for c in detect_contours(depth, 60):
            for lam in (0.0, 2.0, 16.0):
                out, _ = approximate_contour(c, color, small_cfg(lam))
                assert len(split_segments(out)) <= len(split_segments(c))
                assert out.start == c.start and out.end == c.end

    def test_zero_lambda_no_merge_zero_distortion(self, rng):
        depth, color = self._scene(rng)
        for c in detect_contours(depth, 60):
            out, cost = approximate_contour(c, color, small_cfg(0.0, merge=False))
            assert cost.distortion == 0.0

    def test_rate_matches_estimate_without_merging(self, rng):
        depth, color = self._scene(rng)
        params = AecParams()
        for c in detect_contours(depth, 60):
            out, cost = approximate_contour(c, color, small_cfg(3.0, merge=False))
            assert cost.rate == pytest.approx(estimate_rate(out, params), abs=1e-9)

    def test_jittered_rectangle_straightens_at_large_lambda(self, rng):
        # interior notches on the left side; a large multiplier must smooth
        # every notch away and lower the coded rate (the optimizer may still
        # chamfer corners, which the context model genuinely codes cheaper)
        depth = np.full((64, 80), 40, np.uint8)
        left, right, top, bottom = 24, 56, 20, 52
        notch = {28: 1, 34: -1, 40: 2, 47: -1}
        for r in range(top, bottom):
            depth[r, left + notch.get(r, 0) : right] = 170
        color = textured_color(rng, 64, 80)
        cfg = ApproxConfig(lagrange=50.0, merge=True, aec=AecParams(), swim=SwimConfig(block=16, window=10))
        (contour,) = detect_contours(DepthImage(depth), 60)
        out, _ = approximate_contour(contour, color, cfg)
        params = AecParams()
        assert estimate_rate(out, params) < estimate_rate(contour, params)
        cols_by_row = {}
        p, q = out.start
        for d in out.absolute_dirs():
            if d == "S":
                cols_by_row.setdefault(p, []).append(q)
            elif d == "N":
                cols_by_row.setdefault(p - 1, []).append(q)
            dp, dq = {"E": (0, 1), "S": (1, 0), "W": (0, -1), "N": (-1, 0)}[d]
            p, q = p + dp, q + dq
        interior = range(top + 4, bottom - 4)
        left_cols = {min(cols_by_row[r]) for r in interior}
        right_cols = {max(cols_by_row[r]) for r in interior}
        assert len(left_cols) == 1 and len(right_cols) == 1

    def test_contour_leaving_the_image_raises(self, rng):
        # its corners reach column 33 of the 32-column image
        contour = Contour((20, 30), "S", "sslssr")
        with pytest.raises(ValueError, match="leaves the image"):
            approximate_contour(contour, textured_color(rng, 32, 32), ApproxConfig(lagrange=1.0))

    def test_proxy_is_priced_like_its_image(self, rng):
        depth, color = self._scene(rng)
        cfg = small_cfg(2.0)
        for c in detect_contours(depth, 60):
            out, cost = approximate_contour(c, color, cfg)
            via_proxy, proxy_cost = approximate_contour(c, RowProxy(color, cfg.swim), cfg)
            assert via_proxy == out and repr(proxy_cost) == repr(cost)


class TestSegmentPathCost:
    def test_doubling_back_on_prior_raises(self, rng):
        # merge_segments relies on the ValueError to reject such a candidate
        color = textured_color(rng, 40, 48)
        seg = Segment((16, 24), ("S", "W"), "WS")
        cols = segment_vertical_columns(seg)
        with pytest.raises(ValueError, match="doubles back"):
            segment_path_cost(seg, seg.dirs, ("S", "E", "E"), color, cols, small_cfg(1.0))
        # an edge coded before K directions exist is priced by the same model
        with pytest.raises(ValueError, match="doubles back"):
            segment_path_cost(seg, seg.dirs, ("E",), color, cols, small_cfg(1.0))


class TestInterviewPenalty:
    """The one shifted-edge cost the DP and merging use: row distortion plus
    the squared-shift penalty."""

    CFG = ApproxConfig(swim=SwimConfig())

    def test_zero_weight_equals_base(self, rng):
        img = textured_color(rng, 24, 64)
        proxy = RowProxy(img, self.CFG.swim)
        for k in (-3, 0, 2):
            assert proxy.edge_costs(5, 20, (20 + k,)) == [row_distortion(img, 5, 16, 20, 20 + k, self.CFG.swim)]

    def test_zero_shift_unpenalized(self, rng):
        img = textured_color(rng, 24, 64)
        assert RowProxy(img, self.CFG.swim, 1e6).edge_costs(5, 20, (20,)) == [0.0]

    def test_any_original_column_is_priced_at_its_own_anchor(self, rng):
        # merging prices an edge its projection moves, here from column 35 to 31
        img = textured_color(rng, 24, 64)
        (cost,) = RowProxy(img, self.CFG.swim, 1e6).edge_costs(5, 35, (31,))
        assert cost == row_distortion(img, 5, 32, 35, 31, self.CFG.swim) + 16e6 < math.inf

    def test_huge_weight_prefers_zero_shift(self, rng):
        img = textured_color(rng, 24, 64)
        (base,) = RowProxy(img, self.CFG.swim).edge_costs(5, 20, (21,))
        stay, shift = RowProxy(img, self.CFG.swim, 1e6).edge_costs(5, 20, (20, 21))
        assert shift == base + 1e6  # a one-pixel shift adds exactly the weight
        assert stay < shift

    def test_bad_weight_is_rejected(self, rng):
        # unchecked, weight -50 prices SESESE at distortion -699.9, and nan
        # returns EEEEEE, which misses the segment's endpoint
        color = textured_color(rng, 40, 48)
        seg = Segment((16, 20), ("S", "E"), "SESESE")
        for weight in (-50.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="weight must be finite and >= 0"):
                approximate_segment(seg, (), RowProxy(color, self.CFG.swim, weight), segment_vertical_columns(seg), self.CFG)

    def test_segment_stays_put_under_penalty(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(10):
            seg = random_segment(rng)
            cols = segment_vertical_columns(seg)
            cfg = ApproxConfig(lagrange=10.0, **SMALL)
            out, _ = approximate_segment(seg, (), RowProxy(color, cfg.swim, 1e6), cols, cfg)
            assert segment_vertical_columns(out) == cols
