import logging
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import textured_color
from contourcodec.aec import AecParams, context_model, early_bits, estimate_rate
from contourcodec.approx import (
    ApproxConfig,
    RdCost,
    _crossed_rows,
    _GraphMemo,
    _LayerGraph,
    approximate_contour,
    approximate_segment,
    merge_segments,
    project_onto_rectangle,
    row_cost_table,
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
from contourcodec.swim import SwimConfig, row_distortion

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


def brute_force_minimum(seg, prior, prior_count, color, cols, cfg, penalty_weight=0.0):
    """Exhaustive minimum over all same-endpoint paths (the DP oracle)."""
    dir_v, dir_h = seg.dirpair
    t, v = seg.length, seg.vertical_count
    rows = row_cost_table(color, cols, cfg, penalty_weight)
    best = math.inf
    opposite = {"E": "W", "W": "E", "S": "N", "N": "S"}
    for vpos in combinations(range(t), v):
        dirs = [dir_h] * t
        for i in vpos:
            dirs[i] = dir_v
        if prior and dirs[0] == opposite[prior[-1]]:
            continue  # the DP forbids 180-degree turns at the seam
        cost = segment_path_cost(seg, dirs, prior, prior_count, color, cols, cfg, penalty_weight, rows=rows)
        if cost.total < best:
            best = cost.total
    return best


logger = logging.getLogger(__name__)


def dict_dp_segment(seg: Segment, prior_dirs, color, vertical_columns, cfg: ApproxConfig, *, prior_count: int | None = None, penalty_weight: float = 0.0, forbidden_last: str | None = None):
    """The former dict-of-(window, p, q) DP, kept as the reference for the
    table-driven one: states are inserted on first arrival, vertical move
    first, and replaced only by a strictly cheaper arrival.

    ``prior_dirs`` are the directions already coded before this segment (the
    context seed); ``prior_count`` the number of contour edges preceding it
    (defaults to len(prior_dirs)).  ``vertical_columns`` maps each pixel row
    crossed by the original segment's vertical edges to the edge column.
    ``forbidden_last`` excludes paths ending in that direction, so the next
    segment of the contour can never be forced into a 180-degree turn.
    ``color`` is the view's color image or a ``swim.RowProxy`` of it; callers
    that approximate several segments of one image share one proxy.

    Returns (approximated Segment, RdCost).
    """
    k = cfg.aec.context_len
    prior = tuple(prior_dirs)[-k:]
    if prior_count is None:
        prior_count = len(prior)
    if seg.length == 0:
        return seg, RdCost(0.0, 0.0, 0.0)
    missing = [r for r in _crossed_rows(seg) if r not in vertical_columns]
    if missing:
        raise ValueError(f"vertical_columns missing rows {missing}")

    dir_v, dir_h = seg.dirpair
    p_end, q_end = segment_endpoint(seg)
    rows = row_cost_table(color, vertical_columns, cfg, penalty_weight)
    row_cost = rows.cost
    model = context_model(cfg.aec)
    lagrange = cfg.lagrange
    opp_v, opp_h = OPPOSITE[dir_v], OPPOSITE[dir_h]
    dp_v = DIR_VECTOR[dir_v][0]
    dq_h = DIR_VECTOR[dir_h][1]
    row_offset = crack((0, 0), dir_v)[1]  # pixel row of a vertical edge leaving (p, q)

    layer = {(prior, seg.start[0], seg.start[1]): 0.0}
    parents = []
    for t in range(1, seg.length + 1):
        nxt = {}
        par = {}
        early = early_bits(prior_count + t - 1, k)
        for state, cost in layer.items():
            recent, p, q = state
            last = recent[-1] if recent else None
            bits = None if early is not None else model[recent][0]
            # vertical evaluated first (tie preference); a move into an
            # occupied state must be strictly cheaper to replace it
            if p != p_end and last != opp_v:
                c = cost + lagrange * (early if bits is None else bits[dir_v])
                c += row_cost(p + row_offset, q)
                new = ((recent + (dir_v,))[-k:], p + dp_v, q)
                old = nxt.get(new)
                if old is None or c < old:
                    nxt[new] = c
                    par[new] = (state, dir_v)
            if q != q_end and last != opp_h:
                c = cost + lagrange * (early if bits is None else bits[dir_h])
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
        original = segment_path_cost(seg, seg.dirs, prior, prior_count, color, vertical_columns, cfg, rows=rows)
        return seg, RdCost(math.inf, original.rate, math.inf)

    dirs = []
    state = best_state
    for par in reversed(parents):
        state, d = par[state]
        dirs.append(d)
    dirs.reverse()
    result = Segment(seg.start, seg.dirpair, "".join(dirs))
    cost = segment_path_cost(result, dirs, prior, prior_count, color, vertical_columns, cfg, rows=rows)
    return result, cost


@st.composite
def tie_heavy_cases(draw):
    """Segment DP inputs where many paths cost the same: mostly flat color
    (every finite row cost 0), lambda 0 or > 0, K 1-5, prior windows that
    may block the first move, forbidden last moves, penalty weights, and
    match windows narrow enough (or original columns far enough away) for
    infinite row costs."""
    k = draw(st.integers(1, 5))
    dir_v, dir_h = draw(st.sampled_from("SN")), draw(st.sampled_from("EW"))
    v = draw(st.integers(0, 6))
    h = draw(st.integers(0 if v else 1, 6))
    dirs = draw(st.permutations([dir_v] * v + [dir_h] * h))
    seg = Segment((draw(st.integers(12, 24)), draw(st.integers(16, 30))), (dir_v, dir_h), "".join(dirs))
    cols = segment_vertical_columns(seg)
    if draw(st.booleans()):
        cols = {row: col + draw(st.integers(-7, 7)) for row, col in cols.items()}
    prior_count = draw(st.integers(0, 7))
    prior = tuple(draw(st.lists(st.sampled_from("NESW"), min_size=min(prior_count, k), max_size=min(prior_count, k))))
    seed = draw(st.integers(0, 2**16))
    color = ColorImage(np.full((40, 48, 3), 90, np.uint8)) if draw(st.integers(0, 3)) else textured_color(np.random.default_rng(seed), 40, 48)
    cfg = ApproxConfig(
        lagrange=draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])),
        aec=AecParams(context_len=k),
        swim=SwimConfig(block=8, window=draw(st.sampled_from([1, 2, 4, 10]))),
    )
    options = dict(
        penalty_weight=draw(st.sampled_from([0.0, 1.0, 1e6])),
        forbidden_last=draw(st.sampled_from([None, "N", "E", "S", "W"])),
    )
    return (seg, prior, color, cols, cfg), options, prior_count


def _outcome(dp, args, options):
    try:
        seg, cost = dp(*args, **options)
    except ValueError as err:
        return "ValueError", str(err)
    return seg, repr(cost)


class TestTieRule:
    """The table-driven DP against the dict DP it replaced: same path and
    repr-equal cost (or the same error) where ties abound.  The table-driven
    DP sees only the prior window; the dict DP also gets the number of
    edges before the segment, which may exceed K."""

    @settings(max_examples=400)
    @given(tie_heavy_cases())
    def test_same_path_and_cost_as_dict_dp(self, case):
        args, options, prior_count = case
        reference = _outcome(dict_dp_segment, args, dict(options, prior_count=prior_count))
        assert _outcome(approximate_segment, args, options) == reference

    def test_flat_staircases_break_ties_like_dict_dp(self):
        flat = ColorImage(np.full((40, 48, 3), 90, np.uint8))
        for k in range(1, 6):
            cfg = ApproxConfig(aec=AecParams(context_len=k), swim=SwimConfig(block=8, window=4))
            for dirs in ("SESESE", "EESSSE", "SSSEEE", "ESESSE"):
                seg = Segment((16, 20), ("S", "E"), dirs)
                cols = segment_vertical_columns(seg)
                for prior in ((), ("E",) * k, ("S",) * k):
                    args = (seg, prior, flat, cols, cfg)
                    for forbidden in (None, "S", "E"):
                        options = dict(forbidden_last=forbidden)
                        assert _outcome(approximate_segment, args, options) == _outcome(dict_dp_segment, args, options)


class TestGraphMemo:
    def test_least_recently_used_graphs_go_first(self):
        keys = [(3, 2, 2, ()), (3, 4, 4, ()), (3, 1, 1, ())]
        small, large, tiny = (_LayerGraph(*key).vertical.size for key in keys)
        memo = _GraphMemo(budget=small + large)
        first = memo(*keys[0])
        memo(*keys[1])
        assert memo(*keys[0]) is first  # a hit, and now the most recent
        memo(*keys[2])  # over budget: the large graph, least recently used, goes
        assert (memo.hits, memo.misses, len(memo), memo.states) == (1, 3, 2, small + tiny)
        assert memo(*keys[0]) is first

    def test_graph_over_budget_is_still_served(self):
        memo = _GraphMemo(budget=10)
        memo(3, 1, 1, ())
        graph = memo(3, 6, 6, ())
        assert len(memo) == 1 and memo.states == graph.vertical.size > 10


class TestPriorWindow:
    """The segment DP reads only the last K prior directions; an explicit
    path's ``prior_count`` must agree with them: they number
    min(prior_count, K)."""

    def test_short_prior_window_rejected(self, rng):
        color = textured_color(rng, 40, 48)
        seg = Segment((16, 20), ("S", "E"), "SESE")
        cols = segment_vertical_columns(seg)
        params = AecParams(context_len=3, kappa=2.5)  # a model no other test fills
        cfg = ApproxConfig(lagrange=1.0, aec=params, swim=SwimConfig(block=8, window=4))
        with pytest.raises(ValueError, match="prior window"):
            segment_path_cost(seg, seg.dirs, ("S",), 5, color, cols, cfg)
        assert not any(len(window) < 3 for window in context_model(params))

    def test_empty_prior_with_full_count_rejected(self, rng):
        color = textured_color(rng, 40, 48)
        seg = Segment((16, 20), ("S", "E"), "SESE")
        cols = segment_vertical_columns(seg)
        with pytest.raises(ValueError, match="prior window"):
            segment_path_cost(seg, seg.dirs, (), 4, color, cols, small_cfg(1.0))

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
            oracle = brute_force_minimum(seg, (), 0, color, cols, cfg)
            assert cost.total == pytest.approx(oracle, abs=1e-9)

    def test_matches_brute_force_with_prior_context(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(15):
            seg = random_segment(rng)
            prior = (seg.dirpair[0],) * 3  # consistent with any first step
            cols = segment_vertical_columns(seg)
            cfg = small_cfg(1.0)
            _, cost = approximate_segment(seg, prior, color, cols, cfg)
            oracle = brute_force_minimum(seg, prior, 7, color, cols, cfg)  # seven edges precede the segment
            assert cost.total == pytest.approx(oracle, abs=1e-9)

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
        original = segment_path_cost(seg, seg.dirs, (), 0, color, cols, cfg)
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
        recomputed = segment_path_cost(out, out.dirs, (), 0, color, cols, cfg)
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
                out, _ = approximate_contour(c, depth, color, small_cfg(lam))
                assert len(split_segments(out)) <= len(split_segments(c))
                assert out.start == c.start and out.end == c.end

    def test_zero_lambda_no_merge_zero_distortion(self, rng):
        depth, color = self._scene(rng)
        for c in detect_contours(depth, 60):
            out, cost = approximate_contour(c, depth, color, small_cfg(0.0, merge=False))
            assert cost.distortion == 0.0

    def test_rate_matches_estimate_without_merging(self, rng):
        depth, color = self._scene(rng)
        params = AecParams()
        for c in detect_contours(depth, 60):
            out, cost = approximate_contour(c, depth, color, small_cfg(3.0, merge=False))
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
        out, _ = approximate_contour(contour, DepthImage(depth), color, cfg)
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


class TestSegmentPathCost:
    def test_doubling_back_on_prior_raises(self, rng):
        # merge_segments relies on the ValueError to reject such a candidate
        color = textured_color(rng, 40, 48)
        seg = Segment((16, 24), ("S", "W"), "WS")
        cols = segment_vertical_columns(seg)
        with pytest.raises(ValueError, match="doubles back"):
            segment_path_cost(seg, seg.dirs, ("S", "E", "E"), 3, color, cols, small_cfg(1.0))


class TestInterviewPenalty:
    """The one shifted-edge cost the DP and merging use: row distortion plus
    the squared-shift penalty."""

    CFG = ApproxConfig(swim=SwimConfig())

    def test_zero_weight_equals_base(self, rng):
        img = textured_color(rng, 24, 64)
        rows = row_cost_table(img, {5: 20}, self.CFG, 0.0)
        for k in (-3, 0, 2):
            assert rows.cost(5, 20 + k) == row_distortion(img, 5, 16, 20, 20 + k, self.CFG.swim)

    def test_zero_shift_unpenalized(self, rng):
        img = textured_color(rng, 24, 64)
        assert row_cost_table(img, {5: 20}, self.CFG, 1e6).cost(5, 20) == 0.0

    def test_any_original_column_is_priced_at_its_own_anchor(self, rng):
        # merging prices an edge its projection moves, here from column 35 to 31
        img = textured_color(rng, 24, 64)
        rows = row_cost_table(img, {}, self.CFG, 1e6)
        assert rows.cost(5, 31, q_orig=35) == row_distortion(img, 5, 32, 35, 31, self.CFG.swim) + 16e6 < math.inf

    def test_huge_weight_prefers_zero_shift(self, rng):
        img = textured_color(rng, 24, 64)
        base = row_cost_table(img, {5: 20}, self.CFG, 0.0)
        rows = row_cost_table(img, {5: 20}, self.CFG, 1e6)
        assert rows.cost(5, 21) == base.cost(5, 21) + 1e6  # a one-pixel shift adds exactly the weight
        assert rows.cost(5, 20) < rows.cost(5, 21)

    def test_segment_stays_put_under_penalty(self, rng):
        color = textured_color(rng, 40, 48)
        for _ in range(10):
            seg = random_segment(rng)
            cols = segment_vertical_columns(seg)
            cfg = ApproxConfig(lagrange=10.0, **SMALL)
            out, _ = approximate_segment(seg, (), color, cols, cfg, penalty_weight=1e6)
            assert segment_vertical_columns(out) == cols
