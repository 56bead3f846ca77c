"""RD-optimal contour approximation by dynamic programming over segments.

A two-direction segment must keep its endpoints, so every candidate is a
monotone lattice path inside the rectangle spanned by them; the DP state is
(recent direction window, head corner), and the cost of an edge is
``lambda * bits + row_distortion`` (the distortion term only for vertical
edges, whose horizontal shift against the original edge in the same pixel
row is what the proxy charges).  Adjacent segments are merged greedily when
re-optimizing the pair inside their joint rectangle, plus the distortion of
projecting out-of-rectangle original edges onto it, beats the pair's summed
cost.

Rate terms are read from the coder's own context model
(``aec.context_model``) and early-context rule (``aec.early_bits``), so what
the DP minimizes is exactly what the coder will spend.
Distortion terms come from one row proxy per contour (``swim.RowProxy``),
which converts the image to luminance once and memoizes Laplace scales and
row distortions while the contour is approximated.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict, deque
from dataclasses import dataclass

from .aec import AecParams, context_model, early_bits, estimate_rate
from .contour import (
    DIR_VECTOR,
    OPPOSITE,
    Contour,
    Segment,
    crack,
    cracks,
    join_segments,
    segment_endpoint,
    segment_vertical_columns,
    split_segments,
    step,
)
from .swim import RowProxy, SwimConfig, row_distortion, row_proxy, window_anchor

logger = logging.getLogger(__name__)

_DIRECTION_OF = {vector: d for d, vector in DIR_VECTOR.items()}


@dataclass(frozen=True)
class ApproxConfig:
    """lagrange: bits-to-distortion exchange rate; interview_weight: squared
    edge-shift penalty used when approximating the dependent view; merge:
    enable greedy segment merging."""

    lagrange: float = 0.0
    interview_weight: float = 1e6
    merge: bool = True
    aec: AecParams = AecParams()
    swim: SwimConfig = SwimConfig()

    def __post_init__(self):
        if self.lagrange < 0:
            raise ValueError("lagrange must be >= 0")
        if self.interview_weight < 0:
            raise ValueError("interview_weight must be >= 0")


@dataclass(frozen=True)
class RdCost:
    distortion: float
    rate: float  # bits
    total: float  # distortion + lambda * rate


class _RowCosts:
    """Shifted-edge costs on one view: row distortion plus the inter-view
    penalty weight*shift^2, memoized by (row, column) for one segment's
    vertical edges."""

    def __init__(self, proxy: RowProxy, vertical_columns, cfg: ApproxConfig, penalty_weight: float):
        self._proxy = proxy
        self._cols = vertical_columns
        self._swim = cfg.swim
        self._weight = penalty_weight
        self._memo = {}

    def cost(self, row: int, q: int) -> float:
        key = (row, q)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self.shift_cost(row, self._cols[row], q)
        return value

    def shift_cost(self, row: int, q_orig: int, q: int) -> float:
        """Cost of moving the edge in ``row`` from ``q_orig`` to ``q``, outside
        this table's memo (merging prices projected edges with it)."""
        anchor = window_anchor(q_orig, self._proxy.lum.shape[1], self._swim.block)
        value = row_distortion(self._proxy, row, anchor, q_orig, q, self._swim)
        if self._weight:
            value += self._weight * (q - q_orig) ** 2
        return value


def _crossed_rows(seg: Segment):
    p0 = seg.start[0]
    p1 = segment_endpoint(seg)[0]
    return range(p0, p1) if p1 >= p0 else range(p1, p0)


def row_cost_table(color, vertical_columns, cfg: ApproxConfig, penalty_weight: float = 0.0) -> "_RowCosts":
    """Shareable lazy table of shifted-edge costs (one per segment); ``color``
    is an image or a row proxy of it."""
    return _RowCosts(row_proxy(color, cfg.swim), vertical_columns, cfg, penalty_weight)


def segment_path_cost(seg: Segment, dirs, prior_dirs, prior_count, color, vertical_columns, cfg: ApproxConfig, penalty_weight: float = 0.0, rows: "_RowCosts | None" = None) -> RdCost:
    """Cost of one explicit candidate path, accumulated edge by edge in the
    same order the DP uses (so totals are bit-comparable).  Raises ValueError
    when an edge coded with a full context window doubles back."""
    k = cfg.aec.context_len
    if rows is None:
        rows = row_cost_table(color, vertical_columns, cfg, penalty_weight)
    model = context_model(cfg.aec)
    recent = tuple(prior_dirs)[-k:]
    total = 0.0
    rate = 0.0
    dist = 0.0
    for t, (d, (vertical, row, q)) in enumerate(zip(dirs, cracks(seg.start, dirs)), 1):
        bits = early_bits(prior_count + t - 1, k)
        if bits is None:
            bits = model[recent][0].get(d)
            if bits is None:
                raise ValueError("path doubles back")
        total += cfg.lagrange * bits
        rate += bits
        if vertical:
            c = rows.cost(row, q)
            total += c
            dist += c
        recent = (recent + (d,))[-k:]
    return RdCost(dist, rate, total)


def approximate_segment(seg: Segment, prior_dirs, color, vertical_columns, cfg: ApproxConfig, *, prior_count: int | None = None, penalty_weight: float = 0.0, forbidden_last: str | None = None):
    """Minimize distortion + lambda*rate over all same-endpoint paths.

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


def project_onto_rectangle(a: Segment, b: Segment):
    """Project the pair's edges onto the rectangle spanned by a's start and
    b's end, clamping vertices and dropping collapsed edges.

    Returns (projected two-direction Segment, shifts), where shifts lists
    (row, original column, projected column) for every vertical edge of the
    pair whose column the projection moves; or None when the pair is not
    mergeable (coincident corners, or the clamped walk is not monotone).
    """
    if segment_endpoint(a) != b.start:
        raise ValueError("segments are not adjacent")
    l0 = a.start
    l2 = segment_endpoint(b)
    if l0 == l2:
        return None
    p_lo, p_hi = sorted((l0[0], l2[0]))
    q_lo, q_hi = sorted((l0[1], l2[1]))
    dir_v = "S" if l2[0] >= l0[0] else "N"
    dir_h = "E" if l2[1] >= l0[1] else "W"
    dirs = []
    shifts = []
    point = prev = l0
    for d in a.dirs + b.dirs:
        vertical, row, col = crack(point, d)
        if vertical and not q_lo <= col <= q_hi:
            shifts.append((row, col, min(max(col, q_lo), q_hi)))
        point = step(point, d)
        clamped = (min(max(point[0], p_lo), p_hi), min(max(point[1], q_lo), q_hi))
        if clamped != prev:
            nd = _DIRECTION_OF.get((clamped[0] - prev[0], clamped[1] - prev[1]))
            if nd not in (dir_v, dir_h):
                return None
            dirs.append(nd)
            prev = clamped
    if prev != l2:
        return None
    return Segment(l0, (dir_v, dir_h), "".join(dirs)), shifts


def merge_segments(a: Segment, b: Segment, prior_dirs, color, cfg: ApproxConfig, *, prior_count: int | None = None, cost_a: RdCost | None = None, cost_b: RdCost | None = None, next_dir: str | None = None, penalty_weight: float = 0.0):
    """Try to replace two adjacent segments by one re-optimized segment.

    Returns (projected Segment, merged Segment, RdCost including the merge
    distortion) when the merge strictly lowers the summed cost, else None; the
    projected segment is the pair on its joint rectangle, the original that
    later merges re-optimize.  When per-segment costs are not supplied they
    are computed here with the same configuration.
    """
    proxy = row_proxy(color, cfg.swim)
    k = cfg.aec.context_len
    prior = tuple(prior_dirs)[-k:]
    if prior_count is None:
        prior_count = len(prior)
    if cost_a is None or cost_b is None:
        a_seg, cost_a = approximate_segment(
            a, prior, proxy, segment_vertical_columns(a), cfg,
            prior_count=prior_count, penalty_weight=penalty_weight,
            forbidden_last=OPPOSITE[b.dirs[0]],
        )
        prior_b = (prior + tuple(a_seg.dirs))[-k:]
        _, cost_b = approximate_segment(b, prior_b, proxy, segment_vertical_columns(b), cfg, prior_count=prior_count + a.length, penalty_weight=penalty_weight)

    projection = project_onto_rectangle(a, b)
    if projection is None:
        return None
    projected, shifts = projection
    shifted = _RowCosts(proxy, {}, cfg, penalty_weight)
    merge_d = 0.0
    for row, q_orig, q_proj in shifts:
        merge_d += shifted.shift_cost(row, q_orig, q_proj)
    if math.isinf(merge_d):
        return None
    try:
        mseg, mcost = approximate_segment(
            projected, prior, proxy, segment_vertical_columns(projected), cfg,
            prior_count=prior_count, penalty_weight=penalty_weight,
            forbidden_last=None if next_dir is None else OPPOSITE[next_dir],
        )
    except ValueError:
        return None
    if math.isinf(mcost.total):
        return None
    total = mcost.total + merge_d
    if total < cost_a.total + cost_b.total:
        return projected, mseg, RdCost(mcost.distortion + merge_d, mcost.rate, total)
    return None


def _duplicate_edges(contour: Contour) -> bool:
    edges = list(cracks(contour.start, contour.absolute_dirs()))
    return len(set(edges)) != len(edges)


def approximate_contour(contour: Contour, depth, color, cfg: ApproxConfig, *, penalty_weight: float = 0.0):
    """Approximate a whole contour: per-segment DP, then greedy merging of
    adjacent pairs (left-to-right passes repeated until no pass improves).

    Returns (approximated Contour, RdCost).  The reported rate is the entropy
    estimate of the final reassembled contour; the distortion is the sum over
    segments including any merge distortion.
    """
    if depth is not None:
        pix = depth.pixels if hasattr(depth, "pixels") else depth
        h, w = pix.shape
        for p, q in contour.points():
            if not (0 <= p <= h and 0 <= q <= w):
                raise ValueError("contour leaves the depth image lattice")
    proxy = RowProxy(color, cfg.swim)
    k = cfg.aec.context_len
    slots = []
    recent = ()
    count = 0
    originals = split_segments(contour)
    for i, seg in enumerate(originals):
        # ending against the next segment's original first step would force a
        # 180-degree turn at the seam (or push it onto edges beyond the match
        # window); the original seam direction always leaves a finite path
        forbidden = OPPOSITE[originals[i + 1].dirs[0]] if i + 1 < len(originals) else None
        approx, cost = approximate_segment(
            seg, recent, proxy, segment_vertical_columns(seg), cfg,
            prior_count=count, penalty_weight=penalty_weight, forbidden_last=forbidden,
        )
        slots.append([seg, approx, cost])
        recent = (recent + tuple(approx.dirs))[-k:]
        count += approx.length

    if cfg.merge:
        improved = True
        while improved:
            improved = False
            i = 0
            prior = ()  # context of the edges before slot i
            pcount = 0
            while i + 1 < len(slots):
                nd = slots[i + 2][1].dirs[0] if i + 2 < len(slots) else None
                res = merge_segments(
                    slots[i][0], slots[i + 1][0], prior, proxy, cfg,
                    prior_count=pcount, cost_a=slots[i][2], cost_b=slots[i + 1][2],
                    next_dir=nd, penalty_weight=penalty_weight,
                )
                if res is None:
                    done = slots[i][1]
                    prior = (prior + tuple(done.dirs))[-k:]
                    pcount += done.length
                    i += 1
                    continue
                slots[i : i + 2] = [list(res)]  # (projected original, approximation, cost)
                improved = True

    assembled = join_segments([s[1] for s in slots])
    if _duplicate_edges(assembled):
        logger.warning("approximation produced a self-touching contour; keeping the original")
        rate = estimate_rate(contour, cfg.aec)
        return contour, RdCost(0.0, rate, cfg.lagrange * rate)
    distortion = sum(s[2].distortion for s in slots)
    rate = estimate_rate(assembled, cfg.aec)
    return assembled, RdCost(distortion, rate, distortion + cfg.lagrange * rate)


def contour_row_shifts(original: Contour, approximated: Contour):
    """Per-row (original column, new column) pairs of vertical edges, matched
    by the order rows are crossed along the two contours.

    Both contours share endpoints, so they cross the same multiset of rows;
    pairing in traversal order matches each vertical edge with its shifted
    counterpart.
    """

    def crossings(c: Contour):
        return [(row, q) for vertical, row, q in cracks(c.start, c.absolute_dirs()) if vertical]

    orig = crossings(original)
    new = crossings(approximated)
    shifts = []
    by_row = defaultdict(deque)
    for row, q in orig:
        by_row[row].append(q)
    for row, q in new:
        if by_row[row]:
            shifts.append((row, by_row[row].popleft(), q))
        else:
            shifts.append((row, q, q))
    return shifts
