"""RD-optimal contour approximation by dynamic programming over segments.

A two-direction segment must keep its endpoints, so every candidate is a
monotone lattice path inside the rectangle spanned by them.  The cost of an
edge is ``lambda * bits``, plus ``RowProxy.edge_costs`` for a vertical edge:
the proxy prices the edge's horizontal shift against the original edge in
the same pixel row, its row distortion plus the inter-view penalty of the
view the proxy was built for.  Adjacent segments are merged greedily when
re-optimizing the pair inside their joint rectangle, plus the cost of
projecting the pair onto it, beats the pair's summed cost.  The projection
keeps the edges whose crack lies inside the rectangle and drops the rest; it
charges each vertical edge outside the rectangle's columns, kept or dropped,
as a shift onto the nearer side, and a dropped one inside them nothing.

The inter-view bound: a shifted edge costs at least the proxy's weight, so
a segment whose original path costs less than the weight keeps it (every
other path shifts an edge), and a merge whose weight * shift^2 terms alone
reach the pair's cost is refused; neither runs the DP or fills a row.  On
the right view, priced with ``interview_weight``, this settles every
segment with lambda * bits below the weight.

The segment DP runs over dense states (``approximate_segment`` defines them
and their tie rule).  For a segment of V vertical moves each anti-diagonal
is one 2^K x (V + 2) cost table, K capped at the segment's length, updated
by four ufunc calls: add the rate of each (window, move), add the row cost
of each vertical move, compare the two parents a state can have and keep
the smaller.  Nothing is built or kept per segment shape.

Rate terms are read from the coder's own context model
(``aec.context_model``), which prices every edge from the window of the
edges before it, so what the DP minimizes is exactly what the coder will
spend.
Distortion terms come from one row proxy per contour (``swim.RowProxy``),
which converts the image to luminance once, memoizes the 2W + 1 shift
distortions of each (row, window) and prices every shifted vertical edge.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .aec import AecParams, context_model, estimate_rate
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
)
# row_distortion is bound here for perfbench's test_wrappers_replace_every_binding_and_are_removed
from .swim import SwimConfig, row_distortion, row_proxy  # noqa: F401

logger = logging.getLogger(__name__)


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
        if not 0 <= self.lagrange < math.inf:
            raise ValueError("lagrange must be finite and >= 0")
        if not 0 <= self.interview_weight < math.inf:
            raise ValueError("interview_weight must be finite and >= 0")


@dataclass(frozen=True)
class RdCost:
    distortion: float
    rate: float  # bits
    total: float  # distortion + lambda * rate


def segment_path_cost(seg: Segment, dirs, prior_dirs, color, vertical_columns, cfg: ApproxConfig) -> RdCost:
    """Cost of one explicit candidate path, accumulated edge by edge in the
    same order the DP uses (so totals are bit-comparable).  Only the last K
    ``prior_dirs`` count; ``RowProxy.edge_costs`` prices a vertical edge's
    move from its row's column in ``vertical_columns``.  ``color`` is an
    image or a row proxy of it, whose weight prices each shift.  Raises
    ValueError when an edge doubles back."""
    proxy = row_proxy(color, cfg.swim)
    model = context_model(cfg.aec)
    entries, fill = model.entries, model.fill
    window = model.walk(prior_dirs)
    total = 0.0
    rate = 0.0
    dist = 0.0
    for d, (vertical, row, q) in zip(dirs, cracks(seg.start, dirs)):
        window_bits, _, after = entries[window] or fill(window)
        bits = window_bits.get(d)
        if bits is None:
            raise ValueError("path doubles back")
        total += cfg.lagrange * bits
        rate += bits
        if vertical:
            (c,) = proxy.edge_costs(row, vertical_columns[row], (q,))
            total += c
            dist += c
        window = after[d]
    return RdCost(dist, rate, total)


def approximate_segment(seg: Segment, prior_dirs, color, vertical_columns, cfg: ApproxConfig, *, forbidden_last: str | None = None):
    """Minimize distortion + lambda*rate over all same-endpoint paths.

    ``prior_dirs`` are the directions already coded before this segment (the
    context seed); only the last K count, and fewer than K means that fewer
    edges precede the segment.  ``vertical_columns`` maps each pixel row
    crossed by the original segment's vertical edges to the edge column.
    ``forbidden_last`` excludes paths ending in that direction, so the next
    segment of the contour can never be forced into a 180-degree turn.
    ``color`` is the view's color image or a ``swim.RowProxy`` of it, whose
    weight is the view's inter-view penalty (an image is priced with weight
    0); callers that approximate several segments of one image share one
    proxy.

    After t moves a state is (i, m): i vertical moves made and m the last
    min(t, K) moves as bits (vertical 0, horizontal 1, newest in bit 0),
    with K capped at the segment's length, the most moves m ever holds.
    Each anti-diagonal is one 2^K x (V + 2) cost table by (m, i + 1); its
    column 0 is an infinite sentinel, the parent of a vertical move into
    i = 0.  The two parents of a state differ only in the oldest move their
    window drops; one strided view reads both, and a candidate costs
    ``(parent cost + lambda * bits) + row cost``.  Ties follow a dict DP
    that inserts a state on its first arrival and replaces it only on a
    strictly smaller cost: the parent that dropped a horizontal move arrives
    first, so the other one wins only when strictly cheaper, and end states
    arrive by (more horizontal moves in the window first, then ascending
    mask).  No mask bounds the horizontal moves: a state past H never
    reaches the end corner.

    The inter-view bound settles a segment without the DP: when the
    original path may start after the prior and end here, and costs less
    than the proxy's weight, it is returned with its cost.  A path cheaper
    than the weight moves no edge, and every other path moves one, so it
    costs at least the weight; the original is the unique optimum, and no
    tie rule applies.  With the inter-view weight of the right view this
    holds whenever lambda * bits < weight.

    Returns (approximated Segment, RdCost).
    """
    model = context_model(cfg.aec)
    entries, fill = model.entries, model.fill
    prior = model.walk(prior_dirs)
    prior_dirs = model.windows[prior]  # only the last K count
    if seg.length == 0:
        return seg, RdCost(0.0, 0.0, 0.0)
    first_row, end_row = sorted((seg.start[0], segment_endpoint(seg)[0]))
    missing = [r for r in range(first_row, end_row) if r not in vertical_columns]
    if missing:
        raise ValueError(f"vertical_columns missing rows {missing}")

    moves = seg.dirpair  # move bit 0 is vertical, 1 horizontal
    v_count = seg.vertical_count
    length = seg.length
    h_count = length - v_count
    # a first move back against the prior's last direction is never taken
    first_bits = (entries[prior] or fill(prior))[0]
    blocked = [move for move, d in enumerate(moves) if d not in first_bits]
    if blocked and (v_count, h_count)[1 - blocked[0]] == 0:
        raise ValueError("unreachable endpoint: malformed segment")

    proxy = row_proxy(color, cfg.swim)
    # the inter-view bound (see the docstring); with weight 0 it never holds
    if proxy.weight > 0 and seg.dirs[0] in first_bits and seg.dirs[-1] != forbidden_last:
        original = segment_path_cost(seg, seg.dirs, prior_dirs, proxy, vertical_columns, cfg)
        if original.total < proxy.weight:
            return seg, original

    # rate of each move from each window: layer t < K reads the prior's tail
    # and the t moves of m, every later layer the K moves of m.  A window of
    # the segment's moves never holds more than all of them, so masks at or
    # past 2^length are unreachable and K is capped at the length.
    k = min(cfg.aec.context_len, length)
    masks = 1 << k
    half = masks >> 1
    windows = [prior]
    bits = []
    for _ in range(min(k, length - 1) + 1):
        layer = [entries[window] or fill(window) for window in windows]
        for window_bits, _, _ in layer:
            bits += [window_bits.get(moves[0], 0.0), window_bits.get(moves[1], 0.0)]
        bits += [0.0] * (2 * (masks - len(windows)))  # windows of unreached masks
        windows = [after[d] for _, _, after in layer for d in moves]
    rate = cfg.lagrange * np.array(bits).reshape(-1, 2, half, 2, 1)  # (layer, m's oldest move, rest of m, move, i)
    for move in blocked:
        rate[0, 0, 0, move] = math.inf

    # vertical row costs by (i + 1, j), zero past H and in the sentinel row 0
    p0, q0 = seg.start
    dp_v = DIR_VECTOR[moves[0]][0]
    dq_h = DIR_VECTOR[moves[1]][1]
    row_offset = crack((0, 0), moves[0])[1]  # pixel row of a vertical edge leaving (p, q)
    columns = [q0 + dq_h * j for j in range(h_count + 1)]
    costs = []
    for row in range(p0 + row_offset, p0 + row_offset + dp_v * v_count, dp_v):
        costs += proxy.edge_costs(row, vertical_columns[row], columns)
    grid = np.zeros((v_count + 1, length + 1))
    grid[1:, : h_count + 1] = np.array(costs).reshape(v_count, h_count + 1)
    # a vertical move into (i, m) after t moves leaves (i - 1, t - i + 1)
    f8 = grid.itemsize
    step_rows = np.ndarray((length, v_count + 1), float, grid, f8, (f8, f8 * length))

    # two anti-diagonals of costs by (m, i + 1); column 0 is the sentinel
    size = v_count + 2
    cost = np.full((2, masks, size), math.inf)
    cost[0, 0, 1] = 0.0
    table = f8 * masks * size
    # state (i, 2r + move) has the parents (i - 1 + move, dropped * 2^(K-1) + r)
    parents = [np.ndarray((2, half, 2, v_count + 1), float, cost, s * table, (f8 * half * size, f8 * size, f8, f8)) for s in (0, 1)]
    children = [np.ndarray((half, 2, v_count + 1), float, cost, s * table + f8, (f8 * 2 * size, f8 * size, f8)) for s in (0, 1)]
    cand = np.empty((2, half, 2, v_count + 1))
    vertical, dropped_v, dropped_h = cand[:, :, 0], cand[0], cand[1]
    picks = np.empty((length, half, 2, v_count + 1), bool)  # True: the parent that dropped V
    for t in range(length):
        np.add(parents[t & 1], rate[min(t, k)], out=cand)
        np.add(vertical, step_rows[t], out=vertical)
        np.less(dropped_v, dropped_h, out=picks[t])
        np.minimum(dropped_v, dropped_h, out=children[~t & 1])

    final = cost[length & 1, :, v_count + 1]
    ends = sorted(range(masks), key=lambda m: (-m.bit_count(), m))  # end states in arrival order
    if forbidden_last in moves:
        ends = [m for m in ends if moves[m & 1] != forbidden_last]
    best = ends[int(final[ends].argmin())]
    if math.isinf(final[best]):
        # reachable when a projected merge candidate leaves no finite path;
        # callers reject the infinite cost
        logger.debug("every candidate path has infinite distortion; keeping the original segment")
        original = segment_path_cost(seg, seg.dirs, prior_dirs, proxy, vertical_columns, cfg)
        return seg, RdCost(math.inf, original.rate, math.inf)

    dirs = []
    picks = picks.reshape(length, masks, v_count + 1)
    i, m = v_count, best
    for t in reversed(range(length)):
        move = m & 1
        dirs.append(moves[move])
        m = m >> 1 if picks[t, m, i] else m >> 1 | half
        i -= 1 - move
    dirs.reverse()
    result = Segment(seg.start, seg.dirpair, "".join(dirs))
    cost = segment_path_cost(result, dirs, prior_dirs, proxy, vertical_columns, cfg)
    return result, cost


def project_onto_rectangle(a: Segment, b: Segment):
    """Project the pair onto the rectangle [p_lo, p_hi] x [q_lo, q_hi]
    spanned by a's start and b's end: keep a vertical edge iff its pixel row
    lies in [p_lo, p_hi), a horizontal one iff its column lies in
    [q_lo, q_hi), each in its own direction, and drop the rest.

    This is the walk of the pair's clamped corners.  Clamping moves a unit
    step by that step or not at all; a and b are each monotone per axis, so
    on each axis the walk crosses the span between a's start and b's end
    once, toward b's end, and a step away from b's end lies beyond the span.
    So the kept edges form a monotone path from a's start to b's end.

    Returns (projected two-direction Segment, shifts), where shifts lists
    (row, original column, clamped column) for every vertical edge of the
    pair whose column lies outside [q_lo, q_hi], kept or dropped; or None
    when the corners coincide.
    """
    if segment_endpoint(a) != b.start:
        raise ValueError("segments are not adjacent")
    l0 = a.start
    l2 = segment_endpoint(b)
    if l0 == l2:
        return None
    p_lo, p_hi = sorted((l0[0], l2[0]))
    q_lo, q_hi = sorted((l0[1], l2[1]))
    dirs = []
    shifts = []
    walk = a.dirs + b.dirs
    for d, (vertical, row, col) in zip(walk, cracks(l0, walk)):
        if vertical:
            if not q_lo <= col <= q_hi:
                shifts.append((row, col, min(max(col, q_lo), q_hi)))
            if p_lo <= row < p_hi:
                dirs.append(d)
        elif q_lo <= col < q_hi:
            dirs.append(d)
    dirpair = ("S" if l2[0] >= l0[0] else "N", "E" if l2[1] >= l0[1] else "W")
    return Segment(l0, dirpair, "".join(dirs)), shifts


def merge_segments(a: Segment, b: Segment, prior_dirs, color, cfg: ApproxConfig, *, cost_a: RdCost, cost_b: RdCost, forbidden_last: str | None = None):
    """Try to replace two adjacent segments by one re-optimized segment.

    ``prior_dirs`` and ``forbidden_last`` are the merged segment's context
    seed and excluded last move, as in ``approximate_segment``.  ``cost_a``
    and ``cost_b`` are the pair's current costs, as the segment DP priced
    them in the contour.  Returns (projected Segment, merged Segment, RdCost
    including the merge distortion) when the merge strictly lowers their
    sum, else None; the projected segment is the pair on its joint
    rectangle, the original that later merges re-optimize.

    Every shift of the projection is nonzero, so the sum of its weight *
    shift^2 terms, taken in the order of the projection's price, bounds that
    price from below; when it reaches the pair's cost, None is returned
    before any row is priced.
    """
    proxy = row_proxy(color, cfg.swim)
    projection = project_onto_rectangle(a, b)
    if projection is None:
        return None
    projected, shifts = projection
    pair = cost_a.total + cost_b.total
    if sum(proxy.weight * (q_proj - q_orig) ** 2 for _, q_orig, q_proj in shifts) >= pair:
        return None
    merge_d = sum(proxy.edge_costs(row, q_orig, (q_proj,))[0] for row, q_orig, q_proj in shifts)
    if merge_d >= pair:  # every DP cost is >= 0, so the merge cannot win
        return None
    try:
        mseg, mcost = approximate_segment(
            projected, prior_dirs, proxy, segment_vertical_columns(projected), cfg, forbidden_last=forbidden_last
        )
    except ValueError:
        return None
    total = mcost.total + merge_d  # infinite when no merged path is finite, so never cheaper
    if total < pair:
        return projected, mseg, RdCost(mcost.distortion + merge_d, mcost.rate, total)
    return None


def approximate_contour(contour: Contour, color, cfg: ApproxConfig):
    """Approximate a whole contour: per-segment DP, then greedy merging of
    adjacent pairs (left-to-right passes repeated until no pass improves).

    ``color`` is the view's color image or a ``swim.RowProxy`` of it, as in
    ``approximate_segment``; a contour that leaves the image raises
    ValueError.  Returns (approximated Contour, RdCost).  The reported rate
    is the entropy estimate of the final reassembled contour; the distortion
    is the sum over segments including any merge distortion.
    """
    proxy = row_proxy(color, cfg.swim)
    contour.check_inside(*proxy.lum.shape)
    model = context_model(cfg.aec)
    slots = []
    recent = 0  # window id after the segments approximated so far
    originals = split_segments(contour)
    for i, seg in enumerate(originals):
        # ending against the next segment's original first step would force a
        # 180-degree turn at the seam (or push it onto edges beyond the match
        # window); the original seam direction always leaves a finite path
        forbidden = OPPOSITE[originals[i + 1].dirs[0]] if i + 1 < len(originals) else None
        approx, cost = approximate_segment(seg, model.windows[recent], proxy, segment_vertical_columns(seg), cfg, forbidden_last=forbidden)
        slots.append([seg, approx, cost])
        recent = model.walk(approx.dirs, recent)

    if cfg.merge:
        improved = True
        while improved:
            improved = False
            i = 0
            prior = 0  # window id of the edges before slot i
            while i + 1 < len(slots):
                forbidden = OPPOSITE[slots[i + 2][1].dirs[0]] if i + 2 < len(slots) else None
                res = merge_segments(
                    slots[i][0], slots[i + 1][0], model.windows[prior], proxy, cfg,
                    cost_a=slots[i][2], cost_b=slots[i + 1][2], forbidden_last=forbidden,
                )
                if res is None:
                    prior = model.walk(slots[i][1].dirs, prior)
                    i += 1
                    continue
                slots[i : i + 2] = [list(res)]  # (projected original, approximation, cost)
                improved = True

    assembled = join_segments([s[1] for s in slots])
    edges = list(cracks(assembled.start, assembled.absolute_dirs()))
    if len(set(edges)) != len(edges):
        logger.warning("approximation produced a self-touching contour; keeping the original")
        rate = estimate_rate(contour, cfg.aec)
        return contour, RdCost(0.0, rate, cfg.lagrange * rate)
    distortion = sum(s[2].distortion for s in slots)
    rate = estimate_rate(assembled, cfg.aec)
    return assembled, RdCost(distortion, rate, distortion + cfg.lagrange * rate)
