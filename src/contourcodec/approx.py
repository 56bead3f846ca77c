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

The segment DP is table driven.  Which states exist, the order a DP first
reaches them in (layer by layer, vertical move first) and each state's
candidate parents in arrival order depend only on K, the segment's vertical
and horizontal step counts and the prior window written over {vertical,
horizontal, opposite vertical, opposite horizontal}, not on any cost.  That
layer graph is built once per such key and kept in a memo that drops the
least recently used graphs beyond 2^19 states in all; each call only fills
a rate vector per (window, move) and a row-cost table per (row, column) and
runs one gather, add and ``argmin`` per anti-diagonal.  ``argmin`` returns
the first minimum, so a state keeps its first arrival unless a later one is
strictly cheaper: the strict-``<``, first-inserted rule of a dict DP, which
fixes the path among equal-cost ones.

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

import numpy as np

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
    """Shifted-edge costs on one view, for one segment's vertical edges.

    Moving the edge in ``row`` from ``q_orig`` to ``q`` costs the row
    distortion measured at ``q_orig``'s window anchor plus the inter-view
    penalty weight*(q - q_orig)^2; ``q_orig`` defaults to the segment's own
    edge column in that row.  ``color`` is an image or a row proxy of it.
    Nothing is memoized here: the row proxy already keeps every distortion
    of the contour.
    """

    def __init__(self, color, vertical_columns, cfg: ApproxConfig, penalty_weight: float = 0.0):
        self._proxy = row_proxy(color, cfg.swim)
        self._cols = vertical_columns
        self._weight = penalty_weight

    def cost(self, row: int, q: int, q_orig: int | None = None) -> float:
        return self.grid([row], [q], q_orig)[0]

    def grid(self, rows, columns, q_orig: int | None = None) -> list:
        """``cost(row, q, q_orig)`` for every row and column, row-major, with
        each row's window anchor computed once."""
        proxy, swim, weight = self._proxy, self._proxy.cfg, self._weight
        out = []
        for row in rows:
            orig = self._cols[row] if q_orig is None else q_orig
            anchor = window_anchor(orig, proxy.lum.shape[1], swim.block)
            out += [row_distortion(proxy, row, anchor, orig, q, swim) + weight * (q - orig) ** 2 for q in columns]
        return out


row_cost_table = _RowCosts


def _crossed_rows(seg: Segment):
    p0 = seg.start[0]
    p1 = segment_endpoint(seg)[0]
    return range(p0, p1) if p1 >= p0 else range(p1, p0)


def segment_path_cost(seg: Segment, dirs, prior_dirs, prior_count, color, vertical_columns, cfg: ApproxConfig, penalty_weight: float = 0.0, rows: "_RowCosts | None" = None) -> RdCost:
    """Cost of one explicit candidate path, accumulated edge by edge in the
    same order the DP uses (so totals are bit-comparable).  ``prior_count``
    is the number of contour edges coded before the segment; the last K
    prior directions must number min(prior_count, K).  Raises ValueError
    when they do not, or when an edge coded with a full context window
    doubles back."""
    k = cfg.aec.context_len
    recent = tuple(prior_dirs)[-k:]
    if len(recent) != min(prior_count, k):
        raise ValueError(f"prior window of {len(recent)} directions does not fit prior_count {prior_count} at context length {k}")
    if rows is None:
        rows = row_cost_table(color, vertical_columns, cfg, penalty_weight)
    model = context_model(cfg.aec)
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


# relative symbols of a layer-graph window: the segment's vertical and
# horizontal direction, then their opposites (only a prior window holds those)
_V, _H, _OPP_V, _OPP_H = range(4)
_GRAPH_STATES = 1 << 19  # memo budget: about 8 MB of layer graphs


def _interleave(vertical, horizontal) -> np.ndarray:
    """Per-parent (vertical, horizontal) candidate values, flattened in
    arrival order."""
    out = np.empty((len(vertical), 2), np.result_type(vertical, horizontal))
    out[:, 0] = vertical
    out[:, 1] = horizontal
    return out.ravel()


class _LayerGraph:
    """Cost-free state graph of the segment DP.

    A state is (context window, head corner).  States are numbered
    anti-diagonal by anti-diagonal (0 is the start corner) in the order a DP
    that walks each layer's states in order, trying the vertical move before
    the horizontal one, first reaches them.  Row ``s`` of ``parents`` holds
    the candidate parents of state ``s`` in that arrival order, padded with
    -1 (the index of an infinite-cost sentinel).  There are at most two:
    parents of one state differ only in the symbol their window drops, a
    move of the segment.  ``vertical`` flags the states entered by a
    vertical move and ``cells`` indexes the per-segment row-cost vector for
    that move (the last slot being the zero row cost of a horizontal move).
    ``window_ids`` numbers the window of every state that is a parent in
    ``windows`` (relative symbols, oldest first); end states read 0 and the
    sentinel ``len(windows)``.  ``layers`` are the (start, stop) state
    ranges of the anti-diagonals.
    """

    def __init__(self, k: int, v_count: int, h_count: int, prior: tuple):
        width = h_count + 1
        zero_slot = v_count * width
        full = 4**k
        size = len(prior)
        # a window's symbols in base 4; its key adds 4**k times its length
        codes = np.array([sum(s * 4**e for e, s in enumerate(reversed(prior)))])
        ivert = np.zeros(1, np.intp)  # vertical moves made, per state
        parents = [np.full((1, 2), -1)]
        cells = [np.full(1, zero_slot)]
        windows = [full * size + codes]
        self.layers = []
        stop = 1
        for t in range(1, v_count + h_count + 1):
            last = codes % 4 if size else np.full(codes.size, -1)
            valid = _interleave((ivert != v_count) & (last != _OPP_V), (t - 1 - ivert != h_count) & (last != _OPP_H))
            if not valid.any():
                raise ValueError("unreachable endpoint: malformed segment")
            parent = np.arange(stop - codes.size, stop).repeat(2)[valid]
            cell = _interleave(ivert * width + t - 1 - ivert, zero_slot)[valid]
            child_code = _interleave(codes * 4 % full + _V, codes * 4 % full + _H)[valid]
            child_i = _interleave(ivert + 1, ivert)[valid]
            keys, first, inverse = np.unique(child_code * (v_count + 1) + child_i, return_index=True, return_inverse=True)
            order = np.argsort(first)  # children in order of first arrival
            child = np.argsort(order)[inverse]
            first = first[order]
            second = np.flatnonzero(np.arange(child.size) != first[child])
            table = np.full((order.size, 2), -1)
            table[:, 0] = parent[first]
            table[child[second], 1] = parent[second]
            parents.append(table)
            cells.append(cell[first])
            codes, ivert = np.divmod(keys[order], v_count + 1)
            size = min(size + 1, k)
            windows.append(full * size + codes)
            self.layers.append((stop, stop + order.size))
            stop += order.size
        self.parents = np.concatenate(parents).astype(np.int32)
        self.cells = np.concatenate(cells).astype(np.int32)
        self.vertical = self.cells != zero_slot
        used, ids = np.unique(np.concatenate(windows[:-1]), return_inverse=True)
        self.window_ids = np.zeros(stop + 1, np.int16)
        self.window_ids[: ids.size] = ids
        self.window_ids[-1] = used.size
        self.windows = []
        for key in used.tolist():
            size, code = divmod(key, full)
            self.windows.append(tuple((code >> (2 * e)) & 3 for e in reversed(range(size))))


class _GraphMemo:
    """Layer graphs by (K, V, H, relative prior window), built on first use.

    Once the kept graphs hold more than ``budget`` states in all, the least
    recently used ones are dropped (the newest is always kept); ``hits``,
    ``misses`` and ``states`` count the memo's work and size.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.hits = self.misses = self.states = 0
        self._graphs = {}

    def __len__(self) -> int:
        return len(self._graphs)

    def __call__(self, k: int, v_count: int, h_count: int, prior: tuple) -> _LayerGraph:
        key = (k, v_count, h_count, prior)
        graph = self._graphs.pop(key, None)
        if graph is None:
            self.misses += 1
            graph = _LayerGraph(*key)
            self.states += graph.vertical.size
        else:
            self.hits += 1
        self._graphs[key] = graph
        while self.states > self.budget and len(self._graphs) > 1:
            self.states -= self._graphs.pop(next(iter(self._graphs))).vertical.size
        return graph


layer_graph = _GraphMemo(_GRAPH_STATES)


def approximate_segment(seg: Segment, prior_dirs, color, vertical_columns, cfg: ApproxConfig, *, penalty_weight: float = 0.0, forbidden_last: str | None = None):
    """Minimize distortion + lambda*rate over all same-endpoint paths.

    ``prior_dirs`` are the directions already coded before this segment (the
    context seed); only the last K count, and fewer than K means that fewer
    edges precede the segment, so they are coded with the coder's early
    rule.  ``vertical_columns`` maps each pixel row crossed by the original
    segment's vertical edges to the edge column.  ``forbidden_last`` excludes
    paths ending in that direction, so the next segment of the contour can
    never be forced into a 180-degree turn.  ``color`` is the view's color
    image or a ``swim.RowProxy`` of it; callers that approximate several
    segments of one image share one proxy.

    The DP runs over the states of the segment's memoized ``_LayerGraph``,
    one anti-diagonal at a time: a state's candidates cost ``(parent cost +
    lambda * bits) + row cost`` and ``argmin`` keeps the first minimum in
    arrival order, which is the rule of a dict DP that inserts a state on
    its first arrival and replaces it only on a strictly smaller cost.  Ties
    in the final layer go to the first state reached, too.

    Returns (approximated Segment, RdCost).
    """
    k = cfg.aec.context_len
    prior = tuple(prior_dirs)[-k:]
    if seg.length == 0:
        return seg, RdCost(0.0, 0.0, 0.0)
    missing = [r for r in _crossed_rows(seg) if r not in vertical_columns]
    if missing:
        raise ValueError(f"vertical_columns missing rows {missing}")

    dir_v, dir_h = seg.dirpair
    absolute = (dir_v, dir_h, OPPOSITE[dir_v], OPPOSITE[dir_h])
    v_count = seg.vertical_count
    h_count = seg.length - v_count
    graph = layer_graph(k, v_count, h_count, tuple(absolute.index(d) for d in prior))

    model = context_model(cfg.aec)
    bits = []
    for window in graph.windows:
        early = early_bits(len(window), k)
        if early is None:
            # a move back against the window's last direction is never taken
            window_bits = model[tuple(absolute[s] for s in window)][0]
            bits += [window_bits.get(dir_v, 0.0), window_bits.get(dir_h, 0.0)]
        else:
            bits += [early, early]
    rate = np.append(cfg.lagrange * np.array(bits), [0.0, 0.0])  # the sentinel's window last

    rows = row_cost_table(color, vertical_columns, cfg, penalty_weight)
    p0, q0 = seg.start
    dp_v = DIR_VECTOR[dir_v][0]
    dq_h = DIR_VECTOR[dir_h][1]
    row_offset = crack((0, 0), dir_v)[1]  # pixel row of a vertical edge leaving (p, q)
    row_cost = np.array(rows.grid(
        [p0 + dp_v * i + row_offset for i in range(v_count)],
        [q0 + dq_h * j for j in range(h_count + 1)],
    ) + [0.0])  # the zero row cost of a horizontal move last

    vertical = graph.vertical
    base = rate[2 * graph.window_ids[graph.parents] + ~vertical[:, None]]
    edge_rows = row_cost[graph.cells][:, None]
    cost = np.zeros(len(vertical) + 1)
    cost[-1] = math.inf
    pick = np.zeros(len(vertical), np.intp)
    for lo, hi in graph.layers:
        cand = cost[graph.parents[lo:hi]] + base[lo:hi]
        cand += edge_rows[lo:hi]
        pick[lo:hi] = cand.argmin(axis=1)
        cost[lo:hi] = cand.min(axis=1)

    lo, hi = graph.layers[-1]
    final = cost[lo:hi].copy()
    if forbidden_last == dir_v:
        final[vertical[lo:hi]] = math.inf
    elif forbidden_last == dir_h:
        final[~vertical[lo:hi]] = math.inf
    best = int(final.argmin())
    if math.isinf(final[best]):
        # reachable when a projected merge candidate leaves no finite path;
        # callers reject the infinite cost
        logger.debug("every candidate path has infinite distortion; keeping the original segment")
        original = segment_path_cost(seg, seg.dirs, prior, len(prior), color, vertical_columns, cfg, rows=rows)
        return seg, RdCost(math.inf, original.rate, math.inf)

    dirs = []
    state = lo + best
    while state:
        dirs.append(dir_v if vertical[state] else dir_h)
        state = int(graph.parents[state, pick[state]])
    dirs.reverse()
    result = Segment(seg.start, seg.dirpair, "".join(dirs))
    cost = segment_path_cost(result, dirs, prior, len(prior), color, vertical_columns, cfg, rows=rows)
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


def merge_segments(a: Segment, b: Segment, prior_dirs, color, cfg: ApproxConfig, *, cost_a: RdCost, cost_b: RdCost, forbidden_last: str | None = None, penalty_weight: float = 0.0):
    """Try to replace two adjacent segments by one re-optimized segment.

    ``prior_dirs`` and ``forbidden_last`` are the merged segment's context
    seed and excluded last move, as in ``approximate_segment``.  ``cost_a``
    and ``cost_b`` are the pair's current costs, as the segment DP priced
    them in the contour.  Returns (projected Segment, merged Segment, RdCost
    including the merge distortion) when the merge strictly lowers their
    sum, else None; the projected segment is the pair on its joint
    rectangle, the original that later merges re-optimize.
    """
    proxy = row_proxy(color, cfg.swim)
    projection = project_onto_rectangle(a, b)
    if projection is None:
        return None
    projected, shifts = projection
    shifted = _RowCosts(proxy, {}, cfg, penalty_weight)
    merge_d = sum(shifted.cost(row, q_proj, q_orig) for row, q_orig, q_proj in shifts)
    if math.isinf(merge_d):
        return None
    try:
        mseg, mcost = approximate_segment(
            projected, prior_dirs, proxy, segment_vertical_columns(projected), cfg,
            penalty_weight=penalty_weight, forbidden_last=forbidden_last,
        )
    except ValueError:
        return None
    total = mcost.total + merge_d  # infinite when no merged path is finite, so never cheaper
    if total < cost_a.total + cost_b.total:
        return projected, mseg, RdCost(mcost.distortion + merge_d, mcost.rate, total)
    return None


def approximate_contour(contour: Contour, depth, color, cfg: ApproxConfig, *, penalty_weight: float = 0.0):
    """Approximate a whole contour: per-segment DP, then greedy merging of
    adjacent pairs (left-to-right passes repeated until no pass improves).

    Returns (approximated Contour, RdCost).  The reported rate is the entropy
    estimate of the final reassembled contour; the distortion is the sum over
    segments including any merge distortion.
    """
    if depth is not None:
        h, w = getattr(depth, "pixels", depth).shape
        if any(not (0 <= p <= h and 0 <= q <= w) for p, q in contour.points()):
            raise ValueError("contour leaves the depth image lattice")
    proxy = RowProxy(color, cfg.swim)
    k = cfg.aec.context_len
    slots = []
    recent = ()
    originals = split_segments(contour)
    for i, seg in enumerate(originals):
        # ending against the next segment's original first step would force a
        # 180-degree turn at the seam (or push it onto edges beyond the match
        # window); the original seam direction always leaves a finite path
        forbidden = OPPOSITE[originals[i + 1].dirs[0]] if i + 1 < len(originals) else None
        approx, cost = approximate_segment(
            seg, recent, proxy, segment_vertical_columns(seg), cfg,
            penalty_weight=penalty_weight, forbidden_last=forbidden,
        )
        slots.append([seg, approx, cost])
        recent = (recent + tuple(approx.dirs))[-k:]

    if cfg.merge:
        improved = True
        while improved:
            improved = False
            i = 0
            prior = ()  # context of the edges before slot i
            while i + 1 < len(slots):
                forbidden = OPPOSITE[slots[i + 2][1].dirs[0]] if i + 2 < len(slots) else None
                res = merge_segments(
                    slots[i][0], slots[i + 1][0], prior, proxy, cfg,
                    cost_a=slots[i][2], cost_b=slots[i + 1][2],
                    forbidden_last=forbidden, penalty_weight=penalty_weight,
                )
                if res is None:
                    prior = (prior + tuple(slots[i][1].dirs))[-k:]
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
