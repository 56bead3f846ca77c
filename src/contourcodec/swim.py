"""Synthesized-view quality metric and its Laplace-model row-distortion proxy.

The metric partitions the test image into non-overlapping NxN blocks, finds
for each the best horizontally shifted match in the reference, Haar-transforms
every row of both blocks, and takes the Kolmogorov-Smirnov distance between
the histograms of the detail coefficients.  It is evaluated one block row at
a time, the blocks of a row as one array: a shift's squared errors are summed
per block over a contiguous row of n*n values, in the pairwise order
``np.mean`` uses on one block, and the match is the first minimum in the
order smallest |shift|, then smaller shift.  Coefficients are binned on
``np.linspace`` edges over the pair's joint range, a value in bin i iff
edges[i] <= x < edges[i + 1] with the last bin closed: the bins
``np.histogram`` assigns, also on ranges a few ULPs wide that it refuses.
A block row whose pixels equal the reference's scores 0 and is skipped.

The proxy replaces the per-block histogram comparison by per-row comparisons
of fitted Laplace scales, which have a closed-form KS distance; row
distortions are evaluated with a shifting N-pixel window on the input color
image so no view synthesis is needed inside the optimizer (one stacked fit
per window covers its 2W + 1 shifts, bit-equal to fitting them one by one).

Note the closed form drops the constant 1/2 of the Laplace CDFs, i.e. it
equals twice the true KS distance; it still lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image_io import ColorImage

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SwimConfig:
    """block: side of the square analysis block (power of two);
    window: half width of the horizontal match search;
    bins: histogram bin count; norm: distortion normalizer (None = block count)."""

    block: int = 16
    window: int = 10
    bins: int = 10
    norm: float | None = None

    def __post_init__(self):
        n = self.block
        if n < 2 or n & (n - 1):
            raise ValueError("block size must be a power of two >= 2")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.norm is not None and not 0 < self.norm < math.inf:
            raise ValueError("norm must be finite and > 0")


def luminance(image) -> np.ndarray:
    """ITU-R BT.601 luminance as float64; 2D arrays pass through."""
    if isinstance(image, ColorImage):
        image = image.pixels
    a = np.asarray(image)
    if a.ndim == 2:
        return a.astype(np.float64)
    return a[..., 0] * 0.299 + a[..., 1] * 0.587 + a[..., 2] * 0.114


def haar_row(values) -> np.ndarray:
    """All detail coefficients of a full orthonormal 1D Haar decomposition.

    Level-1 details come first; the single approximation coefficient is
    dropped, leaving n - 1 values for an input of power-of-two length n.
    """
    x = np.asarray(values, np.float64)
    n = x.shape[-1]
    if n < 2 or n & (n - 1):
        raise ValueError("length must be a power of two >= 2")
    details = []
    while x.shape[-1] > 1:
        even = x[..., 0::2]
        odd = x[..., 1::2]
        details.append((even - odd) / _SQRT2)
        x = (even + odd) / _SQRT2
    return np.concatenate(details, axis=-1)


def _match_blocks(targets: np.ndarray, ref_strip: np.ndarray, starts: np.ndarray, window: int):
    """Best horizontally shifted reference block for each target block.

    ``targets`` is an (m, n, n) stack of blocks whose columns start at the
    ascending ``starts``; ``ref_strip`` holds the n reference rows they lie
    in.  Each shift's squared errors are summed per block over a contiguous
    n*n row, the pairwise order ``np.mean`` uses on one block; out-of-bounds
    candidates score inf, and ``argmin`` over shifts in tie-break order keeps
    the first minimum.  Returns (matched (m, n, n), shifts (m,)).
    """
    m, n, _ = targets.shape
    width = ref_strip.shape[1]
    flat = targets.reshape(m, n * n)
    # tie-break order: smallest |shift| first, then the smaller shift
    shifts = np.array(sorted(range(-window, window + 1), key=lambda k: (abs(k), k)))
    errors = np.full((shifts.size, m), np.inf)
    if width >= n:
        candidates = sliding_window_view(ref_strip, (n, n))[0]  # (width - n + 1, n, n)
        for s, k in enumerate(shifts):
            cols = starts + k
            lo, hi = np.searchsorted(cols, 0), np.searchsorted(cols, width - n, side="right")
            if lo < hi:
                sq = (candidates[cols[lo:hi]].reshape(hi - lo, n * n) - flat[lo:hi]) ** 2
                errors[s, lo:hi] = np.add.reduce(sq, axis=-1) / (n * n)
    pick = np.argmin(errors, axis=0)
    if np.isinf(errors[pick, np.arange(m)]).any():
        raise ValueError("no in-bounds candidate block")
    chosen = shifts[pick]
    return candidates[starts + chosen], chosen


def _ks_distances(a: np.ndarray, b: np.ndarray, bins: int) -> np.ndarray:
    """Row-wise KS distances between the histograms of ``a`` and ``b``,
    (m, k) arrays, binned on each row pair's joint range.

    A value lies in bin i iff edges[i] <= x < edges[i + 1], the last bin
    closed, with the edges of ``np.linspace``: the bins ``np.histogram``
    assigns wherever it accepts the range.  Ranges a few ULPs wide, on which
    it refuses, repeat edges and leave bins empty.  A zero-width range gives
    distortion 0.
    """
    lo = np.minimum(a.min(axis=1), b.min(axis=1))
    hi = np.maximum(a.max(axis=1), b.max(axis=1))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("coefficients must be finite")
    out = np.zeros(a.shape[0])
    live = hi > lo  # zero-width rows stay out: a zero step changes linspace's arithmetic for all rows
    if live.any():
        inner = np.linspace(lo[live], hi[live], bins + 1, axis=-1)[:, 1:-1, None]
        # cumulative bin counts: values below each inner edge, summed along
        # the contiguous value axis
        fa = np.add.reduce(a[live][:, None, :] < inner, axis=-1, dtype=np.intp) / a.shape[1]
        fb = np.add.reduce(b[live][:, None, :] < inner, axis=-1, dtype=np.intp) / b.shape[1]
        out[live] = np.max(np.abs(fb - fa), axis=1, initial=0.0)
    return out


def block_scores(synth, ref, cfg: SwimConfig) -> np.ndarray:
    """Per-block distortions over the non-overlapping block partition,
    evaluated one block row (strip) at a time, luminance strip by strip.

    A strip whose test pixels equal its reference pixels scores 0 without
    being evaluated: each of its blocks matches at shift 0, first in the tie
    order with squared error 0, and equal coefficients are at KS distance 0.
    """
    pix_s, pix_r = (np.asarray(im.pixels if isinstance(im, ColorImage) else im) for im in (synth, ref))
    if pix_s.shape[:2] != pix_r.shape[:2]:
        raise ValueError("images must have identical dimensions")
    n = cfg.block
    rows, cols = pix_s.shape[0] // n, pix_s.shape[1] // n
    if rows == 0 or cols == 0:
        raise ValueError("image smaller than one block")
    starts = np.arange(cols) * n
    scores = np.zeros((rows, cols))
    for i in range(rows):
        strip = slice(i * n, (i + 1) * n)
        if np.array_equal(pix_s[strip], pix_r[strip]):
            continue
        lum_s = luminance(pix_s[strip])
        targets = lum_s[:, : cols * n].reshape(n, cols, n).transpose(1, 0, 2)
        matched, _ = _match_blocks(targets, luminance(pix_r[strip]), starts, cfg.window)
        c_s = haar_row(targets).reshape(cols, -1)
        c_o = haar_row(matched).reshape(cols, -1)
        scores[i] = _ks_distances(c_s, c_o, cfg.bins)
    return scores


def swim_score(synth, ref, cfg: SwimConfig):
    """Overall normalized distortion d and quality score S = 1 / (1 + d)."""
    scores = block_scores(synth, ref, cfg)
    norm = cfg.norm if cfg.norm is not None else scores.size
    d = float(scores.sum() / norm)
    return d, 1.0 / (1.0 + d)


def laplace_fit(coeffs) -> float:
    """Maximum-likelihood Laplace scale: the mean absolute value."""
    a = np.asarray(coeffs, np.float64).ravel()
    if a.size == 0:
        raise ValueError("empty coefficient list")
    return float(np.mean(np.abs(a)))


def laplace_ks(scale_a: float, scale_b: float) -> float:
    """Closed-form maximum CDF gap of two Laplace densities (x2 convention).

    Equal scales give 0; a single zero scale gives the limit value 1.
    """
    if scale_a < 0 or scale_b < 0:
        raise ValueError("Laplace scales must be >= 0")
    hi = max(scale_a, scale_b)
    lo = min(scale_a, scale_b)
    if hi == lo:
        return 0.0
    if lo == 0.0:
        return 1.0
    ratio = lo / hi
    return ratio ** (lo / (hi - lo)) - ratio ** (hi / (hi - lo))


def window_anchor(q: int, width: int, block: int) -> int:
    """Start column of the block-aligned window containing edge column q,
    clamped so the window fits in the image."""
    if width < block:
        raise ValueError("image narrower than one block")
    return max(0, min((q // block) * block, width - block))


class RowProxy:
    """Row-distortion proxy of one image under one SwimConfig, priced with
    the inter-view weight of the view the image belongs to.

    The image is converted to luminance once; the distortions of a window's
    2W + 1 shifts are computed together and memoized by (row, window start).
    ``edge_costs`` is the optimizer's one price of a shifted vertical edge:
    its distortion plus ``weight`` * shift^2, the inter-view penalty of the
    dependent (right) view, 0 on the left view.  ``weight`` must be finite
    and >= 0.  The proxy is valid only while the image does not change:
    build a new one after editing the image.
    """

    def __init__(self, image, cfg: SwimConfig, weight: float = 0.0):
        if not 0 <= weight < math.inf:
            raise ValueError("weight must be finite and >= 0")
        self.lum = luminance(image)
        self.cfg = cfg
        self.weight = weight
        self._shifts = {}

    def _check_range(self, row: int, window_start: int) -> None:
        h, w = self.lum.shape
        if not 0 <= row < h:
            raise ValueError("row out of image")
        if window_start < 0 or window_start + self.cfg.block > w:
            raise ValueError("window out of image")

    def _vector(self, row: int, window_start: int) -> list:
        """Distortions of shifting the edge by -W..W columns, indexed by
        shift + W; inf where the comparison window leaves the image."""
        key = (row, window_start)
        out = self._shifts.get(key)
        if out is None:
            self._check_range(row, window_start)
            w = self.lum.shape[1]
            n, win = self.cfg.block, self.cfg.window
            # one haar_row pass over the in-image windows start - W .. start + W;
            # C-contiguous magnitudes sum each window in the pairwise order
            # laplace_fit uses on one window, so the scales are bit-equal
            lo, hi = max(window_start - win, 0), min(window_start + win, w - n)
            stack = sliding_window_view(self.lum[row, lo : hi + n], n)
            coeffs = np.ascontiguousarray(np.abs(haar_row(stack)))
            scales = (np.add.reduce(coeffs, axis=-1) / (n - 1)).tolist()
            own = scales[window_start - lo]
            # shifting the edge by s compares against the window at start - s
            out = self._shifts[key] = [
                laplace_ks(own, scales[start - lo]) if lo <= start <= hi else math.inf
                for start in range(window_start + win, window_start - win - 1, -1)
            ]
        return out

    def edge_costs(self, row: int, q_orig: int, columns) -> list:
        """Cost of moving the vertical edge in ``row`` from ``q_orig`` to each
        of ``columns``: the distortion at ``q_orig``'s window anchor plus
        weight * shift^2, or inf for a shift beyond the match window.

        A zero shift costs exactly 0.0: a window against itself gives
        ``laplace_ks`` 0.0, and weight * 0 is 0.0.  So when every column is
        ``q_orig`` the row is range-checked but not filled."""
        window_start = window_anchor(q_orig, self.lum.shape[1], self.cfg.block)
        if columns.count(q_orig) == len(columns):
            self._check_range(row, window_start)
            return [0.0] * len(columns)
        vector = self._vector(row, window_start)
        win, weight = self.cfg.window, self.weight
        return [vector[s + win] + weight * s ** 2 if -win <= (s := q - q_orig) <= win else math.inf for q in columns]


def row_proxy(image, cfg: SwimConfig) -> RowProxy:
    """``image`` itself when it already is a proxy for ``cfg``, else a new
    proxy of it."""
    if not isinstance(image, RowProxy):
        return RowProxy(image, cfg)
    if image.cfg is not cfg and image.cfg != cfg:
        raise ValueError("row proxy was built for a different SwimConfig")
    return image


def row_distortion(image, row: int, window_start: int, q_orig: int, q_new: int, cfg: SwimConfig) -> float:
    """Proxy distortion of horizontally shifting a vertical edge in one row.

    The original window starts at ``window_start``; the comparison window is
    shifted by the negated edge shift.  Shifts beyond the match window, or
    comparison windows that would leave the image, give +inf.  ``image`` is
    an image or a :class:`RowProxy` of one, which serves repeated calls from
    its memo without charging its weight.
    """
    vector = row_proxy(image, cfg)._vector(row, window_start)
    shift = q_new - q_orig
    return vector[shift + cfg.window] if -cfg.window <= shift <= cfg.window else math.inf
