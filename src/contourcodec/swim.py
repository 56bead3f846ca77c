"""Synthesized-view quality metric and its Laplace-model row-distortion proxy.

The metric partitions the test image into non-overlapping NxN blocks, finds
for each the best horizontally shifted match in the reference, Haar-transforms
every row of both blocks, and takes the Kolmogorov-Smirnov distance between
the histograms of the detail coefficients.  The proxy replaces the per-block
histogram comparison by per-row comparisons of fitted Laplace scales, which
have a closed-form KS distance; row distortions are evaluated with a shifting
N-pixel window on the input color image so no view synthesis is needed inside
the optimizer.

Note the closed form drops the constant 1/2 of the Laplace CDFs, i.e. it
equals twice the true KS distance; it still lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if self.norm is not None and self.norm <= 0:
            raise ValueError("norm must be > 0")


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


def best_match(synth_lum: np.ndarray, ref_lum: np.ndarray, row: int, col: int, cfg: SwimConfig):
    """Best horizontally shifted reference block for the target block at
    (row, col); ties go to the smallest |shift|, then the smallest shift.

    Returns (reference block, shift).
    """
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


def block_distortion(coeffs_test: np.ndarray, coeffs_ref: np.ndarray, bins: int) -> float:
    """KS distance between coefficient histograms binned on their joint range.

    Values equal to the joint maximum land in the last bin; a zero-width
    joint range gives distortion 0.
    """
    a = np.asarray(coeffs_test, np.float64).ravel()
    b = np.asarray(coeffs_ref, np.float64).ravel()
    if a.size != b.size:
        raise ValueError("coefficient matrices must have the same shape")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 0.0
    ha, _ = np.histogram(a, bins=bins, range=(lo, hi))
    hb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    fa = np.cumsum(ha) / a.size
    fb = np.cumsum(hb) / b.size
    return float(np.max(np.abs(fb - fa)))


def block_scores(synth, ref, cfg: SwimConfig) -> np.ndarray:
    """Per-block distortions over the non-overlapping block partition."""
    lum_s = luminance(synth)
    lum_r = luminance(ref)
    if lum_s.shape != lum_r.shape:
        raise ValueError("images must have identical dimensions")
    n = cfg.block
    rows, cols = lum_s.shape[0] // n, lum_s.shape[1] // n
    if rows == 0 or cols == 0:
        raise ValueError("image smaller than one block")
    scores = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            matched, _ = best_match(lum_s, lum_r, i * n, j * n, cfg)
            c_s = haar_row(lum_s[i * n : (i + 1) * n, j * n : (j + 1) * n])
            c_o = haar_row(matched)
            scores[i, j] = block_distortion(c_s, c_o, cfg.bins)
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
    """Row-distortion proxy of one image under one SwimConfig.

    The image is converted to luminance once; Laplace scales are memoized by
    (row, window start) and distortions by (row, window start, shift).  The
    proxy is valid only while the image does not change: build a new one
    after editing the image.
    """

    def __init__(self, image, cfg: SwimConfig):
        self.lum = luminance(image)
        self.cfg = cfg
        self._scales = {}
        self._distortions = {}

    def _scale(self, row: int, start: int) -> float:
        key = (row, start)
        scale = self._scales.get(key)
        if scale is None:
            scale = self._scales[key] = laplace_fit(haar_row(self.lum[row, start : start + self.cfg.block]))
        return scale

    def distortion(self, row: int, window_start: int, shift: int) -> float:
        """Distortion of shifting the edge by ``shift`` columns; the
        comparison window starts at ``window_start - shift``."""
        key = (row, window_start, shift)
        value = self._distortions.get(key)
        if value is None:
            h, w = self.lum.shape
            n = self.cfg.block
            if not 0 <= row < h:
                raise ValueError("row out of image")
            if window_start < 0 or window_start + n > w:
                raise ValueError("window out of image")
            shifted = window_start - shift
            if abs(shift) > self.cfg.window or shifted < 0 or shifted + n > w:
                value = math.inf
            else:
                value = laplace_ks(self._scale(row, window_start), self._scale(row, shifted))
            self._distortions[key] = value
        return value


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
    its memo.
    """
    return row_proxy(image, cfg).distortion(row, window_start, q_new - q_orig)
