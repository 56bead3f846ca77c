"""Depth/color augmentation for approximated contours, 3D warping, and
simple two-view synthesis.

A contour splits each pixel row by the parity of vertical crack edges left of
the pixel, so "which side of the contour" is a per-row prefix parity.  Pixels
whose side differs between the original and approximated contours are flipped:
depth takes the nearest same-row value from the new side, color becomes a hole
filled by constrained neighbour propagation (background holes only ever read
background donors, and symmetrically).

Warping treats depth values as scaled disparities; larger disparity wins the
z-buffer, ties go to the rightmost source pixel.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .approx import ApproxConfig, approximate_contour
from .contour import Contour, cracks, detect_contours
from .image_io import ColorImage, DepthImage

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ChangeMask:
    """Per-pixel flip record: flags marks the pixels that changed side; side
    is the new-side parity map used to pick donors."""

    flags: np.ndarray  # bool
    side: np.ndarray  # uint8 parity under the approximated contour

    @property
    def empty(self) -> bool:
        return not self.flags.any()


def side_parity(contour: Contour, height: int, width: int) -> np.ndarray:
    """Per-pixel parity of the number of contour vertical edges at or left of
    the pixel's column, row by row."""
    counts = np.zeros((height, width + 1), np.int32)
    for vertical, row, col in cracks(contour.start, contour.absolute_dirs()):
        if vertical:
            counts[row, col] += 1
    # pixel (r, c) lies right of an edge at column qe iff qe <= c
    return (np.cumsum(counts, axis=1)[:, :-1] % 2).astype(np.uint8)


def augment_depth(depth: DepthImage, original: Contour, approximated: Contour):
    """Flip depth pixels whose contour side changed, copying the nearest
    same-row value from the new side (same-column fallback).

    Returns (augmented DepthImage, ChangeMask).
    """
    if original.start != approximated.start or original.end != approximated.end:
        raise ValueError("contour endpoint mismatch")
    h, w = depth.pixels.shape
    side_o = side_parity(original, h, w)
    side_a = side_parity(approximated, h, w)
    changed = side_o != side_a

    out = depth.pixels.copy()
    donor_ok = ~changed
    for r, c in np.argwhere(changed):
        want = side_a[r, c]
        value = None
        for dist in range(1, w):
            for cc in (c - dist, c + dist):
                if 0 <= cc < w and donor_ok[r, cc] and side_a[r, cc] == want:
                    value = depth.pixels[r, cc]
                    break
            if value is not None:
                break
        if value is None:
            for dist in range(1, h):
                for rr in (r - dist, r + dist):
                    if 0 <= rr < h and donor_ok[rr, c] and side_a[rr, c] == want:
                        value = depth.pixels[rr, c]
                        break
                if value is not None:
                    break
        if value is None:
            logger.warning("no donor found for flipped pixel (%d, %d); value kept", r, c)
            value = depth.pixels[r, c]
        out[r, c] = value
    return DepthImage(out), ChangeMask(changed, side_a)


def augment_color(color: ColorImage, mask: ChangeMask) -> ColorImage:
    """Re-fill flipped pixels from their new side only.

    Flipped pixels become holes; every pass fills each hole that has at least
    one non-hole 4-neighbour on the same (new) side with the average of those
    donors, until no hole remains.  Unreachable holes fall back to any
    neighbour and are logged.
    """
    if mask.flags.shape != color.pixels.shape[:2]:
        raise ValueError("mask dimensions do not match the color image")
    work = color.pixels.astype(np.float64)
    holes = mask.flags
    side = mask.side

    def fill_pass(require_side: bool) -> bool:
        nonlocal holes
        total = np.zeros_like(work)
        num = np.zeros(holes.shape, np.float64)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nb_val = np.roll(work, (dr, dc), axis=(0, 1))
            ok = ~np.roll(holes, (dr, dc), axis=(0, 1))
            if require_side:
                ok &= np.roll(side, (dr, dc), axis=(0, 1)) == side
            if dr == -1:
                ok[-1:, :] = False
            elif dr == 1:
                ok[:1, :] = False
            elif dc == -1:
                ok[:, -1:] = False
            else:
                ok[:, :1] = False
            sel = holes & ok
            total[sel] += nb_val[sel]
            num[sel] += 1.0
        fillable = holes & (num > 0)
        if not fillable.any():
            return False
        work[fillable] = total[fillable] / num[fillable][:, None]
        holes = holes & ~fillable
        return True

    while holes.any():
        if fill_pass(require_side=True):
            continue
        logger.warning("%d hole(s) without a same-side donor; filling from any neighbour", int(holes.sum()))
        if not fill_pass(require_side=False):
            logger.warning("isolated hole(s) left unfilled")
            break
    return ColorImage(np.clip(np.rint(work), 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# Warping and synthesis
# ---------------------------------------------------------------------------


def _warp(depth: DepthImage, color: ColorImage | None, alpha: float, direction: int, scale: float):
    """Warp depth (and optionally color) by per-pixel disparity.

    Returns (warped depth values, warped color or None, valid mask).
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    d = depth.pixels
    h, w = d.shape
    shifts = np.rint(alpha * d.astype(np.float64) * scale).astype(np.int64)
    cols = np.arange(w)[None, :] + direction * shifts
    inside = (cols >= 0) & (cols < w)

    src_r, src_c = np.nonzero(inside)
    tgt = src_r * w + cols[inside]
    # z-buffer: the key orders by disparity, then source column; each target
    # keeps the one write whose key is its maximum
    key = d[inside].astype(np.int64) * w + src_c
    best = np.full(h * w, np.iinfo(np.int64).min)
    np.maximum.at(best, tgt, key)
    win = key == best[tgt]
    src = (src_r * w + src_c)[win]
    tgt = tgt[win]

    out_d = np.zeros(h * w, d.dtype)
    valid = np.zeros(h * w, bool)
    out_d[tgt] = d.ravel()[src]
    valid[tgt] = True
    out_c = None
    if color is not None:
        # one 3-byte item per pixel: a pixel moves as one copy, not three
        pix = np.ascontiguousarray(color.pixels).reshape(h * w, 3).view("V3")
        out_c = np.zeros((h * w, 1), pix.dtype)
        out_c[tgt] = pix[src]
        out_c = out_c.view(np.uint8).reshape(h, w, 3)
    return out_d.reshape(h, w), out_c, valid.reshape(h, w)


def warp_view(depth: DepthImage, color: ColorImage, alpha: float, direction: int, scale: float = 1.0):
    """Forward-warp a color image by its depth. Returns (ColorImage, hole mask)."""
    _, out_c, valid = _warp(depth, color, alpha, direction, scale)
    return ColorImage(out_c), ~valid


def _fill_holes_row(colors: np.ndarray, disp: np.ndarray, valid: np.ndarray) -> None:
    """Fill hole runs from whichever side has the smaller (background)
    disparity, constant along the run; edits in place.  Rows without a
    valid pixel stay as they are."""
    w = valid.shape[1]
    rows = np.flatnonzero(~valid.all(axis=1) & valid.any(axis=1))
    if rows.size == 0:
        return
    ok = valid[rows]
    col = np.arange(w, dtype=np.int32)
    # nearest valid column at or left / right of each pixel; -1 / w if none
    left = np.maximum.accumulate(np.where(ok, col, np.int32(-1)), axis=1)
    right = np.minimum.accumulate(np.where(ok, col, np.int32(w))[:, ::-1], axis=1)[:, ::-1]
    d = disp[rows]
    d_left = np.take_along_axis(d, np.maximum(left, 0), axis=1)
    d_right = np.take_along_axis(d, np.minimum(right, w - 1), axis=1)
    donor = np.where((left >= 0) & ((right == w) | (d_left <= d_right)), left, right)
    hr, hc = np.nonzero(~ok)
    colors[rows[hr], hc] = colors[rows[hr], donor[hr, hc]]


def synthesize_view(left, right, alpha: float, scale: float = 1.0) -> ColorImage:
    """Blend forward-warped left and backward-warped right views at position
    ``alpha`` in (0, 1); leftover holes are filled by horizontal propagation
    from the background side."""
    (ldep, lcol) = left
    (rdep, rcol) = right
    dl, cl, vl = _warp(ldep, lcol, alpha, -1, scale)
    dr, cr, vr = _warp(rdep, rcol, 1.0 - alpha, 1, scale)
    # pixels neither view reaches read the zeros _warp leaves there
    single = np.where(vl[..., None], cl, cr)
    out = np.where((vl & vr)[..., None], (1.0 - alpha) * cl + alpha * cr, single)
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    disp = np.where(vl, dl, dr)
    _fill_holes_row(out, disp, vl | vr)
    return ColorImage(out)


# ---------------------------------------------------------------------------
# Inter-view consistent stereo approximation
# ---------------------------------------------------------------------------


@dataclass
class ViewResult:
    depth: DepthImage
    color: ColorImage
    original_contours: list
    contours: list  # approximated
    costs: list  # RdCost per contour
    detect_s: float  # wall time of the contour detection


@dataclass
class StereoResult:
    left: ViewResult
    right: ViewResult

    @property
    def total_distortion(self) -> float:
        return sum(c.distortion for c in self.left.costs + self.right.costs)


def _approximate_view(depth: DepthImage, color: ColorImage, cfg: ApproxConfig, threshold: int, penalty_weight: float) -> ViewResult:
    start = time.perf_counter()
    contours = detect_contours(depth, threshold)
    detect_s = time.perf_counter() - start
    out_d, out_c = depth, color
    approximated = []
    costs = []
    for c in contours:
        ac, cost = approximate_contour(c, out_d, out_c, cfg, penalty_weight=penalty_weight)
        if ac != c:
            out_d, mask = augment_depth(out_d, c, ac)
            out_c = augment_color(out_c, mask)
        approximated.append(ac)
        costs.append(cost)
    return ViewResult(out_d, out_c, contours, approximated, costs, detect_s)


def approximate_stereo(left, right, cfg: ApproxConfig, *, threshold: int = 30, scale: float = 1.0) -> StereoResult:
    """Approximate both views consistently.

    The left view is approximated and augmented first; its augmented pair is
    projected to the right viewpoint, the right pair is overwritten wherever
    the projection disagrees with it, and the right view is then approximated
    with the squared-shift inter-view penalty so projected edges stay put.
    """
    lres = _approximate_view(left[0], left[1], cfg, threshold, penalty_weight=0.0)

    proj_d, proj_c, proj_valid = _warp(lres.depth, lres.color, 1.0, -1, scale)
    rdep, rcol = right
    changed = proj_valid & (proj_d != rdep.pixels)
    new_d = np.where(changed, proj_d, rdep.pixels)
    new_c = np.where(changed[..., None], proj_c, rcol.pixels)
    rres = _approximate_view(
        DepthImage(new_d), ColorImage(new_c), cfg, threshold, penalty_weight=cfg.interview_weight
    )
    return StereoResult(lres, rres)
