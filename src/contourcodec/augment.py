"""Depth/color augmentation for approximated contours, 3D warping, and
simple two-view synthesis.

A contour splits each pixel row by the parity of vertical crack edges left of
the pixel, so "which side of the contour" is a per-row prefix parity.  Pixels
whose side differs between the original and approximated contours are flipped:
depth takes the nearest same-row value from the new side, left before right,
or failing that the nearest same-column value, up before down; color becomes a
hole filled by constrained neighbour propagation (background holes only ever
read background donors, and symmetrically).

Warping treats depth values as scaled disparities; larger disparity wins the
z-buffer, ties go to the rightmost source pixel.  Targets collide only within
a row, so one key ordered by depth, then by flat source index, states the
rule; a target that leaves its row lands in a spare slot no pixel reads.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .approx import ApproxConfig, approximate_contour
from .contour import Contour, cracks, detect_contours
from .image_io import ColorImage, DepthImage, pixel_shift
from .swim import RowProxy

logger = logging.getLogger(__name__)


def side_parity(contour: Contour, height: int, width: int) -> np.ndarray:
    """Per-pixel parity of the number of contour vertical edges at or left of
    the pixel's column, row by row; raises ValueError for a contour that
    leaves the image."""
    contour.check_inside(height, width)
    edges = [(row, col) for vertical, row, col in cracks(contour.start, contour.absolute_dirs()) if vertical]
    side = np.zeros((height, width), np.uint8)
    if not edges:
        return side
    # rows without a vertical edge stay 0; every column is summed, since an
    # open contour can leave odd parity up to the image's right edge
    rows, cols = np.array(edges).T
    first = rows.min()
    counts = np.zeros((rows.max() + 1 - first, width + 1), np.int32)
    np.add.at(counts, (rows - first, cols), 1)
    # pixel (r, c) lies right of an edge at column qe iff qe <= c
    side[first : first + len(counts)] = np.cumsum(counts, axis=1)[:, :-1] % 2
    return side


def augment_depth(depth: DepthImage, original: Contour, approximated: Contour):
    """Flip depth pixels whose contour side changed.

    A flipped pixel copies its first donor, an unflipped pixel on its new
    side, in this order: the same row at distance 1, 2, ..., left before
    right, then the same column, up before down.  A pixel without a donor
    keeps its value, and a warning is logged.

    Returns (augmented DepthImage, flips, side): the bool map of the pixels
    that changed side and the uint8 side parity under the approximated contour.
    """
    if original.start != approximated.start or original.end != approximated.end:
        raise ValueError("contour endpoint mismatch")
    h, w = depth.pixels.shape
    side_o = side_parity(original, h, w)
    side_a = side_parity(approximated, h, w)
    changed = side_o != side_a

    out = depth.pixels.copy()
    donors = [~changed & (side_a == s) for s in (0, 1)]
    for r, c in np.argwhere(changed).tolist():
        ok = donors[side_a[r, c]]
        row = ((r, cc) for dist in range(1, w) for cc in (c - dist, c + dist) if 0 <= cc < w)
        column = ((rr, c) for dist in range(1, h) for rr in (r - dist, r + dist) if 0 <= rr < h)
        donor = next((p for p in chain(row, column) if ok[p]), None)
        if donor is None:
            logger.warning("no donor found for flipped pixel (%d, %d); value kept", r, c)
        else:
            out[r, c] = depth.pixels[donor]
    return DepthImage(out), changed, side_a


def augment_color(color: ColorImage, flips: np.ndarray, side: np.ndarray) -> ColorImage:
    """Re-fill flipped pixels from their new side only.

    ``flips`` and ``side`` are the maps ``augment_depth`` returns; unless
    both have the image's (h, w), a ValueError is raised.  Flipped pixels
    become holes; every pass fills each hole that has at least one non-hole
    4-neighbour on the same (new) side with the average of those donors,
    summed below, above, right, left, until no hole remains.
    Unreachable holes fall back to any neighbour and are logged.

    The passes run on the holes' bounding box grown by one pixel, which holds
    every donor a pass can read, padded with a one-pixel frame of permanent
    holes.  The frame stands for the image border; inside the image it
    touches only the box's edge pixels, which are never holes.
    """
    if not flips.shape == side.shape == color.pixels.shape[:2]:
        raise ValueError(f"flips of shape {flips.shape} and side of shape {side.shape} do not match the color image's {color.pixels.shape[:2]}")
    out = color.pixels.copy()
    rows, cols = np.nonzero(flips)
    if rows.size == 0:
        return ColorImage(out)
    box = np.s_[max(rows.min() - 1, 0) : rows.max() + 2, max(cols.min() - 1, 0) : cols.max() + 2]
    work = np.pad(color.pixels[box].astype(np.float64), ((1, 1), (1, 1), (0, 0)))
    holes = np.pad(flips[box], 1, constant_values=True)
    side = np.pad(side[box], 1)
    inner = np.s_[1:-1, 1:-1]
    around = (np.s_[2:, 1:-1], np.s_[:-2, 1:-1], np.s_[1:-1, 2:], np.s_[1:-1, :-2])  # below, above, right, left

    require_side = True
    while holes[inner].any():
        total = np.zeros_like(work[inner])
        num = np.zeros(total.shape[:2])
        for nb in around:
            sel = holes[inner] & ~holes[nb]
            if require_side:
                sel &= side[nb] == side[inner]
            total[sel] += work[nb][sel]
            num[sel] += 1.0
        if num.any():
            fill = num > 0
            work[inner][fill] = total[fill] / num[fill][:, None]
            holes[inner][fill] = False
            require_side = True
        elif require_side:
            logger.warning("%d hole(s) without a same-side donor; filling from any neighbour", int(holes[inner].sum()))
            require_side = False
        else:
            logger.warning("isolated hole(s) left unfilled")
            break
    out[box] = np.clip(np.rint(work[inner]), 0, 255)
    return ColorImage(out)


# ---------------------------------------------------------------------------
# Warping and synthesis
# ---------------------------------------------------------------------------


def _warp(depth: DepthImage, color: ColorImage, alpha: float, direction: int, scale: float):
    """Warp depth and color by per-pixel disparity.

    Pixel ``i = row * w + col`` targets pixel ``i + direction * shift`` of
    its row; a target outside the row goes to the spare slot ``n = h * w``.
    One z-buffer pass keeps, per target, the largest key
    ``depth * (n + 1) + i + 1``.  Counting sources from 1 leaves 0 for a
    target nothing reaches: it divides to depth 0 and source 0, the zero
    color item placed before the pixels.

    Returns (warped depth values, warped color values, valid mask).
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    d = depth.pixels
    h, w = d.shape
    n = h * w
    shift = np.take(direction * pixel_shift(np.arange(256), alpha, scale), d)
    cols = np.arange(w) + shift
    tgt = np.where((cols >= 0) & (cols < w), cols + np.arange(0, n, w)[:, None], n)
    key = d * np.int64(n + 1) + np.arange(1, n + 1).reshape(h, w)
    best = np.zeros(n + 1, np.int64)
    np.maximum.at(best, tgt.ravel(), key.ravel())  # 1-D operands take numpy's fast path
    out_d = best[:n] // (n + 1)
    src = best[:n] - out_d * (n + 1)
    # one 3-byte item per pixel: a pixel moves as one copy, not three
    pix = np.concatenate([np.zeros((1, 3), np.uint8), np.ascontiguousarray(color.pixels).reshape(n, 3)]).view("V3")
    out_c = np.take(pix[:, 0], src)
    return out_d.astype(d.dtype).reshape(h, w), out_c.view(np.uint8).reshape(h, w, 3), (src > 0).reshape(h, w)


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


def _check_sizes(left, right) -> None:
    """Raise ValueError unless the depth and color images of both views of
    a stereo pair share one (h, w)."""
    shapes = [image.pixels.shape[:2] for image in (*left, *right)]
    if len(set(shapes)) > 1:
        raise ValueError("stereo images differ in size: left depth {}, left color {}, right depth {}, right color {}".format(*shapes))


def synthesize_view(left, right, alpha: float, scale: float) -> ColorImage:
    """Blend forward-warped left and backward-warped right views at position
    ``alpha`` in [0, 1]; leftover holes are filled by horizontal propagation
    from the background side."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    _check_sizes(left, right)
    (ldep, lcol) = left
    (rdep, rcol) = right
    dl, cl, vl = _warp(ldep, lcol, alpha, -1, scale)
    dr, cr, vr = _warp(rdep, rcol, 1.0 - alpha, 1, scale)
    # one mask entry per sample: a mask broadcast along the 3-sample axis
    # runs numpy's where and copyto several times slower
    left_lands, both_land = (np.repeat(mask, 3).reshape(cl.shape) for mask in (vl, vl & vr))
    # pixels neither view reaches read the zeros _warp leaves there
    out = np.where(left_lands, cl, cr)
    blend = np.multiply(cl, 1.0 - alpha, dtype=np.float64)
    blend += np.multiply(cr, alpha, dtype=np.float64)
    np.clip(np.rint(blend, out=blend), 0, 255, out=blend)
    np.copyto(out, blend, casting="unsafe", where=both_land)
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


def _approximate_view(depth: DepthImage, color: ColorImage, cfg: ApproxConfig, threshold: int, weight: float, memo: dict | None) -> ViewResult:
    start = time.perf_counter()
    contours = detect_contours(depth, threshold)
    detect_s = time.perf_counter() - start
    out_d, out_c = depth, color
    approximated = []
    costs = []
    for c in contours:
        ac, cost = approximate_contour(c, RowProxy(out_c, cfg.swim, weight, memo), cfg)
        if ac != c:
            out_d, flips, side = augment_depth(out_d, c, ac)
            out_c = augment_color(out_c, flips, side)
        approximated.append(ac)
        costs.append(cost)
    return ViewResult(out_d, out_c, contours, approximated, costs, detect_s)


def approximate_stereo(left, right, cfg: ApproxConfig, *, threshold: int, scale: float, memo: dict | None = None) -> StereoResult:
    """Approximate both views consistently.

    The left view is approximated and augmented first; its augmented pair is
    projected to the right viewpoint, the right pair is overwritten wherever
    the projection disagrees with it, and the right view is then approximated
    with ``cfg.interview_weight`` * shift^2 added to the cost of every
    vertical edge it shifts, whether or not the projection placed that edge.
    Every contour's ``RowProxy`` shares ``memo`` when one is given.
    """
    _check_sizes(left, right)
    lres = _approximate_view(left[0], left[1], cfg, threshold, 0.0, memo)

    proj_d, proj_c, proj_valid = _warp(lres.depth, lres.color, 1.0, -1, scale)
    rdep, rcol = right
    changed = proj_valid & (proj_d != rdep.pixels)
    new_d = np.where(changed, proj_d, rdep.pixels)
    new_c = np.where(np.repeat(changed, 3).reshape(proj_c.shape), proj_c, rcol.pixels)  # per sample, as in synthesize_view
    rres = _approximate_view(DepthImage(new_d), ColorImage(new_c), cfg, threshold, cfg.interview_weight, memo)
    return StereoResult(lres, rres)
