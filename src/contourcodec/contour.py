"""Between-pixel (crack) contours of depth images as differential chain codes.

Contours live on the pixel-corner lattice: a corner point (p, q) satisfies
0 <= p <= height and 0 <= q <= width.  A vertical crack edge between the
horizontally adjacent pixels (r, c-1) and (r, c) runs from corner (r, c) to
(r+1, c); a horizontal crack between the vertically adjacent pixels (r-1, c)
and (r, c) runs from (r, c) to (r, c+1).  ``crack`` is the one statement of
which crack a step runs along; rasterization, the DP's row costs, merging
and the side parity of augmentation all index cracks through it.  Tracing
walks flat byte maps instead, and states the rule once, as the ``moves``
table of ``trace_edge_maps``.

A chain stores one absolute starting direction plus relative turns, the
differential chain code.  Absolute directions are the characters "E", "S",
"W", "N" (east/south/west/north in image coordinates, row axis pointing
down); relative symbols are "l", "s", "r" (left, straight, right).  The turn
rule is stated once, as ``_RELATIVE``: the string ``sr?l`` indexed by
(next - prev) % 4 of the directions' indices, "?" being the 180-degree turn
that no crack chain takes.  A segment is the longest run from its first step
over one vertical and one horizontal direction, the first of SE, SW, NE, NW
on a tie (so a one-axis run keeps "S" or "E" in its unused slot).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .image_io import DepthImage

ABSOLUTE = "ESWN"

DIR_VECTOR = {"E": (0, 1), "S": (1, 0), "W": (0, -1), "N": (-1, 0)}
OPPOSITE = {"E": "W", "S": "N", "W": "E", "N": "S"}

_IDX = {d: i for i, d in enumerate(ABSOLUTE)}
# relative symbol of a turn by (next - prev) % 4 direction indices
_RELATIVE = "sr?l"
_TURN = {rel: _RELATIVE.index(rel) for rel in "lsr"}
_RELATIVE_CODES = np.frombuffer(_RELATIVE.encode(), np.uint8)


def turn(direction: str, rel: str) -> str:
    """Absolute direction after taking relative step ``rel`` from ``direction``."""
    return ABSOLUTE[(_IDX[direction] + _TURN[rel]) % 4]


def step(point, direction: str):
    dp, dq = DIR_VECTOR[direction]
    return (point[0] + dp, point[1] + dq)


@dataclass(frozen=True)
class Contour:
    """A crack-edge chain: start corner, first absolute direction, relative turns."""

    start: tuple
    first: str
    rest: str = ""

    def __post_init__(self):
        if self.first not in DIR_VECTOR:
            raise ValueError(f"invalid absolute direction {self.first!r}")
        if not set(self.rest) <= {"l", "s", "r"}:
            raise ValueError("invalid relative symbol")
        object.__setattr__(self, "start", (int(self.start[0]), int(self.start[1])))

    def __len__(self) -> int:
        return 1 + len(self.rest)

    def absolute_dirs(self) -> list:
        dirs = [self.first]
        for rel in self.rest:
            dirs.append(turn(dirs[-1], rel))
        return dirs

    def points(self) -> list:
        """Corner points visited, start first; length len(self) + 1."""
        pts = [self.start]
        for d in self.absolute_dirs():
            pts.append(step(pts[-1], d))
        return pts

    def check_inside(self, height: int, width: int) -> None:
        """Raise ValueError unless every corner lies on the (height + 1) x
        (width + 1) corner lattice of a height x width image."""
        if any(not (0 <= p <= height and 0 <= q <= width) for p, q in self.points()):
            raise ValueError("contour leaves the image lattice")

    @property
    def end(self) -> tuple:
        return self.points()[-1]

    @property
    def is_closed(self) -> bool:
        return self.end == self.start


def to_relative(start, dirs) -> Contour:
    """Build a Contour from a nonempty chain of absolute directions."""
    dirs = list(dirs)
    if not dirs:
        raise ValueError("empty chain")
    rest = "".join(_RELATIVE[(_IDX[b] - _IDX[a]) % 4] for a, b in zip(dirs, dirs[1:]))
    if "?" in rest:
        raise ValueError("doubling back")
    return Contour(tuple(start), dirs[0], rest)


@dataclass(frozen=True)
class Segment:
    """A contour run restricted to two non-opposite absolute directions.

    ``dirpair`` is stored as (vertical, horizontal); for runs that use only
    one axis the unused slot is filled with a default ("S" or "E") that the
    endpoint arithmetic never consults.
    """

    start: tuple
    dirpair: tuple  # (vertical direction, horizontal direction)
    dirs: str

    def __post_init__(self):
        v, h = self.dirpair
        if v not in "SN" or h not in "EW":
            raise ValueError(f"invalid direction pair {self.dirpair!r}")
        if any(d not in (v, h) for d in self.dirs):
            raise ValueError("segment direction outside its pair")
        object.__setattr__(self, "start", (int(self.start[0]), int(self.start[1])))

    @property
    def length(self) -> int:
        return len(self.dirs)

    @property
    def vertical_count(self) -> int:
        return sum(1 for d in self.dirs if d == self.dirpair[0])


def segment_endpoint(seg: Segment) -> tuple:
    """End corner from the closed-form displacement, not from walking."""
    p, q = seg.start
    v = seg.vertical_count
    h = seg.length - v
    p += v if seg.dirpair[0] == "S" else -v
    q += h if seg.dirpair[1] == "E" else -h
    return (p, q)


# (vertical, horizontal) pairs in tie order, each with its run pattern
_RUNS = tuple(((v, h), re.compile(f"[{v}{h}]*")) for v in "SN" for h in "EW")


def split_segments(contour: Contour) -> list:
    """Split into maximal two-direction runs; corner edges stay with the
    earlier segment (maximal-prefix rule)."""
    dirs = "".join(contour.absolute_dirs())
    pts = contour.points()
    segments = []
    i = 0
    while i < len(dirs):
        ends = [run.match(dirs, i).end() for _, run in _RUNS]
        end = max(ends)
        segments.append(Segment(pts[i], _RUNS[ends.index(end)][0], dirs[i:end]))
        i = end
    return segments


def join_segments(segments) -> Contour:
    """Reassemble consecutive segments into one contour."""
    dirs = []
    for seg in segments:
        dirs.extend(seg.dirs)
    return to_relative(segments[0].start, dirs)


def segment_vertical_columns(seg: Segment) -> dict:
    """Map each pixel row crossed by a vertical edge to that edge's column."""
    return {row: col for vertical, row, col in cracks(seg.start, seg.dirs) if vertical}


# ---------------------------------------------------------------------------
# Detection: thresholded 4-neighbour differences linked by crack following
# ---------------------------------------------------------------------------


def edge_maps(depth, threshold: int = 30):
    """Boolean crack-edge maps of a depth image.

    Returns (vert, horiz): vert[r, c] marks the crack between pixels
    (r, c-1) and (r, c) and has shape (h, w+1); horiz[r, c] marks the crack
    between (r-1, c) and (r, c) and has shape (h+1, w).  Image-border columns
    and rows are always False.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    pix = depth.pixels if isinstance(depth, DepthImage) else np.asarray(depth)
    if pix.ndim != 2:
        raise ValueError(f"depth must be a 2-D array, got shape {pix.shape}")
    a = pix.astype(np.int32)
    h, w = a.shape
    vert = np.zeros((h, w + 1), bool)
    horiz = np.zeros((h + 1, w), bool)
    vert[:, 1:w] = np.abs(a[:, 1:] - a[:, :-1]) >= threshold
    horiz[1:h, :] = np.abs(a[1:, :] - a[:-1, :]) >= threshold
    return vert, horiz


def crack(point, direction: str) -> tuple:
    """The crack edge that a step from corner ``point`` runs along.

    Returns (vertical, row, col), an index into ``vert`` when ``vertical``
    and into ``horiz`` otherwise (the ``edge_maps`` pair): S runs along
    vert[p, q], N along vert[p-1, q], E along horiz[p, q] and W along
    horiz[p, q-1].  A crack is the same walked either way:
    crack(p, d) == crack(step(p, d), OPPOSITE[d]).
    """
    p, q = point
    if direction == "S":
        return True, p, q
    if direction == "N":
        return True, p - 1, q
    if direction == "E":
        return False, p, q
    return False, p, q - 1


def cracks(start, dirs):
    """Yield ``crack`` for every step of the chain ``dirs`` from ``start``."""
    point = start
    for d in dirs:
        yield crack(point, d)
        point = step(point, d)


def trace_edge_maps(vert, horiz):
    """Link crack edges into chains.  Deterministic; the inputs are not modified.

    A walk from a corner starts on its first edge in E, S, W, N order, then
    at each corner goes straight, else right, else left, and stops where none
    of the three is left.  Open chains come first: each pass starts a walk
    from every corner of degree 1 at the pass start, in raster order, that
    still has an edge, and passes repeat until no corner of degree 1 is left.
    Then each pass starts a walk from every corner that had an edge at the
    pass start, in raster order, that still has one, until no edge is left.
    A closed chain is cut at its topmost-then-leftmost corner.  Raises
    ValueError unless the maps have the shapes (h, w + 1) and (h + 1, w).
    """
    vert = np.asarray(vert, bool)
    horiz = np.asarray(horiz, bool)
    if vert.ndim != 2 or horiz.ndim != 2 or horiz.shape != (vert.shape[0] + 1, vert.shape[1] - 1):
        raise ValueError(f"edge maps of shapes {vert.shape} and {horiz.shape} are not (h, w + 1) and (h + 1, w)")
    h, w1 = vert.shape
    # V[i] and H[i] are the cracks S and E of corner i = p * w1 + q.  The zero
    # column and the two zero rows past the lattice make every border crack
    # read 0, and so do the negative indices of a W or N crack from row 0.
    V, H = bytearray((h + 2) * w1), bytearray((h + 2) * w1)
    vmap = np.frombuffer(V, np.uint8).reshape(h + 2, w1)[: h + 1]
    hmap = np.frombuffer(H, np.uint8).reshape(h + 2, w1)[: h + 1]
    vmap[:h] = vert
    hmap[:, :-1] = horiz
    # E, S, W, N: the map and offset of the crack a step runs along, the step
    moves = ((H, 0, 1), (V, 0, w1), (H, -1, -1), (V, -w1, -w1))
    # a walk's first step tries E, S, W, N; each later one straight, right, left
    first = tuple((c,) + moves[c] for c in range(4))
    nexts = tuple(tuple(first[c] for c in (d, (d + 1) & 3, (d - 1) & 3)) for d in range(4))

    def degrees():
        deg = vmap + hmap
        deg[:, 1:] += hmap[:, :-1]
        deg[1:] += vmap[:-1]
        return deg

    def walk(i):
        start = lo = i
        dirs = bytearray()
        k = 0
        options = first
        while True:
            for d, m, off, s in options:
                if m[i + off]:
                    break
            else:
                break
            m[i + off] = 0
            dirs.append(d)
            i += s
            if i < lo:
                lo, k = i, len(dirs)
            options = nexts[d]
        if i != start:
            lo, k = start, 0
        codes = np.frombuffer(dirs[k:] + dirs[:k], np.uint8)
        rest = _RELATIVE_CODES[(codes[1:] - codes[:-1]) & 3].tobytes().decode()
        if "?" in rest:
            raise ValueError("doubling back")
        return Contour(divmod(lo, w1), ABSOLUTE[codes[0]], rest)

    contours = []
    for open_ends in (True, False):
        while seeds := np.flatnonzero(degrees() == 1 if open_ends else degrees()).tolist():
            contours += [walk(i) for i in seeds if V[i] or H[i] or H[i - 1] or V[i - w1]]
    return contours


def detect_contours(depth, threshold: int = 30):
    """Detect object contours of a depth image as crack chains."""
    vert, horiz = edge_maps(depth, threshold)
    return trace_edge_maps(vert, horiz)


# ---------------------------------------------------------------------------
# Text dump format: one contour per line
# ---------------------------------------------------------------------------


def format_contours(contours) -> str:
    return "".join(
        f"start=({c.start[0]},{c.start[1]}) first={c.first} rest={c.rest}\n" for c in contours
    )


def parse_contours(text: str):
    contours = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = dict(part.split("=", 1) for part in line.split())
            p, q = fields["start"].strip("()").split(",")
            contours.append(Contour((int(p), int(q)), fields["first"], fields.get("rest", "")))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad contour dump at line {lineno}: {raw!r}") from exc
    return contours
