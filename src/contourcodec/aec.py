"""Arithmetic edge coding of crack-contour chains with a geometric context.

The probability of the next relative direction is driven by a total
least-squares line fitted through the most recent edge endpoints: a candidate
direction is weighted by ``exp(kappa * cos(angle to the line))`` times
``exp(-dist^2 / (2 * omega^2))``, where ``dist`` is the perpendicular
distance from the candidate edge's end point to the line.  Normalizing over
the three relative symbols cancels the von-Mises constant.

Every edge is priced by the context model of its parameter set
(:func:`context_model`), which numbers its windows: a window is the last K
absolute directions coded (all of them while fewer are), and its id indexes
a plain list of entries, each filled on first use.  An entry holds the bits
of each allowed next direction or turn, the range coder's interval of each
turn and the id of the window after each next direction or turn, so callers
step from id to id and only the fill builds a window.  The empty window, id
0, prices the first edge of a contour at 2 bits for each of the four
directions (that direction is carried in the bitstream header); a window
shorter than K is uniform over its three non-reversing directions; a full
window fits the geometric model.  Rate estimation, the contour DP, encoding
and decoding all read that one list, so the rate the DP minimizes is the
rate the coder spends.

The range coder codes each turn in an interval of cumulative frequencies
out of a fixed total of 2^16.  One coder call codes the turns of a whole
contour, stepping from window id to window id with the coder state in
locals.

Bitstream layout (all integers big-endian):
magic "AEC1" | u16 contour count | per contour: u16 p, u16 q,
first-direction code in one byte, u32 symbol count (length - 1) |
range-coded payload, its trailing zero bytes stripped (the decoder reads
zeros past its end) | u8 terminator 0x00.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat

from .contour import ABSOLUTE, DIR_VECTOR, Contour, step, turn

logger = logging.getLogger(__name__)

PROB_FLOOR = 2.0 ** -16
# uniform mixing weight enforcing the probability floor (1/12288 > 2^-16)
_MIX = 2.0 ** -12

_FREQ_BITS = 16
_FREQ_TOTAL = 1 << _FREQ_BITS
_TOP = 1 << 24


class DegenerateContextError(ValueError):
    """All context points coincide; no line direction is defined."""


class BitstreamError(ValueError):
    """Raised for malformed or truncated coded streams."""


@dataclass(frozen=True)
class AecParams:
    """Geometric context model parameters.

    context_len is the number of previous edges in the window; kappa the
    von-Mises concentration of the angle term; omega the scale of the
    distance term (lattice units).
    """

    context_len: int = 3
    kappa: float = 2.0
    omega: float = 1.0

    def __post_init__(self):
        if self.context_len < 1:
            raise ValueError("context_len must be >= 1")
        if not (0 < self.kappa < math.inf and 0 < self.omega < math.inf):
            raise ValueError("kappa and omega must be finite and > 0")


def fit_line(points, orient=None):
    """Total-least-squares line through 2D lattice points.

    Returns ((mean_p, mean_q), (up, uq)) with a unit direction vector.  The
    sign is chosen to agree with ``orient`` when given; if the line happens to
    be exactly perpendicular to it, the sign falls back to the chord and then
    to the most recent point differences, keeping the choice covariant under
    lattice rotations.  Raises DegenerateContextError when the points carry no
    direction at all (coincident, or an isotropic scatter).
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    mp = sum(p for p, _ in pts) / len(pts)
    mq = sum(q for _, q in pts) / len(pts)
    spp = sqq = spq = 0.0
    for p, q in pts:
        dp, dq = p - mp, q - mq
        spp += dp * dp
        sqq += dq * dq
        spq += dp * dq
    spread = spp + sqq
    if spread < 1e-12 or math.hypot(sqq - spp, 2.0 * spq) < 1e-9 * spread:
        raise DegenerateContextError("degenerate context")
    theta = 0.5 * math.atan2(2.0 * spq, sqq - spp)
    up, uq = math.sin(theta), math.cos(theta)
    refs = [] if orient is None else [orient]
    refs.append((pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1]))
    refs.extend((b[0] - a[0], b[1] - a[1]) for a, b in zip(pts[-2::-1], pts[::-1]))
    for ref in refs:
        dot = up * ref[0] + uq * ref[1]
        if abs(dot) > 1e-9:
            if dot < 0.0:
                up, uq = -up, -uq
            return (mp, mq), (up, uq)
    raise DegenerateContextError("degenerate context")


def line_point_distance(line, point) -> float:
    """Perpendicular distance from a point to a fitted line."""
    (mp, mq), (up, uq) = line
    return abs((point[1] - mq) * up - (point[0] - mp) * uq)


def edge_probabilities(context_points, last_dir: str, params: AecParams) -> dict:
    """Distribution over the relative symbols given recent edge endpoints.

    ``context_points`` are the crack points of the recent polyline, oldest
    first and ending at the current head.  Falls back to the uniform
    distribution when no line fits them.
    """
    pts = list(context_points)
    try:
        line = fit_line(pts, orient=DIR_VECTOR[last_dir])
    except DegenerateContextError:
        logger.debug("degenerate context at %s; using uniform distribution", pts[-1])
        return dict.fromkeys("lsr", 1.0 / 3.0)
    head = pts[-1]
    (_, _), (up, uq) = line
    log_weights = {}
    for rel in "lsr":
        d = turn(last_dir, rel)
        vp, vq = DIR_VECTOR[d]
        cos_gamma = up * vp + uq * vq
        dist = line_point_distance(line, step(head, d))
        log_weights[rel] = params.kappa * cos_gamma - dist * dist / (2.0 * params.omega * params.omega)
    # normalize in log space so extreme concentrations cannot overflow
    peak = max(log_weights.values())
    weights = {rel: math.exp(lw - peak) for rel, lw in log_weights.items()}
    total = sum(weights.values())
    return {rel: (1.0 - _MIX) * w / total + _MIX / 3.0 for rel, w in weights.items()}


def context_points(head, recent_dirs):
    """Polyline vertices ending at ``head``, reconstructed from directions."""
    pts = [head]
    p, q = head
    for d in reversed(recent_dirs):
        dp, dq = DIR_VECTOR[d]
        p, q = p - dp, q - dq
        pts.append((p, q))
    pts.reverse()
    return pts


def _quantize(probs) -> tuple:
    freqs = [max(1, round(p * _FREQ_TOTAL)) for p in probs]
    freqs[freqs.index(max(freqs))] += _FREQ_TOTAL - sum(freqs)
    if min(freqs) < 1:
        raise AssertionError("frequency underflow")
    return tuple(freqs)


class ContextModel:
    """The context model of one parameter set, its windows numbered.

    ``windows[i]`` is the tuple of window i, id 0 the empty window, and
    ``entries[i]`` its entry ``(bits, spans, after)``, or None until
    :meth:`fill` computes it by the rules of the module docstring; a caller
    steps ids and reads ``entries[i] or fill(i)``.  ``bits`` maps each
    allowed next absolute direction, and for a non-empty window each turn
    ``l``, ``s``, ``r``, to ``-log2`` of its probability; ``spans`` maps each
    turn to its range-coder interval ``(lo, hi)`` of cumulative frequencies
    out of 2^16, the turns in the order l, s, r, or is None for the empty
    window; ``after`` maps each absolute direction, and for a non-empty
    window each turn, to the id of the next window.  :meth:`fill` is the one
    place that cuts a window to its last K directions, and :meth:`id` the one
    way from a window's tuple to its id.  The model is translation invariant,
    so a full window's entry fits its polyline with the head at the origin.
    """

    def __init__(self, params: AecParams):
        self.params = params
        self.windows = []
        self.entries = []
        self._ids = {}  # the numbering: window tuple -> id, read only by id()
        self.id(())

    def id(self, window: tuple) -> int:
        """The id of ``window``, at most K absolute directions, numbered on first use."""
        i = self._ids.get(window)
        if i is None:
            if len(window) > self.params.context_len:
                raise ValueError("window longer than context_len")
            i = self._ids[window] = len(self.windows)
            self.windows.append(window)
            self.entries.append(None)
        return i

    def walk(self, dirs, window: int = 0) -> int:
        """The id of the window after coding absolute directions ``dirs`` from window id ``window``."""
        entries = self.entries
        for d in dirs:
            window = (entries[window] or self.fill(window))[2][d]
        return window

    def fill(self, i: int) -> tuple:
        """Compute, store and return the entry of window id ``i``."""
        window = self.windows[i]
        after = {d: self.id((window + (d,))[-self.params.context_len :]) for d in ABSOLUTE}
        if not window:
            entry = self.entries[i] = (dict.fromkeys(ABSOLUTE, 2.0), None, after)
            return entry
        last = window[-1]
        after.update((rel, after[turn(last, rel)]) for rel in "lsr")
        if len(window) < self.params.context_len:
            probs = dict.fromkeys("lsr", 1.0 / 3.0)
            bits = {turn(last, rel): math.log2(3.0) for rel in "lsr"}
        else:
            probs = edge_probabilities(context_points((0, 0), window), last, self.params)
            bits = {turn(last, rel): -math.log2(probs[rel]) for rel in "lsr"}
        bits.update((rel, bits[turn(last, rel)]) for rel in "lsr")
        a, b, _ = accumulate(_quantize([probs[rel] for rel in "lsr"]))
        spans = {"l": (0, a), "s": (a, b), "r": (b, _FREQ_TOTAL)}
        entry = self.entries[i] = (bits, spans, after)
        return entry


@lru_cache(maxsize=None)
def context_model(params: AecParams) -> ContextModel:
    """The one context model of ``params``, shared by every caller."""
    return ContextModel(params)


def estimate_rate(contour: Contour, params: AecParams) -> float:
    """Entropy estimate in bits of coding one contour, each edge priced by
    the context model from the window of the edges before it."""
    model = context_model(params)
    entries, fill = model.entries, model.fill
    first_bits, _, after = entries[0] or fill(0)
    bits = first_bits[contour.first]
    window = after[contour.first]
    for rel in contour.rest:
        window_bits, _, after = entries[window] or fill(window)
        bits += window_bits[rel]
        window = after[rel]
    return bits


# ---------------------------------------------------------------------------
# Range coder (32-bit, byte-aligned output)
# ---------------------------------------------------------------------------


class RangeEncoder:
    """Range encoder (G. N. N. Martin, "Range encoding", 1979): the coded
    value is the written bytes followed by ``low``, 32 bits and a carry bit.

    One :meth:`encode_turns` call codes the turns of one contour, each with
    the cumulative frequencies of its window's entry over a total of 2^16,
    keeping the coder state in locals for the whole run.  Before each byte is
    written, a carry adds one to the last written byte that is not 0xFF and
    zeroes the 0xFF bytes after it; the coded value stays below 1, so it
    never runs past the first byte.  A byte becomes 0xFF only when written or
    incremented by a carry, and a symbol causes at most one carry, so the
    carry work is at most the bytes written plus the symbols coded: O(n) for
    n symbols.  ``finish`` rounds ``low`` up to the shortest value inside the
    final interval, appends its 4 bytes and strips the trailing zeros.
    """

    def __init__(self):
        self._low = 0
        self._range = 1 << 32
        self._out = bytearray()

    def encode_turns(self, model: ContextModel, window: int, turns: str) -> None:
        """Code ``turns``, the first from the entry of window id ``window``."""
        low, rng, out = self._low, self._range, self._out
        entries, fill = model.entries, model.fill
        for rel in turns:
            _, spans, after = entries[window] or fill(window)
            lo, hi = spans[rel]
            r = rng >> _FREQ_BITS
            rng = rng - r * lo if hi == _FREQ_TOTAL else r * (hi - lo)
            low += r * lo
            while rng < _TOP:
                if low >> 32:
                    _carry(out)
                out.append((low >> 24) & 0xFF)
                low = (low << 8) & 0xFFFFFFFF
                rng <<= 8
            window = after[rel]
        self._low, self._range = low, rng

    def finish(self) -> bytes:
        z = self._range.bit_length() - 1
        low = ((self._low + (1 << z) - 1) >> z) << z
        if low >> 32:
            _carry(self._out)
        return bytes(self._out + (low & 0xFFFFFFFF).to_bytes(4, "big")).rstrip(b"\x00")


def _carry(out: bytearray) -> None:
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1


class RangeDecoder:
    """Mirror of RangeEncoder tracking code - low, which stays below the
    range; the payload is read as one byte stream, zero-padded past its end.
    One :meth:`decode_turns` call decodes the turns of one contour, each
    from the intervals of its window's entry over the total of 2^16."""

    def __init__(self, data: bytes):
        self._bytes = chain(data, repeat(0))
        self._range = 1 << 32
        self._diff = int.from_bytes(bytes(islice(self._bytes, 4)), "big")

    def decode_turns(self, model: ContextModel, window: int, count: int) -> str:
        """Decode ``count`` turns, the first from the entry of window id ``window``."""
        rng, diff, read = self._range, self._diff, self._bytes.__next__
        entries, fill = model.entries, model.fill
        turns = []
        for _ in range(count):
            _, spans, after = entries[window] or fill(window)
            a, b = spans["s"]
            r = rng >> _FREQ_BITS
            t = diff // r
            # diff < range holds on any input, so t passes 2^16 - 1 only in
            # the top turn's rounding slack, and like every t >= b decodes as r
            if t < a:
                rel = "l"
                rng = r * a
            elif t < b:
                rel = "s"
                diff -= r * a
                rng = r * (b - a)
            else:
                rel = "r"
                diff -= r * b
                rng -= r * b
            while rng < _TOP:
                diff = (diff << 8) | read()
                rng <<= 8
            turns.append(rel)
            window = after[rel]
        self._range, self._diff = rng, diff
        return "".join(turns)


_MAGIC = b"AEC1"
_HEADER = struct.Struct(">HHBI")


def encode(contours, params: AecParams) -> bytes:
    """Losslessly encode a list of contours into one bitstream."""
    contours = list(contours)
    if len(contours) > 0xFFFF:
        raise ValueError("too many contours for a u16 count")
    out = bytearray(_MAGIC)
    out += struct.pack(">H", len(contours))
    for c in contours:
        p, q = c.start
        if not (0 <= p <= 0xFFFF and 0 <= q <= 0xFFFF):
            raise ValueError("contour start outside u16 range")
        if len(c.rest) > 0xFFFFFFFF:
            raise ValueError("too many turns for a u32 symbol count")
        out += _HEADER.pack(p, q, ABSOLUTE.index(c.first), len(c.rest))
    model = context_model(params)
    enc = RangeEncoder()
    for c in contours:
        enc.encode_turns(model, model.walk(c.first), c.rest)
    out += enc.finish()
    out.append(0)
    return bytes(out)


def _read_stream(data: bytes):
    """Split a bitstream into its contour headers, each ((p, q), first
    direction, symbol count), and its arithmetic payload."""
    if len(data) < len(_MAGIC) + 2 + 1:
        raise BitstreamError("truncated stream")
    if data[: len(_MAGIC)] != _MAGIC:
        raise BitstreamError("bad magic")
    (count,) = struct.unpack_from(">H", data, len(_MAGIC))
    off = len(_MAGIC) + 2
    headers = []
    for _ in range(count):
        if off + _HEADER.size > len(data) - 1:
            raise BitstreamError("truncated stream")
        p, q, dircode, nsyms = _HEADER.unpack_from(data, off)
        if dircode >= len(ABSOLUTE):
            raise BitstreamError("invalid first-direction code")
        headers.append(((p, q), ABSOLUTE[dircode], nsyms))
        off += _HEADER.size
    if data[-1] != 0:
        raise BitstreamError("truncated stream")
    return headers, data[off:-1]


def decode(data: bytes, params: AecParams):
    """Decode a bitstream produced by :func:`encode` with identical params."""
    headers, payload = _read_stream(data)
    model = context_model(params)
    dec = RangeDecoder(payload)
    return [Contour(start, first, dec.decode_turns(model, model.walk(first), nsyms)) for start, first, nsyms in headers]
