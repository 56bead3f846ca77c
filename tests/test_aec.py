import hashlib
import math
from itertools import chain, islice, product, repeat
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import payload_bits, random_contour, window_entry
from contourcodec import aec
from contourcodec.aec import (
    AecParams,
    BitstreamError,
    ContextModel,
    RangeDecoder,
    RangeEncoder,
    DegenerateContextError,
    PROB_FLOOR,
    context_model,
    context_points,
    decode,
    edge_probabilities,
    encode,
    estimate_rate,
    fit_line,
)
from contourcodec.contour import ABSOLUTE, OPPOSITE, Contour, detect_contours, to_relative, turn
from contourcodec.image_io import SceneSpec, make_synthetic_scene


def unit(v):
    n = math.hypot(*v)
    return (v[0] / n, v[1] / n)


class TestFitLine:
    def test_collinear_horizontal_exact(self):
        pts = [(5, 0), (5, 1), (5, 2), (5, 3)]
        (mp, mq), (up, uq) = fit_line(pts, orient=(0, 1))
        assert (mp, mq) == (5.0, 1.5)
        assert abs(up) < 1e-12 and uq == pytest.approx(1.0)

    def test_staircase_matches_scatter_eigenvector(self):
        pts = [(0, 0), (0, 1), (1, 1), (1, 2)]
        arr = np.array(pts, float)
        dev = arr - arr.mean(axis=0)
        w, v = np.linalg.eigh(dev.T @ dev)
        expect = v[:, np.argmax(w)]
        if expect[0] < 0:
            expect = -expect
        _, (up, uq) = fit_line(pts, orient=(1, 1))
        assert up == pytest.approx(expect[0], abs=1e-12)
        assert uq == pytest.approx(expect[1], abs=1e-12)

    def test_vertical_stack_no_singularity(self):
        _, (up, uq) = fit_line([(0, 3), (1, 3), (2, 3)], orient=(1, 0))
        assert up == pytest.approx(1.0) and abs(uq) < 1e-12

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateContextError, match="degenerate context"):
            fit_line([(2, 2), (2, 2), (2, 2)])


class TestEdgeProbabilities:
    def test_straight_context_prefers_straight(self):
        probs = edge_probabilities([(5, 0), (5, 1), (5, 2), (5, 3)], "E", AecParams())
        assert max(probs, key=probs.get) == "s"
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_staircase_tie_broken_by_distance_term(self):
        # E,S,E,S context: the fitted line is the exact diagonal, so the angle
        # term ties between continuing straight (S) and turning left (E); the
        # distance term must prefer the candidate nearer the diagonal.
        pts = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        probs = edge_probabilities(pts, "S", AecParams(context_len=4))
        assert probs["l"] > probs["s"] > probs["r"]

    def test_probability_floor(self):
        # extreme concentration would underflow without the floor
        probs = edge_probabilities([(5, c) for c in range(5)], "E", AecParams(kappa=40.0))
        assert min(probs.values()) >= PROB_FLOOR
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_concentration_stays_finite(self, rng):
        # log-space normalization: even kappa far beyond exp()'s range must
        # yield a proper distribution and a working codec
        params = AecParams(kappa=800.0)
        probs = edge_probabilities([(5, c) for c in range(5)], "E", params)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert min(probs.values()) >= PROB_FLOOR
        c = random_contour(rng, 120)
        assert decode(encode([c], params), params) == [c]

    def test_rotation_equivariance(self, rng):
        # rotating the lattice 90 degrees permutes absolute directions but
        # must leave the relative-symbol distribution unchanged
        rot = {"E": "S", "S": "W", "W": "N", "N": "E"}
        for _ in range(25):
            c = random_contour(rng, 6, start=(50, 50))
            pts = c.points()
            last = c.absolute_dirs()[-1]
            probs = edge_probabilities(pts, last, AecParams())
            rpts = [(q, -p) for p, q in pts]
            rprobs = edge_probabilities(rpts, rot[last], AecParams())
            for rel in "lsr":
                assert rprobs[rel] == pytest.approx(probs[rel], abs=1e-12)

    def test_translation_invariance(self, rng):
        c = random_contour(rng, 7, start=(10, 10))
        pts = c.points()
        last = c.absolute_dirs()[-1]
        a = edge_probabilities(pts, last, AecParams())
        b = edge_probabilities([(p + 13, q - 40) for p, q in pts], last, AecParams())
        for rel in "lsr":
            assert a[rel] == pytest.approx(b[rel], abs=1e-12)


def full_windows(k):
    """Every window of k absolute directions without a 180-degree turn."""
    for w in product(ABSOLUTE, repeat=k):
        if all(b != OPPOSITE[a] for a, b in zip(w, w[1:])):
            yield w


class TestContextModel:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_full_window_matches_edge_probabilities(self, k):
        params = AecParams(context_len=k)
        model = context_model(params)
        windows = list(full_windows(k))
        assert len(windows) == 4 * 3 ** (k - 1)
        for w in windows:
            probs = edge_probabilities(context_points((0, 0), w), w[-1], params)
            bits, spans, _ = window_entry(model, w)
            dirs = [turn(w[-1], rel) for rel in "lsr"]
            assert list(bits) == dirs + list("lsr")
            assert [bits[d] for d in dirs] == [bits[rel] for rel in "lsr"] == [-math.log2(probs[rel]) for rel in "lsr"]
            freqs = aec._quantize([probs[rel] for rel in "lsr"])
            assert sum(freqs) == 65536
            assert spans == {"l": (0, freqs[0]), "s": (freqs[0], freqs[0] + freqs[1]), "r": (freqs[0] + freqs[1], 65536)}

    def test_one_model_per_params(self):
        assert context_model(AecParams(context_len=4)) is context_model(AecParams(context_len=4))
        assert context_model(AecParams(context_len=4)) is not context_model(AecParams())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_early_rule(self, k):
        # the first edge is uniform over the four directions, and every edge
        # coded before K directions exist over the three non-reversing ones
        model = context_model(AecParams(context_len=k))
        assert window_entry(model, ())[:2] == (dict.fromkeys(ABSOLUTE, 2.0), None)
        freqs = aec._quantize((1 / 3,) * 3)
        for n in range(1, k):
            for w in full_windows(n):
                bits, spans, _ = window_entry(model, w)
                assert bits == dict.fromkeys([turn(w[-1], rel) for rel in "lsr"] + list("lsr"), math.log2(3.0))
                assert spans == {"l": (0, freqs[0]), "s": (freqs[0], freqs[0] + freqs[1]), "r": (freqs[0] + freqs[1], 65536)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_successors_keep_the_last_k_directions(self, k):
        # every window reachable from id 0 by successors, reversals included
        model = ContextModel(AecParams(context_len=k))
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            w = model.windows[i]
            after = window_entry(model, w)[2]
            assert sorted(after) == sorted(ABSOLUTE + ("lsr" if w else ""))
            for d in ABSOLUTE:
                assert model.windows[after[d]] == (w + (d,))[-k:]
            for rel in "lsr" if w else "":
                assert after[rel] == after[turn(w[-1], rel)]
            todo += set(after.values()) - seen
            seen |= set(after.values())
        assert len(seen) == sum(4 ** n for n in range(k + 1))

    @settings(max_examples=200)
    @given(k=st.integers(1, 5), dirs=st.text("NESW", max_size=40))
    def test_numbered_windows(self, k, dirs):
        model = ContextModel(AecParams(context_len=k))
        # walking ids from 0, one direction at a time or all at once, lands
        # on the window of the last K directions
        window = 0
        for n in range(len(dirs)):
            window = model.walk(dirs[n], window)
            assert model.windows[window] == tuple(dirs[: n + 1])[-k:]
        assert model.walk(dirs) == window
        # id() is one-to-one with windows
        assert len(set(model.windows)) == len(model.windows) == len(model.entries)
        assert [model.id(w) for w in model.windows] == list(range(len(model.windows)))
        # a repeated walk reads the entries the first one filled
        entry = model.entries[window] or model.fill(window)
        filled = list(model.entries)
        assert model.walk(dirs) == window
        assert model.entries[window] is entry
        assert all(a is b for a, b in zip(model.entries, filled))

    def test_windows_longer_than_k_have_no_id(self):
        with pytest.raises(ValueError, match="longer than context_len"):
            ContextModel(AecParams(context_len=2)).id(("E", "E", "E"))

    def test_coding_fills_only_the_windows_it_codes_from(self, rng, monkeypatch):
        # K = 12 has 4^12 full windows; one 300-edge contour is coded from
        # at most 300 of them
        params = AecParams(context_len=12)
        model = ContextModel(params)
        monkeypatch.setattr(aec, "context_model", lambda _: model)
        c = random_contour(rng, 300)
        data = encode([c], params)
        estimate_rate(c, params)
        assert decode(data, params) == [c]
        assert sum(e is not None for e in model.entries) <= 301


class ReferenceRangeEncoder:
    """The first encoder, kept as the reference: one call per symbol, the
    full ``low`` as one integer, shifted left per output byte (quadratic in
    stream length)."""

    def __init__(self):
        self._low = 0
        self._range = 1 << 32
        self._bits = 32

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        r = self._range // total
        self._low += r * cum_lo
        if cum_hi == total:
            self._range -= r * cum_lo
        else:
            self._range = r * (cum_hi - cum_lo)
        while self._range < aec._TOP:
            self._low <<= 8
            self._range <<= 8
            self._bits += 8

    def finish(self) -> bytes:
        z = self._range.bit_length() - 1
        value = ((self._low + (1 << z) - 1) >> z) << z
        return value.to_bytes(self._bits // 8, "big").rstrip(b"\x00")


class ReferenceRangeDecoder:
    """The per-symbol range decoder the run-level one replaced, with its
    clamp of the scaled code to total - 1; ``clamped`` counts the symbols
    that needed the clamp."""

    def __init__(self, data: bytes):
        self._bytes = chain(data, repeat(0))
        self._range = 1 << 32
        self._diff = int.from_bytes(bytes(islice(self._bytes, 4)), "big")
        self.clamped = 0

    def decode(self, cum, total: int) -> int:
        r = self._range // total
        self.clamped += self._diff // r > total - 1
        t = min(self._diff // r, total - 1)
        sym = 0
        while cum[sym + 1] <= t:
            sym += 1
        lo, hi = cum[sym], cum[sym + 1]
        self._diff -= r * lo
        self._range = self._range - r * lo if hi == total else r * (hi - lo)
        while self._range < aec._TOP:
            self._diff = (self._diff << 8) | next(self._bytes)
            self._range <<= 8
        return sym


def cumulative(spans):
    """The cumulative frequency bounds (0, l, l + s, total) of an entry's spans."""
    return (0,) + tuple(hi for _, hi in spans.values())


def reference_rate(contour, params):
    """estimate_rate as it was written with explicit window slicing."""
    k = params.context_len
    model = context_model(params)
    bits = 0.0
    recent = ()
    for d in contour.absolute_dirs():
        bits += window_entry(model, recent)[0][d]
        recent = (recent + (d,))[-k:]
    return bits


def reference_encode(contours, params):
    """encode as it was written with explicit window slicing and turns."""
    out = bytearray(aec._MAGIC) + len(contours).to_bytes(2, "big")
    for c in contours:
        out += aec._HEADER.pack(*c.start, ABSOLUTE.index(c.first), len(c.rest))
    k = params.context_len
    model = context_model(params)
    enc = ReferenceRangeEncoder()
    for c in contours:
        recent = (c.first,)
        for rel in c.rest:
            cum = cumulative(window_entry(model, recent)[1])
            sym = "lsr".index(rel)
            enc.encode(cum[sym], cum[sym + 1], 65536)
            recent = (recent + (turn(recent[-1], rel),))[-k:]
    return bytes(out + enc.finish() + b"\x00")


def reference_decode(data, params, dec=None):
    """decode as it was written with explicit window slicing and turns;
    ``dec``, when given, is the reference decoder of ``data``'s payload."""
    headers, payload = aec._read_stream(data)
    k = params.context_len
    model = context_model(params)
    dec = dec or ReferenceRangeDecoder(payload)
    contours = []
    for start, first, nsyms in headers:
        recent = (first,)
        rest = []
        for _ in range(nsyms):
            rel = "lsr"[dec.decode(cumulative(window_entry(model, recent)[1]), 65536)]
            rest.append(rel)
            recent = (recent + (turn(recent[-1], rel),))[-k:]
        contours.append(Contour(start, first, "".join(rest)))
    return contours


contour_lists = st.lists(
    st.builds(Contour, st.tuples(st.integers(0, 999), st.integers(0, 999)), st.sampled_from(ABSOLUTE), st.text("lsr", max_size=80)),
    max_size=4,
)


@settings(max_examples=150)
@given(k=st.integers(1, 5), contours=contour_lists)
def test_codec_and_rate_match_the_slicing_reference(k, contours):
    params = AecParams(context_len=k)
    data = encode(contours, params)
    assert data == reference_encode(contours, params)
    assert decode(data, params) == reference_decode(data, params) == contours
    for c in contours:
        assert estimate_rate(c, params) == reference_rate(c, params)


class TestEstimateRate:
    def test_single_edge_costs_two_bits(self):
        assert estimate_rate(Contour((3, 3), "E"), AecParams()) == pytest.approx(2.0)

    def test_second_edge_uniform_over_three(self):
        c = Contour((3, 3), "E", "s")
        assert estimate_rate(c, AecParams()) == pytest.approx(2.0 + math.log2(3.0))

    def test_long_straight_run_beats_uniform(self):
        c = to_relative((0, 0), ["E"] * 100)
        params = AecParams()
        rate = estimate_rate(c, params)
        # amortized tail rate strictly below log2(3) per symbol
        tail = rate - (2.0 + (params.context_len - 1) * math.log2(3.0))
        per_symbol = tail / (100 - params.context_len)
        assert per_symbol < math.log2(3.0) * 0.5


def _random_sets(rng, n_sets, max_len=200, max_contours=4):
    for _ in range(n_sets):
        count = int(rng.integers(1, max_contours + 1))
        yield [random_contour(rng, int(rng.integers(1, max_len + 1))) for _ in range(count)]


# sha256 of the streams of the contours detected on the README scene's views
# (128x96, jitter 2, noise texture, seed 2, threshold 30), one per context length
GOLDEN_STREAMS = {
    ("left", 1): "a72cab0cc55741c92e1d102ab0c1f3bac7778a5212ccf90a1e5d2443401530ce",
    ("left", 2): "480272cff0d80bf7eb0370d7d8e89cff96cc6cb85d99fcdf95ae485758a41179",
    ("left", 3): "f38e44de2f0e3fa207c57dbdf99f2fe2288f2b059101bb96d96f98c7312fc542",
    ("left", 5): "ad028c759515e85a975f800cd868c25534345cde2ecb4a3365fa8f41447c2912",
    ("right", 1): "b58ff03ff6e9b574105752aee53f0ae8fde106a0c022e282fbf06158cb5d547d",
    ("right", 2): "91a9212ce0d12dd4a42dd7399153269a33281d8792990eb88c381c315f094571",
    ("right", 3): "f01208d428af7ec558063b9d8fb94c7205bc844bca3e880d8b59e89abd955bc4",
    ("right", 5): "3ee13421b6a3b1d8a9891f3fc5d8715a1b30645258058c483395696d13c0cdf8",
}


@pytest.fixture(scope="module")
def readme_views():
    left, right = make_synthetic_scene(2, SceneSpec(width=128, height=96, jitter=2, texture="noise"))
    return {"left": left, "right": right}


@pytest.mark.parametrize("view,k", sorted(GOLDEN_STREAMS))
def test_readme_scene_streams_match_golden(readme_views, view, k):
    contours = detect_contours(readme_views[view][0], 30)
    params = AecParams(context_len=k)
    data = encode(contours, params)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_STREAMS[view, k]
    assert decode(data, params) == contours


class TestCodec:
    def test_roundtrip_random_sets(self, rng):
        params = AecParams()
        for contours in _random_sets(rng, 60):
            assert decode(encode(contours, params), params) == contours

    def test_empty_set_header_only(self):
        data = encode([], AecParams())
        assert data == b"AEC1\x00\x00\x00"
        assert decode(data, AecParams()) == []

    def test_single_edge_contour_empty_payload(self):
        data = encode([Contour((1, 2), "S")], AecParams())
        assert payload_bits(data) == 0
        assert decode(data, AecParams()) == [Contour((1, 2), "S")]

    def test_all_left_turns_code_an_empty_payload(self):
        # symbol l has cum_lo 0, so low stays 0 and finish strips every byte:
        # a payload of 0 bits carries a symbol count no payload length bounds
        contour = Contour((5, 5), "E", "l" * 100000)
        params = AecParams()
        data = encode([contour], params)
        assert len(data) == 16 and payload_bits(data) == 0
        assert estimate_rate(contour, params) == pytest.approx(158498, abs=1)
        assert decode(data, params) == [contour]

    def test_payload_within_entropy_bound(self, rng):
        params = AecParams()
        for contours in _random_sets(rng, 40):
            data = encode(contours, params)
            estimate = sum(estimate_rate(c, params) for c in contours)
            assert payload_bits(data) <= estimate + 16 + 0.01 * estimate

    def test_payload_close_to_entropy_on_long_contours(self, rng):
        params = AecParams()
        for _ in range(20):
            contours = [random_contour(rng, int(rng.integers(50, 200))) for _ in range(3)]
            data = encode(contours, params)
            estimate = sum(estimate_rate(c, params) for c in contours)
            actual = payload_bits(data)
            assert 0.99 * estimate - 16 <= actual <= estimate + 16 + 0.01 * estimate

    def test_reencoding_decoded_stream_is_identity(self, rng):
        # the encoder is canonical, so decode followed by encode reproduces
        # the exact bytes
        params = AecParams()
        for contours in _random_sets(rng, 15):
            data = encode(contours, params)
            assert encode(decode(data, params), params) == data

    def test_bad_magic(self):
        with pytest.raises(BitstreamError, match="bad magic"):
            decode(b"NOPE\x00\x00\x00", AecParams())

    def test_truncated_stream(self, rng):
        data = encode([random_contour(rng, 40)], AecParams())
        with pytest.raises(BitstreamError, match="truncated"):
            decode(data[:8], AecParams())

    def test_payload_bits_reads_the_header_as_decode_does(self):
        # five contours are announced but no header follows
        for read in (payload_bits, lambda data: decode(data, AecParams())):
            with pytest.raises(BitstreamError, match="truncated"):
                read(b"AEC1\x00\x05\x00")

    def test_missing_terminator(self, rng):
        data = encode([random_contour(rng, 40)], AecParams())
        with pytest.raises(BitstreamError, match="truncated"):
            decode(data[:-1] + b"\x01", AecParams())

    def test_params_must_match(self, rng):
        # a different context model desynchronizes the decode deterministically
        c = random_contour(rng, 150)
        data = encode([c], AecParams())
        other = decode(data, AecParams(kappa=0.3, omega=4.0))
        assert other[0].start == c.start and len(other[0]) == len(c)

    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_corrupt_payload_decodes_to_the_header_counts_or_fails(self, seed, edits):
        """Overwriting bytes after the contour headers, terminator included,
        either decodes contours of the lengths the headers announce or
        raises BitstreamError."""
        rng = np.random.default_rng(seed)
        contours = [random_contour(rng, int(n)) for n in rng.integers(1, 80, size=int(rng.integers(1, 4)))]
        params = AecParams()
        data = bytearray(encode(contours, params))
        payload_start = len(data) - payload_bits(bytes(data)) // 8 - 1
        for pos, value in edits:
            data[payload_start + pos % (len(data) - payload_start)] = value
        try:
            decoded = decode(bytes(data), params)
        except BitstreamError:
            return
        assert [(c.start, c.first, len(c)) for c in decoded] == [(c.start, c.first, len(c)) for c in contours]

    def test_more_turns_than_a_u32_count_raise_value_error(self):
        class Turns:
            def __len__(self):
                return 2 ** 32

        contour = SimpleNamespace(start=(0, 0), first="E", rest=Turns())
        with pytest.raises(ValueError, match="u32"):
            encode([contour], AecParams())


def decode_or_error(decoder, data, params):
    try:
        return decoder(data, params)
    except BitstreamError:
        return BitstreamError


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    k=st.integers(1, 4),
    edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)), max_size=5),
    ff_run=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 40)),
)
@example(seed=0, k=3, edits=[], ff_run=(0, 40))
@settings(max_examples=200)
def test_run_decoder_matches_the_symbol_decoder_on_corrupt_streams(seed, k, edits, ff_run):
    """Any bytes of a stream, header and payload alike, overwritten, and a run
    of 0xFF bytes written into the payload: the run-level decoder returns
    what the per-symbol one does, or both raise BitstreamError."""
    rng = np.random.default_rng(seed)
    contours = [random_contour(rng, int(n)) for n in rng.integers(1, 80, size=int(rng.integers(1, 4)))]
    params = AecParams(context_len=k)
    data = bytearray(encode(contours, params))
    payload_start = len(data) - payload_bits(bytes(data)) // 8 - 1
    pos, length = ff_run
    pos = payload_start + pos % (len(data) - payload_start)
    data[pos : pos + length] = b"\xff" * length
    for pos, value in edits:
        data[pos % len(data)] = value
    data = bytes(data)
    try:
        headers, _ = aec._read_stream(data)
    except BitstreamError:
        headers = []
    # an edited u32 count may announce billions of symbols
    assume(sum(nsyms for _, _, nsyms in headers) <= 20_000)
    assert decode_or_error(decode, data, params) == decode_or_error(reference_decode, data, params)


def test_ff_payload_drives_the_scaled_code_past_the_total():
    # code - low just below the range: the scaled code diff // r passes
    # 2^16 - 1 in the top turn's rounding slack, which decodes as r
    params = AecParams()
    data = aec._MAGIC + b"\x00\x01" + aec._HEADER.pack(0, 0, 0, 500) + b"\xff" * 64 + b"\x00"
    dec = ReferenceRangeDecoder(aec._read_stream(data)[1])
    assert decode(data, params) == reference_decode(data, params, dec)
    assert dec.clamped > 0


# cumulative bounds that force long runs of shifted bytes, 0xFF runs and
# carries: a symbol of width 5 or 1, and the even split of a window shorter than K
EXTREME_CUMS = [(0, 5, 10, 65536), (0, 65526, 65531, 65536), (0, 1, 2, 65536), (0, 65534, 65535, 65536), cumulative(window_entry(context_model(AecParams()), ("E",))[1])]


def scripted_model(symbols):
    """A model whose window i holds the spans of the i-th (cumulative bounds,
    symbol) pair and steps to window i + 1 on every turn, and the turns of
    the symbols: one run codes the symbols in order."""
    entries = [(None, dict(zip("lsr", zip(cum, cum[1:]))), dict.fromkeys("lsr", i + 1)) for i, (cum, _) in enumerate(symbols)]
    return SimpleNamespace(entries=entries, fill=None), "".join("lsr"[sym] for _, sym in symbols)


def code_run(symbols):
    """The stream of one run-level encoder run, checked against the
    reference encoder, and the run's model and turns."""
    model, turns = scripted_model(symbols)
    new, ref = RangeEncoder(), ReferenceRangeEncoder()
    new.encode_turns(model, 0, turns)
    for cum, sym in symbols:
        ref.encode(cum[sym], cum[sym + 1], 65536)
    data = new.finish()
    assert data == ref.finish()
    return data, model, turns


@st.composite
def coded_symbols(draw):
    """(cumulative bounds, symbol) pairs over extreme and random tables."""
    random_cums = draw(st.lists(st.tuples(st.integers(1, 65533), st.integers(1, 65533)), max_size=2))
    cums = EXTREME_CUMS + [(0, min(a, b), max(a, b) + 1, 65536) for a, b in random_cums]
    return draw(st.lists(st.tuples(st.sampled_from(cums), st.integers(0, 2)), max_size=400))


def carry_chain_symbols(rng):
    """Runs of narrow symbols, each followed by a wide one that pushes a carry
    through every pending 0xFF byte."""
    symbols = []
    for _ in range(int(rng.integers(100, 3000))):
        cum = EXTREME_CUMS[int(rng.integers(0, 4))]
        symbols.append((cum, int(rng.choice(3, p=[0.05, 0.05, 0.9]))))
    return symbols


class TestRangeEncoder:
    @settings(max_examples=300)
    @given(coded_symbols())
    def test_same_bytes_as_reference(self, symbols):
        code_run(symbols)

    def test_long_carry_chains_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            code_run(carry_chain_symbols(rng))

    def test_carry_runs_back_through_written_ff_bytes(self):
        # keep the coded interval straddling 1/2, so the bytes written are
        # 0x7F and then only 0xFF; a symbol above 1/2 then carries back
        # through every one of them.  Each symbol is a run of one turn.
        cum = EXTREME_CUMS[-1]
        model, _ = scripted_model([(cum, 0)])
        new, ref = RangeEncoder(), ReferenceRangeEncoder()

        def interval(sym):
            r = ref._range // 65536
            lo = ref._low + r * cum[sym]
            return lo, ref._low + ref._range if sym == 2 else lo + r * (cum[sym + 1] - cum[sym])

        def code(pick):
            half = 1 << (ref._bits - 1)
            sym = next(s for s in range(3) if pick(half, *interval(s)))
            new.encode_turns(model, 0, "lsr"[sym])
            ref.encode(cum[sym], cum[sym + 1], 65536)

        for _ in range(80):
            code(lambda half, lo, hi: lo < half < hi)
        assert bytes(new._out) == b"\x7f" + b"\xff" * 14
        code(lambda half, lo, hi: half <= lo)
        assert bytes(new._out[:15]) == b"\x80" + b"\x00" * 14
        assert new.finish() == ref.finish()


class TestRangeDecoder:
    @settings(max_examples=300)
    @given(coded_symbols())
    def test_round_trip_of_extreme_runs(self, symbols):
        data, model, turns = code_run(symbols)
        assert RangeDecoder(data).decode_turns(model, 0, len(turns)) == turns

    def test_round_trip_of_carry_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data, model, turns = code_run(carry_chain_symbols(rng))
            assert RangeDecoder(data).decode_turns(model, 0, len(turns)) == turns
