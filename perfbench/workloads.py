"""Workloads of the contourcodec benchmark: inputs, timed operations, checks.

Every workload reports every end-to-end metric; each stresses different layers:

* ``sweep-readme``: the README/ROADMAP scene (128x96, jitter 2, noise texture,
  scene seed 2), lambdas 0,2,8.  Jittered edges give many short segments and
  hundreds of merge attempts, so the segment DP and the AEC context model do
  most of the work; the images are too small for synthesis and the block
  metric to matter.
* ``sweep-large-sparse``: 512x384, 2 shapes, jitter 0, scene seed 2, lambdas
  0,8.  Few long straight edges, so per-image work dominates: the block metric,
  the row proxy's per-call luminance copy and view synthesis.
* ``codec-streams``: contours detected from four seeded 1280x960 stereo pairs
  (40 shapes, jitter 4), concatenated into streams of about 25k, 100k and 200k
  symbols.  Detection, encode, decode and rate estimation dominate; the
  encoder slows down with stream length.

A sweep's seed picks its scene's vertical placement: both views are
shifted cyclically by a whole number of rows in [-16, 16] (0 at the default
seed).  Rows stay intact, so the detected contours, the DP's work, the coded
bits and the proxy distortion are the same at every seed, and only the block
metric's grid moves.  Scene seeds themselves would change the work by a third
(5.7-8.9 s per README-spec sweep over scene seeds 0-9), more than any bound.
The codec workload's seed is the scene seed; its 320 shapes average out.

Beside its main operation each workload runs the other metrics' operations
at a small size, so that every metric exists everywhere: the sweep workloads
detect and code their own scene's contours, and ``codec-streams`` sweeps a
64x64 scene with one jittered 16x16 shape at lambda 8, which still runs
approximation, augmentation, synthesis and the block metric.

Times are process CPU seconds rescaled to a reference speed.  The program
runs on one thread, and CPU time leaves out time the host gives to other
guests.  On a shared 2-core virtual machine a fixed loop still ran up to 1.6x
slower from one few-second stretch to the next, and raw sweep times spread by
a quarter of their median across runs.  Each timed call is therefore
bracketed by a fixed calibration loop, and its CPU seconds are multiplied by
``CALIBRATION_S`` over the loop's mean time: the result is the time the call
would take on a machine that runs the loop in ``CALIBRATION_S``.  On that
machine this cut the spread of run medians (quartile distance over median)
from about 0.27 to 0.05-0.16.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contourcodec import aec, cli, contour, image_io
from contourcodec.approx import ApproxConfig
from contourcodec.config import PipelineConfig
from contourcodec.image_io import ColorImage, DepthImage, SceneSpec
from contourcodec.swim import SwimConfig

clock = time.process_time
CALIBRATION_S = 0.06  # the reference machine's time for calibration_loop()

DEFAULT_SEED = 2
SCENE_SEED = 2
MAX_ROW_SHIFT = 16
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# scene and lambdas of each workload's sweep
SWEEPS = {
    "sweep-readme": (SceneSpec(width=128, height=96, jitter=2, texture="noise"), (0.0, 2.0, 8.0)),
    "sweep-large-sparse": (SceneSpec(width=512, height=384, shapes=2, jitter=0, texture="noise"), (0.0, 8.0)),
    "codec-streams": (SceneSpec(64, 64, shapes=1, jitter=1, min_size=16, max_size=16, margin=24), (8.0,)),
}
CODEC_SCENE = SceneSpec(width=1280, height=960, shapes=40, jitter=4, texture="noise", min_size=40, max_size=100)
CODEC_PAIRS = 4
STREAMS = {"25k": 25_000, "100k": 100_000, "200k": 200_000}
# shapes of the complexity-scaling test: V vertical steps, match half-window W
SEGMENT_PROBES = {"v8w10": (8, 10), "v16w10": (16, 10), "v8w5": (8, 5)}
CODEC_BATCH_S = 0.5
PROBE_REPS = 5
WORKLOADS = tuple(SWEEPS)

CONFIG = PipelineConfig()


_SMALL_IMAGE = np.zeros((96, 128, 3), np.uint8)
_LARGE_IMAGE = np.zeros((384, 512, 3), np.uint8)


def calibration_loop() -> float:
    """CPU seconds of a fixed mix of the kinds of work the package does: dict
    updates keyed by small tuples, and float arithmetic on small and large
    images.  It tracks the host's speed better than a loop that fits in L1
    cache."""
    t0 = clock()
    table = {}
    for i in range(12_000):
        key = (i % 211, "NESW"[i & 3], i % 7)
        table[key] = table.get(key, 0.0) + 1.5
        if i % 20 == 0:
            _SMALL_IMAGE[..., 0] * 0.299 + _SMALL_IMAGE[..., 1] * 0.587
        if i % 1500 == 0:
            _LARGE_IMAGE[..., 0] * 0.299 + _LARGE_IMAGE[..., 1] * 0.587
    return clock() - t0


class Meter:
    """Times calls in CPU seconds rescaled to the reference speed.

    A calibrated meter runs the calibration loop when created and after every
    call, and multiplies each call's CPU seconds by ``CALIBRATION_S`` over the
    mean of the two loops beside it; ``factor`` is the last such scale.  An
    uncalibrated meter returns raw CPU seconds.
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.factor = 1.0
        self._last = calibration_loop() if calibrated else 0.0

    def measure(self, fn):
        """Returns ``fn()`` and its time in reference seconds."""
        t0 = clock()
        result = fn()
        elapsed = clock() - t0
        if self.calibrated:
            after = calibration_loop()
            self.factor = 2 * CALIBRATION_S / (self._last + after)
            self._last = after
        return result, elapsed * self.factor


def add_scaled(totals: dict, raw: dict, factor: float) -> None:
    """Add ``raw`` into ``totals``, CPU seconds (keys ending in ``_s``)
    multiplied by ``factor``."""
    for key, value in raw.items():
        totals[key] = totals.get(key, 0) + (value * factor if key.endswith("_s") else value)


def attempt(run: "Run", meter: Meter, fn, what: str):
    """``meter.measure(fn)``; an exception is counted as a failed operation
    and gives ``(None, None)``, so the run still reports its counts."""
    try:
        return meter.measure(fn)
    except Exception as exc:
        run.check(False, f"{what} raised {type(exc).__name__}: {exc}")
        return None, None


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def row_shift(seed: int) -> int:
    """Vertical placement of a sweep scene: 0 at the default seed."""
    return (seed - DEFAULT_SEED + MAX_ROW_SHIFT) % (2 * MAX_ROW_SHIFT + 1) - MAX_ROW_SHIFT


def shift_rows(view, rows: int):
    depth, color = view
    return DepthImage(np.roll(depth.pixels, rows, axis=0)), ColorImage(np.roll(color.pixels, rows, axis=0))


def symbols(contours) -> int:
    """Chain edges of a contour list: the first direction plus every turn."""
    return sum(len(c) for c in contours)


def build_stream(contours, target: int) -> list:
    """Consecutive contours, cycling through the list, up to ``target`` symbols."""
    if not contours:
        raise ValueError("no contours to build a stream from")
    stream, n = [], 0
    for c in itertools.cycle(contours):
        if n >= target:
            return stream
        stream.append(c)
        n += len(c)


@dataclass
class Sweep:
    """One sweep input: a stereo pair, its disparity scale and lambdas."""

    left: tuple
    right: tuple
    scale: float
    lambdas: tuple
    golden: dict  # {"csv": text, "sha256": hex} of the default-seed sweep
    default: bool  # inputs are the default seed's, so the whole CSV must match


@dataclass
class Inputs:
    sweep: Sweep
    depth_maps: list
    streams: dict = field(default_factory=dict)  # label -> contour list


def make_inputs(workload: str, seed: int, golden: dict) -> Inputs:
    """Generate a workload's inputs from its seed (scene generation only)."""
    spec, lambdas = SWEEPS[workload]
    left, right = image_io.make_synthetic_scene(SCENE_SEED, spec)
    shift = row_shift(seed)
    left, right = shift_rows(left, shift), shift_rows(right, shift)
    sweep = Sweep(left, right, spec.value_scale, lambdas, golden[workload]["sweep"], shift == 0)
    if workload != "codec-streams":
        return Inputs(sweep, [left[0], right[0]])
    maps = []
    for i in range(CODEC_PAIRS):
        left, right = image_io.make_synthetic_scene(seed * CODEC_PAIRS + i, CODEC_SCENE)
        maps += [left[0], right[0]]
    return Inputs(sweep, maps)


class Run:
    """Samples, operation counts and reference outputs of one benchmark run."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.reference: dict = {}  # first output of each operation, for determinism

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def same_as_first(self, key, value) -> bool:
        return self.reference.setdefault(key, value) == value


def sweep_op(run: Run, sweep: Sweep, meter: Meter) -> None:
    """Time one ``run_sweep`` and check every row."""
    csv, elapsed = attempt(
        run, meter, lambda: cli.run_sweep(sweep.left, sweep.right, CONFIG, sweep.lambdas, sweep.scale, timing=False),
        "run_sweep",
    )
    if csv is None:
        return
    lines = csv.splitlines()
    golden = sweep.golden["csv"].splitlines()
    header_ok = bool(lines) and lines[0] == golden[0]
    rows, expected = lines[1:], golden[1:]
    if sweep.default and sha256(csv) != sweep.golden["sha256"] and header_ok and rows == expected:
        run.check(False, "sweep CSV hash differs from the golden hash")
    bits = 0
    scores = []
    for i in range(max(len(rows), len(expected))):
        row = rows[i].split(",") if i < len(rows) else None
        exp = expected[i].split(",") if i < len(expected) else None
        ok = header_ok and row is not None and exp is not None and len(row) == len(exp)
        ok = ok and not math.isnan(float(row[2]))
        # lambda, contour_bits and proxy_distortion do not depend on the row
        # shift; the block metric columns must match at the default seed
        ok = ok and (row == exp if sweep.default else row[:3] == exp[:3])
        ok = ok and run.same_as_first(("sweep row", i), row)
        if run.check(ok, f"sweep row {i}: got {row}, expected {exp}"):
            bits += int(row[1])
            scores.append(float(row[4]))
    run.sample("sweep_s", elapsed)
    run.sample("contour_bits", bits)
    if scores:
        run.sample("swim_S", sum(scores) / len(scores))


def detect_pass(run: Run, depth_maps, totals: dict, meter: Meter) -> list:
    """Detect contours on every map, adding seconds and pixels to ``totals``;
    returns one contour list per map (empty where detection raised)."""
    found = []
    for i, depth in enumerate(depth_maps):
        contours, elapsed = attempt(
            run, meter, lambda: contour.detect_contours(depth, CONFIG.threshold), f"detection of map {i}"
        )
        if contours is not None:
            add_scaled(totals, {"detect_s": elapsed, "pixels": depth.pixels.size}, 1.0)
            run.check(bool(contours) and run.same_as_first(("detect", i), contours), f"detection of map {i} changed")
        found.append(contours or [])
    return found


def code_pass(run: Run, streams: dict, golden: dict | None, totals: dict, meter: Meter) -> None:
    """Encode, decode and rate-estimate every stream once, adding seconds and
    symbols to ``totals``.  Checks the round trip and, where ``golden`` names
    the stream, the bitstream's sha256."""
    params = CONFIG.aec_params()
    for label, stream in streams.items():
        n = symbols(stream)
        data, enc = attempt(run, meter, lambda: aec.encode(stream, params), f"stream {label}: encode")
        if data is None:
            continue
        decoded, dec = attempt(run, meter, lambda: aec.decode(data, params), f"stream {label}: decode")
        bits, rate = attempt(
            run, meter, lambda: sum(aec.estimate_rate(c, params) for c in stream), f"stream {label}: rate estimate"
        )
        if decoded is None or bits is None:
            continue
        add_scaled(totals, {"encode_s": enc, "decode_s": dec, "rate_s": rate, "symbols": n, "coded_bits": 8 * len(data),
                            f"{label}.encode_s": enc, f"{label}.decode_s": dec, f"{label}.symbols": n}, 1.0)
        digest = sha256(data)
        ok = decoded == stream and run.same_as_first(("bitstream", label), digest)
        if golden is not None:
            ok = ok and digest == golden.get(label)
        run.check(ok, f"stream {label}: round trip or bitstream hash differs")
        run.check(math.isfinite(bits) and run.same_as_first(("rate", label), bits), f"stream {label}: rate estimate")


def record_codec(run: Run, totals: dict) -> None:
    """Sample the detection and coding rates; an operation that failed in
    every call leaves its metrics unsampled."""
    if totals.get("detect_s"):
        run.sample("detect_mpix_per_s", totals["pixels"] / totals["detect_s"] / 1e6)
    if not totals.get("symbols"):
        return
    run.sample("encode_sym_per_s", totals["symbols"] / totals["encode_s"])
    run.sample("decode_sym_per_s", totals["symbols"] / totals["decode_s"])
    run.sample("rate_sym_per_s", totals["symbols"] / totals["rate_s"])
    run.sample("bits_per_sym", totals["coded_bits"] / totals["symbols"])


def sweep_round(run: Run, inputs: Inputs) -> dict:
    """One sweep, then detection and coding of the scene's own contours
    repeated for at least ``CODEC_BATCH_S`` seconds.  Those calls take
    milliseconds, so the whole batch is calibrated as one, and its checks
    count as one operation: how many repetitions fit depends on the
    machine's speed, and must not dilute the failures of the sweep rows."""
    checks = Run(run.workload, run.seed, run.golden)
    checks.reference = run.reference

    def batch():
        raw: dict = {}
        uncalibrated = Meter(calibrated=False)
        start = time.perf_counter()
        while True:
            found = detect_pass(checks, inputs.depth_maps, raw, uncalibrated)
            if not inputs.streams:
                inputs.streams = {f"view{i}": contours for i, contours in enumerate(found)}
            code_pass(checks, inputs.streams, None, raw, uncalibrated)
            if time.perf_counter() - start >= CODEC_BATCH_S:
                return raw

    meter = Meter()
    sweep_op(run, inputs.sweep, meter)
    raw, _ = meter.measure(batch)
    what = f"scene contour coding: {checks.failed} of {checks.attempted} checks failed, {checks.errors[:1]}"
    run.check(checks.failed == 0, what)
    totals: dict = {}
    add_scaled(totals, raw, meter.factor)
    record_codec(run, totals)
    return totals


def codec_round(run: Run, inputs: Inputs) -> dict:
    """Detection of every map and one round trip of each stream, then three
    sweeps of the small scene."""
    meter = Meter()
    totals: dict = {}
    found = detect_pass(run, inputs.depth_maps, totals, meter)
    if not inputs.streams and any(found):
        inputs.streams = length_streams(found)
    golden = run.golden["codec-streams"]["streams_sha256"] if run.seed == DEFAULT_SEED else None
    code_pass(run, inputs.streams, golden, totals, meter)
    record_codec(run, totals)
    for _ in range(3):
        sweep_op(run, inputs.sweep, meter)
    return totals


def round_fn(workload: str):
    return codec_round if workload == "codec-streams" else sweep_round


def run_rounds(run: Run, inputs: Inputs, seconds: float, tracer=None) -> list:
    """Repeat rounds while the next one is expected to end within ``seconds``
    of wall time (at least one).  Returns each round's totals.

    Before each round the objects alive so far (inputs, reference outputs)
    are moved out of the collector's reach, so that the cyclic garbage
    collector's passes cost the same in every round instead of growing with
    what earlier rounds kept."""
    step = round_fn(run.workload)
    start = time.perf_counter()
    durations = []
    rounds = []
    while True:
        if tracer is not None:
            tracer.op += 1
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        rounds.append(step(run, inputs))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(durations) > seconds:
            return rounds


def segment_probe(rng: np.random.Generator, verticals: int, window: int) -> float:
    """Median reference seconds of one ``approximate_segment`` on a wide
    zigzag whose rectangle spans more columns than the match window."""
    from contourcodec.approx import approximate_segment
    from contourcodec.contour import Segment, segment_vertical_columns

    horizontal = 26
    dirs = "".join("S" + "E" * (horizontal // verticals + (i < horizontal % verticals)) for i in range(verticals))
    seg = Segment((4, 4), ("S", "E"), dirs)
    noise = rng.integers(0, 256, size=(verticals + 16, horizontal + 80, 3)).astype(float)
    smooth = (noise + np.roll(noise, 1, axis=0) + np.roll(noise, 1, axis=1)) / 3.0
    color = ColorImage(np.clip(smooth, 0, 255).astype(np.uint8))
    cols = segment_vertical_columns(seg)
    cfg = ApproxConfig(lagrange=1.0, aec=CONFIG.aec_params(), swim=SwimConfig(block=8, window=window))
    approximate_segment(seg, (), color, cols, cfg)
    meter = Meter()
    times = [meter.measure(lambda: approximate_segment(seg, (), color, cols, cfg))[1] for _ in range(PROBE_REPS)]
    return statistics.median(times)


def length_streams(found) -> dict:
    """Streams of the lengths in ``STREAMS``, cycling through the contours of
    every list in ``found``."""
    contours = [c for view in found for c in view]
    return {label: build_stream(contours, n) for label, n in STREAMS.items()}
