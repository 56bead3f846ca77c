"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import tracer as tracing
import workloads
from contourcodec import aec, cli, image_io
from contourcodec.image_io import SceneSpec

HERE = Path(__file__).resolve().parent
TINY = SceneSpec(width=64, height=64, shapes=1, jitter=0, min_size=24, max_size=24, margin=16)
SEED = 5  # not the default seed: no golden bitstream hashes apply


def tiny_inputs(lambdas=(0.0,)):
    left, right = image_io.make_synthetic_scene(SEED, TINY)
    csv = cli.run_sweep(left, right, workloads.CONFIG, lambdas, TINY.value_scale, timing=False)
    golden = {"csv": csv, "sha256": workloads.sha256(csv)}
    sweep = workloads.Sweep(left, right, TINY.value_scale, lambdas, golden, True)
    return workloads.Inputs(sweep, [left[0], right[0]])


def new_run(workload):
    return workloads.Run(workload, SEED, workloads.load_golden())


def declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


SAMPLED = {"sweep_s", "contour_bits", "swim_S", "detect_mpix_per_s", "encode_sym_per_s",
           "decode_sym_per_s", "rate_sym_per_s", "bits_per_sym"}


def test_sweep_round_smoke(monkeypatch):
    monkeypatch.setattr(workloads, "CODEC_BATCH_S", 0.2)
    run = new_run("sweep-readme")
    inputs = tiny_inputs()
    totals = workloads.sweep_round(run, inputs)
    # one check per sweep row, and one for the whole time-bound batch
    assert (run.attempted, run.failed) == (len(inputs.sweep.lambdas) + 1, 0), run.errors
    assert set(run.samples) == SAMPLED
    assert set(run.samples) | {"setup_s", "ok_ratio", "peak_rss_mb"} == declared("end_to_end")
    per_pass = sum(workloads.symbols(s) for s in inputs.streams.values())
    assert totals["symbols"] > 0 and totals["symbols"] % per_pass == 0


def test_codec_round_smoke(monkeypatch):
    monkeypatch.setattr(workloads, "STREAMS", {"25k": 100, "100k": 400, "200k": 800})
    monkeypatch.setattr(workloads, "CODEC_SCENE", SceneSpec(width=96, height=80, shapes=1))
    monkeypatch.setattr(workloads, "CODEC_PAIRS", 1)
    run = new_run("codec-streams")
    inputs = workloads.make_inputs("codec-streams", SEED, run.golden)
    assert len(inputs.depth_maps) == 2 and not inputs.sweep.default
    totals = workloads.codec_round(run, inputs)
    assert run.failed == 0, run.errors
    assert set(run.samples) == SAMPLED
    assert [totals[f"{label}.symbols"] >= n for label, n in workloads.STREAMS.items()] == [True] * 3
    found = workloads.detect_pass(run, inputs.depth_maps, {}, workloads.Meter(calibrated=False))
    assert workloads.length_streams(found) == inputs.streams


def test_sweep_inputs_keep_rows_whole():
    golden = workloads.load_golden()
    assert workloads.row_shift(workloads.DEFAULT_SEED) == 0
    assert {workloads.row_shift(s) for s in range(100)} == set(range(-16, 17))
    base = workloads.make_inputs("sweep-readme", workloads.DEFAULT_SEED, golden)
    moved = workloads.make_inputs("sweep-readme", workloads.DEFAULT_SEED + 5, golden)
    assert base.sweep.default and not moved.sweep.default
    assert np.array_equal(np.roll(base.sweep.left[1].pixels, 5, axis=0), moved.sweep.left[1].pixels)


def test_failed_row_is_counted_and_adds_no_bits():
    inputs = tiny_inputs(lambdas=(0.0, -1.0))
    rows = inputs.sweep.golden["csv"].splitlines()[1:]
    assert rows[1].startswith("-1,0,nan")
    run = new_run("sweep-readme")
    workloads.sweep_op(run, inputs.sweep, workloads.Meter(calibrated=False))
    assert (run.attempted, run.failed) == (2, 1)
    assert run.samples["contour_bits"] == [int(rows[0].split(",")[1])]


def test_changed_output_fails():
    inputs = tiny_inputs()
    inputs.sweep.golden = dict(inputs.sweep.golden, csv=inputs.sweep.golden["csv"].replace(",0,", ",1,", 1))
    run = new_run("sweep-readme")
    workloads.sweep_op(run, inputs.sweep, workloads.Meter(calibrated=False))
    assert run.failed == 1

    run = new_run("codec-streams")
    stream = {"s": tiny_contours()}
    workloads.code_pass(run, stream, {"s": "0" * 64}, {}, workloads.Meter(calibrated=False))
    assert run.failed == 1


def test_raising_operations_are_counted_as_failed(monkeypatch):
    def broken(*args):
        raise ValueError("broken coder")

    monkeypatch.setattr(aec, "decode", broken)
    run = new_run("codec-streams")
    totals = {}
    workloads.code_pass(run, {"s": tiny_contours()}, None, totals, workloads.Meter(calibrated=False))
    assert (run.attempted, run.failed) == (1, 1) and "decode raised" in run.errors[0]
    assert "symbols" not in totals

    monkeypatch.setattr(workloads, "CODEC_BATCH_S", 0.2)
    run = new_run("sweep-readme")
    workloads.sweep_round(run, tiny_inputs())
    assert (run.attempted, run.failed) == (2, 1)
    assert "encode_sym_per_s" not in run.samples


def tiny_contours():
    from contourcodec.contour import detect_contours

    left, _ = image_io.make_synthetic_scene(SEED, TINY)
    return detect_contours(left[0], workloads.CONFIG.threshold)


def test_wrappers_replace_every_binding_and_are_removed():
    import contourcodec
    from contourcodec import approx, augment, swim

    originals = (swim.row_distortion, augment.detect_contours, cli.synthesize_view, aec.encode)
    tracer = tracing.Tracer()
    with tracer.installed(layers.TARGETS):
        assert approx.row_distortion is swim.row_distortion is contourcodec.row_distortion
        assert hasattr(approx.row_distortion, "__perfbench_original__")
        for name in ("approximate_contour", "detect_contours", "approximate_stereo", "synthesize_view", "swim_score"):
            for module in (approx, augment, cli):
                if name in vars(module):
                    assert hasattr(vars(module)[name], "__perfbench_original__"), (module, name)
        assert len(tracing.leftover_wrappers()) > len(layers.TARGETS)
        tiny_contours()
    assert (swim.row_distortion, augment.detect_contours, cli.synthesize_view, aec.encode) == originals
    assert tracing.leftover_wrappers() == []
    assert tracer.layers()["contour.detect"]["calls"] == 1
    assert tracer.counters["contour.detect"]["pixels"] == TINY.width * TINY.height


def test_uninstall_fails_when_a_wrapper_survives():
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    stray = aec.encode
    tracer.uninstall()
    aec.stray = stray
    try:
        with pytest.raises(RuntimeError, match="stray"):
            tracing.Tracer().uninstall()
    finally:
        del aec.stray


def test_self_time_excludes_children(monkeypatch):
    module = types.ModuleType("contourcodec._fake")

    def inner():
        return sum(range(20000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer()
    with tracer.installed([(module.__name__, "inner", "inner", None), (module.__name__, "outer", "outer", None)]):
        tracer.op = 7
        module.outer()
    table = tracer.layers()
    assert table["inner"]["calls"] == 2 and table["outer"]["calls"] == 1
    assert math.isclose(table["outer"]["self_s"], table["outer"]["total_s"] - table["inner"]["total_s"])
    assert list(tracer.parent) == [-1, 0, 0] and list(tracer.op_id) == [7, 7, 7]


def test_layer_metrics_match_declared_names():
    values = layers.layer_metrics(tracing.Tracer(), {"hits": 0, "misses": 0})
    probes = {"trace.overhead_s"} | {f"approx.approximate_segment.probe_s.{label}" for label in workloads.SEGMENT_PROBES}
    probes |= {f"aec.{op}.sym_per_s.{label}" for op in ("encode", "decode") for label in workloads.STREAMS}
    assert set(values) | probes == declared("per_layer")


def test_segment_probe_times_a_dp_call(monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_REPS", 1)
    assert 0.0 < workloads.segment_probe(np.random.default_rng(0), 4, 3) < 10.0


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-readme", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
