"""contourcodec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``sweep-readme``, ``sweep-large-sparse`` or
``codec-streams``, see ``workloads.py``) in this process for about S seconds
and prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run's metadata.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, measured
with no wrapper installed.  ``--trace 1`` reports its per-layer metrics: first
the scaling probes, then, in the time left, about half untraced rounds and
half traced rounds with wrappers around the package's public functions.
Spans go to ``perfbench/out/<workload>-seed<seed>-spans.npz`` and the
per-layer self-time table to ``...-layers.json``.  Span times (the table and
the per-layer ``*.self_s`` metrics and rates built on them) are raw process
CPU seconds; the probes and ``trace.overhead_s`` are in the reference seconds
of ``workloads.Meter``.

The package is imported from ``src/`` beside this directory and from nowhere
else; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
# the load is one thread: keep numpy's BLAS from starting a thread pool
THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_package():
    """Import contourcodec from this checkout's ``src/``, or exit."""
    package = SRC / "contourcodec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import contourcodec

    if Path(contourcodec.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported contourcodec from {contourcodec.__file__}, not {package}")
    return contourcodec


def git_sha(root: Path):
    """Commit of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "contourcodec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "src_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "clock": "process_time",
    }


def declared_metrics(kind: str) -> dict:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workloads, import_cpu_s: float) -> tuple:
    meter = workloads.Meter()
    meter.measure(lambda: None)  # two calibration loops: the speed the import ran at
    import_s = import_cpu_s * meter.factor
    golden = workloads.load_golden()
    setup = []
    for _ in range(SETUP_REPS):
        inputs, elapsed = meter.measure(lambda: workloads.make_inputs(args.workload, args.seed, golden))
        setup.append(elapsed)
    run = workloads.Run(args.workload, args.seed, golden)
    rounds = len(workloads.run_rounds(run, inputs, args.seconds))
    values = {name: run.median(name) for name in run.samples}
    values["setup_s"] = import_s + statistics.median(setup)
    values["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    values["peak_rss_mb"] = peak_rss_mb()
    return run, values, {"rounds": rounds, "import_s": import_s, "setup_samples_s": setup, "samples": run.samples}


def traced(args, workloads, meta: dict) -> tuple:
    import numpy as np

    import tracer as tracing
    from layers import TARGETS, cache_counts, layer_metrics

    golden = workloads.load_golden()
    tracer = tracing.Tracer()
    with tracer.installed(TARGETS):
        inputs = workloads.make_inputs(args.workload, args.seed, golden)
    run = workloads.Run(args.workload, args.seed, golden)

    # the scaling probes come out of the budget first; codec-streams' rounds
    # code streams of the probe lengths themselves
    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    values = {
        f"approx.approximate_segment.probe_s.{label}": workloads.segment_probe(rng, v, w)
        for label, (v, w) in workloads.SEGMENT_PROBES.items()
    }
    stream_totals = {}
    if args.workload != "codec-streams":
        found = workloads.detect_pass(run, inputs.depth_maps, {}, workloads.Meter(calibrated=False))
        workloads.code_pass(run, workloads.length_streams(found), None, stream_totals, workloads.Meter())

    # half the time left untraced: the first round's outputs are the reference
    # the traced rounds must reproduce, and its sweeps the base of the overhead
    caches = cache_counts()
    left = args.seconds - (time.perf_counter() - start)
    base_totals = workloads.run_rounds(run, inputs, left / 2)[0]
    stream_totals = stream_totals or base_totals
    base_sweeps = len(run.samples.get("sweep_s", []))
    with tracer.installed(TARGETS):
        rounds = len(workloads.run_rounds(run, inputs, args.seconds - (time.perf_counter() - start), tracer))
    caches = {key: value - caches[key] for key, value in cache_counts().items()}
    values.update(layer_metrics(tracer, caches))
    sweeps = run.samples.get("sweep_s", [])
    if 0 < base_sweeps < len(sweeps):
        values["trace.overhead_s"] = statistics.median(sweeps[base_sweeps:]) - statistics.median(sweeps[:base_sweeps])
    for label in workloads.STREAMS:
        n = stream_totals.get(f"{label}.symbols", 0)
        if n:
            values[f"aec.encode.sym_per_s.{label}"] = n / stream_totals[f"{label}.encode_s"]
            values[f"aec.decode.sym_per_s.{label}"] = n / stream_totals[f"{label}.decode_s"]

    table = tracer.layers()
    print_table(table)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    tracer.write(f"{stem}-spans.npz")
    report = {
        "meta": meta,
        "time_base": "layers and *.self_s: raw process CPU seconds; probes and trace.overhead_s: reference seconds",
        "layers": table,
        "metrics": values,
        "missing_targets": tracer.missing,
        "errors": run.errors,
    }
    Path(f"{stem}-layers.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return run, values, {"traced_rounds": rounds, "spans": len(tracer.end)}


def print_table(table: dict) -> None:
    print(f"{'span':34} {'calls':>9} {'total_s':>10} {'self_s':>10}", file=sys.stderr)
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{span:34} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contourcodec benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for var in THREAD_LIMITS:
        os.environ[var] = "1"
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    import_cpu_s = workloads.clock()
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    meta = metadata(args)
    if args.trace:
        run, values, extra = traced(args, workloads, meta)
    else:
        run, values, extra = end_to_end(args, workloads, import_cpu_s)
    meta.update(extra)

    missing = sorted(set(declared) - set(values))
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in declared.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for error in run.errors:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": run.failed == 0 and not missing and finite,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
