"""Trace targets in contourcodec and the per-layer metrics built from them.

Layers are the package's modules.  Each metric's comment names the end-to-end
metric it should move and on which workload.  Times are the spans' raw
process CPU seconds, not rescaled to the reference speed.
"""

from __future__ import annotations

import math

from contourcodec import aec
from contourcodec.contour import segment_endpoint


def _pixels(image) -> int:
    return getattr(image, "pixels", image).size


def _segment(counters, args, result):
    start, end = args[0].start, segment_endpoint(args[0])
    counters["cells"] += (abs(end[0] - start[0]) + 1) * (abs(end[1] - start[1]) + 1)
    counters["inf"] += math.isinf(result[1].total)


def _merge(counters, args, result):
    counters["accepted"] += result is not None


def _row(counters, args, result):
    counters["inf"] += math.isinf(result)


def _swim(counters, args, result):
    h, w = getattr(args[0], "pixels", args[0]).shape[:2]
    counters["blocks"] += (h // args[2].block) * (w // args[2].block)


def _synth(counters, args, result):
    counters["pixels"] += _pixels(args[0][0])


def _detect(counters, args, result):
    counters["pixels"] += _pixels(args[0])


def _encode(counters, args, result):
    counters["symbols"] += sum(len(c) for c in args[0])


def _decode(counters, args, result):
    counters["symbols"] += sum(len(c) for c in result)


def _rate(counters, args, result):
    counters["symbols"] += len(args[0])


# (module, attribute, span name, hook)
TARGETS = (
    ("contourcodec.cli", "run_sweep", "cli.run_sweep", None),
    ("contourcodec.contour", "detect_contours", "contour.detect", _detect),
    ("contourcodec.aec", "encode", "aec.encode", _encode),
    ("contourcodec.aec", "decode", "aec.decode", _decode),
    ("contourcodec.aec", "estimate_rate", "aec.estimate_rate", _rate),
    ("contourcodec.swim", "row_distortion", "swim.row_distortion", _row),
    ("contourcodec.swim", "swim_score", "swim.swim_score", _swim),
    ("contourcodec.approx", "approximate_segment", "approx.approximate_segment", _segment),
    ("contourcodec.approx", "merge_segments", "approx.merge_segments", _merge),
    ("contourcodec.approx", "approximate_contour", "approx.approximate_contour", None),
    ("contourcodec.augment", "augment_depth", "augment.augment_depth", None),
    ("contourcodec.augment", "augment_color", "augment.augment_color", None),
    ("contourcodec.augment", "synthesize_view", "augment.synthesize_view", _synth),
    ("contourcodec.augment", "approximate_stereo", "augment.approximate_stereo", None),
    ("contourcodec.image_io", "make_synthetic_scene", "image_io.make_synthetic_scene", None),
)

CONTEXT_CACHES = ("relative_distribution", "relative_bits", "relative_freqs")


def cache_counts() -> dict:
    """Summed hits and misses of the AEC context-model caches."""
    hits = misses = 0
    for name in CONTEXT_CACHES:
        info = getattr(getattr(aec, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            misses += info().misses
    return {"hits": hits, "misses": misses}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, caches: dict) -> dict:
    """Per-layer metrics from a traced run's spans and counters."""
    table = tracer.layers()
    counters = tracer.counters

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    def self_s(span):
        return table.get(span, {}).get("self_s", 0.0)

    def count(span, key):
        return counters[span][key] if span in counters else 0

    seg, merge, row = "approx.approximate_segment", "approx.merge_segments", "swim.row_distortion"
    m = {}
    # sweep_s on sweep-readme; little on sweep-large-sparse
    m[f"{seg}.calls"] = calls(seg)
    m[f"{seg}.self_s"] = self_s(seg)
    m[f"{seg}.cells"] = count(seg, "cells")
    m[f"{seg}.cells_per_s"] = _ratio(count(seg, "cells"), self_s(seg))
    m[f"{seg}.inf_ratio"] = _ratio(count(seg, "inf"), calls(seg))
    # sweep_s and contour_bits on sweep-readme
    m[f"{merge}.calls"] = calls(merge)
    m[f"{merge}.accepted"] = count(merge, "accepted")
    m[f"{merge}.accept_ratio"] = _ratio(count(merge, "accepted"), calls(merge))
    m[f"{merge}.self_s"] = self_s(merge)
    m["approx.approximate_contour.calls"] = calls("approx.approximate_contour")
    m["approx.approximate_contour.self_s"] = self_s("approx.approximate_contour")
    # calls: sweep_s on sweep-readme; us_per_call: sweep_s on sweep-large-sparse
    m[f"{row}.calls"] = calls(row)
    m[f"{row}.self_s"] = self_s(row)
    m[f"{row}.us_per_call"] = 1e6 * _ratio(self_s(row), calls(row))
    m[f"{row}.inf_ratio"] = _ratio(count(row, "inf"), calls(row))
    # sweep_s on sweep-large-sparse
    m["swim.swim_score.calls"] = calls("swim.swim_score")
    m["swim.swim_score.self_s"] = self_s("swim.swim_score")
    m["swim.swim_score.blocks_per_s"] = _ratio(count("swim.swim_score", "blocks"), self_s("swim.swim_score"))
    m["augment.synthesize_view.calls"] = calls("augment.synthesize_view")
    m["augment.synthesize_view.self_s"] = self_s("augment.synthesize_view")
    m["augment.synthesize_view.mpix_per_s"] = 1e-6 * _ratio(
        count("augment.synthesize_view", "pixels"), self_s("augment.synthesize_view")
    )
    # sweep_s on sweep-readme at lambda > 0
    for span in ("augment.augment_depth", "augment.augment_color"):
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.self_s"] = self_s(span)
    m["augment.approximate_stereo.self_s"] = self_s("augment.approximate_stereo")
    # sweep_s on sweep-readme; rate_sym_per_s on codec-streams
    m["aec.context.hit_ratio"] = _ratio(caches["hits"], caches["hits"] + caches["misses"])
    m["aec.context.misses"] = caches["misses"]
    m["aec.estimate_rate.sym_per_s"] = _ratio(count("aec.estimate_rate", "symbols"), self_s("aec.estimate_rate"))
    # encode_sym_per_s and decode_sym_per_s on codec-streams
    for span in ("aec.encode", "aec.decode"):
        m[f"{span}.self_s"] = self_s(span)
        m[f"{span}.sym_per_s"] = _ratio(count(span, "symbols"), self_s(span))
    # detect_mpix_per_s on codec-streams
    m["contour.detect.calls"] = calls("contour.detect")
    m["contour.detect.self_s"] = self_s("contour.detect")
    m["contour.detect.mpix_per_s"] = 1e-6 * _ratio(count("contour.detect", "pixels"), self_s("contour.detect"))
    # set-up only
    m["image_io.make_synthetic_scene.self_s"] = self_s("image_io.make_synthetic_scene")
    m["cli.run_sweep.self_s"] = self_s("cli.run_sweep")
    return m
