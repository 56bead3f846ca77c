"""Batch CLI: detect, sweep, metric, encode, decode, synth, scene.

``sweep`` runs the whole pipeline over a list of Lagrange multipliers and
writes one CSV row per value with the coded contour bits, the optimizer's
proxy distortion, the synthesized-view quality score and PSNR averaged over
the configured intermediate viewpoints, and per-stage wall times.  The rate
column counts contour side-information bits only; depth/color payload coding
is outside this tool.  Each distinct modified stereo pair is synthesized and
scored once per sweep: a row whose pair repeats an earlier row's, or the input
pair (whose views are the references), reuses that pair's scores, and its
``synth_ms`` is then the time of the lookup.  Synthesis is row-local, so a new
pair is synthesized only in the rows where it differs from the input pair, the
other rows are copied from the reference views, and block rows equal to the
reference score 0 without being evaluated; ``synth_ms`` times finding those
rows, synthesizing them and scoring the views.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import aec
from .augment import approximate_stereo, synthesize_view
from .config import PipelineConfig, _floats, load_config
from .contour import detect_contours, format_contours, parse_contours
from .image_io import (
    ColorImage,
    SceneSpec,
    load_color,
    load_depth,
    make_synthetic_scene,
    parse_scene_spec,
    render_scene_view,
    save_color,
    save_depth,
)
from .swim import swim_score

CSV_HEADER = "lambda,contour_bits,proxy_distortion,swim_d,swim_S,psnr_db,detect_ms,dp_ms,code_ms,synth_ms"

PSNR_CAP_DB = 99.0


def psnr(a: ColorImage, b: ColorImage) -> float:
    """Peak signal-to-noise ratio in dB, capped for identical images.

    Squared 8-bit errors are integers and their sum stays below 2^53 for
    any image under 2^37 samples, so the int64 sum is exact, converts to
    float64 exactly, and ``sum / size`` is the float64 mean of the squared
    errors, in any summation order."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError("images must have identical dimensions")
    diff = a.pixels.astype(np.int32) - b.pixels
    mse = int(np.square(diff).sum(dtype=np.int64)) / diff.size
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(255.0 ** 2 / mse), PSNR_CAP_DB)


def _load_pair(depth_path, color_path):
    return load_depth(depth_path), load_color(color_path)


def _read_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write_or_print(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_detect(args) -> int:
    cfg = _read_config(args)
    threshold = args.threshold if args.threshold is not None else cfg.threshold
    contours = detect_contours(load_depth(args.depth), threshold)
    dump = f"# contours: {len(contours)}\n" + format_contours(contours)
    _write_or_print(dump, args.out)
    return 0


def cmd_encode(args) -> int:
    cfg = _read_config(args)
    contours = parse_contours(Path(args.dump).read_text(encoding="utf-8"))
    data = aec.encode(contours, cfg.aec_params())
    Path(args.out).write_bytes(data)
    print(f"encoded {len(contours)} contour(s) into {len(data)} bytes")
    return 0


def cmd_decode(args) -> int:
    cfg = _read_config(args)
    contours = aec.decode(Path(args.bitstream).read_bytes(), cfg.aec_params())
    _write_or_print(format_contours(contours), args.out)
    return 0


def cmd_metric(args) -> int:
    cfg = _read_config(args)
    synth = load_color(args.synth)
    ref = load_color(args.ref)
    d, score = swim_score(synth, ref, cfg.swim_config())
    blocks = (synth.height // cfg.block) * (synth.width // cfg.block)
    print(f"blocks={blocks}")
    print(f"d={d:.6g}")
    print(f"S={score:.6g}")
    print(f"psnr_db={psnr(synth, ref):.6g}")
    return 0


def cmd_synth(args) -> int:
    cfg = _read_config(args)
    left = _load_pair(args.left_depth, args.left_color)
    right = _load_pair(args.right_depth, args.right_color)
    out = synthesize_view(left, right, args.alpha, cfg.disparity_scale)
    save_color(args.out, out)
    return 0


def cmd_scene(args) -> int:
    cfg = _read_config(args)
    spec = parse_scene_spec(Path(args.spec).read_text(encoding="utf-8")) if args.spec else SceneSpec()
    left, right = make_synthetic_scene(cfg.seed, spec)
    view = None if args.alpha is None else render_scene_view(cfg.seed, spec, args.alpha)[1]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_depth(out / "left.pgm", left[0])
    save_color(out / "left.ppm", left[1])
    save_depth(out / "right.pgm", right[0])
    save_color(out / "right.ppm", right[1])
    if view is not None:
        save_color(out / f"view_{args.alpha:g}.ppm", view)
    print(f"scene written to {out}")
    return 0


def _changed_rows(images, references) -> np.ndarray:
    """Boolean mask of the rows in which any of ``images`` differs from its
    reference image."""
    return np.logical_or.reduce([(a.pixels != b.pixels).reshape(a.height, -1).any(axis=1) for a, b in zip(images, references)])


def run_sweep(left, right, cfg: PipelineConfig, lambdas, scale: float, timing: bool = True):
    """One CSV line per lambda; a failed stage aborts only its own row.

    Rows whose modified pairs are equal, image for image, share one (d, PSNR)
    score, found by ``==`` in a list that the input pair starts.  The
    input pair's views are the references, and a view scored against itself
    gives d = 0 and the PSNR cap, unless it holds no whole block.  A new
    pair's views are synthesized only in the rows where the pair differs
    from the input pair and take the references' other rows, whose block
    rows then score 0 unevaluated; ``synth_ms`` times this and the scoring."""
    references = {a: synthesize_view(left, right, a, scale) for a in cfg.alphas}
    inputs = (*left, *right)
    scored = []  # (a pair's four images, its (d, PSNR))
    if all(min(v.height, v.width) >= cfg.block for v in references.values()):
        scored.append((inputs, (0.0, PSNR_CAP_DB)))
    lines = [CSV_HEADER]
    for lam in lambdas:
        try:
            t0 = time.perf_counter()
            stereo = approximate_stereo(left, right, cfg.approx_config(lam), threshold=cfg.threshold, scale=scale)
            t1 = time.perf_counter()
            bits = 8 * (
                len(aec.encode(stereo.left.contours, cfg.aec_params()))
                + len(aec.encode(stereo.right.contours, cfg.aec_params()))
            )
            t2 = time.perf_counter()
            pair = (stereo.left.depth, stereo.left.color, stereo.right.depth, stereo.right.color)
            scores = next((s for images, s in scored if images == pair), None)
            if scores is None:
                # synthesis reads only the row it writes
                rows = _changed_rows(pair, inputs)
                crop = [tuple(type(im)(im.pixels[rows]) for im in view) for view in (pair[:2], pair[2:])] if rows.any() else None
                d_values = []
                psnr_values = []
                for a in cfg.alphas:
                    synth = references[a]
                    if crop:
                        pixels = synth.pixels.copy()
                        pixels[rows] = synthesize_view(*crop, a, scale).pixels
                        synth = ColorImage(pixels)
                    d, _ = swim_score(synth, references[a], cfg.swim_config())
                    d_values.append(d)
                    psnr_values.append(psnr(synth, references[a]))
                scores = (sum(d_values) / len(d_values), sum(psnr_values) / len(psnr_values))
                scored.append((pair, scores))
            d_avg, psnr_avg = scores
            t3 = time.perf_counter()
            score = 1.0 / (1.0 + d_avg)
            detect = stereo.left.detect_s + stereo.right.detect_s
            times = (detect, t1 - t0 - detect, t2 - t1, t3 - t2) if timing else (0.0,) * 4
            lines.append(
                f"{lam:g},{bits},{stereo.total_distortion:.6g},{d_avg:.6g},{score:.6g},"
                f"{psnr_avg:.6g},"
                + ",".join(f"{1000.0 * t:.3f}" for t in times)
            )
        except Exception as exc:  # noqa: BLE001 - a bad lambda must not kill the batch
            print(f"lambda={lam:g} failed: {exc}", file=sys.stderr)
            nan = float("nan")
            lines.append(f"{lam:g},{nan},{nan},{nan},{nan},{nan}," + ",".join("0.000" for _ in range(4)))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    cfg = _read_config(args)
    if args.lambdas is not None:
        cfg = replace(cfg, lambdas=_floats(args.lambdas))
    scale = cfg.disparity_scale
    if args.scene:
        spec = parse_scene_spec(Path(args.scene).read_text(encoding="utf-8"))
        left, right = make_synthetic_scene(cfg.seed, spec)
        scale = spec.value_scale
    else:
        missing = [f"--{n.replace('_', '-')}" for n in ("left_depth", "left_color", "right_depth", "right_color") if not getattr(args, n)]
        if missing:
            raise SystemExit(f"sweep needs --scene or all four image paths (missing: {', '.join(missing)})")
        left = _load_pair(args.left_depth, args.left_color)
        right = _load_pair(args.right_depth, args.right_color)
    csv = run_sweep(left, right, cfg, cfg.lambdas, scale, timing=not args.no_timing)
    _write_or_print(csv, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contourcodec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="key=value pipeline configuration file")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("detect", help="detect depth contours and dump them as text")
    common(p)
    p.add_argument("--depth", required=True)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("encode", help="arithmetic-encode a contour dump")
    common(p)
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a contour bitstream back to a dump")
    common(p)
    p.add_argument("--bitstream", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("metric", help="score a synthesized view against a reference")
    common(p)
    p.add_argument("--synth", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("synth", help="synthesize an intermediate view from a stereo pair")
    common(p)
    p.add_argument("--left-depth", required=True)
    p.add_argument("--left-color", required=True)
    p.add_argument("--right-depth", required=True)
    p.add_argument("--right-color", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="full pipeline over a list of lambda values")
    common(p, seed=True)
    p.add_argument("--scene", default=None, help="scene descriptor file (synthetic input)")
    p.add_argument("--left-depth")
    p.add_argument("--left-color")
    p.add_argument("--right-depth")
    p.add_argument("--right-color")
    p.add_argument("--lambdas", default=None, help="comma-separated override")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--no-timing", action="store_true", help="write zeros for the *_ms columns")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scene", help="generate a synthetic stereo scene")
    common(p, seed=True)
    p.add_argument("--spec", default=None, help="scene descriptor file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alpha", type=float, default=None, help="also render this ground-truth view")
    p.set_defaults(func=cmd_scene)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
