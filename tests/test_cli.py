import hashlib
from pathlib import Path

import numpy as np
import pytest

from contourcodec.aec import AecParams
from contourcodec.cli import CSV_HEADER, main, psnr, run_sweep
from contourcodec.config import PipelineConfig, parse_config
from contourcodec.contour import parse_contours
from contourcodec.image_io import (
    ColorImage,
    DepthImage,
    SceneSpec,
    format_scene_spec,
    load_color,
    make_synthetic_scene,
    parse_scene_spec,
    save_color,
    save_depth,
)


@pytest.fixture
def scene_dir(tmp_path):
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=1, texture="noise")
    (tmp_path / "scene.cfg").write_text(format_scene_spec(spec))
    assert main(["scene", "--spec", str(tmp_path / "scene.cfg"), "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    return tmp_path


def test_config_parsing_maps_short_keys():
    cfg = parse_config("kappa = 1.5\nK = 4\nW=6\nN=8\nL=12\nD0=auto\nlambdas = 0,1.5\nmerge=0\n# c\n")
    assert cfg.kappa == 1.5 and cfg.context == 4 and cfg.window == 6
    assert cfg.block == 8 and cfg.bins == 12 and cfg.norm is None
    assert cfg.lambdas == (0.0, 1.5) and cfg.merge is False
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("nope=1\n")


@pytest.mark.parametrize("text, merge", [
    ("merge = 1", True), ("merge = TRUE", True), ("merge=yes", True), ("merge = On", True),
    ("merge = 0", False), ("merge = False", False), ("merge=NO", False), ("merge = off", False),
])
def test_config_merge_accepts_only_known_flags(text, merge):
    assert parse_config(text + "\n").merge is merge


@pytest.mark.parametrize("value", ["flase", "2", "", "y"])
def test_config_misspelled_merge_is_an_error(value):
    with pytest.raises(ValueError, match=r"config line 2: bad value for 'merge'"):
        parse_config(f"K = 3\nmerge = {value}\n")


@pytest.mark.parametrize("parse, kind, text, key", [
    (parse_config, "config", "K = three", "K"),
    (parse_config, "config", "kappa = 2\nlambdas = 0,x", "lambdas"),
    (parse_scene_spec, "scene spec", "width = wide", "width"),
    (parse_scene_spec, "scene spec", "# scale\nvalue_scale = x", "value_scale"),
    # values that convert but that no sweep or scene can run with
    (parse_config, "config", "alphas = ,", "alphas"),
    (parse_config, "config", "seed = 1\nK = 0", "K"),
    (parse_config, "config", "N = 12", "N"),
    (parse_config, "config", "threshold = 0", "threshold"),
    (parse_config, "config", "rho = -1", "rho"),
    (parse_scene_spec, "scene spec", "width = 64\ntexture = foo", "texture"),
    (parse_scene_spec, "scene spec", "jitter = -1", "jitter"),
])
def test_bad_value_names_file_kind_line_and_key(parse, kind, text, key):
    lineno = text.count("\n") + 1
    with pytest.raises(ValueError, match=rf"^{kind} line {lineno}: bad value for '{key}'"):
        parse(text + "\n")


def test_scene_spec_value_order_is_checked_on_the_whole_spec():
    spec = parse_scene_spec("bg_value = 20\nfg_min = 30\n")
    assert (spec.bg_value, spec.fg_min) == (20, 30)
    with pytest.raises(ValueError, match=r"^scene spec: need 0 <= bg_value < fg_min"):
        parse_scene_spec("fg_min = 30\n")


def test_config_defaults_match_module_defaults():
    cfg = PipelineConfig()
    assert cfg.aec_params() == AecParams()
    assert cfg.swim_config().block == 16 and cfg.swim_config().window == 10
    assert cfg.approx_config(2.0).lagrange == 2.0
    assert cfg.approx_config(0.0).interview_weight == 1e6


def test_detect_counts_flat_image(tmp_path, capsys):
    save_depth(tmp_path / "flat.pgm", DepthImage(np.full((16, 16), 5, np.uint8)))
    assert main(["detect", "--depth", str(tmp_path / "flat.pgm")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# contours: 0")


def test_detect_encode_decode_roundtrip(scene_dir, capsys):
    dump = scene_dir / "contours.txt"
    assert main(["detect", "--depth", str(scene_dir / "left.pgm"), "--out", str(dump)]) == 0
    text = dump.read_text()
    contours = parse_contours(text)
    assert len(contours) >= 1
    bitstream = scene_dir / "contours.aec"
    assert main(["encode", "--dump", str(dump), "--out", str(bitstream)]) == 0
    decoded = scene_dir / "decoded.txt"
    assert main(["decode", "--bitstream", str(bitstream), "--out", str(decoded)]) == 0
    assert parse_contours(decoded.read_text()) == contours


def test_detect_rerun_identical(scene_dir):
    a = scene_dir / "a.txt"
    b = scene_dir / "b.txt"
    main(["detect", "--depth", str(scene_dir / "left.pgm"), "--out", str(a)])
    main(["detect", "--depth", str(scene_dir / "left.pgm"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_metric_identical_images(scene_dir, capsys):
    assert main(["metric", "--synth", str(scene_dir / "left.ppm"), "--ref", str(scene_dir / "left.ppm")]) == 0
    lines = dict(l.split("=") for l in capsys.readouterr().out.strip().splitlines())
    assert float(lines["S"]) == 1.0
    assert float(lines["psnr_db"]) == 99.0
    assert int(lines["blocks"]) == (80 // 16) * (96 // 16)


def test_metric_noise_ladder(scene_dir, tmp_path, capsys):
    ref = load_color(scene_dir / "left.ppm")
    rng = np.random.default_rng(0)
    scores = []
    for i, sigma in enumerate((5, 25, 80)):
        noisy = np.clip(ref.pixels + rng.normal(0, sigma, ref.pixels.shape), 0, 255).astype(np.uint8)
        p = tmp_path / f"n{i}.ppm"
        save_color(p, ColorImage(noisy))
        main(["metric", "--synth", str(p), "--ref", str(scene_dir / "left.ppm")])
        lines = dict(l.split("=") for l in capsys.readouterr().out.strip().splitlines())
        scores.append(float(lines["S"]))
    assert scores[0] > scores[1] > scores[2]


def test_synth_writes_image(scene_dir):
    out = scene_dir / "mid.ppm"
    cfgfile = scene_dir / "pipe.cfg"
    cfgfile.write_text("disparity_scale=0.1\n")
    assert main([
        "synth", "--config", str(cfgfile),
        "--left-depth", str(scene_dir / "left.pgm"), "--left-color", str(scene_dir / "left.ppm"),
        "--right-depth", str(scene_dir / "right.pgm"), "--right-color", str(scene_dir / "right.ppm"),
        "--alpha", "0.5", "--out", str(out),
    ]) == 0
    img = load_color(out)
    assert (img.width, img.height) == (96, 80)


def sweep_args(scene_file, out, extra=()):
    return ["sweep", "--scene", str(scene_file), "--out", str(out), *extra]


def test_sweep_schema_and_zero_lambda(tmp_path):
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=1, texture="noise")
    scene_file = tmp_path / "scene.cfg"
    scene_file.write_text(format_scene_spec(spec))
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(scene_file, out, ["--lambdas", "0,4", "--seed", "3"])) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.0  # zero lambda incurs zero proxy distortion
    assert int(first[1]) > 0
    # S = 1 / (1 + d) per row
    for row in lines[1:]:
        f = row.split(",")
        assert float(f[4]) == pytest.approx(1.0 / (1.0 + float(f[3])), abs=1e-6)


def test_sweep_deterministic_rerun(tmp_path):
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=2, texture="noise")
    scene_file = tmp_path / "scene.cfg"
    scene_file.write_text(format_scene_spec(spec))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["--lambdas", "0,8", "--seed", "5", "--no-timing"]
    assert main(sweep_args(scene_file, a, argv)) == 0
    assert main(sweep_args(scene_file, b, argv)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_result_columns_deterministic_with_timing(tmp_path):
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=1, texture="noise")
    scene_file = tmp_path / "scene.cfg"
    scene_file.write_text(format_scene_spec(spec))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["--lambdas", "0,4", "--seed", "6"]
    assert main(sweep_args(scene_file, a, argv)) == 0
    assert main(sweep_args(scene_file, b, argv)) == 0
    strip = lambda text: [",".join(l.split(",")[:6]) for l in text.strip().splitlines()]
    assert strip(a.read_text()) == strip(b.read_text())


def test_sweep_failed_lambda_keeps_other_rows(tmp_path, monkeypatch, capsys):
    import contourcodec.cli as cli_mod

    real = cli_mod.approximate_stereo

    def flaky(left, right, cfg, **kwargs):
        if cfg.lagrange == 4.0:
            raise RuntimeError("synthetic stage failure")
        return real(left, right, cfg, **kwargs)

    monkeypatch.setattr(cli_mod, "approximate_stereo", flaky)
    spec = SceneSpec(width=96, height=80, shapes=1, jitter=1, texture="noise")
    scene_file = tmp_path / "scene.cfg"
    scene_file.write_text(format_scene_spec(spec))
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(scene_file, out, ["--lambdas", "0,4,8", "--seed", "1"])) == 0
    assert "lambda=4 failed" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    bad = lines[2].split(",")
    assert bad[0] == "4" and bad[3] == "nan"
    good = lines[3].split(",")
    assert int(good[1]) > 0  # the later lambda still produced a real row


def test_sweep_failed_row_reports_nan_bits(monkeypatch):
    import contourcodec.cli as cli_mod

    def broken(left, right, cfg, **kwargs):
        raise RuntimeError("synthetic stage failure")

    monkeypatch.setattr(cli_mod, "approximate_stereo", broken)
    spec = SceneSpec(width=64, height=64, shapes=1, jitter=1, min_size=16, max_size=16, margin=24)
    left, right = make_synthetic_scene(1, spec)
    lines = run_sweep(left, right, PipelineConfig(), (4.0,), spec.value_scale, timing=False).splitlines()
    assert lines[1].split(",")[:2] == ["4", "nan"]  # no rate was measured, so none is reported


def test_sweep_detects_once_per_view_and_times_it(monkeypatch):
    import contourcodec.augment as augment_mod
    import contourcodec.cli as cli_mod

    calls = []
    for module in (augment_mod, cli_mod):
        real = module.detect_contours

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "detect_contours", counted)
    spec = SceneSpec(width=64, height=64, shapes=1, jitter=1, min_size=16, max_size=16, margin=24)
    left, right = make_synthetic_scene(1, spec)
    lines = run_sweep(left, right, PipelineConfig(), (4.0,), spec.value_scale).splitlines()
    assert len(calls) == 2  # the left view, then the modified right view
    row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
    assert float(row["detect_ms"]) > 0
    assert all(float(row[name]) >= 0 for name in ("detect_ms", "dp_ms", "code_ms", "synth_ms"))


README_SWEEP = Path(__file__).with_name("data") / "sweep_readme.csv"


def test_sweep_matches_readme_golden_csv():
    """The README sweep (128x96, jitter 2, noise texture, seed 2, lambdas
    0,2,8) must reproduce the checked-in CSV byte for byte, not merely the
    same CSV on every rerun."""
    expected = README_SWEEP.read_bytes()
    assert hashlib.sha256(expected).hexdigest().startswith("70a9f86fd4fc")
    spec = SceneSpec(width=128, height=96, jitter=2, texture="noise")
    left, right = make_synthetic_scene(2, spec)
    csv = run_sweep(left, right, PipelineConfig(seed=2), (0.0, 2.0, 8.0), spec.value_scale, timing=False)
    assert csv.encode() == expected


SMALL_K2_SWEEP = Path(__file__).with_name("data") / "sweep_96x80_k2.csv"


def test_sweep_matches_small_k2_golden_csv():
    """A 96x80 scene at K=2 whose CSV, unlike the README sweep's, changes
    when the DP's vertical-edge rate term or its row costs are scaled."""
    expected = SMALL_K2_SWEEP.read_bytes()
    assert hashlib.sha256(expected).hexdigest().startswith("db7af4d4d125")
    spec = SceneSpec(width=96, height=80, jitter=1, texture="noise")
    left, right = make_synthetic_scene(1, spec)
    csv = run_sweep(left, right, PipelineConfig(seed=1, context=2), (0.5, 1.0, 4.0), spec.value_scale, timing=False)
    assert csv.encode() == expected


def test_psnr_cap_and_symmetry(rng):
    img = ColorImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    assert psnr(img, img) == 99.0
    other = ColorImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    assert psnr(img, other) == psnr(other, img)
