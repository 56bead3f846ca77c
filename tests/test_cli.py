import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import format_scene_spec
from contourcodec.aec import AecParams
from contourcodec.approx import ApproxConfig
from contourcodec.augment import StereoResult, ViewResult
from contourcodec.cli import CSV_HEADER, PSNR_CAP_DB, main, psnr, run_sweep
from contourcodec.config import PipelineConfig, parse_config
from contourcodec.contour import parse_contours
from contourcodec.image_io import (
    ColorImage,
    DepthImage,
    SceneSpec,
    load_color,
    make_synthetic_scene,
    parse_scene_spec,
    render_scene_view,
    save_color,
    save_depth,
)
from contourcodec.swim import SwimConfig, swim_score


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
    # knob values a sweep would run with but report meaningless rows for
    (parse_config, "config", "lambdas = -1, 2", "lambdas"),
    (parse_config, "config", "lambdas = nan", "lambdas"),
    (parse_config, "config", "K = 3\nlambdas = 0,inf", "lambdas"),
    (parse_config, "config", "rho = nan", "rho"),
    (parse_config, "config", "kappa = nan", "kappa"),
    (parse_config, "config", "omega = inf", "omega"),
    (parse_config, "config", "D0 = nan", "D0"),
    (parse_config, "config", "D0 = inf", "D0"),
    (parse_config, "config", "alphas = nan", "alphas"),
    (parse_config, "config", "alphas = 0.5, 2", "alphas"),
    (parse_config, "config", "disparity_scale = nan", "disparity_scale"),
    (parse_config, "config", "seed = 4\ndisparity_scale = -3", "disparity_scale"),
    (parse_config, "config", "lambdas = ,", "lambdas"),
    (parse_config, "config", "seed = -1", "seed"),
    (parse_scene_spec, "scene spec", "width = 64\ntexture = foo", "texture"),
    (parse_scene_spec, "scene spec", "jitter = -1", "jitter"),
    (parse_scene_spec, "scene spec", "value_scale = -0.1", "value_scale"),
    (parse_scene_spec, "scene spec", "width = 64\nvalue_scale = nan", "value_scale"),
    (parse_scene_spec, "scene spec", "margin = -5", "margin"),
    (parse_scene_spec, "scene spec", "shapes = -1", "shapes"),
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


def test_scene_spec_size_order_is_checked_on_the_whole_spec():
    spec = parse_scene_spec("min_size = 50\nmax_size = 60\n")
    assert (spec.min_size, spec.max_size) == (50, 60)
    with pytest.raises(ValueError, match=r"^scene spec: need min_size <= max_size"):
        parse_scene_spec("max_size = 10\n")


def test_scene_spec_jitter_bound_is_checked_on_the_whole_spec():
    spec = parse_scene_spec("jitter = 6\nmin_size = 18\n")
    assert (spec.jitter, spec.min_size) == (6, 18)
    for text in ("jitter = 6\n", "min_size = 5\n", "jitter = 2\nmin_size = 8\n"):
        with pytest.raises(ValueError, match=r"^scene spec: need min_size >= 2 \* jitter \+ 6$"):
            parse_scene_spec(text)


def test_config_line_without_equals_sign_is_an_error():
    with pytest.raises(ValueError, match="expected key=value"):
        parse_config("kappa\n")


def test_config_defaults_match_module_defaults():
    cfg = PipelineConfig()
    assert cfg.aec_params() == AecParams()
    assert cfg.swim_config() == SwimConfig()
    assert cfg.approx_config(0.0) == ApproxConfig()
    assert cfg.approx_config(2.0).lagrange == 2.0


def test_sweep_rejects_a_negative_seed(tmp_path):
    (tmp_path / "scene.cfg").write_text("width = 64\nheight = 64\n")
    with pytest.raises(ValueError, match="seed"):
        main(["sweep", "--scene", str(tmp_path / "scene.cfg"), "--seed", "-3", "--lambdas", "0"])


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


def test_synth_rejects_views_of_different_sizes(scene_dir):
    small = scene_dir / "small.ppm"
    save_color(small, ColorImage(load_color(scene_dir / "right.ppm").pixels[:64]))
    out = scene_dir / "mid.ppm"
    with pytest.raises(ValueError, match=r"right depth \(80, 96\), right color \(64, 96\)"):
        main([
            "synth",
            "--left-depth", str(scene_dir / "left.pgm"), "--left-color", str(scene_dir / "left.ppm"),
            "--right-depth", str(scene_dir / "right.pgm"), "--right-color", str(small),
            "--alpha", "0.5", "--out", str(out),
        ])
    assert not out.exists()


def test_synth_rejects_nan_alpha(scene_dir):
    out = scene_dir / "mid.ppm"
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got nan"):
        main([
            "synth",
            "--left-depth", str(scene_dir / "left.pgm"), "--left-color", str(scene_dir / "left.ppm"),
            "--right-depth", str(scene_dir / "right.pgm"), "--right-color", str(scene_dir / "right.ppm"),
            "--alpha", "nan", "--out", str(out),
        ])
    assert not out.exists()


def test_scene_writes_the_requested_view(tmp_path):
    assert main(["scene", "--out-dir", str(tmp_path), "--seed", "3", "--alpha", "0.5"]) == 0
    assert load_color(tmp_path / "view_0.5.ppm") == render_scene_view(3, SceneSpec(), 0.5)[1]


@pytest.mark.parametrize("alpha", ["2", "-1"])
def test_scene_rejects_alpha_outside_unit_interval(tmp_path, alpha):
    with pytest.raises(ValueError, match=rf"alpha must lie in \[0, 1\], got {float(alpha)}"):
        main(["scene", "--out-dir", str(tmp_path), "--alpha", alpha])
    assert not list(tmp_path.iterdir())


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


def test_sweep_from_four_image_files_equals_the_scene_sweep(tmp_path):
    # the README scene, written to files and swept at the scene's value scale
    spec_file, config = tmp_path / "spec.cfg", tmp_path / "sweep.cfg"
    spec_file.write_text("width=128\nheight=96\njitter=2\ntexture=noise\n")
    config.write_text(f"disparity_scale = {parse_scene_spec(spec_file.read_text()).value_scale}\n")
    assert main(["scene", "--spec", str(spec_file), "--seed", "2", "--out-dir", str(tmp_path)]) == 0
    views = [f"--{side}-{kind}={tmp_path / side}.{ext}" for side in ("left", "right") for kind, ext in (("depth", "pgm"), ("color", "ppm"))]
    argv = ["--lambdas", "0,2,8", "--no-timing"]
    files, scene = tmp_path / "files.csv", tmp_path / "scene.csv"
    assert main(["sweep", *views, "--config", str(config), "--out", str(files), *argv]) == 0
    assert main(sweep_args(spec_file, scene, ["--seed", "2", *argv])) == 0
    assert files.read_bytes() == scene.read_bytes()


def test_sweep_without_scene_names_the_missing_image_flags(tmp_path):
    with pytest.raises(SystemExit, match=r"\(missing: --left-color, --right-depth, --right-color\)$"):
        main(["sweep", "--left-depth", str(tmp_path / "x.pgm")])


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


@pytest.mark.parametrize("lambdas", ["-1", "0,nan", "inf"])
def test_sweep_rejects_bad_lambdas_override(tmp_path, lambdas):
    out = tmp_path / "sweep.csv"
    # the scene file does not exist: the override is checked before any input is read
    with pytest.raises(ValueError, match="lagrange must be finite and >= 0"):
        main(sweep_args(tmp_path / "missing.cfg", out, ["--lambdas", lambdas]))
    assert not out.exists()


@pytest.mark.parametrize("lambdas", [",", " , ", ""])
def test_sweep_rejects_empty_lambdas_items(tmp_path, lambdas):
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match="lambdas must not be empty"):
        main(sweep_args(tmp_path / "missing.cfg", out, ["--lambdas", lambdas]))
    assert not out.exists()


@pytest.mark.parametrize("lambdas, rows", [("0,,8", 2), ("4,", 1)])
def test_sweep_lambdas_override_reads_like_the_config_file(tmp_path, lambdas, rows):
    # the override and the config file's list share one converter, which
    # skips empty items
    spec = SceneSpec(width=64, height=64, shapes=1, jitter=1, min_size=16, max_size=16, margin=24)
    scene_file = tmp_path / "scene.cfg"
    scene_file.write_text(format_scene_spec(spec))
    (tmp_path / "sweep.cfg").write_text(f"lambdas = {lambdas}\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sweep_args(scene_file, a, ["--lambdas", lambdas, "--no-timing"])) == 0
    assert main(sweep_args(scene_file, b, ["--config", str(tmp_path / "sweep.cfg"), "--no-timing"])) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + rows


def test_sweep_rejects_views_of_different_sizes():
    spec = SceneSpec(width=64, height=64, shapes=1, jitter=1, min_size=16, max_size=16, margin=24)
    (depth, color), right = make_synthetic_scene(1, spec)
    left = (depth, ColorImage(color.pixels[:, :48]))
    with pytest.raises(ValueError, match=r"left depth \(64, 64\), left color \(64, 48\), right depth \(64, 64\), right color \(64, 64\)"):
        run_sweep(left, right, PipelineConfig(), (4.0,), spec.value_scale, timing=False)


def test_sweep_called_with_negative_lambda_writes_a_failed_row(capsys):
    spec = SceneSpec(width=64, height=64, shapes=1, jitter=1, min_size=16, max_size=16, margin=24)
    left, right = make_synthetic_scene(1, spec)
    lines = run_sweep(left, right, PipelineConfig(), (-1.0,), spec.value_scale, timing=False).splitlines()
    assert lines[1].split(",")[:3] == ["-1", "nan", "nan"]
    assert "lambda=-1 failed" in capsys.readouterr().err


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


def test_config_threshold_reaches_detection(tmp_path, capsys):
    """On the README scene a threshold of 200 finds no edge: the sweep codes
    two empty 7-byte streams and changes no pixel, and ``detect`` reads the
    config's threshold unless ``--threshold`` overrides it."""
    spec = SceneSpec(width=128, height=96, jitter=2, texture="noise")
    left, right = make_synthetic_scene(2, spec)
    rows = run_sweep(left, right, PipelineConfig(seed=2, threshold=200), (0.0, 8.0), spec.value_scale, timing=False)
    assert [row.split(",")[1:4:2] for row in rows.splitlines()[1:]] == [["112", "0"]] * 2
    save_depth(tmp_path / "left.pgm", left[0])
    (tmp_path / "pipeline.cfg").write_text("threshold = 200\n")
    detect = ["detect", "--depth", str(tmp_path / "left.pgm"), "--config", str(tmp_path / "pipeline.cfg")]
    assert main(detect) == 0
    assert capsys.readouterr().out.startswith("# contours: 0\n")
    assert main(detect + ["--threshold", "30"]) == 0
    assert capsys.readouterr().out.startswith("# contours: 2\n")


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


SMALL_N8W5_SWEEP = Path(__file__).with_name("data") / "sweep_96x80_n8w5.csv"


def test_sweep_matches_small_n8w5_golden_csv():
    """A 96x80 scene at N=8, W=5 (both other golden CSVs run N=16, W=10),
    so a window-anchor or +-W slip that only shows at other sizes changes
    it; it also takes infinite-cost merge candidates and the self-touching
    fallback."""
    expected = SMALL_N8W5_SWEEP.read_bytes()
    assert hashlib.sha256(expected).hexdigest().startswith("938ac12ffdcd")
    spec = SceneSpec(width=96, height=80, jitter=2, texture="noise")
    left, right = make_synthetic_scene(1, spec)
    cfg = PipelineConfig(seed=1, context=2, block=8, window=5)
    csv = run_sweep(left, right, cfg, (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0), spec.value_scale, timing=False)
    assert csv.encode() == expected



BORDER_SWEEP = Path(__file__).with_name("data") / "sweep_96x80_border.csv"


def test_sweep_matches_border_golden_csv():
    """A 96x80 scene whose shapes may touch the image edge (margin 0), so
    most of its color fills reach the border; the other golden CSVs never
    flip a border pixel."""
    expected = BORDER_SWEEP.read_bytes()
    assert hashlib.sha256(expected).hexdigest().startswith("63447c6a5993")
    spec = SceneSpec(width=96, height=80, shapes=3, jitter=2, margin=0, min_size=10, max_size=40, texture="noise")
    left, right = make_synthetic_scene(4, spec)
    csv = run_sweep(left, right, PipelineConfig(seed=4), (0.0, 2.0, 8.0), spec.value_scale, timing=False)
    assert csv.encode() == expected


LARGE_SPARSE_SWEEP = Path(__file__).with_name("data") / "sweep_512x384_sparse.csv"


def test_sweep_matches_large_sparse_golden_csv():
    """A 512x384 scene with two straight-edged shapes (lambdas 0,8), whose
    reference views and projections warp the whole of a large image; the
    other golden CSVs are 128x96 or smaller."""
    expected = LARGE_SPARSE_SWEEP.read_bytes()
    assert hashlib.sha256(expected).hexdigest().startswith("948089b7e773")
    spec = SceneSpec(width=512, height=384, shapes=2, jitter=0, texture="noise")
    left, right = make_synthetic_scene(2, spec)
    csv = run_sweep(left, right, PipelineConfig(seed=2), (0.0, 8.0), spec.value_scale, timing=False)
    assert csv.encode() == expected


def test_psnr_cap_and_symmetry(rng):
    img = ColorImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    assert psnr(img, img) == 99.0
    other = ColorImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    assert psnr(img, other) == psnr(other, img)


def test_psnr_rejects_images_of_different_sizes():
    with pytest.raises(ValueError, match="identical dimensions"):
        psnr(ColorImage(np.zeros((2, 2, 3), np.uint8)), ColorImage(np.zeros((2, 3, 3), np.uint8)))


def _reference_psnr(a: ColorImage, b: ColorImage) -> float:
    """The float64 mean of the squared errors, as numpy sums it."""
    mse = float(np.mean((a.pixels.astype(np.float64) - b.pixels.astype(np.float64)) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(255.0 ** 2 / mse), PSNR_CAP_DB)


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    shape=st.tuples(st.integers(1, 64), st.integers(1, 64)),
    spread=st.sampled_from([0, 1, 3, 40, 255]),
)
@settings(max_examples=300)
def test_psnr_equals_the_float_mean_of_squared_errors(seed, shape, spread):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, shape + (3,))
    b = np.clip(a + rng.integers(-spread, spread + 1, a.shape), 0, 255)
    a, b = ColorImage(a), ColorImage(b)
    assert psnr(a, b) == _reference_psnr(a, b)


def test_psnr_error_sum_beyond_32_bits():
    # 65025 * 120000 squared errors sum to about 7.8e9 > 2**31
    black, white = ColorImage(np.zeros((200, 200, 3), np.uint8)), ColorImage(np.full((200, 200, 3), 255, np.uint8))
    assert psnr(black, white) == _reference_psnr(black, white) == 0.0


def count_scoring_calls(monkeypatch, fail_first=()):
    """Count ``cli.synthesize_view`` and ``cli.swim_score`` calls; the first
    call of each function named in ``fail_first`` raises."""
    import contourcodec.cli as cli_mod

    calls = {"synthesize_view": 0, "swim_score": 0}
    for name in calls:
        real = getattr(cli_mod, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            if name in fail_first and calls[name] == 1:
                raise RuntimeError("synthetic scoring failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, counted)
    return calls


def readme_sweep(lambdas):
    spec = SceneSpec(width=128, height=96, jitter=2, texture="noise")
    left, right = make_synthetic_scene(2, spec)
    return run_sweep(left, right, PipelineConfig(seed=2), lambdas, spec.value_scale, timing=False).splitlines()


class TestSweepScoresEachPairOnce:
    """On the README scene the lambda-0 pair is the input pair and the
    lambda-8 pair repeats the lambda-2 pair, so only lambda 2 is scored."""

    def test_readme_sweep(self, monkeypatch):
        calls = count_scoring_calls(monkeypatch)
        csv = "\n".join(readme_sweep((0.0, 2.0, 8.0))) + "\n"
        # 3 reference views, then 3 views of the lambda-2 pair
        assert calls == {"synthesize_view": 6, "swim_score": 3}
        assert csv.encode() == README_SWEEP.read_bytes()

    def test_repeated_lambda_gives_identical_rows(self, monkeypatch):
        calls = count_scoring_calls(monkeypatch)
        lines = readme_sweep((2.0, 2.0))
        assert lines[1] == lines[2] == README_SWEEP.read_text().splitlines()[2]
        assert calls == {"synthesize_view": 6, "swim_score": 3}

    def test_failed_approximation_is_not_memoized(self, monkeypatch, capsys):
        import contourcodec.cli as cli_mod

        real = cli_mod.approximate_stereo
        failed = []

        def fails_once(left, right, cfg, **kwargs):
            if not failed:
                failed.append(cfg.lagrange)
                raise RuntimeError("synthetic stage failure")
            return real(left, right, cfg, **kwargs)

        monkeypatch.setattr(cli_mod, "approximate_stereo", fails_once)
        calls = count_scoring_calls(monkeypatch)
        lines = readme_sweep((2.0, 2.0))
        assert "lambda=2 failed" in capsys.readouterr().err
        assert lines[1] == "2,nan,nan,nan,nan,nan,0.000,0.000,0.000,0.000"
        assert lines[2] == README_SWEEP.read_text().splitlines()[2]
        assert calls == {"synthesize_view": 6, "swim_score": 3}

    def test_failed_scoring_is_not_memoized(self, monkeypatch, capsys):
        calls = count_scoring_calls(monkeypatch, fail_first=("swim_score",))
        lines = readme_sweep((2.0, 2.0))
        assert "lambda=2 failed: synthetic scoring failure" in capsys.readouterr().err
        assert lines[1].split(",")[3] == "nan"
        assert lines[2] == README_SWEEP.read_text().splitlines()[2]
        # the failed row stops after its first view; the next row scores all 3
        assert calls == {"synthesize_view": 3 + 1 + 3, "swim_score": 1 + 3}

    def test_input_pair_without_a_whole_block_is_not_scored(self, rng, capsys):
        left = (DepthImage(np.full((8, 12), 40, np.uint8)), ColorImage(rng.integers(0, 256, (8, 12, 3), dtype=np.uint8)))
        lines = run_sweep(left, left, PipelineConfig(), (0.0,), 0.1, timing=False).splitlines()
        assert lines[1].split(",")[3] == "nan"
        assert "smaller than one block" in capsys.readouterr().err


def test_pairs_that_share_the_left_view_are_told_apart_by_the_right(monkeypatch):
    """Each lambda's pair keeps the input left view and inverts three rows of
    the right color view, rows 10k..10k+2 at lambda k: lambda 0 is the input
    pair, and lambdas 1 and 2 are two new pairs, each scored."""
    import contourcodec.cli as cli_mod

    def right_rows_inverted(left, right, cfg, **kwargs):
        color = right[1].pixels.copy()
        if cfg.lagrange:
            rows = slice(10 * int(cfg.lagrange), 10 * int(cfg.lagrange) + 3)
            color[rows] = 255 - color[rows]
        views = (left, (right[0], ColorImage(color)))
        return StereoResult(*(ViewResult(d, c, [], [], [], 0.0) for d, c in views))

    monkeypatch.setattr(cli_mod, "approximate_stereo", right_rows_inverted)
    calls = count_scoring_calls(monkeypatch)
    left, right = make_synthetic_scene(2, SceneSpec(width=64, height=48, shapes=1))
    lines = run_sweep(left, right, PipelineConfig(), (0.0, 1.0, 2.0), 0.1, timing=False).splitlines()
    scores = [line.split(",")[3:6] for line in lines[1:]]
    assert scores[0] == ["0", "1", "99"]
    assert len({tuple(row) for row in scores}) == 3
    assert calls == {"synthesize_view": 3 + 3 + 3, "swim_score": 3 + 3}


def test_sweep_synthesizes_changed_rows_and_scores_changed_strips(monkeypatch):
    """A sparse scene whose lambda-8 pair differs from the input pair in 4 of
    96 rows, in 2 of the 6 block rows: only those rows are synthesized and
    only those block rows scored, and the CSV is the full-frame one."""
    import contourcodec.cli as cli_mod
    import contourcodec.swim as swim_mod

    heights, strips = [], []
    real_synth, real_match = cli_mod.synthesize_view, swim_mod._match_blocks

    def synth(left, right, *args):
        heights.append(left[0].height)
        return real_synth(left, right, *args)

    def match(targets, ref_strip, *args):
        strips.append(ref_strip.shape)
        return real_match(targets, ref_strip, *args)

    monkeypatch.setattr(cli_mod, "synthesize_view", synth)
    monkeypatch.setattr(swim_mod, "_match_blocks", match)
    spec = SceneSpec(width=128, height=96, shapes=2, jitter=0, texture="noise")
    left, right = make_synthetic_scene(3, spec)
    lines = run_sweep(left, right, PipelineConfig(seed=3), (0.0, 8.0), spec.value_scale, timing=False).splitlines()
    assert lines[1:] == [
        "0,592,0,0,1,99,0.000,0.000,0.000,0.000",
        "8,576,0.121136,0.000318287,0.999682,51.1086,0.000,0.000,0.000,0.000",
    ]
    # 3 reference views, then the 4 changed rows of the lambda-8 pair's 3 views
    assert heights == [96, 96, 96, 4, 4, 4]
    assert strips == [(16, 128)] * 6


@st.composite
def self_scored_views(draw):
    """(image, SwimConfig) with the image at least one block a side, sizes
    not a multiple of the block included; flat, palette or noise pixels."""
    block = draw(st.sampled_from([2, 4, 8, 16]))
    cfg = SwimConfig(
        block=block,
        window=draw(st.integers(0, 12)),
        bins=draw(st.integers(1, 12)),
        norm=draw(st.none() | st.floats(1e-3, 1e3)),
    )
    h, w = draw(st.integers(block, 70)), draw(st.integers(block, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["flat", "palette", "noise"]))
    if kind == "flat":
        pix = np.full((h, w, 3), rng.integers(0, 256, 3), np.uint8)
    elif kind == "palette":
        pix = rng.choice(np.array([0, 60, 120], np.uint8), size=(h, w, 3))
    else:
        pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    return ColorImage(pix), cfg


@given(self_scored_views())
@settings(max_examples=80)
def test_view_scored_against_itself_is_exactly_the_seed(view):
    """``run_sweep`` enters the input pair with d = 0 and the PSNR cap
    without scoring its views; this is what scoring them would give."""
    image, cfg = view
    assert swim_score(image, image, cfg) == (0.0, 1.0)
    assert psnr(image, image) == PSNR_CAP_DB
