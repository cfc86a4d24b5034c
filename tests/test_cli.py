"""CLI subcommands and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codedgi
import codedgi.cli
from codedgi.cli import main
from codedgi.decoder import BpOptions
from codedgi.harness import PRESETS, RunConfig
from codedgi.pgmio import read_pgm, write_pgm
from codedgi import builtin_scene


@pytest.fixture
def glyph_pgm(tmp_path):
    scene = builtin_scene("glyphs", 8, 8)
    path = tmp_path / "scene.pgm"
    write_pgm(path, 8, 8, scene.reflectance)
    return str(path)


def test_full_pipeline(tmp_path, glyph_pgm, capsys):
    code = str(tmp_path / "code.txt")
    meas = str(tmp_path / "meas.csv")
    out = str(tmp_path / "decoded.pgm")
    assert main(["gen-code", "--k", "64", "--n", "128", "--dist", "4", "--seed", "3",
                 "--out", code]) == 0
    assert main(["sense", "--code", code, "--scene", glyph_pgm, "--snr-db", "25",
                 "--fading", "none", "--seed", "5", "--out", meas]) == 0
    assert main(["decode", "--code", code, "--meas", meas, "--width", "8",
                 "--height", "8", "--out", out]) == 0
    _, _, decoded = read_pgm(out)
    truth = builtin_scene("glyphs", 8, 8).reflectance
    assert np.array_equal(decoded, truth)


def test_encode_command(tmp_path, glyph_pgm):
    code = str(tmp_path / "code.txt")
    out = str(tmp_path / "bits.txt")
    assert main(["gen-code", "--k", "64", "--n", "96", "--dist", "2", "--out", code]) == 0
    assert main(["encode", "--code", code, "--scene", glyph_pgm, "--out", out]) == 0
    bits = Path(out).read_text().strip()
    assert len(bits) == 96 and set(bits) <= {"0", "1"}


def test_bound_command(tmp_path, capsys):
    out = str(tmp_path / "bound.csv")
    assert main(["bound", "--k", "64", "--n", "128", "--dist", "8",
                 "--snr-db", "0", "10", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[1] == "snr_db,gamma,p_ray,p_e,p_b"
    assert len(lines) == 4


def test_bound_command_without_out_writes_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bound", "--k", "64", "--n", "128", "--snr-db", "0", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# schema: codedgi.bound-sweep.v1", "snr_db,gamma,p_ray,p_e,p_b"]
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "10"]
    assert not list(tmp_path.iterdir())


def test_scene_command(tmp_path):
    out = str(tmp_path / "radial.pgm")
    assert main(["scene", "--name", "radial", "--width", "16", "--height", "16",
                 "--out", out]) == 0
    w, h, _ = read_pgm(out)
    assert (w, h) == (16, 16)


def test_sweep_with_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "width = 8\nheight = 8\ndegree = 4\nsnr_db_list = 6,12\ntrials = 2\nseed = 1\n"
    )
    out = str(tmp_path / "out")
    assert main(["sweep-ber", "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "sweep-ber", "ber_sweep.csv"))


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("definitely_not_a_key = 1\n")
    assert main(["sweep-ber", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_preset_exit_code(capsys):
    assert main(["sweep-ber", "--preset", "nope"]) == 2


def test_preset_and_overrides_reach_the_run(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(codedgi.cli, "run_experiment", lambda cfg: runs.append(cfg) or "run")
    assert main(["compare", "--preset", "paper-v", "--seed", "99", "--threads", "2"]) == 0
    (cfg,) = runs
    for key, value in PRESETS["paper-v"].items():
        assert getattr(cfg, key) == value
    assert (cfg.experiment, cfg.seed, cfg.threads) == ("compare", 99, 2)
    assert cfg.out == RunConfig().out
    assert capsys.readouterr().out == "run complete: run\n"


def test_out_of_range_scene_pixel_exit_code(tmp_path, capsys):
    code = str(tmp_path / "code.txt")
    scene = tmp_path / "bad.pgm"
    scene.write_text("P2\n2 2\n255\n0 255\n-1 7\n")
    assert main(["gen-code", "--k", "4", "--n", "8", "--dist", "2", "--out", code]) == 0
    assert main(["sense", "--code", code, "--scene", str(scene),
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path, capsys):
    assert main(["sense", "--code", str(tmp_path / "missing.txt"),
                 "--scene", str(tmp_path / "missing.pgm"), "--out", "x.csv"]) == 3
    assert "io error" in capsys.readouterr().err


def test_invalid_cli_value_exit_code(tmp_path, capsys):
    # degree larger than K is a config error, exit 2
    assert main(["gen-code", "--k", "4", "--n", "8", "--dist", "9",
                 "--out", str(tmp_path / "c.txt")]) == 2


@pytest.mark.parametrize("dist", ["2:0.5:1", "8.0"])
def test_malformed_dist_exit_code(tmp_path, capsys, dist):
    out = tmp_path / "c.txt"
    assert main(["gen-code", "--k", "4", "--n", "8", "--dist", dist, "--out", str(out)]) == 2
    assert f"bad degree distribution {dist!r}" in capsys.readouterr().err
    assert not out.exists()


def test_nan_weight_exit_code(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert main(["gen-code", "--k", "4", "--n", "8", "--dist", "2:nan,3:1", "--out", str(out)]) == 2
    assert "weights must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_snr_exit_code(tmp_path, glyph_pgm, capsys):
    code = str(tmp_path / "code.txt")
    assert main(["gen-code", "--k", "64", "--n", "128", "--dist", "4", "--out", code]) == 0
    assert main(["sense", "--code", code, "--scene", glyph_pgm, "--snr-db", "nan",
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert main(["bound", "--k", "64", "--n", "128", "--snr-db", "nan"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, line", [("sweep-sampling", "multipliers = 0"), ("sweep-ber", "snr_db_list =")]
)
def test_empty_sweep_exits_before_run_dir(tmp_path, capsys, experiment, line):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"width = 8\nheight = 8\ndegree = 4\n{line}\n")
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_ber_at_unit_sampling_exits_before_run_dir(tmp_path, capsys):
    cfg = tmp_path / "s1.cfg"
    cfg.write_text("width = 8\nheight = 8\ndegree = 4\ntrials = 2\nsampling = 1\n")
    out = tmp_path / "out"
    assert main(["sweep-ber", "--config", str(cfg), "--out", str(out)]) == 2
    assert "sampling" in capsys.readouterr().err
    assert not out.exists()


def test_out_with_line_break_exits_before_run_dir(tmp_path, capsys):
    # the manifest holds `out` on one line, so a line break would end it there
    cfg = tmp_path / "c.cfg"
    cfg.write_text("width = 8\nheight = 8\ndegree = 4\ntrials = 1\n")
    out = tmp_path / "a\nb"
    assert main(["sweep-ber", "--config", str(cfg), "--out", str(out)]) == 2
    assert "would not read back from the manifest" in capsys.readouterr().err
    assert not out.exists()


def test_gf2_grayscale_exits_before_run_dir(tmp_path, capsys):
    # gf2 decodes the rounded scene: its frames could never stack to the gray one
    cfg = tmp_path / "gray.cfg"
    cfg.write_text("scene = radial\nwidth = 8\nheight = 8\ndegree = 4\ngray_bits = 2\ndecoder_mode = gf2\n")
    out = tmp_path / "out"
    assert main(["grayscale", "--config", str(cfg), "--out", str(out)]) == 2
    assert "grayscale needs decoder_mode = sum-constraint" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_config_key_exits_before_run_dir(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("width = 8\nheight = 8\ndegree = 4\ntrials = 1\nwidth = 12\n")
    out = tmp_path / "out"
    assert main(["sweep-ber", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 5: config key 'width' repeats line 1" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_integer_list_exit_code(tmp_path, capsys):
    cfg = tmp_path / "frac.cfg"
    cfg.write_text("width = 8\nheight = 8\ndegree = 4\ntrials = 1\nmultipliers = 1.5,2.7\n")
    out = tmp_path / "out"
    assert main(["sweep-sampling", "--config", str(cfg), "--out", str(out)]) == 2
    assert "multipliers" in capsys.readouterr().err
    assert not out.exists()


def test_compare_on_full_duty_speckle(tmp_path):
    # every pattern lights every pixel: pinv's image is constant up to rounding
    cfg = tmp_path / "full.cfg"
    cfg.write_text("width = 16\nheight = 16\ntrials = 1\nspeckle_duty = 1\n")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "compare" / "pinv_snr10_s2_t0.pgm").exists()


def test_measurement_csv_without_header_exit_code(tmp_path, capsys):
    code = str(tmp_path / "code.txt")
    meas = tmp_path / "meas.csv"
    assert main(["gen-code", "--k", "4", "--n", "8", "--dist", "2", "--out", code]) == 0
    meas.write_text("index,bucket,fading_mag\n" + "".join(f"{i},0.5,1.0\n" for i in range(8)))
    assert main(["decode", "--code", code, "--meas", str(meas), "--width", "2",
                 "--height", "2", "--out", str(tmp_path / "d.pgm")]) == 2
    assert "'# es = ...'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["2", "-1", "yes"])
def test_measurement_csv_bad_csi_flag_exit_code(tmp_path, glyph_pgm, capsys, flag):
    args = _decode_args(tmp_path, glyph_pgm, "--out", str(tmp_path / "d.pgm"))
    meas = tmp_path / "meas.csv"
    meas.write_text(meas.read_text().replace("# csi_known = 1", f"# csi_known = {flag}"))
    assert main(args) == 2
    assert f"csi_known must be 0 or 1, got '{flag}'" in capsys.readouterr().err
    assert not (tmp_path / "d.pgm").exists()


def test_measurement_csv_rows_out_of_order_exit_code(tmp_path, glyph_pgm, capsys):
    args = _decode_args(tmp_path, glyph_pgm, "--out", str(tmp_path / "d.pgm"))
    meas = tmp_path / "meas.csv"
    lines = meas.read_text().splitlines(keepends=True)
    lines[6], lines[7] = lines[7], lines[6]  # the rows of shots 0 and 1
    meas.write_text("".join(lines))
    assert main(args) == 2
    assert "line 7: index '1', expected 0" in capsys.readouterr().err
    assert not (tmp_path / "d.pgm").exists()


def test_generator_with_n_below_k_exit_code(tmp_path, capsys):
    code = tmp_path / "code.txt"
    code.write_text("3 2 -1 0\n")
    scene = tmp_path / "scene.pgm"
    write_pgm(scene, 3, 1, np.array([1.0, 0.0, 1.0]))
    for command in ("sense", "encode"):
        assert main([command, "--code", str(code), "--scene", str(scene),
                     "--out", str(tmp_path / "out.txt")]) == 2
        assert "1 <= K <= N" in capsys.readouterr().err


def test_generator_with_lines_past_its_columns_exit_code(tmp_path, capsys):
    # the header announces 4 parity columns; a fifth line must not be dropped
    code = tmp_path / "code.txt"
    code.write_text("8 12 4 1\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n")
    scene = tmp_path / "scene.pgm"
    write_pgm(scene, 8, 1, np.array([1.0, 0.0] * 4))
    for command in ("sense", "encode"):
        assert main([command, "--code", str(code), "--scene", str(scene),
                     "--out", str(tmp_path / "out.txt")]) == 2
        assert "line 6: text after the last parity column" in capsys.readouterr().err


def _decode_args(tmp_path, glyph_pgm, *extra):
    code = str(tmp_path / "code.txt")
    meas = str(tmp_path / "meas.csv")
    assert main(["gen-code", "--k", "64", "--n", "128", "--dist", "4", "--seed", "3",
                 "--out", code]) == 0
    assert main(["sense", "--code", code, "--scene", glyph_pgm, "--snr-db", "4",
                 "--seed", "5", "--out", meas]) == 0
    return ["decode", "--code", code, "--meas", meas, "--width", "8", "--height", "8",
            *extra]


def test_decode_default_flags_keep_bytes(tmp_path, glyph_pgm, capsys):
    args = _decode_args(tmp_path, glyph_pgm)
    omitted, explicit = tmp_path / "omitted.pgm", tmp_path / "explicit.pgm"
    assert main([*args, "--out", str(omitted)]) == 0
    assert main([*args, "--damping", "0.3", "--prior", "auto", "--out", str(explicit)]) == 0
    assert omitted.read_bytes() == explicit.read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split("(")[1] == lines[-1].split("(")[1]


def test_decode_reports_iterations_and_convergence(tmp_path, glyph_pgm, capsys, monkeypatch):
    real = codedgi.cli.decode_sum_bp
    results = []
    monkeypatch.setattr(codedgi.cli, "decode_sum_bp", lambda *a: results.append(real(*a)) or results[-1])
    assert main([*_decode_args(tmp_path, glyph_pgm), "--out", str(tmp_path / "d.pgm")]) == 0
    report = capsys.readouterr().out.splitlines()[-1]
    d = results[0].diagnostics
    assert f"(iterations={d.iterations_run} converged={d.converged} " in report
    # sum BP has no cycle stop, so there is no cycle period to report
    assert "cycle_period" not in report


def _spy_on_decode(monkeypatch) -> list:
    """Record the BpOptions every decode_sum_bp call of the CLI receives."""
    seen = []
    real = codedgi.cli.decode_sum_bp

    def spy(meas, ens, options):
        seen.append(options)
        return real(meas, ens, options)

    monkeypatch.setattr(codedgi.cli, "decode_sum_bp", spy)
    return seen


def test_decode_flags_reach_bp_options(tmp_path, glyph_pgm, monkeypatch):
    args = _decode_args(tmp_path, glyph_pgm, "--damping", "0.3", "--prior", "0.2")
    seen = _spy_on_decode(monkeypatch)
    assert main([*args, "--out", str(tmp_path / "d.pgm")]) == 0
    assert (seen[0].damping, seen[0].prior) == (0.3, 0.2)
    args = _decode_args(tmp_path, glyph_pgm, "--damping", "0", "--prior", "auto")
    assert main([*args, "--out", str(tmp_path / "d.pgm")]) == 0
    assert (seen[1].damping, seen[1].prior) == (0.0, "auto")


@pytest.mark.parametrize("prior", ["0", "nan"])
def test_decode_rejects_a_prior_outside_the_open_interval(tmp_path, glyph_pgm, prior, capsys):
    args = _decode_args(tmp_path, glyph_pgm, "--prior", prior)
    assert main([*args, "--out", str(tmp_path / "d.pgm")]) == 2
    assert "prior must lie in (0, 1) or be 'auto'" in capsys.readouterr().err


def test_decode_rejects_prior_text_other_than_auto(tmp_path, glyph_pgm, capsys):
    args = _decode_args(tmp_path, glyph_pgm, "--prior", "automatic")
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "d.pgm")])
    assert exc.value.code == 2
    assert "--prior" in capsys.readouterr().err


def test_decode_defaults_are_bp_options(tmp_path, glyph_pgm, monkeypatch):
    seen = _spy_on_decode(monkeypatch)
    assert main([*_decode_args(tmp_path, glyph_pgm), "--out", str(tmp_path / "d.pgm")]) == 0
    assert seen == [BpOptions()]


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--damping", "1"), "damping must lie in [0, 1)"),
        (("--damping", "-0.1"), "damping must lie in [0, 1)"),
        (("--prior", "0"), "prior must lie in (0, 1)"),
        (("--prior", "1.5"), "prior must lie in (0, 1)"),
    ],
)
def test_decode_flags_out_of_range_exit_code(tmp_path, glyph_pgm, capsys, flags, message):
    args = _decode_args(tmp_path, glyph_pgm, *flags)
    out = tmp_path / "d.pgm"
    assert main([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_decode_checks_shape_before_decoding(tmp_path, glyph_pgm, capsys, monkeypatch):
    args = _decode_args(tmp_path, glyph_pgm)
    args[args.index("--width") + 1] = args[args.index("--height") + 1] = "4"

    def no_decode(*_):
        raise AssertionError("decode ran before the shape check")

    monkeypatch.setattr(codedgi.cli, "decode_sum_bp", no_decode)
    out = tmp_path / "d.pgm"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--width" in err and "--height" in err and "K = 64" in err
    assert not out.exists()


@pytest.mark.parametrize("column", [1, 2], ids=["bucket", "fading_mag"])
def test_decode_rejects_nan_in_measurement(tmp_path, glyph_pgm, capsys, monkeypatch, column):
    args = _decode_args(tmp_path, glyph_pgm)
    meas = Path(args[args.index("--meas") + 1])
    lines = meas.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    fields = lines[row].split(",")
    fields[column] = "nan"
    lines[row] = ",".join(fields)
    meas.write_text("\n".join(lines) + "\n")

    def no_decode(*_):
        raise AssertionError("a NaN measurement reached the decoder")

    monkeypatch.setattr(codedgi.cli, "decode_sum_bp", no_decode)
    out = tmp_path / "d.pgm"
    assert main([*args, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def _python_dash_m(*args):
    """`python -m codedgi ARGS` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(codedgi.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "codedgi", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = _python_dash_m("bound", "--k", "64", "--n", "128", "--snr-db", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "# schema: codedgi.bound-sweep.v1"


def test_python_dash_m_prints_the_version():
    proc = _python_dash_m("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "codedgi 0.1.0\n"
