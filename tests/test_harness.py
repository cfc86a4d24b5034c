"""Harness: configs, seed mixing, experiment artifacts, manifest replay."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import codedgi
from codedgi.decoder import BpOptions
from codedgi.harness import (
    PRESETS,
    ConfigError,
    RunConfig,
    derive_trial_seed,
    load_config,
    parse_config_text,
    parse_distribution,
    read_manifest_config,
    replay,
    run_experiment,
)


def tiny_cfg(**kw):
    base = dict(
        experiment="sweep-ber",
        scene="glyphs",
        width=8,
        height=8,
        sampling=2,
        degree=4,
        snr_db_list=(6.0, 12.0),
        snr_db=12.0,
        trials=2,
        seed=7,
        gray_bits=2,
        multipliers=(1, 2),
    )
    base.update(kw)
    return RunConfig(**base)


class TestSeedDerivation:
    def test_frozen_reference_values(self):
        assert derive_trial_seed(1, 0, 0) == 15325848765164154077
        assert derive_trial_seed(20250810, 3, 2) == 16861639411741576721

    def test_role_asymmetry_scan(self):
        # (s,1,0) != (s,0,1) across a large random sample of masters
        rng = np.random.default_rng(0)
        masters = rng.integers(0, 2**63, size=1_000_000, dtype=np.uint64)
        for s in masters[:200_000]:
            assert derive_trial_seed(int(s), 1, 0) != derive_trial_seed(int(s), 0, 1)

    def test_distinct_across_grid(self):
        seen = {
            derive_trial_seed(99, t, p) for t in range(50) for p in range(50)
        }
        assert len(seen) == 2500


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        parsed = parse_config_text(cfg.to_text())
        assert parsed == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nseed = 5 # trailing\nwidth = 16\nheight=16\n")
        assert cfg.seed == 5 and cfg.width == 16

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("wat = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("trials = soon\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some text\n")

    def test_tuple_and_bool_coercion(self):
        cfg = parse_config_text("snr_db_list = 0, 2.5, 5\ncsi_known = true\nmultipliers = 1,2,4\n")
        assert cfg.snr_db_list == (0.0, 2.5, 5.0)
        assert cfg.csi_known is True
        assert cfg.multipliers == (1, 2, 4)
        for word, value in (("YES", True), ("On", True), ("1", True),
                            ("No", False), ("OFF", False), ("0", False), ("false", False)):
            assert parse_config_text(f"baseline_on_coded = {word}\n").baseline_on_coded is value

    def test_integer_lists_reject_fractions(self):
        with pytest.raises(ConfigError, match="multipliers"):
            parse_config_text("multipliers = 1.5,2.7\n")
        # old manifests wrote integral floats in exponent form
        assert parse_config_text("multipliers = 1e+06,2.0\n").multipliers == (1000000, 2)

    @pytest.mark.parametrize("text", ["maybe", "ture", "2", ""])
    def test_bool_accepts_only_known_words(self, text):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text(f"csi_known = {text}\n")

    @pytest.mark.parametrize(
        "text", ["snr_db_list = \n", "multipliers = \n", "multipliers = 0\n", "multipliers = 1,0,2\n"]
    )
    def test_empty_sweep_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_non_finite_snr_rejected(self):
        for text in ("snr_db_list = 0,nan\n", "snr_db_list = inf\n", "snr_db = nan\n",
                     "snr_db = -inf\n", "snr_db = 4000\n", "es = nan\n", "es = inf\n"):
            with pytest.raises(ConfigError):
                parse_config_text(text)

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment = teleport\n")
        with pytest.raises(ConfigError):
            parse_config_text("trials = 0\n")
        with pytest.raises(ConfigError):
            parse_config_text("decoder_mode = teleport\n")
        with pytest.raises(ConfigError):
            parse_config_text("degree = 300\nwidth = 8\nheight = 8\n")

    def test_sweep_ber_needs_parity_symbols(self, tmp_path):
        # the sweep's bound needs N = sampling * K > K; fail before any trial runs
        out = tmp_path / "s1"
        with pytest.raises(ConfigError, match="sampling"):
            run_experiment(tiny_cfg(sampling=1, out=str(out)))
        assert not out.exists()
        for experiment in ("sweep-sampling", "compare", "grayscale"):
            tiny_cfg(experiment=experiment, sampling=1).validate()

    def test_nan_weight_fails_before_run_dir(self, tmp_path):
        out = tmp_path / "nan"
        with pytest.raises(ConfigError, match="weights"):
            run_experiment(tiny_cfg(dist="2:nan,3:1", out=str(out)))
        assert not out.exists()

    def test_distribution_parsing(self):
        dist = parse_distribution("2:0.5,4:0.5")
        assert dist.terms == ((2, 0.5), (4, 0.5))
        assert parse_distribution("8").terms == ((8, 1.0),)
        with pytest.raises(ConfigError):
            parse_distribution("2:0.7,4:0.7")

    @pytest.mark.parametrize("text", ["2:0.5:1", "8.0", "2:0.5,x:0.5", "2:"])
    def test_malformed_distribution_names_the_text(self, text):
        message = f"bad degree distribution {text!r}"
        with pytest.raises(ConfigError, match=message):
            parse_distribution(text)
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"dist = {text}\n")

    def test_decoder_settings_default_to_bp_options(self):
        assert RunConfig().bp_options() == BpOptions()
        opts = BpOptions(max_iters=7, stall_window=2, prior=0.2, damping=0.3)
        cfg = replace(RunConfig(), max_iters=7, stall_window=2, prior=0.2, damping=0.3)
        assert cfg.bp_options() == opts

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\ntrials = 3\n")
        cfg = load_config(path)
        assert cfg.seed == 11 and cfg.trials == 3

    def test_preset_values(self):
        cfg = replace(RunConfig(), **PRESETS["paper-v"])
        cfg.validate()
        assert cfg.k_pixels == 1024
        assert cfg.degree == 128
        assert cfg.sampling * cfg.k_pixels == 2048
        assert cfg.trials == 10


class TestBerSweep:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = tiny_cfg(out=str(tmp_path / "run"))
        run_dir = run_experiment(cfg)
        csv = Path(run_dir, "ber_sweep.csv").read_text().splitlines()
        assert csv[0] == "# schema: codedgi.ber-sweep.v1"
        assert csv[1] == "snr_db,ber_mean,ber_stderr,bound,trials"
        assert len(csv) == 2 + 2  # one row per SNR point
        for line in csv[2:]:
            parts = line.split(",")
            assert len(parts) == 5 and parts[4] == "2"
        diag = Path(run_dir, "decode_diagnostics.csv").read_text().splitlines()
        assert diag[1] == "point,trial,iterations_run,converged,residual,unpinned_pixel_count"
        assert len(diag) == 2 + 4
        assert os.path.exists(os.path.join(run_dir, "manifest.txt"))

    def test_threads_do_not_change_bytes(self, tmp_path):
        for experiment in ("sweep-ber", "sweep-sampling", "compare", "grayscale"):
            scene = "radial" if experiment == "grayscale" else "glyphs"
            cfg1 = tiny_cfg(experiment=experiment, scene=scene, out=str(tmp_path / "a"), threads=1)
            cfg2 = replace(cfg1, out=str(tmp_path / "b"), threads=2)
            d1, d2 = run_experiment(cfg1), run_experiment(cfg2)
            assert _tree_bytes(d1) == _tree_bytes(d2), experiment

    def test_bound_column_matches_bound_module_exactly(self, tmp_path):
        from codedgi import BoundParams, ChannelParams, DegreeDistribution, ber_lower_bound
        from codedgi.bound import bound_sweep

        # at 5.0 and 8.5 dB, es / (es / gamma) rounds away from gamma, so a
        # bound with an SNR path of its own differs in the last digit there
        cfg = tiny_cfg(out=str(tmp_path / "bc"), snr_db_list=(5.0, 6.0, 8.5, 12.0))
        run_dir = run_experiment(cfg)
        lines = Path(run_dir, "ber_sweep.csv").read_text().splitlines()
        dist = DegreeDistribution.regular(4)
        rows = bound_sweep(64, 128, dist, cfg.snr_db_list)
        assert len(lines[2:]) == len(rows) == 4
        for line, snr_db, row in zip(lines[2:], cfg.snr_db_list, rows):
            expect = ber_lower_bound(
                BoundParams(
                    k_info=64, n_total=128, dist=dist,
                    es=1.0, n0=ChannelParams.at_snr_db(snr_db).n0,
                )
            )
            assert line.split(",")[3] == repr(row["p_b"]) == repr(expect)

    def test_default_trials_per_point(self):
        assert RunConfig().trials == 10

    def test_gf2_mode_runs(self, tmp_path):
        cfg = tiny_cfg(out=str(tmp_path / "g"), decoder_mode="gf2")
        run_dir = run_experiment(cfg)
        assert os.path.exists(os.path.join(run_dir, "ber_sweep.csv"))

    def test_grayscale_scene_rejected_for_ber(self, tmp_path):
        cfg = tiny_cfg(scene="radial", out=str(tmp_path / "r"))
        with pytest.raises(ValueError, match="binary"):
            run_experiment(cfg)


class TestOtherExperiments:
    def test_sampling_sweep_artifacts(self, tmp_path):
        cfg = tiny_cfg(
            experiment="sweep-sampling", out=str(tmp_path / "s"), multipliers=(1, 2)
        )
        run_dir = run_experiment(cfg)
        lines = Path(run_dir, "sampling_sweep.csv").read_text().splitlines()
        assert lines[0] == "# schema: codedgi.sampling-sweep.v1"
        assert len(lines) == 2 + 2
        for m in (1, 2):
            assert os.path.exists(os.path.join(run_dir, f"ldpc_snr12_s{m}_t0.pgm"))

    def test_compare_artifacts(self, tmp_path):
        cfg = tiny_cfg(experiment="compare", out=str(tmp_path / "c"), snr_db=10.0)
        run_dir = run_experiment(cfg)
        lines = Path(run_dir, "compare.csv").read_text().splitlines()
        assert lines[1] == "method,trial,ber,psnr"
        assert len(lines) == 2 + 4 * cfg.trials  # one row per (method, trial)
        for method in ("ldpc", "cgi", "dgi", "pinv"):
            assert os.path.exists(os.path.join(run_dir, f"{method}_snr10_s2_t0.pgm"))

    def test_grayscale_artifacts(self, tmp_path):
        cfg = tiny_cfg(
            experiment="grayscale", scene="radial", out=str(tmp_path / "g"),
            snr_db=14.0, gray_bits=2,
        )
        run_dir = run_experiment(cfg)
        lines = Path(run_dir, "grayscale.csv").read_text().splitlines()
        assert lines[1] == "frames,mae"
        assert [l.split(",")[0] for l in lines[2:]] == ["1", "2", "4"]
        assert os.path.exists(os.path.join(run_dir, "gray_stack_snr14_n4.pgm"))
        assert os.path.exists(os.path.join(run_dir, "gray_truth.pgm"))

    def test_grayscale_all_zero_scene_stays_zero(self, tmp_path):
        cfg = tiny_cfg(
            experiment="grayscale", scene="allzero", out=str(tmp_path / "z"),
            snr_db=18.0, gray_bits=2,
        )
        run_dir = run_experiment(cfg)
        from codedgi.pgmio import read_pgm

        _, _, stacked = read_pgm(os.path.join(run_dir, "gray_stack_snr18_n4.pgm"))
        assert not stacked.any()


def _tree_bytes(run_dir, skip=("manifest.txt",)):
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if name in skip:
            continue
        out[name] = Path(run_dir, name).read_bytes()
    return out


class TestMapJobs:
    @pytest.mark.parametrize(
        "threads, n_jobs, workers",
        [(64, 2, [2]), (64, 1, []), (3, 10, [3]), (2, 0, []), (1, 5, [])],
    )
    def test_no_more_workers_than_jobs(self, monkeypatch, threads, n_jobs, workers):
        from codedgi import harness

        created = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        jobs = list(range(n_jobs))
        assert harness._map_jobs(jobs, lambda j: 10 * j, threads) == [10 * j for j in jobs]
        assert created == workers


class TestManifestReplay:
    def test_manifest_config_round_trip(self, tmp_path):
        cfg = tiny_cfg(out=str(tmp_path / "m"))
        run_dir = run_experiment(cfg)
        parsed = read_manifest_config(os.path.join(run_dir, "manifest.txt"))
        assert parsed == cfg

    def test_replay_reproduces_bytes(self, tmp_path):
        cfg = tiny_cfg(experiment="compare", out=str(tmp_path / "first"), snr_db=10.0)
        first = run_experiment(cfg)
        second = replay(os.path.join(first, "manifest.txt"), str(tmp_path / "second"))
        assert _tree_bytes(first) == _tree_bytes(second)

    def test_replay_keeps_full_snr_precision(self, tmp_path):
        cfg = tiny_cfg(out=str(tmp_path / "first"), snr_db_list=(3.14159265,), trials=1)
        first = run_experiment(cfg)
        manifest = os.path.join(first, "manifest.txt")
        assert read_manifest_config(manifest) == cfg
        second = replay(manifest, str(tmp_path / "second"))
        assert _tree_bytes(first) == _tree_bytes(second)

    def test_rng_wiring_frozen(self, tmp_path):
        """Per-trial outcomes frozen from a known-good build.

        Replay and thread checks compare a run with itself, so they stay
        green when a refactor swaps a substream or the point and trial
        arguments of the seed derivation; these values do not. The decoder
        settings are pinned, so a change of their defaults leaves this test
        freezing the same wiring.
        """
        expect = {
            "sum-constraint": (
                [("8", "1"), ("50", "0"), ("5", "1"), ("14", "1")],
                ["0.2265625", "0.1171875"],
            ),
            "gf2": (
                [("50", "0"), ("5", "1"), ("4", "1"), ("5", "1")],
                ["0.1875", "0.0"],
            ),
        }
        for mode, (diag_cols, ber_means) in expect.items():
            run_dir = run_experiment(
                tiny_cfg(out=str(tmp_path / mode), decoder_mode=mode, damping=0.0, prior=0.5)
            )
            diag = Path(run_dir, "decode_diagnostics.csv").read_text().splitlines()
            assert [tuple(l.split(",")[2:4]) for l in diag[2:]] == diag_cols, mode
            sweep = Path(run_dir, "ber_sweep.csv").read_text().splitlines()
            assert [l.split(",")[1] for l in sweep[2:]] == ber_means, mode
        run_dir = run_experiment(
            tiny_cfg(
                experiment="compare", out=str(tmp_path / "c"), snr_db=10.0, damping=0.0, prior=0.5
            )
        )
        lines = Path(run_dir, "compare.csv").read_text().splitlines()
        assert [l.split(",")[2] for l in lines[2:]] == [
            "0.203125", "0.21875", "0.25", "0.328125",
            "0.234375", "0.265625", "0.296875", "0.34375",
        ]

    def test_manifest_lists_all_seeds(self, tmp_path):
        cfg = tiny_cfg(out=str(tmp_path / "m2"))
        run_dir = run_experiment(cfg)
        text = Path(run_dir, "manifest.txt").read_text()
        for p in range(2):
            for t in range(2):
                assert f"point{p}_trial{t} = {derive_trial_seed(7, t, p)}" in text


_SCIPY_PROBE = """
import json, sys, tempfile
from dataclasses import replace

import codedgi, codedgi.harness, codedgi.cli
from codedgi.harness import RunConfig, run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"linalg_after_import": "scipy.linalg" in sys.modules, "after_import": scipy_modules()}
with tempfile.TemporaryDirectory() as tmp:
    base = RunConfig(width=8, height=8, degree=4, trials=1, snr_db_list=(10.0,),
                     multipliers=(2,), gray_bits=1, seed=3, out=tmp)
    for experiment in ("sweep-ber", "sweep-sampling", "grayscale"):
        for mode in ("sum-constraint", "gf2"):
            run_experiment(replace(base, experiment=experiment, decoder_mode=mode))
    codedgi.cli.main(["bound", "--k", "64", "--n", "128", "--snr-db", "0", "10",
                      "--out", tmp + "/bound.csv"])
    report["after_runs"] = scipy_modules()
    run_experiment(replace(base, experiment="compare"))
report["after_compare"] = scipy_modules()
print(json.dumps(report))
"""


def test_import_leaves_scipy_linalg_unloaded():
    # importing scipy costs about 0.25 s cold; only the pseudo-inverse uses it
    # (scipy.linalg, loaded lazily), so importing the package, the harness and
    # the CLI, running every other experiment and the bound command must load
    # no scipy module at all
    src = str(Path(codedgi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True, text=True,
        check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["linalg_after_import"] is False
    assert report["after_import"] == []
    assert report["after_runs"] == []
    assert "scipy.linalg" in report["after_compare"]
    assert "scipy.special" not in report["after_compare"]
