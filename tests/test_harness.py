"""Harness: configs, seed mixing, experiment artifacts, manifest replay."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import codedgi
from codedgi import harness
from codedgi.decoder import BpOptions
from codedgi.harness import (
    DECODER_MODES,
    EXPERIMENTS,
    PRESETS,
    ConfigError,
    RunConfig,
    derive_trial_seed,
    load_config,
    load_scene,
    parse_config_text,
    parse_distribution,
    read_manifest_config,
    read_scene,
    replay,
    run_experiment,
    write_manifest,
)
from codedgi.pgmio import read_pgm, write_pgm


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

    def test_prior_is_a_probability_or_auto(self):
        # a manifest written before the default became "auto" keeps its number
        assert RunConfig().prior == BpOptions().prior == "auto"
        assert parse_config_text("prior = 0.25\n").prior == 0.25
        pinned = parse_config_text("prior = 0.16\n")
        assert parse_config_text("prior = auto\n", base=pinned).prior == "auto"
        assert parse_config_text(pinned.to_text()) == pinned
        for bad, match in (("automatic", "bad value"), ("1.5", "prior must lie in")):
            with pytest.raises(ConfigError, match=match):
                parse_config_text(f"prior = {bad}\n")

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nseed = 5 # trailing\nwidth = 16\nheight=16\n")
        assert cfg.seed == 5 and cfg.width == 16

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("wat = 1\n")

    def test_repeated_key_rejected(self):
        # the last value used to win silently
        with pytest.raises(ConfigError, match="line 3: config key 'width' repeats line 1"):
            parse_config_text("width = 8\nheight = 8\nwidth = 12\n")
        with pytest.raises(ConfigError, match="line 4: config key 'seed' repeats line 2"):
            parse_config_text("# c\nseed = 1\n\nseed = 1 # the same value\n")

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("width", 0, "plane dimensions must be positive"),
            ("height", -2, "plane dimensions must be positive"),
            ("sampling", 0, "sampling multiplier must be >= 1"),
            ("threads", 0, "threads must be >= 1"),
            ("speckle_duty", 0.0, r"speckle_duty must lie in \(0, 1\]"),
            ("speckle_duty", 1.5, r"speckle_duty must lie in \(0, 1\]"),
            ("gray_bits", 0, "gray_bits must be >= 1"),
        ],
    )
    def test_validate_ranges(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            tiny_cfg(**{field: value}).validate()

    def test_unknown_scene_rejected(self):
        with pytest.raises(ConfigError, match="scene 'teapot' is neither builtin"):
            load_scene(tiny_cfg(scene="teapot"))

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

    @pytest.mark.parametrize("mode", DECODER_MODES)
    def test_threads_do_not_change_bytes(self, tmp_path, mode):
        for experiment in EXPERIMENTS:
            if (mode, experiment) == ("gf2", "grayscale"):
                continue  # a config error: see test_cli's gf2 grayscale test
            scene = "radial" if experiment == "grayscale" else "glyphs"
            cfg1 = tiny_cfg(
                experiment=experiment, scene=scene, decoder_mode=mode,
                out=str(tmp_path / "a"), threads=1,
            )
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

    def test_pgm_scene_is_read_then_size_checked(self, tmp_path):
        path = tmp_path / "scene.pgm"
        glyphs = codedgi.builtin_scene("glyphs", 8, 8)
        write_pgm(path, 8, 8, glyphs.reflectance)
        scene = load_scene(tiny_cfg(scene=str(path)))
        assert (scene.width, scene.height) == (8, 8)
        assert np.array_equal(scene.reflectance, read_scene(path).reflectance)
        assert np.array_equal(scene.reflectance, glyphs.reflectance)
        with pytest.raises(ConfigError, match="scene file is 8x8, config says 4x16"):
            load_scene(tiny_cfg(scene=str(path), width=4, height=16))

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

    @pytest.mark.parametrize("mode", DECODER_MODES)
    def test_compare_baselines_on_the_coded_patterns(self, tmp_path, monkeypatch, mode):
        # with baseline_on_coded = 1 the baselines see the K singleton rows,
        # then the parity columns of the trial's own generator, in every mode
        codes, seen = [], []
        build = harness.build_generator
        monkeypatch.setattr(harness, "build_generator", lambda spec: codes.append(build(spec)) or codes[-1])
        cgi = harness.cgi_reconstruct
        monkeypatch.setattr(harness, "cgi_reconstruct", lambda ens, m: seen.append(ens) or cgi(ens, m))
        cfg = tiny_cfg(
            experiment="compare", decoder_mode=mode, baseline_on_coded=True, out=str(tmp_path / "a")
        )
        d1 = run_experiment(cfg)
        assert len(seen) == len(codes) == cfg.trials
        for g, ens in zip(codes, seen):
            cols = g.parity_columns
            assert ens.k_pixels == g.k_info
            assert np.array_equal(ens.patterns.flat, np.concatenate([np.arange(g.k_info), cols.flat]))
            assert np.array_equal(ens.patterns.sizes, np.concatenate([np.ones(g.k_info), cols.sizes]))
        d2 = run_experiment(replace(cfg, out=str(tmp_path / "b"), threads=2))
        assert _tree_bytes(d1) == _tree_bytes(d2)

    @pytest.mark.parametrize("experiment", ["compare", "sweep-sampling"])
    @pytest.mark.parametrize("white", [False, True])
    def test_constant_decodes_are_scored_and_drawn_as_decoded(self, tmp_path, experiment, white):
        # at -20 dB the prior decides every pixel: 0.999 lights all of the
        # glyphs, 0.001 darkens all of an all-white scene. Neither the decode
        # nor the truth may be min-max mapped, which draws a constant as black
        scene = "glyphs"
        if white:
            scene = str(tmp_path / "white.pgm")
            write_pgm(scene, 16, 16, np.ones(256))
        cfg = tiny_cfg(
            experiment=experiment, scene=scene, width=16, height=16, snr_db=-20.0,
            prior=0.001 if white else 0.999, trials=4, multipliers=(2,), out=str(tmp_path / "r"),
        )
        run_dir = run_experiment(cfg)
        lit = 0.0 if white else 1.0
        ber = float(np.mean(np.rint(load_scene(cfg).reflectance) != lit))
        psnr = -10.0 * math.log10(ber)  # between binary images the MSE is the BER
        _, _, drawn = read_pgm(os.path.join(run_dir, "ldpc_snr-20_s2_t0.pgm"))
        assert np.all(drawn == lit)
        if experiment == "compare":
            lines = Path(run_dir, "compare.csv").read_text().splitlines()[2:]
            rows = [line.split(",") for line in lines if line.startswith("ldpc,")]
            assert [(float(b), float(p)) for _, _, b, p in rows] == [(ber, psnr)] * cfg.trials
        else:
            row = Path(run_dir, "sampling_sweep.csv").read_text().splitlines()[2].split(",")
            assert float(row[3]) == ber
            assert float(row[5]) == pytest.approx(psnr, rel=1e-12)

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        jobs = list(range(n_jobs))
        assert harness._map_jobs(jobs, lambda j: 10 * j, threads) == [10 * j for j in jobs]
        assert created == workers


class TestManifestReplay:
    def test_manifest_config_round_trip(self, tmp_path):
        cfg = tiny_cfg(out=str(tmp_path / "m"))
        run_dir = run_experiment(cfg)
        parsed = read_manifest_config(os.path.join(run_dir, "manifest.txt"))
        assert parsed == cfg

    # strings to_text would write as they are and the parser read back
    # otherwise: cut at the '#' or the line break, or without their blanks
    UNREADABLE = [
        "p#1/g.pgm", "runs/a\nb", "runs/a\n", " runs", "runs\t", "a\rb", "a\x1cb", "a\u2028b"
    ]

    @pytest.mark.parametrize("field", ["scene", "out"])
    def test_strings_the_manifest_cannot_replay_are_rejected(self, field):
        for text in self.UNREADABLE:
            with pytest.raises(ConfigError, match="would not read back from the manifest"):
                tiny_cfg(**{field: text}).validate()

    @pytest.mark.parametrize("field", ["scene", "out"])
    def test_other_strings_read_back_from_the_manifest(self, tmp_path, field):
        for text in ["a b=c/g.pgm", "\u00fc/\u00f8.pgm", "runs/[seeds]", ""]:
            cfg = tiny_cfg(**{field: text})
            cfg.validate()
            write_manifest(str(tmp_path), cfg, {})
            assert read_manifest_config(tmp_path / "manifest.txt") == cfg

    def test_scene_path_with_hash_fails_before_run_dir(self, tmp_path):
        # the run would go through, and its replay read the scene path cut at the '#'
        scene = tmp_path / "p#1" / "g.pgm"
        scene.parent.mkdir()
        write_pgm(scene, 8, 8, codedgi.builtin_scene("glyphs", 8, 8).reflectance)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="^scene "):
            run_experiment(tiny_cfg(scene=str(scene), out=str(out)))
        assert not out.exists()

    def test_manifest_without_config_section_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# codedgi run manifest\n[seeds]\ntrial0 = 1\n")
        with pytest.raises(ConfigError, match="has no \\[config\\] section"):
            read_manifest_config(path)

    def test_manifest_config_section_after_seeds(self, tmp_path):
        # the section ends at the next "[...]" line, wherever the sections sit
        path = tmp_path / "manifest.txt"
        path.write_text(
            "# codedgi run manifest\n[seeds]\ntrial0 = 1\n"
            "[config]\nwidth = 8\nheight = 8\ndegree = 4\ntrials = 1\n"
        )
        cfg = read_manifest_config(path)
        assert (cfg.width, cfg.height, cfg.degree, cfg.trials) == (8, 8, 4, 1)
        path.write_text("[config]\nwidth = 8\nheight = 8\n[other]\nwidth = 12\n[seeds]\n")
        assert read_manifest_config(path).width == 8

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
                [("6", "1"), ("9", "1"), ("5", "1"), ("7", "1")],
                ["0.15625", "0.0546875"],
            ),
            "gf2": (
                [("50", "0"), ("50", "0"), ("50", "0"), ("3", "1")],
                ["0.15625", "0.0078125"],
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
            "0.140625", "0.0625", "0.25", "0.328125",
            "0.234375", "0.265625", "0.296875", "0.34375",
        ]

    def test_rng_wiring_frozen_at_paper_scale(self, tmp_path):
        """Per-trial outcomes at the paper-v shape (32x32, N = 2048, degree 128).

        The only frozen decodes whose checks run the 7-level segment tree.
        """
        cfg = tiny_cfg(
            out=str(tmp_path / "pv"), width=32, height=32, degree=128, prior=0.16,
            csi_known=True, snr_db_list=(10.0, 14.0), damping=0.0, max_iters=50,
        )
        run_dir = run_experiment(cfg)
        diag = Path(run_dir, "decode_diagnostics.csv").read_text().splitlines()
        assert [tuple(l.split(",")[2:4]) for l in diag[2:]] == [
            ("50", "0"), ("50", "0"), ("5", "1"), ("11", "1"),
        ]
        sweep = Path(run_dir, "ber_sweep.csv").read_text().splitlines()
        assert [l.split(",")[1] for l in sweep[2:]] == ["0.0703125", "0.0"]

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
            if (experiment, mode) != ("grayscale", "gf2"):  # that pair is a config error
                run_experiment(replace(base, experiment=experiment, decoder_mode=mode))
        if experiment == "sweep-ber":
            report["ma_after_sweep_ber"] = "numpy.ma" in sys.modules
    codedgi.cli.main(["bound", "--k", "64", "--n", "128", "--snr-db", "0", "10",
                      "--out", tmp + "/bound.csv"])
    report["after_runs"] = scipy_modules()
    report["pool_after_runs"] = "multiprocessing" in sys.modules
    run_experiment(replace(base, experiment="compare"))
report["after_compare"] = scipy_modules()
print(json.dumps(report))
"""


def test_import_leaves_scipy_linalg_unloaded():
    # importing scipy costs about 0.25 s cold; only the pseudo-inverse uses it
    # (scipy.linalg, loaded lazily), so importing the package, the harness and
    # the CLI, running every other experiment and the bound command must load
    # no scipy module at all. Nor may sweep-ber load numpy.ma (about 22 ms,
    # which np.unique imports), or a one-process run multiprocessing (12-16 ms)
    src = str(Path(codedgi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True, text=True,
        check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["linalg_after_import"] is False
    assert report["after_import"] == []
    assert report["ma_after_sweep_ber"] is False
    assert report["after_runs"] == []
    assert report["pool_after_runs"] is False
    assert "scipy.linalg" in report["after_compare"]
    assert "scipy.special" not in report["after_compare"]
