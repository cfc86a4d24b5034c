"""Tests of the benchmark itself: `python3 -m pytest bench` from the repository root."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
import tracing
from workloads import LAYER_MAP, PER_LAYER, SELF_TIME_METRICS, WORKLOADS, benchmark_definition

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_committed_definitions_are_current():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == benchmark_definition()
    with open(run.BENCH_DIR / "layer_map.json", encoding="utf-8") as fh:
        assert json.load(fh) == list(LAYER_MAP)


def test_definition_is_well_formed():
    d = benchmark_definition()
    assert set(d) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(d["workloads"]) <= 8 and 1 <= d["run_seconds"] <= 60
    names = [w["name"] for w in d["workloads"]] + [m["name"] for m in d["end_to_end"] + d["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in d["workloads"])
    assert all(UNIT.fullmatch(m["unit"]) for m in d["end_to_end"] + d["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in d["end_to_end"])
    setup = next(m for m in d["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in d["end_to_end"])
    layer_names = {m.name for m in PER_LAYER}
    assert set(SELF_TIME_METRICS) <= layer_names
    assert all(set(row["metrics"]) <= layer_names for row in LAYER_MAP)
    workload_names = set(WORKLOADS)
    for row in LAYER_MAP:
        for entry in row["strongest_on"] + row["no_change_on"]:
            assert entry.split(" ")[0] in workload_names


def test_self_times_add_up_to_the_root():
    spans = []
    for name, start, end, parent in (("root", 0, 100, -1), ("a", 10, 40, 0), ("b", 15, 25, 1), ("c", 50, 90, 0)):
        span = tracing.Span(name, parent, 0)
        span.start, span.end = start, end
        spans.append(span)
    assert tracing.self_times(spans) == [30, 20, 10, 40]


def test_trial_distribution_uses_ten_samples_beyond():
    assert run.trial_distribution([float(i) for i in range(1, 101)]) == {
        "trial.p50_s": 50.0, "trial.tail_s": 90.0, "trial.tail_pct": 90.0, "trial.n": 100,
    }
    assert run.trial_distribution([1.0, 2.0, 3.0])["trial.tail_pct"] == 50.0


def test_smoke_emits_every_metric_and_spans_add_up():
    assert run.smoke() == []


def test_metric_for_span_falls_back_by_layer():
    from workloads import metric_for_span

    assert metric_for_span("decoder.decode_sum_bp") == "decoder.decode_s"
    assert metric_for_span("bound.bound_sweep") == "bound.s"
    assert metric_for_span("decoder.some_new_decoder") == "unmapped_s"


@pytest.fixture
def tiny_run(tmp_path):
    harness = run.import_harness()

    def make(workload_name):
        cfg = run.run_config(harness, WORKLOADS[workload_name], True, out=str(tmp_path), seed=3)
        return cfg, harness.run_experiment(cfg)

    return make


def _bound(cfg):
    from codedgi.bound import bound_sweep

    rows = bound_sweep(cfg.k_pixels, cfg.sampling * cfg.k_pixels, cfg.degree_distribution(),
                       cfg.snr_db_list, es=cfg.es)
    return [r["p_b"] for r in rows]


def test_ber_sweep_checks_pass_then_catch_a_wrong_bound(tiny_run):
    cfg, run_dir = tiny_run("desk-ber")
    p_b = _bound(cfg)
    assert checks.check_ber_sweep(cfg, run_dir, p_b).failed == set()
    wrong = list(p_b)
    wrong[1] *= 1.001
    out = checks.check_ber_sweep(cfg, run_dir, wrong)
    assert out.failed == {(1, t) for t in range(cfg.trials)}


def test_ber_sweep_checks_catch_a_missing_trial(tiny_run):
    cfg, run_dir = tiny_run("desk-ber")
    path = os.path.join(run_dir, "decode_diagnostics.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    out = checks.check_ber_sweep(cfg, run_dir, _bound(cfg))
    assert out.failed == {(len(cfg.snr_db_list) - 1, cfg.trials - 1)}


def test_compare_checks_catch_a_missing_image_and_a_bad_schema(tiny_run):
    cfg, run_dir = tiny_run("compare-32")
    assert checks.check_compare(cfg, run_dir).failed == set()
    os.remove(os.path.join(run_dir, f"pinv_snr{cfg.snr_db:g}_s{cfg.sampling}_t0.pgm"))
    assert checks.check_compare(cfg, run_dir).failed == {(0, 0)}
    path = os.path.join(run_dir, "compare.csv")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("# schema: codedgi.compare.v1", "# schema: other.v1"))
    assert len(checks.check_compare(cfg, run_dir).failed) == cfg.trials


def test_traced_run_must_match_the_untraced_run(tiny_run, tmp_path):
    harness = run.import_harness()
    cfg = run.run_config(harness, WORKLOADS["desk-ber"], True, seed=5, out=str(tmp_path / "a"))
    p_b = _bound(cfg)
    plain = run.Sweep(harness, cfg, p_b, traced=False)
    traced = run.Sweep(harness, replace(cfg, out=str(tmp_path / "b")), p_b, traced=True)
    assert run.traced_mismatches(plain, traced) == []
    other = run.Sweep(harness, replace(cfg, seed=6, out=str(tmp_path / "c")), p_b, traced=True)
    assert run.traced_mismatches(plain, other) != []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-ber", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
