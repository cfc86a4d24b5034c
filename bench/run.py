#!/usr/bin/env python3
"""codedgi benchmark: wall time per trial and decode quality on fixed sweeps.

Run from the repository root:

    python3 bench/run.py --workload desk-ber --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke              # tiny sizes, every workload, self-checks
    python3 bench/run.py --write-definitions  # regenerate BENCHMARK.json and bench/layer_map.json

A run imports `codedgi` from `src/` of the checkout and calls
`codedgi.harness.run_experiment` (threads = 1, one process) on a series of
sweeps of the workload's config, each with its own master seed drawn from
`--seed`, and checks every sweep's output files.

- `--trace 0` prints the end-to-end metrics: `trial_s` is the median over
  sweeps of sweep wall time / trials, `setup_s` the median of three set-ups
  (imports plus one one-trial warm-up call, each in a fresh process), and
  `ber_mean` the coded decoder's BER over the first `quality_sweeps` sweeps,
  which always run, so it repeats exactly for one seed.
- `--trace 1` runs those quality sweeps twice, untraced and traced, requires
  identical results from both, and prints the per-layer metrics of the
  traced run (see bench/tracing.py and the table in bench/workloads.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full result, with the environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import (
    END_TO_END,
    LAYER_MAP,
    PER_LAYER,
    SELF_TIME_METRICS,
    WORKLOADS,
    benchmark_definition,
    metric_for_span,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def import_harness():
    """`codedgi.harness` from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "codedgi" / "__init__.py").is_file():
        raise BenchError(f"no codedgi package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from codedgi import harness

    if Path(harness.__file__).resolve().parent != (src / "codedgi").resolve():
        raise BenchError(f"imported codedgi from {harness.__file__}, not from {src}")
    return harness


def run_config(harness, workload, smoke: bool, **overrides):
    cfg = harness.RunConfig(
        **{**workload.config, **(workload.smoke if smoke else {}), "threads": 1, **overrides}
    )
    cfg.validate()
    return cfg


def set_up(workload, smoke: bool) -> float:
    """Seconds to import the package and make one one-trial warm-up call."""
    start = time.perf_counter()
    harness = import_harness()
    cfg = run_config(harness, workload, smoke, trials=1)
    if cfg.experiment == "sweep-ber":
        cfg.snr_db_list = cfg.snr_db_list[:1]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        cfg.out = tmp
        harness.run_experiment(cfg)
    return time.perf_counter() - start


def setup_in_fresh_process(workload, smoke: bool) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload.name]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def sweep_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(62)


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------


class Sweep:
    """One run_experiment call with its wall time, checks and (traced) spans."""

    def __init__(self, harness, cfg, bound_p_b, traced: bool):
        self.cfg = cfg
        self.trials = cfg.trials * (len(cfg.snr_db_list) if cfg.experiment == "sweep-ber" else 1)
        self.tracer = tracing.Tracer() if traced else None
        self.files = {}
        gc.collect()
        try:
            if self.tracer is None:
                start = time.perf_counter_ns()
                run_dir = harness.run_experiment(cfg)
                self.ns = time.perf_counter_ns() - start
            else:
                with self.tracer.patch(harness):
                    run_dir = self.tracer.wrap("harness.run_experiment", harness.run_experiment)(cfg)
                self.ns = self.tracer.spans[0].duration
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.ns = None
            self.outcome = checks.SweepOutcome(trials=self.trials)
            self.outcome.fail({(-1, t) for t in range(self.trials)}, "run_experiment raised")
            return
        if cfg.experiment == "sweep-ber":
            self.outcome = checks.check_ber_sweep(cfg, run_dir, bound_p_b)
        else:
            self.outcome = checks.check_compare(cfg, run_dir)
        self.files = checks.result_bytes(run_dir)

    @property
    def trial_s(self) -> float:
        return self.ns / self.trials / 1e9

    def spans_of(self, name: str):
        return [s for s in self.tracer.spans if s.name == name]


def traced_mismatches(plain: Sweep, traced: Sweep) -> list[str]:
    """Differences between an untraced and a traced run of one sweep."""
    if plain.ns is None or traced.ns is None:
        return ["a run raised"]
    out = []
    if plain.files != traced.files:
        differ = sorted(n for n in plain.files.keys() | traced.files.keys()
                        if plain.files.get(n) != traced.files.get(n))
        out.append(f"result files differ: {differ}")
    decodes = traced.spans_of("decoder.decode_sum_bp") + traced.spans_of("decoder.decode_gf2_bp")
    decodes.sort(key=lambda s: s.trial)
    if plain.outcome.iterations and [s.attrs["iterations"] for s in decodes] != plain.outcome.iterations:
        out.append("per-trial iteration counts differ")
    bers = {}
    for s in traced.spans_of("metrics.ber"):
        bers.setdefault(s.trial, []).append(s.attrs["value"])
    cfg = plain.cfg
    if cfg.experiment == "sweep-ber":
        for p, ber_mean in enumerate(plain.outcome.point_ber):
            vals = [bers.get(p * cfg.trials + t, [math.nan])[0] for t in range(cfg.trials)]
            if not math.isclose(math.fsum(vals) / len(vals), ber_mean, rel_tol=1e-12, abs_tol=1e-15):
                out.append(f"point {p}: per-trial BER of the traced run differs")
    else:
        for t, expected in enumerate(zip(*plain.outcome.method_ber.values())):
            if sorted(bers.get(t, [])) != sorted(expected):
                out.append(f"trial {t}: per-trial BER of the traced run differs")
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def trial_distribution(durations_s: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(durations_s)
    n = len(values)
    tail = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10 - 1e-9), 50.0)
    return {
        "trial.p50_s": percentile(values, 50.0),
        "trial.tail_s": percentile(values, tail),
        "trial.tail_pct": tail,
        "trial.n": n,
    }


def layer_metrics(sweep: Sweep) -> dict:
    """Per-trial self time of each layer metric, and the layer counts, of one sweep."""
    spans = sweep.tracer.spans
    own = dict.fromkeys(SELF_TIME_METRICS, 0)
    for span, ns in zip(spans, tracing.self_times(spans)):
        own[metric_for_span(span.name)] += ns
    values = {name: ns / sweep.trials / 1e9 for name, ns in own.items()}
    values["trial.traced_s"] = sweep.trial_s

    def decode_counts(name):
        decodes = sweep.spans_of(name)
        iters = sum(s.attrs["iterations"] for s in decodes)
        edge_iters = sum(s.attrs["iterations"] * s.attrs["edges"] for s in decodes)
        return decodes, iters, edge_iters

    decodes, iters, edge_iters = decode_counts("decoder.decode_sum_bp")
    decode_ns = own["decoder.decode_s"]
    values["decoder.iters_mean"] = iters / len(decodes) if decodes else 0.0
    values["decoder.iter_s"] = decode_ns / iters / 1e9 if iters else 0.0
    values["decoder.edge_iters"] = edge_iters / sweep.trials
    values["decoder.ns_per_edge_iter"] = decode_ns / edge_iters if edge_iters else 0.0
    gf2, gf2_iters, _ = decode_counts("decoder.decode_gf2_bp")
    values["decoder.gf2_iters_mean"] = gf2_iters / len(gf2) if gf2 else 0.0
    patterns = sweep.spans_of("forward.patterns_from_generator") + sweep.spans_of(
        "forward.random_speckle"
    )
    values["forward.edges"] = sum(s.attrs["edges"] for s in patterns) / sweep.trials
    return values


def median_sweep(sweeps: list[Sweep]) -> Sweep:
    ranked = sorted(sweeps, key=lambda s: s.ns)
    return ranked[(len(ranked) - 1) // 2]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit():
    git = ROOT / ".git"
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


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the full result (metrics, quality, environment)."""
    setups = [set_up(workload, smoke)]
    setups += [setup_in_fresh_process(workload, smoke) for _ in range(SETUP_SAMPLES - 1)]
    harness = import_harness()
    from codedgi.bound import bound_sweep

    base = run_config(harness, workload, smoke)
    scene = harness.load_scene(base)
    rho = float(scene.reflectance.mean())
    bound_p_b = []
    if base.experiment == "sweep-ber":
        rows = bound_sweep(base.k_pixels, base.sampling * base.k_pixels,
                           base.degree_distribution(), base.snr_db_list, es=base.es)
        bound_p_b = [row["p_b"] for row in rows]

    quality_sweeps = 1 if smoke else workload.quality_sweeps
    seeds = sweep_seeds(seed)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    plain, traced, mismatches, used_seeds = [], [], [], []

    def sweep(k, sweep_seed, with_trace):
        out = os.path.join(work_dir, f"sweep{k}-{'traced' if with_trace else 'plain'}")
        cfg = run_config(harness, workload, smoke, seed=sweep_seed, out=out)
        result = Sweep(harness, cfg, bound_p_b, with_trace)
        shutil.rmtree(out, ignore_errors=True)
        return result

    try:
        start = time.perf_counter()
        k = 0
        while True:
            elapsed = time.perf_counter() - start
            # untraced runs go on while one more sweep fits in --seconds
            if k >= quality_sweeps and (trace or elapsed + elapsed / k > seconds):
                break
            sweep_seed = next(seeds)
            used_seeds.append(sweep_seed)
            if trace:
                # alternate which run goes first, so drift does not bias the overhead
                pair = [sweep(k, sweep_seed, k % 2 == 1), sweep(k, sweep_seed, k % 2 == 0)]
                pair.sort(key=lambda s: s.tracer is not None)
                plain.append(pair[0])
                traced.append(pair[1])
                mismatches += [f"sweep {k}: {m}" for m in traced_mismatches(*pair)]
            else:
                plain.append(sweep(k, sweep_seed, False))
            k += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    runs = plain + traced
    attempted = sum(s.trials for s in runs)
    failed = sum(len(s.outcome.failed) for s in runs)
    problems = [f"sweep seed {s.cfg.seed}: {p}" for s in runs for p in s.outcome.problems]
    problems += mismatches
    timed = [s for s in plain if s.ns is not None]

    quality = [s.outcome for s in plain[:quality_sweeps]]
    quality_trials = sum(q.trials for q in quality)
    decodes = sum(len(q.iterations) for q in quality)
    e2e = {
        "trial_s": statistics.median(s.trial_s for s in timed) if timed else math.nan,
        "setup_s": statistics.median(setups),
        "ber_mean": sum(q.ber_sum for q in quality) / quality_trials,
    }
    report = {
        "failed_frac": failed / attempted,
        "majority_guess_ber": min(rho, 1.0 - rho),
        "converged_frac": sum(q.converged for q in quality) / decodes if decodes else None,
        "iters_mean": statistics.fmean(i for q in quality for i in q.iterations) if decodes else None,
    }
    if base.experiment == "compare":
        for method in checks.COMPARE_METHODS[1:]:
            values = [b for q in quality for b in q.method_ber.get(method, [])]
            report[f"baseline_ber.{method}"] = statistics.fmean(values) if values else None

    per_layer = {}
    if trace and traced and all(s.ns is not None for s in traced):
        per_layer = layer_metrics(median_sweep(traced))
        per_layer.update(trial_distribution(
            [s.duration / 1e9 for t in traced for s in t.spans_of("harness.trial")]
        ))
        traced_trial_s = statistics.median(s.trial_s for s in traced)
        per_layer["trace.overhead_frac"] = traced_trial_s / e2e["trial_s"] - 1.0
        # compare.csv carries no decode diagnostics; the traced decodes do
        traced_decodes = [s.attrs for t in traced[:quality_sweeps]
                          for name in ("decoder.decode_sum_bp", "decoder.decode_gf2_bp")
                          for s in t.spans_of(name)]
        if traced_decodes and report["converged_frac"] is None:
            report["converged_frac"] = statistics.fmean(a["converged"] for a in traced_decodes)
            report["iters_mean"] = statistics.fmean(a["iterations"] for a in traced_decodes)

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": failed == 0 and not mismatches and len(timed) == len(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "quality": report,
        "setup_samples_s": setups,
        "sweep_trial_s": [s.trial_s if s.ns is not None else None for s in plain],
        "traced_sweep_trial_s": [s.trial_s if s.ns is not None else None for s in traced],
        "sweep_seeds": used_seeds,
        "trials_per_sweep": plain[0].trials,
        "quality_trials": quality_trials,
        "environment": environment(),
        "spans": [t.tracer.spans for t in traced],
    }


def final_line(result: dict) -> dict:
    metrics = PER_LAYER if result["trace"] else END_TO_END
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["correct"] and all(m.name in values for m in metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metrics if m.name in values},
    }


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"codedgi benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"trace {result['trace']}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"sweeps: {len(result['sweep_seeds'])} (seeds {result['sweep_seeds']}), "
          f"{result['trials_per_sweep']} trials each; quality figures over "
          f"{result['quality_trials']} trials")
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    units["iters_mean"] = "count"
    rows = dict(result["end_to_end"])
    rows.update(result["quality"])
    rows.update(result["per_layer"])
    for name, value in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {units.get(name, 'fraction')}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def write_definitions() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_definition(), indent=2) + "\n")
    (BENCH_DIR / "layer_map.json").write_text(json.dumps(list(LAYER_MAP), indent=2) + "\n")


def smoke() -> list[str]:
    """Every workload at tiny size, traced: every metric present, spans add up."""
    errors = []
    for workload in WORKLOADS.values():
        result = run_workload(workload, seed=1, seconds=0, trace=True, smoke=True)
        missing = [m.name for m in END_TO_END if not math.isfinite(result["end_to_end"][m.name])]
        missing += [m.name for m in PER_LAYER if m.name not in result["per_layer"]]
        if missing:
            errors.append(f"{workload.name}: metrics missing {missing}")
        if not result["correct"]:
            errors.append(f"{workload.name}: not correct: {result['problems']}")
        layers = result["per_layer"]
        shares = math.fsum(layers[name] for name in SELF_TIME_METRICS)
        if not math.isclose(shares, layers["trial.traced_s"], rel_tol=1e-9):
            errors.append(f"{workload.name}: layer self times {shares} != trial {layers['trial.traced_s']}")
        for spans in result["spans"]:
            own = tracing.self_times(spans)
            roots = sum(s.duration for s in spans if s.parent < 0)
            if sum(own) != roots or min(own) < 0:
                errors.append(f"{workload.name}: span self times do not add up to the spans")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (with --workload: that one only)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-definitions", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_definitions:
            write_definitions()
            return 0
        if args.setup_only:
            print(json.dumps({"setup_s": set_up(WORKLOADS[args.workload], args.smoke)}))
            return 0
        if args.smoke and args.workload is None:
            errors = smoke()
            for error in errors:
                print(f"smoke: {error}")
            print("smoke: ok" if not errors else f"smoke: {len(errors)} errors")
            return 1 if errors else 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), smoke=args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(result, indent=1, default=tracing.Span.as_dict) + "\n"
    )
    print_report(result)
    print(json.dumps(final_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
