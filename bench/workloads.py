"""Workloads and metric definitions of the codedgi benchmark.

This module is the single source of `BENCHMARK.json` and `layer_map.json`:
`python3 bench/run.py --write-definitions` regenerates both from it, and the
benchmark's tests check that the committed files match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DESK_SNR_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)


@dataclass(frozen=True)
class Workload:
    """One fixed experiment config, run as a series of sweeps.

    `config` holds `RunConfig` overrides; each sweep gets its own master seed,
    drawn from the benchmark seed. The first `quality_sweeps` sweeps always
    run and fix the quality figures, so these repeat exactly for one seed.
    `smoke` shrinks the config for the benchmark's own tests.
    """

    name: str
    why: str
    config: dict
    smoke: dict = field(default_factory=dict)
    quality_sweeps: int = 5


_DESK = dict(
    experiment="sweep-ber",
    scene="glyphs",
    width=16,
    height=16,
    sampling=2,
    degree=8,
    snr_db_list=DESK_SNR_DB,
    csi_known=False,
)
_DESK_SMOKE = dict(width=8, height=8, degree=4, snr_db_list=(0.0, 14.0), trials=2, max_iters=5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-ber",
            why="criterion-1 desk sweep (16x16, degree 8, 0-14 dB, no CSI, default decoder): "
            "many small decodes, so per-iteration overhead and the degree-8 check update dominate",
            config=dict(_DESK, trials=10),
            smoke=_DESK_SMOKE,
        ),
        Workload(
            name="paper-v",
            why="paper-v shape (32x32, N=2048, degree 128, CSI, prior 0.16, 10 and 14 dB) with one "
            "BP iteration per decode: the O(d^2) high-degree check update dominates",
            # One iteration per decode: past it, each decode either collapses
            # to the all-dark image or decodes, so BER and time per trial
            # (1-11 s at 50 iterations) would depend on the seed, not the code.
            config=dict(
                experiment="sweep-ber",
                scene="glyphs",
                width=32,
                height=32,
                sampling=2,
                degree=128,
                prior=0.16,
                csi_known=True,
                snr_db_list=(10.0, 14.0),
                max_iters=1,
                trials=7,
            ),
            smoke=dict(width=16, height=16, degree=32, trials=1),
        ),
        Workload(
            name="compare-32",
            why="coded decode against CGI/DGI/pinv on dense speckle at 32x32, degree 8, damping "
            "0.3, 10 dB: the baselines, above all the pinv SVD, dominate",
            config=dict(
                experiment="compare",
                scene="glyphs",
                width=32,
                height=32,
                sampling=2,
                degree=8,
                damping=0.3,
                snr_db=10.0,
                trials=5,
            ),
            smoke=dict(width=8, height=8, degree=4, trials=2, max_iters=5),
            # 40 trials: the coded BER of one trial varies by about 25%, and
            # fewer trials leave ber_mean spreading 10% from seed to seed
            quality_sweeps=8,
        ),
        Workload(
            name="desk-gf2",
            why="desk-ber with the GF(2) decoder: the only workload where code construction and "
            "harness overhead are large shares of a trial",
            config=dict(_DESK, decoder_mode="gf2", trials=40),
            smoke=_DESK_SMOKE,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None  # end-to-end metrics only


END_TO_END = (
    Metric("trial_s", "s", bound=0.25),
    Metric("setup_s", "s", bound=0.25),
    Metric("ber_mean", "fraction", bound=0.25),
)

# Per-layer metrics, from the traced run. Every `_s` metric is self time per
# trial, so the `_s` metrics of the layers plus `harness.other_s` add up to
# `trial.traced_s`.
PER_LAYER = (
    Metric("trial.traced_s", "s"),
    Metric("trial.p50_s", "s"),
    Metric("trial.tail_s", "s"),
    Metric("trial.tail_pct", "%"),
    Metric("trial.n", "count", "higher"),
    Metric("trace.overhead_frac", "fraction"),
    Metric("harness.other_s", "s"),
    Metric("scenes.s", "s"),
    Metric("codes.build_generator_s", "s"),
    Metric("codes.encode_s", "s"),
    Metric("codes.derive_parity_check_s", "s"),
    Metric("forward.patterns_s", "s"),
    Metric("forward.sense_s", "s"),
    Metric("forward.edges", "count"),
    Metric("decoder.decode_s", "s"),
    Metric("decoder.iters_mean", "count"),
    Metric("decoder.iter_s", "s"),
    Metric("decoder.edge_iters", "count"),
    Metric("decoder.ns_per_edge_iter", "ns"),
    Metric("decoder.gf2_decode_s", "s"),
    Metric("decoder.gf2_iters_mean", "count"),
    Metric("baselines.cgi_s", "s"),
    Metric("baselines.dgi_s", "s"),
    Metric("baselines.pinv_s", "s"),
    Metric("baselines.binarize_s", "s"),
    Metric("bound.s", "s"),
    Metric("metrics.s", "s"),
    Metric("pgmio.s", "s"),
    Metric("unmapped_s", "s"),
)

# Self time of a span named "<layer>.<function>" goes to the metric named
# here; a function not listed goes to "<layer>.s" when that metric exists and
# to "unmapped_s" otherwise, so the shares still add up.
SPAN_METRIC = {
    "harness.run_experiment": "harness.other_s",
    "harness.trial": "harness.other_s",
    "codes.build_generator": "codes.build_generator_s",
    "codes.encode": "codes.encode_s",
    "codes.derive_parity_check": "codes.derive_parity_check_s",
    "forward.patterns_from_generator": "forward.patterns_s",
    "forward.random_speckle": "forward.patterns_s",
    "forward.sense": "forward.sense_s",
    "decoder.decode_sum_bp": "decoder.decode_s",
    "decoder.decode_gf2_bp": "decoder.gf2_decode_s",
    "decoder.symbol_llr": "decoder.gf2_decode_s",
    "baselines.cgi_reconstruct": "baselines.cgi_s",
    "baselines.dgi_reconstruct": "baselines.dgi_s",
    "baselines.pinv_reconstruct": "baselines.pinv_s",
    "baselines.binarize": "baselines.binarize_s",
}

# Which end-to-end figure each layer metric should move, where it shows most,
# and where a change confined to it should show no change. A perf change
# names its claim and its no-change workloads from this table.
LAYER_MAP = (
    {
        "metrics": ["decoder.decode_s", "decoder.iters_mean", "decoder.iter_s"],
        "moves": "trial_s; iterations also ber_mean and converged_frac",
        "strongest_on": ["paper-v", "desk-ber"],
        "no_change_on": ["compare-32", "desk-gf2"],
    },
    {
        "metrics": ["decoder.edge_iters", "decoder.ns_per_edge_iter"],
        "moves": "trial_s",
        "strongest_on": ["paper-v"],
        "no_change_on": ["desk-ber (for a high-degree-only change)"],
    },
    {
        "metrics": ["decoder.gf2_decode_s", "decoder.gf2_iters_mean"],
        "moves": "trial_s",
        "strongest_on": ["desk-gf2"],
        "no_change_on": ["desk-ber", "paper-v", "compare-32"],
    },
    {
        "metrics": ["codes.build_generator_s", "codes.encode_s", "codes.derive_parity_check_s"],
        "moves": "trial_s",
        "strongest_on": ["desk-gf2"],
        "no_change_on": ["paper-v"],
    },
    {
        "metrics": ["forward.patterns_s", "forward.sense_s", "forward.edges"],
        "moves": "trial_s",
        "strongest_on": ["compare-32"],
        "no_change_on": ["paper-v", "desk-gf2 (the GF(2) path calls no forward function)"],
    },
    {
        "metrics": ["baselines.cgi_s", "baselines.dgi_s", "baselines.pinv_s", "baselines.binarize_s"],
        "moves": "trial_s, baseline_ber.*",
        "strongest_on": ["compare-32"],
        "no_change_on": ["desk-ber", "paper-v", "desk-gf2 (not called)"],
    },
    {
        "metrics": ["bound.s"],
        "moves": "trial_s (under 1% everywhere; measured so that a regression shows)",
        "strongest_on": ["desk-ber"],
        "no_change_on": ["compare-32 (not called)"],
    },
    {
        "metrics": ["metrics.s", "pgmio.s"],
        "moves": "trial_s",
        "strongest_on": ["compare-32"],
        "no_change_on": ["paper-v"],
    },
    {
        "metrics": ["harness.other_s", "scenes.s", "unmapped_s"],
        "moves": "trial_s",
        "strongest_on": ["desk-gf2"],
        "no_change_on": ["paper-v"],
    },
    {
        "metrics": ["trial.p50_s", "trial.tail_s", "trial.tail_pct", "trial.n"],
        "moves": "(the distribution behind trial_s)",
        "strongest_on": ["desk-ber", "desk-gf2"],
        "no_change_on": [],
    },
    {
        "metrics": ["trial.traced_s", "trace.overhead_frac"],
        "moves": "(health of the trace)",
        "strongest_on": [],
        "no_change_on": [],
    },
)

# The metrics that self times go to; per trial they add up to trial.traced_s.
SELF_TIME_METRICS = tuple(
    dict.fromkeys([*SPAN_METRIC.values(), "scenes.s", "bound.s", "metrics.s", "pgmio.s", "unmapped_s"])
)

RUN_SECONDS = 20


def metric_for_span(name: str) -> str:
    if name in SPAN_METRIC:
        return SPAN_METRIC[name]
    layer_metric = name.split(".", 1)[0] + ".s"
    return layer_metric if layer_metric in SELF_TIME_METRICS else "unmapped_s"


def benchmark_definition() -> dict:
    """The content of BENCHMARK.json."""

    def entry(m: Metric, with_bound: bool) -> dict:
        out = {"name": m.name, "unit": m.unit, "better": m.better}
        if with_bound:
            out["bound"] = m.bound
        return out

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [entry(m, True) for m in END_TO_END],
        "per_layer": [entry(m, False) for m in PER_LAYER],
    }
