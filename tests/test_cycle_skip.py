"""A certified BP limit cycle ends the decode: the oracle is the plain loop.

Both decoders stop once their message state repeats exactly and their stop
rule is certified never to fire again, and return the iterate they computed
last; `iterations_run` counts the iterations computed. The plain loops the
decoders ran before, kept here verbatim as oracles, compute every
iteration. Each decode must match its plain loop run for exactly
`iterations_run` iterations, bit for bit in pixels, marginals, converged
and residual; a decode that stopped on a cycle must be one the plain loop
never converges on within max_iters. Damped decodes, the default, settle
rather than cycle, so the cases that cycle are written undamped.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from codedgi import (
    BpOptions,
    ChannelParams,
    CodeSpec,
    DegreeDistribution,
    IlluminationEnsemble,
    ParityCheckMatrix,
    SceneImage,
    SparseRows,
    build_generator,
    decode_gf2_bp,
    decode_sum_bp,
    derive_parity_check,
    encode,
    patterns_from_generator,
    random_speckle,
    sense,
)
from codedgi import decoder, harness
from codedgi.decoder import (
    MSG_FLOOR,
    DecodeDiagnostics,
    DecodeResult,
    _CheckPlan,
    _edge_logits,
    _groups,
    _likelihoods,
    _sigmoid,
    _totals,
)
from codedgi.forward import receiver_gains
from codedgi.harness import RunConfig, load_scene, parse_distribution


def plain_sum_bp(m, ens, opts):
    """decode_sum_bp computing every iteration up to max_iters or the stall."""
    k = ens.k_pixels
    unpinned = int((np.bincount(ens.patterns.flat, minlength=k) == 0).sum())
    prior_logit = math.log(opts.prior) - math.log1p(-opts.prior)
    singles = [(ids, px) for ids, px in ens.patterns.groups if px.shape[1] == 1]
    groups = [(ids, px) for ids, px in ens.patterns.groups if px.shape[1] > 1]
    fixed = [_edge_logits(*_likelihoods(m, ids, 1)) for ids, _ in singles]
    prior = _totals(prior_logit, singles, fixed, k)
    plans = _groups(_CheckPlan, groups)
    for plan, (ids, _) in zip(plans, groups):
        plan.set_likelihoods(m, ids)
    p2m = [np.full(px.shape, opts.prior) for _, px in groups]

    marginals = np.full(k, opts.prior)
    hard = marginals > 0.5
    stable = 0
    iterations = 0
    converged = False

    for iteration in range(1, opts.max_iters + 1):
        for plan, p in zip(plans, p2m):
            plan.p[...] = p.T
        m2p = [plan().T for plan in plans]
        total = _totals(prior, groups, m2p, k)
        marginals = _sigmoid(total)
        new_hard = marginals > 0.5
        iterations = iteration
        if np.array_equal(new_hard, hard):
            stable += 1
        else:
            stable = 0
        hard = new_hard
        if stable >= opts.stall_window:
            converged = True
            break
        if iteration == opts.max_iters:
            break
        for i, (_, px) in enumerate(groups):
            outgoing = _sigmoid(total[px] - m2p[i])
            if opts.damping > 0:
                outgoing = (1.0 - opts.damping) * outgoing + opts.damping * p2m[i]
            p2m[i] = np.clip(outgoing, MSG_FLOOR, 1.0 - MSG_FLOOR)

    pixels = hard.astype(np.uint8)
    error = m.bucket - receiver_gains(m) * ens.patterns.sums(pixels)
    residual = math.sqrt(np.sum(error * error)) / math.sqrt(m.channel.es)
    diag = DecodeDiagnostics(iterations, converged, residual, unpinned)
    return DecodeResult(pixels=pixels, marginals=marginals, diagnostics=diag)


def plain_gf2_bp(llrs, h, opts):
    """decode_gf2_bp computing every iteration up to max_iters or a zero syndrome."""
    llrs = np.asarray(llrs, dtype=np.float64)
    groups = h.rows.groups
    c2v = [np.zeros(vr.shape) for _, vr in groups]
    total = llrs.copy()
    hard = total < 0.0
    iterations = 0
    converged = False
    for iteration in range(1, opts.max_iters + 1):
        for i, (_, vr) in enumerate(groups):
            t = np.tanh((total[vr] - c2v[i]) / 2.0)
            prefix = np.ones_like(t)
            np.cumprod(t[:, :-1], axis=1, out=prefix[:, 1:])
            suffix = np.ones_like(t)
            np.cumprod(t[:, :0:-1], axis=1, out=suffix[:, -2::-1])
            c2v[i] = 2.0 * np.arctanh(np.clip(prefix * suffix, -1 + 1e-15, 1 - 1e-15))
        total = _totals(llrs, groups, c2v, h.n_total)
        hard = total < 0.0
        iterations = iteration
        if not (h.rows.sums(hard) & 1).any():
            converged = True
            break
    diag = DecodeDiagnostics(iterations, converged, math.nan, 0)
    return DecodeResult(
        pixels=hard[: h.k_info].astype(np.uint8), marginals=_sigmoid(-total), diagnostics=diag
    )


def assert_same(fast, slow):
    assert np.array_equal(fast.pixels, slow.pixels)
    assert fast.marginals.tobytes() == slow.marginals.tobytes()
    got, want = fast.diagnostics, slow.diagnostics
    assert (got.iterations_run, got.converged) == (want.iterations_run, want.converged)
    assert np.array_equal(got.residual, want.residual, equal_nan=True)
    assert got.unpinned_pixel_count == want.unpinned_pixel_count


def stopped_on_cycle(diag, max_iters):
    return not diag.converged and diag.iterations_run < max_iters


def check_against(fast, max_iters, run_to):
    """Match `fast` to `run_to(n)`, the plain loop run for at most n iterations."""
    d = fast.diagnostics
    if not stopped_on_cycle(d, max_iters):
        assert_same(fast, run_to(max_iters))
        return fast
    assert d.cycle_period > 0
    assert_same(fast, run_to(d.iterations_run))
    # the certificate: the plain loop never converges, and its result at
    # max_iters is the decode's when they share the cycle's phase
    full = run_to(max_iters)
    assert not full.diagnostics.converged
    if (max_iters - d.iterations_run) % d.cycle_period == 0:
        assert np.array_equal(fast.pixels, full.pixels)
        assert fast.marginals.tobytes() == full.marginals.tobytes()
    return fast


def compare_sum_bp(m, ens, opts):
    # the plain loop takes the prior as a number
    prior = decoder.moment_prior(m, ens) if opts.prior == "auto" else opts.prior

    def run_to(n):
        return plain_sum_bp(m, ens, replace(opts, max_iters=n, prior=prior))

    return check_against(decode_sum_bp(m, ens, opts), opts.max_iters, run_to)


def compare_gf2_bp(logits, h, opts):
    # the plain loop passes LLRs, log p0/p1: the negated logits, exactly
    def run_to(n):
        return plain_gf2_bp(-logits, h, replace(opts, max_iters=n))

    return check_against(decode_gf2_bp(logits, h, opts), opts.max_iters, run_to)


# the four workload configs of bench/workloads.py, as RunConfig overrides
_DESK = dict(width=16, height=16, sampling=2, degree=8, csi_known=False)
WORKLOADS = {
    "desk-ber": _DESK,
    "paper-v": dict(
        width=32, height=32, sampling=2, degree=128, prior=0.16, csi_known=True,
        snr_db_list=(10.0, 14.0), max_iters=1,
    ),
    "compare-32": dict(
        experiment="compare", width=32, height=32, sampling=2, degree=8, damping=0.3, snr_db=10.0
    ),
    "desk-gf2": dict(_DESK, decoder_mode="gf2"),
}
# Undamped BP, the study case whose decodes end on cycles. Without CSI the
# count-variance receiver's undamped desk decodes run on without an exact
# repeat, so the cycles come from the CSI receiver at prior 0.5.
UNDAMPED = dict(damping=0.0, prior=0.5, csi_known=True)


def run_trials(monkeypatch, cfg, trials):
    """Run the harness's own trials with both decoders checked against the plain loops."""
    seen = []
    for name, compare in (("decode_sum_bp", compare_sum_bp), ("decode_gf2_bp", compare_gf2_bp)):
        monkeypatch.setattr(
            harness, name, lambda *args, compare=compare: seen.append(compare(*args)) or seen[-1]
        )
    scene = load_scene(cfg)
    for point, point_cfg in enumerate(harness._points(cfg)):
        for trial in range(trials):
            harness._trial((point_cfg, scene, point, trial))
    return [r.diagnostics for r in seen]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_trials_match_plain_loops(monkeypatch, name):
    cfg = RunConfig(**WORKLOADS[name], seed=91)
    trials = 1 if name == "paper-v" else 2
    diags = run_trials(monkeypatch, cfg, trials)
    assert len(diags) == trials * len(harness._points(cfg))
    if name in ("desk-ber", "desk-gf2"):  # undamped: some decodes end on a cycle
        diags += run_trials(monkeypatch, replace(cfg, **UNDAMPED), trials)
        assert any(stopped_on_cycle(d, cfg.max_iters) for d in diags)


def summary(res):
    d = res.diagnostics
    return d.iterations_run, d.converged, d.cycle_period


def desk_case(seed, csi=False):
    """The desk config (16x16, degree 8, no CSI unless `csi`) at 8 dB on code seed `seed`."""
    cfg = RunConfig(**_DESK)
    spec = CodeSpec(cfg.k_pixels, 2 * cfg.k_pixels, DegreeDistribution.regular(8), seed)
    ens = patterns_from_generator(build_generator(spec))
    ch = ChannelParams.at_snr_db(8.0, cfg.es, cfg.fading, csi_known=csi)
    return sense(ens, load_scene(cfg), ch, seed), ens


def test_undamped_desk_decodes_compute_half_their_iterations(monkeypatch):
    # counts, not wall time: on the desk config at 8 dB with CSI and prior
    # 0.5 no undamped decode converges, and each settles into an exact
    # cycle that ends it, after 15.6 iterations on average
    cfg = RunConfig(**{**_DESK, **UNDAMPED}, snr_db_list=(8.0,))
    seen = []
    real = harness.decode_sum_bp
    monkeypatch.setattr(harness, "decode_sum_bp", lambda *a: seen.append(real(*a)) or seen[-1])
    scene = load_scene(cfg)
    (point_cfg,) = harness._points(cfg)
    for trial in range(20):
        harness._trial((point_cfg, scene, 0, trial))
    diags = [r.diagnostics for r in seen]
    assert all(stopped_on_cycle(d, cfg.max_iters) for d in diags)
    assert np.mean([d.iterations_run for d in diags]) <= 25


def test_desk_results_do_not_depend_on_max_iters_parity():
    # at 8 dB with CSI and prior 0.5 every undamped desk decode ends in a
    # cycle, whose phases gave different pixels for max_iters 50 and 51
    # while the cycle ran on
    for seed in range(20):
        m, ens = desk_case(seed, csi=True)
        even, odd = (
            decode_sum_bp(m, ens, BpOptions(max_iters=n, damping=0.0, prior=0.5)) for n in (50, 51)
        )
        assert np.array_equal(even.pixels, odd.pixels)
        assert even.marginals.tobytes() == odd.marginals.tobytes()
        assert summary(even) == summary(odd)


def counted_passes(monkeypatch):
    """Count every group's check passes and variable passes, by (pass, id), into the dict returned."""
    counts = {}
    for group in (decoder._CheckPlan, decoder._ParityGroup):
        for name in ("__call__", "variable_pass"):
            real = getattr(group, name)

            def counted(self, *args, name=name, real=real):
                counts[name, id(self)] = counts.get((name, id(self)), 0) + 1
                return real(self, *args)

            monkeypatch.setattr(group, name, counted)
    return counts


def test_iterations_run_counts_the_variable_passes(monkeypatch):
    # each iteration runs every check pass and sums the variables' incoming
    # messages once, in _totals; each group runs one variable pass between
    # two iterations and none after the last, so iterations_run is the
    # number of iterations computed, for decodes that converge, run out or
    # end on a cycle
    calls = []
    real = decoder._totals
    monkeypatch.setattr(decoder, "_totals", lambda *a: calls.append(1) or real(*a))
    passes = counted_passes(monkeypatch)
    cycles = 0
    for seed in range(10):
        for csi, opts in ((False, BpOptions()), (True, BpOptions(damping=0.0, prior=0.5))):
            m, ens = desk_case(seed, csi)
            diag = decode_sum_bp(m, ens, opts).diagnostics
            n = diag.iterations_run
            # one sum per iteration, after the one that folds degree-1 checks in
            assert len(calls) == n + 1
            for plan in decoder._cache.groups.values():
                assert (passes["__call__", id(plan)], passes["variable_pass", id(plan)]) == (n, n - 1)
            cycles += stopped_on_cycle(diag, opts.max_iters)
            calls.clear()
            passes.clear()
    assert cycles > 0
    for period in range(1, 31):
        llrs, h = ring_code(period, frustrated=False)
        diag = decode_gf2_bp(-llrs, h, BpOptions(max_iters=4 * period + 31)).diagnostics
        assert len(calls) == diag.iterations_run
        # the first variable pass is from the channel LLRs, before iteration 1
        for group in decoder._cache.groups.values():
            assert passes["__call__", id(group)] == diag.iterations_run
            assert passes["variable_pass", id(group)] == diag.iterations_run
        calls.clear()
        passes.clear()


def test_decode_keeps_no_copy_per_iteration():
    # a decode's working memory does not grow with its iterations: a copy
    # of the state per iteration would add 16 KB for each past the second
    m, ens = desk_case(0)
    decode_sum_bp(m, ens)  # the cached plans stay resident by design: build them first
    state_bytes = sum(plan.p.nbytes for plan in decoder._cache.groups.values())
    peaks = []
    for max_iters in (2, 50):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = decode_sum_bp(m, ens, BpOptions(max_iters=max_iters))
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - before)
        assert after - before < state_bytes
    assert res.diagnostics.iterations_run >= 8
    assert peaks[1] - peaks[0] < state_bytes


def random_case(seed):
    """A small sum-constraint decode drawn over the cycle stop's risky settings."""
    rng = np.random.default_rng(seed)
    side = int(rng.integers(4, 9))
    k = side * side
    n = k * int(rng.integers(1, 4))
    kind = rng.choice(["regular", "mixture", "speckle"])
    if kind == "speckle":
        ens = random_speckle(k, n, float(rng.choice([0.1, 0.3])), seed)
    else:
        # undamped BP repeats exactly most often at degree 8, never seen at 4
        dist = parse_distribution("1:0.2,3:0.3,8:0.5") if kind == "mixture" else None
        dist = dist or DegreeDistribution.regular(int(rng.choice([3, 6, 8, 8])))
        ens = patterns_from_generator(build_generator(CodeSpec(k, k + n, dist, seed)))
    scene = SceneImage(side, side, (rng.random(k) < rng.choice([0.2, 0.5])).astype(float))
    n0 = 0.0 if rng.random() < 0.2 else float(rng.choice([0.05, 0.3, 1.0]))
    fading = rng.choice(["rayleigh", "none"])
    ch = ChannelParams(es=1.0, n0=n0, fading=fading, csi_known=bool(rng.integers(2)))
    m = sense(ens, scene, ch, seed + 1)
    opts = BpOptions(
        max_iters=int(rng.integers(1, 4) if rng.random() < 0.25 else rng.integers(7, 101)),
        stall_window=int(rng.choice([1, 3, 5])),
        prior=float(rng.choice([0.5, 0.2])),
        damping=float(rng.choice([0.0, 0.1, 0.3])),
    )
    return m, ens, opts


def test_random_decodes_match_plain_loops():
    cases = [random_case(seed) for seed in (*range(120), 142)]
    diags = [compare_sum_bp(*case).diagnostics for case in cases]
    stopped = [d for d, (*_, opts) in zip(diags, cases) if stopped_on_cycle(d, opts.max_iters)]
    # the grid must reach the cycle stop, else matching the plain loop shows nothing
    assert len(stopped) >= 10
    # a fixed point found before the stall rule fired: it must still converge
    assert any(d.cycle_period == 1 and d.converged for d in diags)


def ring_code(length, frustrated, a=3.0):
    """A ring whose GF(2) decode settles into an exact cycle of a known period.

    Ring variables 0..L-1 (LLR 0) and pendant variables L..2L-1 (LLR +-40)
    meet in checks (v_j, v_{j+1}, w_j); variable 2L sits alone in a check it
    always fails, so no decode converges. With LLRs a at v_0 and -a at
    v_{L/2}, the messages running round the ring repeat with period L. With
    one pendant at -40 instead (a frustrated ring) and a at v_0 only, each
    round flips their sign: period 2L for L >= 2.
    """
    rows = [np.array(sorted({j, (j + 1) % length}) + [length + j]) for j in range(length)]
    h = ParityCheckMatrix(0, 2 * length + 1, SparseRows.of([*rows, np.array([2 * length])]))
    llrs = np.zeros(2 * length + 1)
    llrs[length:] = 40.0
    llrs[2 * length] = -40.0
    llrs[0] = a
    if frustrated:
        llrs[length] = -40.0
    else:
        llrs[length // 2] -= a
    return llrs, h


@pytest.mark.parametrize("period", range(1, 31))
def test_gf2_cycles_of_each_period_match_plain_loop(period):
    cases = [ring_code(period, frustrated=False)]
    if period % 2 == 0 and period > 2:
        cases.append(ring_code(period // 2, frustrated=True))
    for llrs, h in cases:
        # the first, second and last phase of the cycle after detection give
        # one result: the decode ends where the cycle is certified
        first = None
        for max_iters in sorted({4 * period + 30 + r for r in (0, 1, period - 1)}):
            res = compare_gf2_bp(-llrs, h, BpOptions(max_iters=max_iters))
            assert res.diagnostics.cycle_period == period
            assert stopped_on_cycle(res.diagnostics, max_iters)
            first = first or res
            assert np.array_equal(res.pixels, first.pixels)
            assert res.marginals.tobytes() == first.marginals.tobytes()
            assert summary(res) == summary(first)


def test_gf2_random_decodes_match_plain_loop():
    rng = np.random.default_rng(5)
    stopped = 0
    for _ in range(200):
        n = int(rng.integers(6, 40))
        d = int(rng.integers(2, 7))
        rows = [np.sort(rng.choice(n, d, replace=False)) for _ in range(int(rng.integers(2, n)))]
        h = ParityCheckMatrix(0, n, SparseRows.of(rows))
        llrs = rng.normal(0.0, float(rng.choice([0.5, 2.0, 8.0])), n)
        opts = BpOptions(max_iters=int(rng.integers(1, 120)))
        stopped += stopped_on_cycle(compare_gf2_bp(-llrs, h, opts).diagnostics, opts.max_iters)
    assert stopped >= 20


def noisy_word_llrs(g, rng, mean):
    """Channel LLRs of a random codeword of `g` sent as +-mean with variance 2 mean."""
    word = encode(g, rng.integers(0, 2, g.k_info))
    return (1.0 - 2.0 * word) * mean + rng.normal(0.0, math.sqrt(2.0 * mean), g.n_total)


def test_gf2_mixed_degree_decodes_match_plain_loop():
    # rows of several degrees, 1 and 2 among them, each degree its own group
    rng = np.random.default_rng(11)
    degrees = set()
    outcomes = set()
    for seed in range(20):
        g = build_generator(CodeSpec(48, 96, parse_distribution("1:0.2,3:0.5,8:0.3"), seed))
        n = 30
        hand = [np.sort(rng.choice(n, d, replace=False)) for d in rng.integers(0, 7, 25)]
        for h, llrs in (
            (derive_parity_check(g), noisy_word_llrs(g, rng, float(rng.choice([0.5, 2.0])))),
            (ParityCheckMatrix(0, n, SparseRows.of(hand)), rng.normal(0.0, 8.0, n)),
        ):
            degrees |= {vr.shape[1] for _, vr in h.rows.groups}
            max_iters = int(rng.integers(1, 60))
            d = compare_gf2_bp(-llrs, h, BpOptions(max_iters=max_iters)).diagnostics
            outcomes.add((d.converged, stopped_on_cycle(d, max_iters)))
    assert {1, 2, 4, 9} <= degrees
    assert len(outcomes) == 3  # converged, stopped on a cycle, ran to max_iters


def test_gf2_paper_scale_decode_matches_plain_loop():
    # K = 1024, N = 2048, degree 128: one group of 1024 checks of degree 129
    g = build_generator(CodeSpec(1024, 2048, DegreeDistribution.regular(128), 3))
    h = derive_parity_check(g)
    llrs = noisy_word_llrs(g, np.random.default_rng(3), 8.0)
    d = compare_gf2_bp(-llrs, h, BpOptions(max_iters=8)).diagnostics
    assert (d.iterations_run, d.converged) == (6, True)


def test_state_of_no_messages_is_a_fixed_point():
    # every check of degree 1: no message ever changes, and the decode
    # still converges through the stall rule, at the plain loop's iteration
    k = 9
    ens = IlluminationEnsemble(k, SparseRows.of([np.array([i]) for i in range(k)]))
    scene = SceneImage(3, 3, np.array([1.0, 0, 1, 0, 1, 0, 1, 1, 0]))
    m = sense(ens, scene, ChannelParams(es=1.0, n0=0.0, fading="none"), seed=0)
    for window in (1, 3, 5):
        res = compare_sum_bp(m, ens, BpOptions(stall_window=window))
        assert res.diagnostics.converged
        assert res.diagnostics.iterations_run == window + 1
