"""BP decoders: likelihoods, count pmf, sum-constraint BP, GF(2) BP.

The sum-constraint decoder is checked three independent ways: exhaustive
posterior enumeration (exact on trees, and for hard decisions on small loopy
cases), a straightforward per-edge reference decoder built on count_pmf, and
the spec'd end-to-end recovery cases. The planned check update must also
match, bit for bit, the one-shot formulation kept here as its reference.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from codedgi import decoder
from codedgi import (
    BpOptions,
    ChannelParams,
    CodeSpec,
    DegreeDistribution,
    GeneratorMatrix,
    IlluminationEnsemble,
    SceneImage,
    SparseRows,
    build_generator,
    count_pmf,
    decode_gf2_bp,
    decode_sum_bp,
    derive_parity_check,
    encode,
    measurement_likelihood,
    patterns_from_generator,
    sense,
    symbol_llr,
    syndrome,
)
from codedgi.decoder import (
    MSG_FLOOR,
    _CheckPlan,
    _sigmoid,
    effective_amplitudes,
)
from codedgi.harness import parse_distribution


def exhaustive_marginals(m, ens, prior=0.5):
    """Brute-force posterior over all 2^K scenes."""
    k = ens.k_pixels
    post = np.zeros(k)
    z = 0.0
    for bits in itertools.product([0, 1], repeat=k):
        b = np.array(bits)
        w = prior ** b.sum() * (1 - prior) ** (k - b.sum())
        for j, pat in enumerate(ens.patterns):
            w *= measurement_likelihood(
                m.bucket[j], int(b[pat].sum()), m.fading_mag[j], m.channel
            )
        post += w * b
        z += w
    return post / z


def reference_sum_bp(m, ens, opts):
    """Per-edge flooding BP written directly on count_pmf; O(d^3) per check."""
    k = ens.k_pixels
    amp = effective_amplitudes(m)
    prior = opts.prior
    edges = [(j, i) for j, pat in enumerate(ens.patterns) for i in pat]
    p2m = {e: prior for e in edges}
    m2p = {}
    marg = np.full(k, prior)
    hard = marg > 0.5
    stable = 0
    for _ in range(opts.max_iters):
        for j, pat in enumerate(ens.patterns):
            for i in pat:
                pmf = count_pmf([p2m[(j, o)] for o in pat if o != i])
                m0 = sum(
                    pmf[c] * measurement_likelihood(m.bucket[j], c, amp[j], m.channel)
                    for c in range(len(pmf))
                )
                m1 = sum(
                    pmf[c] * measurement_likelihood(m.bucket[j], c + 1, amp[j], m.channel)
                    for c in range(len(pmf))
                )
                v = 0.5 if m0 + m1 == 0 else m1 / (m0 + m1)
                m2p[(j, i)] = min(max(v, MSG_FLOOR), 1 - MSG_FLOOR)
        tot = np.full(k, math.log(prior) - math.log1p(-prior))
        for (j, i), v in m2p.items():
            tot[i] += math.log(v) - math.log1p(-v)
        for j, i in edges:
            v = m2p[(j, i)]
            x = tot[i] - (math.log(v) - math.log1p(-v))
            out = 1.0 / (1.0 + math.exp(-x))
            if opts.damping > 0:
                out = (1 - opts.damping) * out + opts.damping * p2m[(j, i)]
            p2m[(j, i)] = min(max(out, MSG_FLOOR), 1 - MSG_FLOOR)
        marg = 1.0 / (1.0 + np.exp(-tot))
        new_hard = marg > 0.5
        stable = stable + 1 if np.array_equal(new_hard, hard) else 0
        hard = new_hard
        if stable >= opts.stall_window:
            break
    return marg


class TestMeasurementLikelihood:
    def test_density_peaks_at_matching_count(self):
        ch = ChannelParams(es=4.0, n0=1.0)
        r = 0.9 * math.sqrt(4.0) * 3  # exactly count 3 at h=0.9
        vals = [measurement_likelihood(r, c, 0.9, ch) for c in range(8)]
        assert int(np.argmax(vals)) == 3

    def test_standard_normal_value(self):
        # Es=1, N0=2 -> variance 1; density at the mean is 1/sqrt(2 pi)
        ch = ChannelParams(es=1.0, n0=2.0)
        assert measurement_likelihood(0.0, 0, 1.0, ch) == pytest.approx(
            0.3989422804014327, abs=1e-15
        )

    def test_midpoint_symmetry(self):
        ch = ChannelParams(es=1.0, n0=0.5)
        h, c = 0.8, 2
        mid = h * math.sqrt(1.0) * (c + 0.5)
        ratio = measurement_likelihood(mid, c, h, ch) / measurement_likelihood(
            mid, c + 1, h, ch
        )
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_noiseless_indicator(self):
        ch = ChannelParams(es=1.0, n0=0.0)
        assert measurement_likelihood(2.0, 2, 1.0, ch) == 1.0
        assert measurement_likelihood(2.1, 2, 1.0, ch) == 0.0


class TestCountPmf:
    def test_point_mass(self):
        np.testing.assert_allclose(count_pmf([1.0, 1.0, 1.0]), [0, 0, 0, 1], atol=0)

    def test_fair_coins(self):
        np.testing.assert_allclose(count_pmf([0.5, 0.5]), [0.25, 0.5, 0.25])

    def test_enumeration_oracle(self):
        probs = [0.2, 0.3, 0.9]
        expect = np.zeros(4)
        for bits in itertools.product([0, 1], repeat=3):
            w = np.prod([p if b else 1 - p for p, b in zip(probs, bits)])
            expect[sum(bits)] += w
        np.testing.assert_allclose(count_pmf(probs), expect, atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_exhaustive_vs_enumeration(self, d):
        rng = np.random.default_rng(d)
        probs = rng.random(d)
        expect = np.zeros(d + 1)
        for bits in itertools.product([0, 1], repeat=d):
            w = np.prod([p if b else 1 - p for p, b in zip(probs, bits)])
            expect[sum(bits)] += w
        pmf = count_pmf(probs)
        np.testing.assert_allclose(pmf, expect, atol=1e-12)
        assert abs(pmf.sum() - 1.0) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            count_pmf([0.5, 1.2])


class TestSymbolLlr:
    def test_midpoint_gives_zero(self):
        ch = ChannelParams(es=1.0, n0=0.7)
        h = 0.6
        assert symbol_llr(h * math.sqrt(1.0) / 2, h, ch) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_value(self):
        # (h sqrt(Es)) (h sqrt(Es) - 2r) / N0 at r=0, Es=N0=h=1
        assert symbol_llr(0.0, 1.0, ChannelParams(es=1.0, n0=1.0)) == pytest.approx(1.0)

    def test_strictly_decreasing_in_r(self):
        ch = ChannelParams(es=2.0, n0=0.3)
        rs = np.linspace(-2, 3, 40)
        vals = [symbol_llr(r, 0.9, ch) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_requires_noise(self):
        with pytest.raises(ValueError):
            symbol_llr(0.0, 1.0, ChannelParams(es=1.0, n0=0.0))


def oracle_check_messages(p, r, amp, ch):
    """Per-edge leave-one-out messages from count_pmf and measurement_likelihood."""
    b, d = p.shape
    out = np.empty((b, d))
    for j in range(b):
        lik = np.array([measurement_likelihood(r[j], c, amp[j], ch) for c in range(d + 1)])
        for t in range(d):
            pmf = count_pmf(np.delete(p[j], t))
            m0, m1 = pmf @ lik[:d], pmf @ lik[1:]
            out[j, t] = 0.5 if m0 + m1 == 0 else m1 / (m0 + m1)
    return np.clip(out, MSG_FLOOR, 1.0 - MSG_FLOOR)


class TestCheckUpdate:
    @pytest.mark.parametrize("n0", [0.5, 0.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16, 33, 127, 128])
    def test_matches_leave_one_out_oracle(self, d, n0):
        rng = np.random.default_rng(1000 * d + int(n0 > 0))
        b = 4
        ch = ChannelParams(es=1.0, n0=n0, fading="rayleigh")
        p = rng.random((b, d))
        p.flat[0], p.flat[-1] = MSG_FLOOR, 1.0 - MSG_FLOOR
        amp = rng.rayleigh(scale=math.sqrt(0.5), size=b)
        counts = (rng.random((b, d)) < p).sum(axis=1).astype(np.float64)
        if n0 == 0:
            counts[1] += 0.5  # no count fits: every likelihood is zero
        r = amp * math.sqrt(ch.es) * counts + rng.normal(0.0, math.sqrt(n0 / 2), b)
        logits = planned_check_update(p, r, amp, ch)
        expect = oracle_check_messages(p, r, amp, ch)
        if n0 == 0:
            assert np.all(expect[1] == 0.5)

        def llr(x):
            return np.log(x) - np.log1p(-x)

        np.testing.assert_allclose(logits, llr(expect), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n0", [0.5, 0.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 100, 128, 129])
    def test_plan_matches_oneshot_kernel_bit_for_bit(self, d, n0):
        rng = np.random.default_rng(7000 + d)
        b = 3
        ch = ChannelParams(es=1.0, n0=n0, fading="rayleigh")
        amp = rng.rayleigh(scale=math.sqrt(0.5), size=b)
        plan = _CheckPlan(b, d)
        # two passes through one plan: the second must not see the first
        for _ in range(2):
            p = rng.random((b, d))
            counts = (rng.random((b, d)) < p).sum(axis=1).astype(np.float64)
            if n0 == 0:
                counts[0] += 0.5
            r = amp * counts + rng.normal(0.0, math.sqrt(n0 / 2), b)
            plan.set_likelihoods(r, amp, ch)
            expect = oneshot_check_update(p, oneshot_likelihood_table(r, amp, d, ch))
            assert np.array_equal(plan(p), expect)


def planned_check_update(p, r, amp, ch):
    plan = _CheckPlan(*p.shape)
    plan.set_likelihoods(r, amp, ch)
    return plan(p)


def oneshot_likelihood_table(r, amp, degree, ch):
    """(d'+1, B) relative likelihoods over counts 0..d', zero past count d."""
    counts = np.arange(degree + 1, dtype=np.float64)
    mean = amp[:, None] * math.sqrt(ch.es) * counts[None, :]
    if ch.n0 == 0:
        tol = 1e-9 * np.maximum(1.0, np.abs(r))[:, None]
        tab = (np.abs(r[:, None] - mean) <= tol).astype(np.float64)
    else:
        logf = -((r[:, None] - mean) ** 2) / ch.n0
        tab = np.exp(logf - logf.max(axis=1, keepdims=True))
    out = np.zeros(((1 << (degree - 1).bit_length()) + 1, len(r)))
    out[: degree + 1] = tab.T
    return out


def oneshot_check_update(p2m, lik):
    """The segment-tree check update with every buffer and view made per call.

    The reference the planned kernel must match bit for bit: the same
    einsums over freshly padded levels and freshly made windows.
    """
    b, d = p2m.shape
    levels = (d - 1).bit_length()
    leaves = np.zeros((1 << levels, 2, b))
    leaves[:, 0] = 1.0
    leaves[:d, 0] = 1.0 - p2m.T
    leaves[:d, 1] = p2m.T
    pmfs = [leaves]
    for _ in range(levels - 1):
        pairs = pmfs[-1].reshape(-1, 2, *pmfs[-1].shape[1:])
        s = pairs.shape[2] - 1
        padded = np.zeros((len(pairs), 3 * s + 1, b))
        padded[:, s : 2 * s + 1] = pairs[:, 0]
        windows = sliding_window_view(padded, s + 1, axis=1)
        pmfs.append(np.einsum("nkbj,njb->nkb", windows, pairs[:, 1, ::-1]))
    gamma = lik[None]
    for pmf in reversed(pmfs[:levels]):
        s1 = pmf.shape[1]
        windows = sliding_window_view(gamma, s1, axis=1)
        sibling = pmf.reshape(-1, 2, s1, b)[:, ::-1]
        gamma = np.einsum("nubv,ncvb->ncub", windows, sibling).reshape(-1, s1, b)
    m0, m1 = gamma[:d, 0], gamma[:d, 1]
    denom = m0 + m1
    msg = np.divide(m1, denom, out=np.full_like(m1, 0.5), where=denom > 0)
    msg = np.clip(msg, MSG_FLOOR, 1.0 - MSG_FLOOR)
    return (np.log(msg) - np.log1p(-msg)).T


def test_sigmoid_matches_masked_formula_bit_for_bit():
    edges = [0.0, 1e-300, 36.0, 700.0, 1e308]
    x = np.concatenate([edges, np.negative(edges), np.random.default_rng(3).normal(0, 20, 500)])
    expect = np.empty_like(x)
    pos = x >= 0
    expect[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expect[~pos] = ex / (1.0 + ex)
    assert np.signbit(x[len(edges)])  # -0.0 takes the x >= 0 branch in both
    assert np.array_equal(_sigmoid(x), expect)


def tree_ensemble():
    """Acyclic pixel/measurement graph over 4 pixels."""
    patterns = [np.array([0]), np.array([0, 1]), np.array([1, 2]), np.array([2, 3])]
    return IlluminationEnsemble(k_pixels=4, patterns=SparseRows.of(patterns))


class TestDecodeSumBp:
    def test_noiseless_identity_pins_every_pixel(self):
        g = build_generator(CodeSpec(9, 9, DegreeDistribution.regular(1), seed=0))
        ens = patterns_from_generator(g)
        scene = SceneImage(
            width=3, height=3, reflectance=np.array([1, 0, 1, 0, 1, 0, 1, 1, 0], dtype=float)
        )
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.0, fading="none"), seed=0)
        res = decode_sum_bp(m, ens)
        assert np.array_equal(res.pixels, scene.reflectance.astype(np.uint8))
        assert res.diagnostics.converged
        assert res.diagnostics.iterations_run <= 1 + BpOptions().stall_window

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_tree_marginals_match_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        ens = tree_ensemble()
        scene = SceneImage(width=2, height=2, reflectance=rng.integers(0, 2, 4).astype(float))
        ch = ChannelParams(es=1.0, n0=0.8, fading="rayleigh")
        m = sense(ens, scene, ch, seed=seed + 100)
        # stall_window must exceed the tree diameter: hard decisions can
        # settle before the outermost messages have propagated
        res = decode_sum_bp(m, ens, BpOptions(stall_window=12))
        exact = exhaustive_marginals(m, ens)
        np.testing.assert_allclose(res.marginals, exact, atol=1e-9)

    def test_all_zero_scene_decodes_all_zero(self):
        # pure-noise transmission at 10 dB; CSI-less receiver
        scene = SceneImage(width=16, height=16, reflectance=np.zeros(256))
        dist = DegreeDistribution.regular(8)
        ch = ChannelParams(es=1.0, n0=0.1, fading="rayleigh", csi_known=False)
        good = 0
        for t in range(100):
            g = build_generator(CodeSpec(256, 512, dist, seed=t))
            ens = patterns_from_generator(g)
            m = sense(ens, scene, ch, seed=10_000 + t)
            res = decode_sum_bp(m, ens)
            good += int(res.pixels.sum() == 0)
        assert good >= 99

    @pytest.mark.parametrize("csi,damping", [(True, 0.0), (False, 0.0), (True, 0.4)])
    def test_matches_reference_decoder(self, csi, damping):
        rng = np.random.default_rng(17)
        k = 6
        patterns = [np.array([i]) for i in range(k)] + [
            np.sort(rng.choice(k, 3, replace=False)) for _ in range(6)
        ]
        ens = IlluminationEnsemble(k_pixels=k, patterns=SparseRows.of(patterns))
        scene = SceneImage(width=3, height=2, reflectance=rng.integers(0, 2, k).astype(float))
        ch = ChannelParams(es=1.0, n0=1.2, fading="rayleigh", csi_known=csi)
        m = sense(ens, scene, ch, seed=23)
        opts = BpOptions(max_iters=15, damping=damping)
        fast = decode_sum_bp(m, ens, opts).marginals
        slow = reference_sum_bp(m, ens, opts)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_unpinned_pixel_decodes_from_prior(self):
        # pixel 2 never illuminated
        patterns = [np.array([0]), np.array([1]), np.array([0, 1])]
        ens = IlluminationEnsemble(k_pixels=3, patterns=SparseRows.of(patterns))
        scene = SceneImage(width=3, height=1, reflectance=np.array([1.0, 0.0, 1.0]))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.2, fading="none"), seed=3)
        res = decode_sum_bp(m, ens)
        assert res.diagnostics.unpinned_pixel_count == 1
        assert res.marginals[2] == 0.5
        assert res.pixels[2] == 0  # tie at 0.5 breaks to 0

    def test_noiseless_full_rank_zero_residual(self):
        g = build_generator(CodeSpec(25, 50, DegreeDistribution.regular(4), seed=9))
        ens = patterns_from_generator(g)
        rng = np.random.default_rng(4)
        scene = SceneImage(width=5, height=5, reflectance=rng.integers(0, 2, 25).astype(float))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.0, fading="none"), seed=1)
        res = decode_sum_bp(m, ens)
        assert res.diagnostics.residual == 0.0
        assert np.array_equal(res.pixels, scene.reflectance.astype(np.uint8))

    def test_deterministic(self):
        g = build_generator(CodeSpec(36, 72, DegreeDistribution.regular(5), seed=21))
        ens = patterns_from_generator(g)
        rng = np.random.default_rng(8)
        scene = SceneImage(width=6, height=6, reflectance=rng.integers(0, 2, 36).astype(float))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.4, fading="rayleigh"), seed=5)
        r1 = decode_sum_bp(m, ens)
        r2 = decode_sum_bp(m, ens)
        np.testing.assert_array_equal(r1.pixels, r2.pixels)
        np.testing.assert_array_equal(r1.marginals, r2.marginals)
        assert r1.diagnostics.iterations_run == r2.diagnostics.iterations_run

    def test_length_mismatch_rejected(self):
        ens = tree_ensemble()
        scene = SceneImage(width=2, height=2, reflectance=np.zeros(4))
        m = sense(ens, scene, ChannelParams(), seed=0)
        short = IlluminationEnsemble(4, SparseRows.of(list(ens.patterns)[:3]))
        with pytest.raises(ValueError):
            decode_sum_bp(m, short)

    def test_sense_and_decode_share_one_layout(self, monkeypatch):
        # each degree-grouped layout build calls np.unique once: sense builds
        # the patterns' layout, and decode_sum_bp must reuse it
        g = build_generator(CodeSpec(16, 32, DegreeDistribution.regular(4), seed=6))
        ens = patterns_from_generator(g)
        builds = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: builds.append(1) or unique(*a, **kw))
        scene = SceneImage(4, 4, np.random.default_rng(6).integers(0, 2, 16).astype(float))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.5, fading="rayleigh"), seed=7)
        decode_sum_bp(m, ens, BpOptions(max_iters=3))
        assert len(builds) == 1


def coded_decode(k, n, dist, seed, opts):
    g = build_generator(CodeSpec(k, n, dist, seed=seed))
    ens = patterns_from_generator(g)
    side = math.isqrt(k)
    scene = SceneImage(side, k // side, np.random.default_rng(seed).integers(0, 2, k).astype(float))
    m = sense(ens, scene, ChannelParams(es=1.0, n0=0.5, fading="rayleigh"), seed=seed + 1)
    return decode_sum_bp(m, ens, opts), ens


def check_shapes(ens):
    return {px.shape for _, px in ens.patterns.groups if px.shape[1] > 1}


class TestCheckPlans:
    def test_shape_switches_leave_results_unchanged(self):
        opts = BpOptions(max_iters=20, damping=0.3)
        first, ens_a = coded_decode(36, 72, DegreeDistribution.regular(5), 11, opts)
        _, ens_b = coded_decode(49, 98, DegreeDistribution.regular(3), 12, opts)
        assert set(decoder._plans.by_shape) == check_shapes(ens_b)
        third, _ = coded_decode(36, 72, DegreeDistribution.regular(5), 11, opts)
        assert set(decoder._plans.by_shape) == check_shapes(ens_a)
        np.testing.assert_array_equal(third.pixels, first.pixels)
        np.testing.assert_array_equal(third.marginals, first.marginals)
        assert third.diagnostics == first.diagnostics

    def test_degree_one_parity_rows_match_reference_decoder(self):
        # degree-1 parity columns join the identity group, whose messages
        # are folded into the prior
        dist = parse_distribution("1:0.5,3:0.5")
        g = build_generator(CodeSpec(6, 12, dist, seed=4))
        ens = patterns_from_generator(g)
        assert sorted(ens.patterns.sizes.tolist()).count(1) > 6
        scene = SceneImage(3, 2, np.array([1.0, 0, 0, 1, 1, 0]))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=1.2, fading="rayleigh"), seed=5)
        opts = BpOptions(max_iters=15, damping=0.2)
        fast = decode_sum_bp(m, ens, opts).marginals
        np.testing.assert_allclose(fast, reference_sum_bp(m, ens, opts), atol=1e-12)
        assert set(decoder._plans.by_shape) == check_shapes(ens)

    def test_plans_built_once_per_shape(self, monkeypatch):
        built = []

        class CountingPlan(_CheckPlan):
            def __init__(self, b, d):
                built.append((b, d))
                super().__init__(b, d)

        monkeypatch.setattr(decoder, "_CheckPlan", CountingPlan)
        dist = parse_distribution("3:0.5,5:0.5")
        # iterate to max_iters without stopping early
        opts = BpOptions(max_iters=50, stall_window=51)
        coded_decode(16, 32, DegreeDistribution.regular(4), 2, opts)  # evict other shapes
        built.clear()
        res, ens = coded_decode(36, 72, dist, 3, opts)
        assert res.diagnostics.iterations_run == 50
        assert sorted(built) == sorted(check_shapes(ens))
        built.clear()
        coded_decode(36, 72, dist, 3, opts)
        assert built == []


def ml_codeword(llrs, g):
    """Exhaustive max-likelihood over all information words."""
    best, best_metric = None, -np.inf
    for bits in itertools.product([0, 1], repeat=g.k_info):
        cw = encode(g, np.array(bits))
        metric = -np.sum(cw * llrs)  # maximize sum of -llr over set bits
        if metric > best_metric:
            best, best_metric = cw, metric
    return best


class TestDecodeGf2Bp:
    def toy(self):
        return GeneratorMatrix(
            k_info=3, n_total=5, seed=0,
            parity_columns=SparseRows.of([np.array([0, 1]), np.array([1, 2])]),
        )

    def test_strong_positive_llrs_decode_zero(self):
        h = derive_parity_check(self.toy())
        res = decode_gf2_bp(np.full(5, 12.0), h)
        assert not res.pixels.any()
        assert res.diagnostics.converged
        assert res.diagnostics.iterations_run == 1
        assert not syndrome(h, np.zeros(5, dtype=np.uint8)).any()

    def test_single_flip_corrected_at_high_snr(self):
        g = self.toy()
        h = derive_parity_check(g)
        ch = ChannelParams(es=1.0, n0=0.05)
        true_bits = np.array([1, 0, 1])
        cw = encode(g, true_bits)
        r = cw * math.sqrt(ch.es)  # clean on-off amplitudes
        r = r.astype(float)
        r[0] = 0.45 * math.sqrt(ch.es)  # push the first symbol toward 0
        llrs = np.array([symbol_llr(ri, 1.0, ch) for ri in r])
        res = decode_gf2_bp(llrs, h)
        assert np.array_equal(res.pixels, true_bits)
        # exhaustive ML oracle agrees
        assert np.array_equal(ml_codeword(llrs, g)[:3], true_bits)

    def test_converged_implies_zero_syndrome(self):
        g = build_generator(CodeSpec(12, 24, DegreeDistribution.regular(3), seed=2))
        h = derive_parity_check(g)
        rng = np.random.default_rng(0)
        converged_runs = 0
        for _ in range(30):
            llrs = rng.normal(0, 2, 24)
            res = decode_gf2_bp(llrs, h, BpOptions(max_iters=30))
            if res.diagnostics.converged:
                converged_runs += 1
                assert len(res.marginals) == 24
                word = (res.marginals > 0.5).astype(np.uint8)
                assert not syndrome(h, word).any()
        assert converged_runs > 0

    def test_honest_diagnostics_on_random_llrs(self):
        h = derive_parity_check(self.toy())
        rng = np.random.default_rng(5)
        saw_unconverged = False
        for _ in range(50):
            res = decode_gf2_bp(rng.normal(0, 1, 5), h, BpOptions(max_iters=5))
            assert res.diagnostics.iterations_run <= 5
            if not res.diagnostics.converged:
                saw_unconverged = True
        assert saw_unconverged

    def test_length_and_mode_validation(self):
        h = derive_parity_check(self.toy())
        with pytest.raises(ValueError):
            decode_gf2_bp(np.zeros(4), h)
