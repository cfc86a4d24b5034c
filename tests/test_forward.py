"""Forward model: ensembles, fading/noise statistics, serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from codedgi import (
    ChannelParams,
    CodeSpec,
    DegreeDistribution,
    IlluminationEnsemble,
    SceneImage,
    SparseRows,
    Measurement,
    build_generator,
    count_loglik,
    onoff_logits,
    patterns_from_generator,
    random_speckle,
    receiver_gains,
    sense,
    snr_db_to_linear,
)
from codedgi.forward import (
    FADING_MODES,
    RAYLEIGH_MEAN_MAG,
    load_measurement_csv,
    pattern_sums,
    save_measurement_csv,
    transmit,
)
import mpmath as mp

from oracles import fading_loglik, measurement_likelihood, moment_matched_loglik


def flat_scene(values):
    values = np.asarray(values, dtype=np.float64)
    return SceneImage(width=len(values), height=1, reflectance=values)


class TestPatternsFromGenerator:
    def test_degree_one_code_gives_all_singletons(self):
        g = build_generator(CodeSpec(4, 8, DegreeDistribution.regular(1), seed=0))
        ens = patterns_from_generator(g)
        assert len(ens.patterns) == 8
        assert all(len(p) == 1 for p in ens.patterns)

    def test_identity_block_comes_first(self):
        g = build_generator(CodeSpec(6, 10, DegreeDistribution.regular(3), seed=1))
        ens = patterns_from_generator(g)
        for i, pattern in zip(range(6), ens.patterns):
            assert pattern.tolist() == [i]

    def test_parity_duty_at_degree_128(self):
        g = build_generator(CodeSpec(1024, 1280, DegreeDistribution.regular(128), seed=2))
        ens = patterns_from_generator(g)
        parity_sizes = ens.patterns.sizes[1024:]
        assert np.all(parity_sizes == 128)  # duty 128/1024 = 12.5%

    def test_reference_configuration_pattern_count(self):
        # 32x32 plane at 2x sampling: 2048 illumination patterns
        g = build_generator(CodeSpec(1024, 2048, DegreeDistribution.regular(8), seed=0))
        assert len(patterns_from_generator(g).patterns) == 2048

    def test_coded_duty_formula_exact(self):
        # the parity patterns light the code's parity duty ratio of the pixels
        g = build_generator(CodeSpec(32, 80, DegreeDistribution.regular(4), seed=3))
        parity_sizes = patterns_from_generator(g).patterns.sizes[32:]
        assert parity_sizes.mean() / 32 == g.parity_duty_ratio() == 4 / 32

    def test_singletons_then_parity_columns(self):
        g = build_generator(CodeSpec(20, 45, DegreeDistribution(((1, 0.5), (6, 0.5))), seed=2))
        want = [np.array([i]) for i in range(20)] + list(g.parity_columns)
        got = list(patterns_from_generator(g).patterns)
        assert len(got) == len(want)
        assert all(x.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(got, want))


class TestRandomSpeckle:
    def test_full_duty_lights_everything(self):
        ens = random_speckle(16, 5, duty=1.0, seed=0)
        assert all(len(p) == 16 for p in ens.patterns)

    def test_empirical_duty(self):
        k, n, duty = 1024, 2048, 0.15
        ens = random_speckle(k, n, duty, seed=4)
        total = ens.patterns.sizes.sum()
        se = math.sqrt(duty * (1 - duty) * n * k)
        assert abs(total - duty * n * k) < 3 * se

    def test_reproducible(self):
        a = random_speckle(32, 10, 0.3, seed=9)
        b = random_speckle(32, 10, 0.3, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.patterns, b.patterns))

    @pytest.mark.parametrize(
        "k, n, duty, seed",
        [(1, 1, 0.5, 0), (16, 5, 1.0, 0), (9, 40, 0.05, 3), (64, 33, 0.3, 7),
         (1024, 64, 0.15, 20250810), (8, 0, 0.5, 1)],
    )
    def test_matches_per_row_draws(self, k, n, duty, seed):
        # per-row draws and per-row dense fill, kept as the oracle for the block versions
        rng = np.random.default_rng(seed)
        want = [np.flatnonzero(rng.random(k) < duty).astype(np.int64) for _ in range(n)]
        want_dense = np.zeros((n, k))
        for i, pat in enumerate(want):
            want_dense[i, pat] = 1.0
        if (k, n) == (9, 40):
            assert any(len(p) == 0 for p in want)
        ens = random_speckle(k, n, duty, seed)
        assert len(ens.patterns) == n
        for got, pat in zip(ens.patterns, want):
            assert got.dtype == np.int64 and np.array_equal(got, pat)
        assert np.array_equal(ens.dense(), want_dense)

    @pytest.mark.parametrize("duty", [0.0, 1.5, -0.1])
    def test_invalid_duty(self, duty):
        with pytest.raises(ValueError):
            random_speckle(8, 4, duty, seed=0)


class TestSense:
    def test_noiseless_sum_is_exact(self):
        ens = IlluminationEnsemble(3, SparseRows.of([np.array([0, 1, 2])]))
        scene = flat_scene([1.0, 1.0, 1.0])
        ch = ChannelParams(es=4.0, n0=0.0, fading="none")
        m = sense(ens, scene, ch, seed=0)
        assert m.bucket[0] == 3 * math.sqrt(4.0)

    def test_all_zero_scene_is_pure_noise(self):
        g = build_generator(CodeSpec(64, 128, DegreeDistribution.regular(4), seed=5))
        ens = patterns_from_generator(g)
        scene = SceneImage(width=8, height=8, reflectance=np.zeros(64))
        ch = ChannelParams(es=1.0, n0=2.0, fading="rayleigh")
        buckets = np.concatenate(
            [sense(ens, scene, ch, seed=s).bucket for s in range(50)]
        )
        se = math.sqrt(1.0 / len(buckets))  # var = N0/2 = 1
        assert abs(buckets.mean()) < 3 * se

    def test_rayleigh_magnitude_moments(self):
        ens = IlluminationEnsemble(1, SparseRows.of([np.array([0])] * 100_000))
        scene = flat_scene([1.0])
        ch = ChannelParams(es=1.0, n0=0.0, fading="rayleigh")
        h = sense(ens, scene, ch, seed=6).fading_mag
        # E|h| = sqrt(pi)/2, Var|h| = 1 - pi/4 at unit second moment
        se_mean = math.sqrt((1 - math.pi / 4) / len(h))
        assert abs(h.mean() - math.sqrt(math.pi) / 2) < 3 * se_mean
        se_sq = np.std(h**2, ddof=1) / math.sqrt(len(h))
        assert abs(np.mean(h**2) - 1.0) < 3 * se_sq

    def test_noise_variance_matches_n0_over_two(self):
        ens = IlluminationEnsemble(1, SparseRows.of([np.array([0])] * 50_000))
        scene = flat_scene([0.0])
        ch = ChannelParams(es=1.0, n0=3.0, fading="none")
        w = sense(ens, scene, ch, seed=7).bucket
        var = np.var(w, ddof=1)
        se = 1.5 * math.sqrt(2.0 / (len(w) - 1))  # var of sample variance
        assert abs(var - 1.5) < 3 * se

    def test_noiseless_sensing_is_linear(self):
        ens = random_speckle(12, 30, 0.4, seed=8)
        a, b = 0.3, 0.5
        rng = np.random.default_rng(3)
        d1, d2 = rng.random(12), rng.random(12)
        ch = ChannelParams(es=1.0, n0=0.0, fading="none")
        lhs = sense(ens, flat_scene(a * d1 + b * d2), ch, seed=0).bucket
        rhs = a * sense(ens, flat_scene(d1), ch, seed=0).bucket + b * sense(
            ens, flat_scene(d2), ch, seed=0
        ).bucket
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_transmit_is_sense_through_singleton_patterns(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        ens = IlluminationEnsemble(8, SparseRows.of([np.array([i]) for i in range(8)]))
        ch = ChannelParams(es=2.0, n0=0.3, fading="rayleigh")
        sent = transmit(bits, ch, seed=9)
        sensed = sense(ens, flat_scene(bits), ch, seed=9)
        assert np.array_equal(sent.bucket, sensed.bucket)
        assert np.array_equal(sent.fading_mag, sensed.fading_mag)

    def test_pixel_count_mismatch(self):
        ens = random_speckle(8, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            sense(ens, flat_scene([0.0] * 9), ChannelParams(), seed=0)

    def test_pattern_sums_grayscale(self):
        ens = IlluminationEnsemble(3, SparseRows.of([np.array([0, 2])]))
        assert pattern_sums(ens, flat_scene([0.25, 1.0, 0.5]))[0] == 0.75


class TestSceneImage:
    def test_rejects_nan_reflectance(self):
        # NaN fails both `< 0` and `> 1`, and would only be caught at sensing
        with pytest.raises(ValueError, match="reflectance values"):
            SceneImage(2, 1, [math.nan, 1.0])

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (-1, -1)])
    def test_rejects_non_positive_dimensions(self, width, height):
        with pytest.raises(ValueError, match="scene dimensions must be positive"):
            SceneImage(width, height, [])

    def test_rejects_reflectance_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="reflectance length"):
            SceneImage(2, 2, [0.0, 1.0, 0.5])


class TestMeasurement:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bucket(self, bad):
        with pytest.raises(ValueError, match="bucket values must be finite"):
            Measurement(bucket=[1.0, bad], fading_mag=np.ones(2), channel=ChannelParams(), seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fading(self, bad):
        # NaN passes a `< 0` check, so it needs its own
        with pytest.raises(ValueError, match="fading magnitudes must be finite"):
            Measurement(bucket=np.ones(2), fading_mag=[0.5, bad], channel=ChannelParams(), seed=0)

    def test_rejects_negative_fading(self):
        with pytest.raises(ValueError, match="non-negative"):
            Measurement(bucket=np.ones(2), fading_mag=[0.5, -0.1], channel=ChannelParams(), seed=0)

    def test_rejects_bucket_and_fading_of_different_lengths(self):
        with pytest.raises(ValueError, match="bucket and fading_mag lengths differ"):
            Measurement(bucket=np.ones(3), fading_mag=np.ones(2), channel=ChannelParams(), seed=0)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(es=0.0)
        with pytest.raises(ValueError):
            ChannelParams(n0=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(fading="rician")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ChannelParams(es=bad)
            with pytest.raises(ValueError):
                ChannelParams(n0=bad)
        assert ChannelParams(n0=0.0).n0 == 0.0

    def test_at_snr_db(self):
        for snr_db in (-3.0, 0.0, 5.0, 8.5, 14.0):
            ch = ChannelParams.at_snr_db(snr_db, 2.0, "rayleigh", False)
            assert ch == ChannelParams(
                es=2.0, n0=2.0 / snr_db_to_linear(snr_db), fading="rayleigh", csi_known=False
            )
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                ChannelParams.at_snr_db(bad)
        for bad in (4000.0, -4000.0):
            with pytest.raises(ValueError, match="range"):
                ChannelParams.at_snr_db(bad)


class TestReceiverModel:
    """The receiver's gains and count log-likelihoods, against independent oracles."""

    @pytest.mark.parametrize(
        "fading, blind", [("rayleigh", RAYLEIGH_MEAN_MAG), ("none", 1.0)], ids=["rayleigh", "none"]
    )
    def test_receiver_gains(self, fading, blind):
        # sqrt(Es) = 1.5 exactly, so a gain that drops it is off by 1.5x
        ens = IlluminationEnsemble(1, SparseRows.of([np.array([0])] * 4))
        ch = ChannelParams(es=2.25, fading=fading, csi_known=True)
        m = sense(ens, flat_scene([1.0]), ch, seed=1)
        assert np.array_equal(receiver_gains(m), 1.5 * m.fading_mag)
        m2 = sense(ens, flat_scene([1.0]), replace(ch, csi_known=False), seed=1)
        assert np.array_equal(m2.fading_mag, m.fading_mag)
        assert np.array_equal(receiver_gains(m2), np.full(4, 1.5 * blind))

    @pytest.mark.parametrize("csi", [True, False])
    @pytest.mark.parametrize("fading", FADING_MODES)
    def test_matches_measurement_likelihood(self, fading, csi):
        # log density ratios across counts, against the scalar oracle fed the
        # magnitudes the receiver assumes; without CSI under Rayleigh fading,
        # against the Gaussian with the exact fading density's moments
        ch = ChannelParams(es=2.5, n0=0.8, fading=fading, csi_known=csi)
        m = transmit(np.arange(12) % 5, ch, seed=3)
        mags = m.fading_mag if csi else np.ones(12)
        counts = np.arange(7)
        got = count_loglik(m, counts)
        if fading == "rayleigh" and not csi:
            want = moment_matched_loglik(m.bucket, counts, ch)
        else:
            want = np.log(
                [[measurement_likelihood(r, c, h, ch) for c in counts] for r, h in zip(m.bucket, mags)]
            )
        np.testing.assert_allclose(got - got[:, :1], want - want[:, :1], rtol=0, atol=1e-12)
        ids = np.array([7, 0, 3])
        assert np.array_equal(count_loglik(m, counts, ids), got[ids])

    def test_noiseless_indicator(self):
        ch = ChannelParams(es=4.0, n0=0.0)
        # gain 2: r = 2 is count 1, r = 4 + 1e-12 is count 2 within the
        # tolerance, and r = 3 or 4.01 fits no count
        r = np.array([2.0, 4.0 + 1e-12, 3.0, 4.01])
        m = Measurement(bucket=r, fading_mag=np.ones(4), channel=ch, seed=0)
        expect = np.full((4, 4), -np.inf)
        expect[0, 1] = expect[1, 2] = 0.0
        assert np.array_equal(count_loglik(m, np.arange(4)), expect)
        oracle = [[measurement_likelihood(x, c, 1.0, ch) for c in range(4)] for x in r]
        assert np.array_equal(np.exp(expect), oracle)

    def test_noiseless_without_csi(self):
        # the exact density at N0 = 0: count 0 is a point mass at r = 0, and
        # a count c >= 1 spreads r over (0, inf), so it has density 0 at r = 0
        ch = ChannelParams(es=4.0, n0=0.0, fading="rayleigh", csi_known=False)
        r = np.array([0.0, 1e-12, 0.3, 5.0])
        m = Measurement(bucket=r, fading_mag=np.ones(4), channel=ch, seed=0)
        got = count_loglik(m, np.arange(4))
        assert np.array_equal(got[:2], [[0.0, -np.inf, -np.inf, -np.inf]] * 2)
        assert np.isneginf(got[2:, 0]).all() and np.isfinite(got[2:, 1:]).all()
        var = 4.0 * (1.0 - math.pi / 4.0) * np.arange(1, 4) ** 2
        mean = 2.0 * RAYLEIGH_MEAN_MAG * np.arange(1, 4)
        want = -((r[2:, None] - mean) ** 2) / (2.0 * var) - 0.5 * np.log(var)
        np.testing.assert_allclose(got[2:, 1:], want, rtol=1e-15, atol=0)
        logits = onoff_logits(m)
        assert np.array_equal(logits, [-np.inf, -np.inf, np.inf, np.inf])


class TestFadingDensity:
    """The oracle `fading_loglik` against mpmath's quadrature of its defining integral."""

    @staticmethod
    def quad(r, c, ch):
        # log of the integral over |h| = a of 2a exp(-a^2) N(r; a sqrt(Es) c, N0/2),
        # split around the peak of its integrand
        mp.mp.dps = 40
        s2, r = mp.mpf(ch.n0) / 2, mp.mpf(r)
        log_phi = -r * r / (2 * s2) - mp.log(2 * mp.pi * s2) / 2
        if c == 0:
            return log_phi
        b = mp.sqrt(ch.es) * c
        alpha, beta = 1 + b * b / (2 * s2), r * b / (2 * s2)
        peak = (beta + mp.sqrt(beta**2 + 2 * alpha)) / (2 * alpha)
        top = 2 * beta * peak - alpha * peak**2
        width = min(1 / mp.sqrt(alpha), peak)
        cuts = sorted({mp.mpf(0), *(max(peak + k * width, 0) for k in (-2, -1, 0, 1, 2, 4, 8, 16, 32))})
        area = mp.quad(lambda a: 2 * a * mp.exp(-alpha * a * a + 2 * beta * a - top), cuts + [mp.inf])
        return log_phi + top + mp.log(area)

    @pytest.mark.parametrize("count", [0, 1, 3, 8])
    def test_matches_quadrature(self, count):
        ch = ChannelParams(es=1.0, n0=0.2, fading="rayleigh", csi_known=False)
        r = np.array([-0.7, 0.0, 0.9, 2.5, 6.0])
        got = fading_loglik(r, [count], ch)[:, 0]
        want = [float(self.quad(x, count, ch)) for x in r]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("r, count", [(-0.68, 8), (-1.2, 8), (12.0, 3), (30.0, 8)])
    def test_matches_quadrature_in_the_tails(self, r, count):
        # zeta = -15 (log p = -245), -27 (log p = -735), where the series
        # takes over, then 268 and 671, far past erfcx(-zeta)'s overflow
        ch = ChannelParams(es=1.0, n0=0.002, fading="rayleigh", csi_known=False)
        got = fading_loglik([r], [count], ch)[0, 0]
        np.testing.assert_allclose(got, float(self.quad(r, count, ch)), rtol=1e-15, atol=1e-9)


def onoff_llr(r, h_mag, ch):
    """GF(2) channel LLR log p(r | 0) / p(r | 1), minus the on-off logit."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    m = Measurement(bucket=r, fading_mag=np.broadcast_to(h_mag, r.shape), channel=ch, seed=0)
    return -onoff_logits(m)


class TestOnOffLlr:
    def test_midpoint_gives_zero(self):
        ch = ChannelParams(es=1.0, n0=0.7)
        h = 0.6
        assert onoff_llr(h * math.sqrt(1.0) / 2, h, ch)[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("csi", [True, False])
    @pytest.mark.parametrize("snr_db", [0.0, 8.0, 14.0])
    def test_closed_form_value(self, snr_db, csi):
        # a (a - 2r) / N0 with a the receiver's gain, on desk-sized on-off
        # traffic; without CSI the log ratio of the Gaussians with the exact
        # fading density's moments at counts 1 and 0
        assert onoff_llr(0.0, 1.0, ChannelParams(es=1.0, n0=1.0))[0] == pytest.approx(1.0)
        ch = ChannelParams.at_snr_db(snr_db, 2.0, "rayleigh", csi)
        m = transmit(np.random.default_rng(4).integers(0, 2, 512), ch, seed=5)
        if csi:
            a = receiver_gains(m)
            want = a * (2.0 * m.bucket - a) / ch.n0
        else:
            want = np.diff(moment_matched_loglik(m.bucket, (0, 1), ch), axis=1)[:, 0]
        np.testing.assert_allclose(onoff_logits(m), want, rtol=0, atol=1e-12)

    def test_strictly_decreasing_in_r(self):
        vals = onoff_llr(np.linspace(-2, 3, 40), 0.9, ChannelParams(es=2.0, n0=0.3))
        assert np.all(np.diff(vals) < 0)


class TestSnrConversions:
    def test_reference_points(self):
        assert snr_db_to_linear(0.0) == 1.0
        assert snr_db_to_linear(10.0) == 10.0

    def test_round_trip(self):
        for x in (0.01, 1.0, 3.7, 250.0):
            ch = ChannelParams.at_snr_db(10.0 * math.log10(x))
            gamma = ch.es / ch.n0
            assert abs(gamma - x) < 1e-12 * x


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        ens = random_speckle(16, 20, 0.3, seed=2)
        scene = flat_scene(np.linspace(0, 1, 16))
        ch = ChannelParams(es=2.0, n0=0.7, fading="rayleigh", csi_known=False)
        m = sense(ens, scene, ch, seed=42)
        path = tmp_path / "meas.csv"
        save_measurement_csv(m, path)
        m2 = load_measurement_csv(path)
        np.testing.assert_array_equal(m.bucket, m2.bucket)
        np.testing.assert_array_equal(m.fading_mag, m2.fading_mag)
        assert m2.channel == ch
        assert m2.seed == 42

    @pytest.mark.parametrize(
        "order, line, index, expected",
        [((1, 0, 2), 7, "1", 0), ((0, 0, 2), 8, "0", 1), ((0, 2), 8, "2", 1)],
        ids=["swapped", "repeated", "missing"],
    )
    def test_rows_must_hold_indices_in_order(self, tmp_path, order, line, index, expected):
        path = tmp_path / "meas.csv"
        save_measurement_csv(Measurement([1.5, 2.5, 3.5], np.ones(3), ChannelParams(), 1), path)
        lines = path.read_text().splitlines(keepends=True)
        rows = lines[-3:]
        path.write_text("".join(lines[:-3] + [rows[i] for i in order]))
        with pytest.raises(ValueError, match=f"line {line}: index '{index}', expected {expected}"):
            load_measurement_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "meas.csv"
        m = transmit(np.arange(3.0), ChannelParams(n0=0.5), seed=4)
        save_measurement_csv(m, path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        m2 = load_measurement_csv(path)
        np.testing.assert_array_equal(m2.bucket, m.bucket)
        np.testing.assert_array_equal(m2.fading_mag, m.fading_mag)

    @pytest.mark.parametrize("flag", ["2", "-1", "yes", "1.0", ""])
    def test_csi_flag_must_be_0_or_1(self, tmp_path, flag):
        path = tmp_path / "meas.csv"
        save_measurement_csv(transmit(np.ones(3), ChannelParams(), seed=1), path)
        assert load_measurement_csv(path).channel.csi_known is True
        path.write_text(path.read_text().replace("# csi_known = 1", f"# csi_known = {flag}"))
        with pytest.raises(ValueError, match=f"csi_known must be 0 or 1, got '{flag}'"):
            load_measurement_csv(path)
