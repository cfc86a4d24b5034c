"""Forward model: ensembles, fading/noise statistics, serialization."""

import math

import numpy as np
import pytest

from codedgi import (
    ChannelParams,
    CodeSpec,
    DegreeDistribution,
    IlluminationEnsemble,
    SceneImage,
    SparseRows,
    build_generator,
    effective_amplitudes,
    patterns_from_generator,
    random_speckle,
    sense,
    snr_db_to_linear,
)
from codedgi.forward import (
    RAYLEIGH_MEAN_MAG,
    load_measurement_csv,
    pattern_sums,
    save_measurement_csv,
    transmit,
)


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

    def test_effective_amplitudes(self):
        ens = IlluminationEnsemble(1, SparseRows.of([np.array([0])] * 4))
        scene = flat_scene([1.0])
        m = sense(ens, scene, ChannelParams(fading="rayleigh", csi_known=True), seed=1)
        assert np.array_equal(effective_amplitudes(m), m.fading_mag)
        m2 = sense(ens, scene, ChannelParams(fading="rayleigh", csi_known=False), seed=1)
        assert np.all(effective_amplitudes(m2) == RAYLEIGH_MEAN_MAG)


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
