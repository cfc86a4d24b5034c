"""Analytic BER lower bound: components, limits, high-precision oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from codedgi import (
    BoundParams,
    DegreeDistribution,
    avg_column_hit_prob,
    ber_lower_bound,
    bound_sweep,
    column_hit_prob,
    decoding_error_term,
    rayleigh_ber,
)
from codedgi.bound import binom_weight_sum


def mp_bound_oracle(k, n, terms, es, n0, dps=60):
    """Independent arbitrary-precision evaluation of the full bound."""
    return mp_bound_oracle_sweep(k, n, terms, es, [n0], dps)[0]


def mp_bound_oracle_sweep(k, n, terms, es, n0_list, dps=60):
    """mp_bound_oracle at each N0, with the binomial weights built once."""
    with mp.workdps(dps):
        rc = mp.mpf(k) / mp.mpf(n)
        a = sum(mp.mpf(w) * mp.mpf(d) / k for d, w in terms)
        m = n - k
        weights = [mp.binomial(m, j) * a**j * (1 - a) ** (m - j) for j in range(m + 1)]
        out = []
        for n0 in n0_list:
            g = mp.mpf(es) / mp.mpf(n0)
            first = 1 - mp.sqrt(g / (1 + g))
            total = mp.mpf(0)
            for j, wj in enumerate(weights):
                total += wj * mp.erfc(mp.sqrt((1 + j) * mp.mpf(es) / (rc * mp.mpf(n0))))
            out.append(float((first + total) / 2))
        return out


class TestRayleighBer:
    def test_zero_snr_is_half(self):
        assert rayleigh_ber(0.0) == 0.5

    def test_unit_snr(self):
        # (1 - sqrt(1/2))/2
        assert rayleigh_ber(1.0) == pytest.approx(0.1464466094067262, abs=1e-15)

    def test_high_snr_asymptote(self):
        # series expansion gives ~1/(4 gamma)
        assert rayleigh_ber(100.0) == pytest.approx(1 / 400, rel=0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_ber(-0.1)

    def test_range(self):
        for g in (0.0, 0.3, 2.0, 50.0, 1e6):
            assert 0.0 <= rayleigh_ber(g) <= 0.5


class TestColumnHitProb:
    def test_full_weight_always_hits(self):
        assert column_hit_prob(17, 17) == 1.0

    def test_reference_value(self):
        assert column_hit_prob(1024, 8) == 0.0078125

    def test_matches_binomial_ratio_exhaustively(self):
        for k in range(1, 65):
            for w in range(1, k + 1):
                ratio = math.comb(k - 1, w - 1) / math.comb(k, w)
                assert column_hit_prob(k, w) == pytest.approx(ratio, rel=1e-12)

    def test_monte_carlo_sampling_oracle(self):
        # hit rate of a random weight-8 column against a fixed error position
        k, w, n = 64, 8, 100_000
        rng = np.random.default_rng(42)
        hits = sum(0 in rng.choice(k, size=w, replace=False) for _ in range(n))
        p = column_hit_prob(k, w)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * se

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            column_hit_prob(8, 0)
        with pytest.raises(ValueError):
            column_hit_prob(8, 9)


class TestAvgColumnHitProb:
    def test_degree_one(self):
        assert avg_column_hit_prob(DegreeDistribution.regular(1), 50) == 1 / 50

    def test_regular_eight(self):
        assert avg_column_hit_prob(DegreeDistribution.regular(8), 1024) == 0.0078125

    def test_hand_mixture(self):
        dist = DegreeDistribution(((2, 0.5), (4, 0.5)))
        assert avg_column_hit_prob(dist, 8) == pytest.approx(0.375)

    def test_degree_above_k_rejected(self):
        with pytest.raises(ValueError):
            avg_column_hit_prob(DegreeDistribution.regular(9), 8)


def params(k=256, n=512, degree=8, es=1.0, n0=1.0):
    return BoundParams(
        k_info=k, n_total=n, dist=DegreeDistribution.regular(degree), es=es, n0=n0
    )


def test_params_reject_non_positive_or_non_finite_channel():
    for es, n0 in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0),
                   (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            params(es=es, n0=n0)


class TestBerLowerBound:
    def test_vanishes_as_noise_vanishes(self):
        assert ber_lower_bound(params(n0=1e-20)) < 1e-18

    def test_binomial_weights_normalized(self):
        p = BoundParams(
            k_info=1024, n_total=2048, dist=DegreeDistribution.regular(128),
            es=1.0, n0=1.0,
        )
        assert abs(binom_weight_sum(p) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "k,n,terms,snr_db",
        [
            (256, 512, ((8, 1.0),), 8.0),
            (1024, 2048, ((128, 1.0),), 2.0),
            (256, 1024, ((2, 0.5), (4, 0.5)), 12.0),
        ],
    )
    def test_matches_high_precision_oracle(self, k, n, terms, snr_db):
        n0 = 1.0 / 10 ** (snr_db / 10.0)
        mine = ber_lower_bound(
            BoundParams(k_info=k, n_total=n, dist=DegreeDistribution(terms), es=1.0, n0=n0)
        )
        oracle = mp_bound_oracle(k, n, terms, 1.0, n0)
        assert abs(mine - oracle) / oracle < 1e-10

    @pytest.mark.parametrize(
        "k,n,degree",
        [
            (8, 16, 8),  # degree = K, so a = 1 and the weights are a point mass at j = N-K
            (8192, 16384, 8),  # N-K = 8192, the size the module docstring keeps finite
        ],
    )
    def test_matches_high_precision_oracle_at_edges(self, k, n, degree):
        snrs = (-3.0, 0.0, 6.0, 12.0)
        n0s = [1.0 / 10 ** (snr_db / 10.0) for snr_db in snrs]
        oracles = mp_bound_oracle_sweep(k, n, ((degree, 1.0),), 1.0, n0s, dps=40)
        for n0, oracle in zip(n0s, oracles):
            mine = ber_lower_bound(
                BoundParams(k_info=k, n_total=n, dist=DegreeDistribution.regular(degree),
                            es=1.0, n0=n0)
            )
            assert math.isfinite(mine)
            assert abs(mine - oracle) / oracle < 1e-12

    def test_monotone_on_snr_grid(self):
        rows = bound_sweep(256, 512, DegreeDistribution.regular(8), range(-5, 21))
        values = [r["p_b"] for r in rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_structural_decomposition(self):
        p = params(n0=0.5)
        assert ber_lower_bound(p) == rayleigh_ber(p.gamma) + decoding_error_term(p)

    def test_outputs_in_unit_interval(self):
        for snr_db in (-10, 0, 10, 30):
            p = params(n0=10 ** (-snr_db / 10))
            assert 0.0 <= ber_lower_bound(p) <= 1.0

    def test_sweep_rows(self):
        rows = bound_sweep(64, 128, DegreeDistribution.regular(4), [0.0, 10.0])
        assert [r["snr_db"] for r in rows] == [0.0, 10.0]
        for r in rows:
            assert r["p_b"] == r["p_ray"] + r["p_e"]
            assert r["gamma"] == pytest.approx(10 ** (r["snr_db"] / 10))
