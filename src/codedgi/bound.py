"""Closed-form BER lower bound for the coded acquisition system.

The bound is the sum of two error mechanisms, wrapped in a global 1/2:

    P_b = 1/2 * [ (1 - sqrt(g/(1+g)))
                  + sum_{j=0}^{N-K} C(N-K, j) a^j (1-a)^{N-K-j}
                    * erfc( sqrt((1+j) Es / (Rc N0)) ) ]

with g = Es/N0, Rc = K/N, and a the probability that a single wrong pixel
flips a random parity column. Binomial weights are evaluated in log space
(log-gamma) so N-K up to ~8192 stays finite; they do not depend on SNR, so
`bound_sweep` builds them once per sweep.

Special functions come from the standard library (`math.erfc`,
`math.lgamma`, `math.log1p`) with numpy; this module imports no scipy, so
a run that needs no pseudo-inverse baseline never loads it.

The erfc argument counts 1+j affected symbols (the wrong pixel's own symbol
plus j flipped parity symbols) at uniform symbol energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import DegreeDistribution
from .forward import ChannelParams

@dataclass(frozen=True)
class BoundParams:
    """Inputs of the analytic bound: code shape, degree profile, channel."""

    k_info: int
    n_total: int
    dist: DegreeDistribution
    es: float
    n0: float

    def __post_init__(self):
        if self.k_info < 1:
            raise ValueError("K must be >= 1")
        if self.n_total <= self.k_info:
            raise ValueError("N must exceed K")
        if not all(math.isfinite(x) and x > 0 for x in (self.es, self.n0)):
            raise ValueError(f"Es and N0 must be positive and finite, got {self.es}, {self.n0}")
        self.dist.validate_for_k(self.k_info)

    @property
    def rate(self) -> float:
        return self.k_info / self.n_total

    @property
    def gamma(self) -> float:
        return self.es / self.n0


def rayleigh_ber(gamma: float) -> float:
    """Average bit error of coherent detection over unit-power Rayleigh fading.

    Returns (1 - sqrt(g/(1+g)))/2, which is 1/2 at g=0 and ~1/(4g) for large g.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))


def column_hit_prob(k: int, w: int) -> float:
    """Probability a weight-1 error overlaps a uniform random weight-w column.

    Equals C(K-1, w-1)/C(K, w), which reduces to w/K.
    """
    if not 1 <= w <= k:
        raise ValueError(f"column weight {w} out of range [1, {k}]")
    return w / k


def avg_column_hit_prob(dist: DegreeDistribution, k: int) -> float:
    """column_hit_prob averaged over the degree distribution."""
    dist.validate_for_k(k)
    return sum(w * column_hit_prob(k, d) for d, w in dist.terms)


def _xlog(count: np.ndarray, log_y: float) -> np.ndarray:
    """count * log_y, with 0 * log 0 = 0 as in scipy.special.xlogy."""
    if log_y == -math.inf:
        return np.where(count == 0, 0.0, -math.inf)
    return count * log_y


def _binom_weights(params: BoundParams) -> np.ndarray:
    """Binomial(N-K, a) pmf over the flipped-parity count j, independent of SNR.

    Evaluated in log space, safe at a = 0 or 1.
    """
    m = params.n_total - params.k_info
    a = avg_column_hit_prob(params.dist, params.k_info)
    j = np.arange(m + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(m + 1)])  # log i!
    log_a = math.log(a) if a > 0 else -math.inf
    log_1ma = math.log1p(-a) if a < 1 else -math.inf
    return np.exp(
        log_fact[m] - log_fact - log_fact[::-1] + _xlog(j, log_a) + _xlog(m - j, log_1ma)
    )


def binom_weight_sum(params: BoundParams) -> float:
    """Numeric normalization of the binomial weights (should be 1)."""
    return float(_binom_weights(params).sum())


def _error_mixture(params: BoundParams, weights: np.ndarray) -> float:
    """0.5 * sum_j weights[j] * erfc(sqrt((1 + j) Es / (Rc N0)))."""
    args = np.arange(1, len(weights) + 1) * params.es / (params.rate * params.n0)
    erfcs = np.array([math.erfc(x) for x in np.sqrt(args).tolist()])
    return float(0.5 * np.sum(weights * erfcs))


def decoding_error_term(params: BoundParams) -> float:
    """Binomial mixture of AWGN pairwise errors over flipped-parity counts j."""
    return _error_mixture(params, _binom_weights(params))


def ber_lower_bound(params: BoundParams) -> float:
    """Fading floor plus decoding-error term; result in [0, 1]."""
    return rayleigh_ber(params.gamma) + decoding_error_term(params)


def bound_sweep(
    k_info: int,
    n_total: int,
    dist: DegreeDistribution,
    snr_db_list,
    es: float = 1.0,
) -> list[dict]:
    """Evaluate the bound on an SNR grid; one row per point.

    Row keys: snr_db, gamma, p_ray, p_e, p_b. N0 comes from
    `ChannelParams.at_snr_db`, so p_b equals `ber_lower_bound` of the
    channel a run at that SNR uses, bit for bit.
    """
    rows = []
    weights = None
    for snr_db in snr_db_list:
        n0 = ChannelParams.at_snr_db(snr_db, es).n0
        params = BoundParams(k_info=k_info, n_total=n_total, dist=dist, es=es, n0=n0)
        if weights is None:
            weights = _binom_weights(params)
        p_ray = rayleigh_ber(params.gamma)
        p_e = _error_mixture(params, weights)
        rows.append(
            {
                "snr_db": float(snr_db),
                "gamma": params.gamma,
                "p_ray": p_ray,
                "p_e": p_e,
                "p_b": p_ray + p_e,
            }
        )
    return rows
