"""Slow, direct formulations the tests hold the package against.

- `measurement_likelihood`: the scalar Gaussian density of one bucket value,
  the oracle of `forward.count_loglik`.
- `fading_loglik`: the exact log density of a bucket value given its count
  under Rayleigh fading the receiver does not know, the oracle of
  `forward.count_loglik` without CSI, which is its moment-matched Gaussian.
- `count_pmf`: the exact pmf of a sum of Bernoulli variables by sequential
  convolution, the oracle of the decoder's segment-tree check update.
- `exhaustive_marginals`: posterior marginals by enumerating all 2^K scenes,
  each scored by `forward.count_loglik`, or another log-likelihood table, at
  its noiseless symbols.
"""

import itertools
import math

import numpy as np
from scipy.special import erfcx

from codedgi import count_loglik


def measurement_likelihood(r: float, count: int, h_mag: float, ch) -> float:
    """Density of bucket value r given `count` lit pixels.

    Gaussian with mean h_mag*sqrt(Es)*count and variance N0/2. With N0 = 0
    the density degenerates to an exact-match indicator.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    mean = h_mag * math.sqrt(ch.es) * count
    if ch.n0 == 0:
        return 1.0 if abs(r - mean) <= 1e-9 * max(1.0, abs(r)) else 0.0
    var = ch.n0 / 2.0
    return math.exp(-((r - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def fading_loglik(r, counts, ch) -> np.ndarray:
    """(len(r), len(counts)) exact log p(r | c) for r = |h| sqrt(Es) c + w, N0 > 0.

    |h| is Rayleigh with E|h|^2 = 1 and w ~ N(0, s2), s2 = N0/2. Integrating
    |h| out gives p = phi(r) (1 + sqrt(pi) zeta erfcx(-zeta)) / alpha, with
    alpha = 1 + Es c^2 / (2 s2) and zeta = sqrt(Es) c r / (2 s2 sqrt(alpha)).
    For zeta > 5, erfcx(-zeta) = 2 exp(zeta^2) - erfcx(zeta) is summed in
    log space; for zeta < -25 the sum cancels, and 1 + sqrt(pi) zeta
    erfcx(-zeta) is the asymptotic series sum_n (-1)^(n+1) (2n-1)!! / (2 zeta^2)^n.
    """
    if ch.n0 <= 0:
        raise ValueError("the density needs N0 > 0")
    s2 = ch.n0 / 2.0
    r = np.asarray(r, dtype=np.float64)[:, None]
    b = math.sqrt(ch.es) * np.asarray(counts, dtype=np.float64)[None, :]
    alpha = 1.0 + b * b / (2.0 * s2)
    zeta = b * r / (2.0 * s2 * np.sqrt(alpha))
    mid = np.clip(zeta, -25.0, 5.0)
    tail = np.log1p(np.sqrt(math.pi) * mid * erfcx(-mid))
    big = np.maximum(zeta, 5.0)
    head = (
        big * big + np.log(2.0 * math.sqrt(math.pi) * big)
        + np.log1p((1.0 - math.sqrt(math.pi) * big * erfcx(big)) * np.exp(-big * big)
                   / (2.0 * math.sqrt(math.pi) * big))
    )
    x2 = 2.0 * np.minimum(zeta, -25.0) ** 2
    series, term = np.zeros_like(x2), np.ones_like(x2)
    for n in range(1, 16):
        term = term * (2 * n - 1) / x2
        series += term if n % 2 else -term
    tail = np.where(zeta > 5.0, head, np.where(zeta < -25.0, np.log(series), tail))
    log_phi = -r * r / (2.0 * s2) - 0.5 * math.log(2.0 * math.pi * s2)
    return log_phi - np.log(alpha) + tail


def moment_matched_loglik(r, counts, ch) -> np.ndarray:
    """(len(r), len(counts)) log density of the Gaussian with each count's exact mean and variance.

    The moments are those of exp(`fading_loglik`), by the trapezoid rule
    over 40 standard deviations each side, which converges geometrically
    for a smooth density.
    """
    out = []
    for c in counts:
        scale = math.sqrt(ch.n0 / 2.0 + ch.es * c * c)
        grid = np.linspace(-40.0 * scale, 40.0 * scale + math.sqrt(ch.es) * c, 40001)
        p = np.exp(fading_loglik(grid, [c], ch)[:, 0])
        mean = np.sum(grid * p) / np.sum(p)
        var = np.sum((grid - mean) ** 2 * p) / np.sum(p)
        out.append(-((np.asarray(r) - mean) ** 2) / (2.0 * var) - 0.5 * math.log(2.0 * math.pi * var))
    return np.stack(out, axis=1)


def count_pmf(messages) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli variables.

    Sequential convolution; O(d^2). Output has length d+1 and sums to 1.
    """
    p = np.asarray(messages, dtype=np.float64)
    if p.size and (p.min() < 0 or p.max() > 1):
        raise ValueError("messages must lie in [0, 1]")
    pmf = np.array([1.0])
    for pi in p:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - pi)
        nxt[1:] += pmf * pi
        pmf = nxt
    return pmf


def exhaustive_marginals(m, ens, prior=0.5, parity=False, loglik=count_loglik):
    """Posterior P(x_i = 1 | m) over all 2^K scenes of the ensemble's pixels.

    A scene's noiseless symbols are its pattern counts, or with `parity`
    their parities: for coded patterns, the scene's codeword bits. They are
    scored by `loglik(m, counts)`, a (shots, counts) table.
    """
    k = ens.k_pixels
    scenes = np.array(list(itertools.product([0, 1], repeat=k)), dtype=np.int64)
    symbols = scenes @ ens.dense().T.astype(np.int64)
    if parity:
        symbols &= 1
    table = loglik(m, np.arange(symbols.max() + 1))
    lit = scenes.sum(axis=1)
    logw = table[np.arange(m.n_shots), symbols].sum(axis=1)
    logw += lit * math.log(prior) + (k - lit) * math.log1p(-prior)
    w = np.exp(logw - logw.max())
    return w @ scenes / w.sum()
