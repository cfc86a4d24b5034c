"""Slow, direct formulations the tests hold the package against.

- `measurement_likelihood`: the scalar Gaussian density of one bucket value,
  the oracle of `forward.count_loglik`.
- `count_pmf`: the exact pmf of a sum of Bernoulli variables by sequential
  convolution, the oracle of the decoder's segment-tree check update.
- `exhaustive_marginals`: posterior marginals by enumerating all 2^K scenes,
  each scored by `forward.count_loglik` at its noiseless symbols.
"""

import itertools
import math

import numpy as np

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


def exhaustive_marginals(m, ens, prior=0.5, parity=False):
    """Posterior P(x_i = 1 | m) over all 2^K scenes of the ensemble's pixels.

    A scene's noiseless symbols are its pattern counts, or with `parity`
    their parities: for coded patterns, the scene's codeword bits.
    """
    k = ens.k_pixels
    scenes = np.array(list(itertools.product([0, 1], repeat=k)), dtype=np.int64)
    symbols = scenes @ ens.dense().T.astype(np.int64)
    if parity:
        symbols &= 1
    table = count_loglik(m, np.arange(symbols.max() + 1))
    lit = scenes.sum(axis=1)
    logw = table[np.arange(m.n_shots), symbols].sum(axis=1)
    logw += lit * math.log(prior) + (k - lit) * math.log1p(-prior)
    w = np.exp(logw - logw.max())
    return w @ scenes / w.sum()
