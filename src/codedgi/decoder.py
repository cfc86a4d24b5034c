"""Belief-propagation reconstruction from bucket measurements.

Both decoders run the same sum-product core on a bipartite graph: the checks
are batched by degree with `codes.degree_groups`, messages live in plain
per-group arrays, and every variable pass sums its incoming logits with
`_totals`. Row sums over the checks (the residual of decode_sum_bp, the
syndrome test of decode_gf2_bp) go through `codes.group_sums`.

- decode_sum_bp: sum-product on the pixel/measurement graph. Measurement j
  observes the integer count of lit pixels among its neighbors through a
  Gaussian channel, so each check-to-pixel message mixes the
  Poisson-binomial pmf of the other neighbors' count with the per-count
  likelihoods. All d leave-one-out sums of a check come from one segment
  tree over its edges, padded to d' = 2**ceil(log2 d) leaves with p = 0 (a
  neighbor that is never lit, so the padding is exact). The up pass
  convolves sibling count pmfs level by level; the down pass correlates each
  parent's expected-likelihood table with the sibling pmf to get each
  child's table. That is O(d^2) work per check per iteration in O(log d)
  numpy calls. Pixel->measurement messages are probabilities of one, since
  the count pmf and the damping need them; measurement->pixel messages are
  logits, log p1/p0. Both are clamped to [1e-12, 1-1e-12] (in probability)
  to avoid zero-lock.

- decode_gf2_bp: standard tanh-rule sum-product on a parity-check matrix,
  for the binary-symbol channel view of the same system. Its messages are
  LLRs, log p0/p1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import ParityCheckMatrix, degree_groups, group_sums
from .forward import (
    ChannelParams,
    IlluminationEnsemble,
    Measurement,
    effective_amplitudes,
)

MSG_FLOOR = 1e-12
_LLR_CLIP = 2.0 * math.atanh(1.0 - 1e-15)


@dataclass
class BpOptions:
    max_iters: int = 50
    stall_window: int = 3
    pixel_prior_one: float = 0.5
    damping: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if not 0.0 < self.pixel_prior_one < 1.0:
            raise ValueError("pixel_prior_one must lie in (0, 1)")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")


@dataclass
class DecodeDiagnostics:
    iterations_run: int
    converged: bool
    residual: float
    unpinned_pixel_count: int

    def csv_row(self) -> str:
        return (
            f"{self.iterations_run},{int(self.converged)},"
            f"{self.residual!r},{self.unpinned_pixel_count}"
        )


@dataclass
class DecodeResult:
    """Hard decisions, posterior probabilities of one, and diagnostics.

    `marginals` covers the K pixels for decode_sum_bp and all N code symbols
    for decode_gf2_bp, whose `pixels` are the first K hard decisions.
    """

    pixels: np.ndarray
    marginals: np.ndarray
    diagnostics: DecodeDiagnostics


def measurement_likelihood(
    r: float, count: int, h_mag: float, ch: ChannelParams
) -> float:
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


def symbol_llr(r: float, h_mag: float, ch: ChannelParams) -> float:
    """log[p(r|bit=0)/p(r|bit=1)] for on-off amplitudes {0, sqrt(Es)}*h_mag."""
    if ch.n0 <= 0:
        raise ValueError("symbol LLR requires N0 > 0")
    a = h_mag * math.sqrt(ch.es)
    return a * (a - 2.0 * r) / ch.n0


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, MSG_FLOOR, 1.0 - MSG_FLOOR)
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _totals(prior, groups, msgs, n: int) -> np.ndarray:
    """Prior plus every incoming message, summed one group at a time."""
    total = np.full(n, prior, dtype=np.float64)
    for (_, idx), msg in zip(groups, msgs):
        total += np.bincount(idx.ravel(), weights=msg.ravel(), minlength=n)
    return total


def _likelihood_table(
    r: np.ndarray, amp: np.ndarray, degree: int, ch: ChannelParams
) -> np.ndarray:
    """(d'+1, B) relative likelihoods over counts 0..d', zero past count d.

    d' = 2**ceil(log2 d) is the leaf count of the check-update tree; counts
    past d are unreachable, since the padding leaves are never lit.
    """
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


def _check_update(p2m: np.ndarray, lik: np.ndarray) -> np.ndarray:
    """Measurement->pixel logits (B, d) from pixel->measurement probabilities.

    p2m is (B, d); lik is the (d'+1, B) table from _likelihood_table. Edge t
    needs m_c = sum_v pmf_{-t}(v) lik(v + c) for c in {0, 1}, where
    pmf_{-t} is the count pmf of the other neighbors. A segment tree over
    d' = 2**ceil(log2 d) leaves gives all d of them at once:

    - Up pass: leaf t holds the pmf [1 - p_t, p_t], or [1, 0] for a padding
      leaf. Each level convolves sibling pairs into their parent's count
      pmf. The root's pmf is never needed, so the pass stops below it.
    - Down pass: gamma_root = lik. For a parent with children A and B,
      gamma_A(u) = sum_v pmf_B(v) gamma_parent(u + v), and symmetrically.
      gamma_S(u) is then the expected likelihood given u lit pixels in
      segment S, averaged over every neighbor outside S.

    At leaf t, gamma_t(0) and gamma_t(1) are m_0 and m_1. Each level is one
    einsum over sliding windows, with the batch axis innermost so the
    einsum loops are long: O(d^2) work per check in O(log d) numpy calls,
    with no division but the final m_1 / (m_0 + m_1). A check whose
    likelihoods are all zero (N0 = 0 and no count fits) sends 0.5.
    """
    b, d = p2m.shape
    levels = (d - 1).bit_length()
    leaves = np.zeros((1 << levels, 2, b))
    leaves[:, 0] = 1.0
    leaves[:d, 0] = 1.0 - p2m.T
    leaves[:d, 1] = p2m.T
    pmfs = [leaves]  # level l: (d' / 2**l, 2**l + 1, B)
    for _ in range(levels - 1):
        pairs = pmfs[-1].reshape(-1, 2, *pmfs[-1].shape[1:])
        s = pairs.shape[2] - 1
        padded = np.zeros((len(pairs), 3 * s + 1, b))
        padded[:, s : 2 * s + 1] = pairs[:, 0]
        windows = sliding_window_view(padded, s + 1, axis=1)
        pmfs.append(np.einsum("nkbj,njb->nkb", windows, pairs[:, 1, ::-1]))
    gamma = lik[None]
    # at d = 1 the root is the only leaf: no level to descend, gamma = lik
    for pmf in reversed(pmfs[:levels]):
        s1 = pmf.shape[1]
        windows = sliding_window_view(gamma, s1, axis=1)
        sibling = pmf.reshape(-1, 2, s1, b)[:, ::-1]
        gamma = np.einsum("nubv,ncvb->ncub", windows, sibling).reshape(-1, s1, b)
    m0, m1 = gamma[:d, 0], gamma[:d, 1]
    denom = m0 + m1
    msg = np.divide(m1, denom, out=np.full_like(m1, 0.5), where=denom > 0)
    return _logit(msg).T


def decode_sum_bp(
    m: Measurement, ens: IlluminationEnsemble, opts: BpOptions | None = None
) -> DecodeResult:
    """Flooding-schedule BP over the count-observation factor graph.

    Pixel->measurement messages start at the prior; each iteration runs all
    check updates, then all pixel updates, then recomputes marginals and hard
    decisions. Terminates when the hard decisions are unchanged for
    stall_window consecutive iterations, or at max_iters.
    """
    opts = opts or BpOptions()
    if ens.n_patterns != m.n_shots:
        raise ValueError(
            f"ensemble has {ens.n_patterns} patterns, measurement {m.n_shots}"
        )
    k = ens.k_pixels
    ch = m.channel
    amp = effective_amplitudes(m)
    groups = degree_groups(ens.patterns)
    p2m = [np.full(px.shape, opts.pixel_prior_one) for _, px in groups]
    liks = [
        _likelihood_table(m.bucket[ids], amp[ids], px.shape[1], ch) for ids, px in groups
    ]
    pixel_degree = _totals(0.0, groups, [np.ones(px.shape) for _, px in groups], k)
    unpinned = int((pixel_degree == 0).sum())

    prior_logit = math.log(opts.pixel_prior_one) - math.log1p(-opts.pixel_prior_one)
    marginals = np.full(k, opts.pixel_prior_one)
    hard = marginals > 0.5
    stable = 0
    iterations = 0
    converged = False

    for iteration in range(1, opts.max_iters + 1):
        m2p = [_check_update(p, lik) for p, lik in zip(p2m, liks)]
        # pixel pass: sum incoming logits once, subtract own edge per message
        total = _totals(prior_logit, groups, m2p, k)
        for i, (_, px) in enumerate(groups):
            outgoing = _sigmoid(total[px] - m2p[i])
            if opts.damping > 0:
                outgoing = (1.0 - opts.damping) * outgoing + opts.damping * p2m[i]
            p2m[i] = np.clip(outgoing, MSG_FLOOR, 1.0 - MSG_FLOOR)

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

    pixels = hard.astype(np.uint8)
    # residual in count units, using the decoder's amplitude model
    predicted = amp * math.sqrt(ch.es) * group_sums(groups, pixels, m.n_shots)
    residual = float(np.linalg.norm(m.bucket - predicted) / math.sqrt(ch.es))

    diag = DecodeDiagnostics(
        iterations_run=iterations,
        converged=converged,
        residual=residual,
        unpinned_pixel_count=unpinned,
    )
    return DecodeResult(pixels=pixels, marginals=marginals, diagnostics=diag)


def decode_gf2_bp(
    llrs: np.ndarray, h: ParityCheckMatrix, opts: BpOptions | None = None
) -> DecodeResult:
    """Sum-product over GF(2) with the tanh rule; LLR = log p(0)/p(1).

    Exits early as soon as the hard-decision word has zero syndrome; the
    first K bits of the hard decision are returned as pixels.
    """
    opts = opts or BpOptions()
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (h.n_total,):
        raise ValueError(f"llr length {llrs.shape}, expected ({h.n_total},)")

    groups = degree_groups(h.rows)
    c2v = [np.zeros(vr.shape) for _, vr in groups]
    total = llrs.copy()
    hard = total < 0.0
    iterations = 0
    converged = False
    for iteration in range(1, opts.max_iters + 1):
        # check -> variable from the previous totals, tanh rule with
        # prefix/suffix products
        for i, (_, vr) in enumerate(groups):
            t = np.tanh((total[vr] - c2v[i]) / 2.0)
            nb, d = t.shape
            prefix = np.ones((nb, d + 1))
            np.cumprod(t, axis=1, out=prefix[:, 1:])
            suffix = np.ones((nb, d + 1))
            np.cumprod(t[:, ::-1], axis=1, out=suffix[:, 1:])
            suffix = suffix[:, ::-1]
            prod_excl = prefix[:, :d] * suffix[:, 1:]
            msg = 2.0 * np.arctanh(np.clip(prod_excl, -1 + 1e-15, 1 - 1e-15))
            c2v[i] = np.clip(msg, -_LLR_CLIP, _LLR_CLIP)

        total = _totals(llrs, groups, c2v, h.n_total)
        hard = total < 0.0
        iterations = iteration
        if not (group_sums(groups, hard, len(h.rows)) & 1).any():
            converged = True
            break

    diag = DecodeDiagnostics(
        iterations_run=iterations,
        converged=converged,
        residual=math.nan,
        unpinned_pixel_count=0,
    )
    return DecodeResult(
        pixels=hard[: h.k_info].astype(np.uint8),
        marginals=_sigmoid(-total),
        diagnostics=diag,
    )
