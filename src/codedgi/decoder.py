"""Belief-propagation reconstruction from bucket measurements.

Two decoders share the option/result types:

- decode_sum_bp: sum-product on the bipartite pixel/measurement graph.
  Measurement j observes the integer count of lit pixels among its neighbors
  through a Gaussian channel, so each check-to-pixel message mixes the
  Poisson-binomial pmf of the other neighbors' count with the per-count
  likelihoods. Checks are batched by pattern degree d, and all d
  leave-one-out sums of a check come from one segment tree over its edges,
  padded to d' = 2**ceil(log2 d) leaves with p = 0 (a neighbor that is
  never lit, so the padding is exact). The up pass convolves sibling count
  pmfs level by level; the down pass correlates each parent's
  expected-likelihood table with the sibling pmf to get each child's table.
  That is O(d^2) work per check per iteration in O(log d) numpy calls.

- decode_gf2_bp: standard tanh-rule sum-product on a parity-check matrix,
  for the binary-symbol channel view of the same system.

Messages live in [0, 1] (probability of one) and are clamped to
[1e-12, 1-1e-12] before products to avoid zero-lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import ParityCheckMatrix
from .forward import (
    ChannelParams,
    IlluminationEnsemble,
    Measurement,
    effective_amplitudes,
)

MSG_FLOOR = 1e-12
_LLR_CLIP = 2.0 * math.atanh(1.0 - 1e-15)

BP_MODES = ("sum-constraint", "gf2")


@dataclass
class BpOptions:
    max_iters: int = 50
    stall_window: int = 3
    pixel_prior_one: float = 0.5
    damping: float = 0.0
    mode: str = "sum-constraint"
    validate: bool = False  # per-iteration range asserts, for tests

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if not 0.0 < self.pixel_prior_one < 1.0:
            raise ValueError("pixel_prior_one must lie in (0, 1)")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.mode not in BP_MODES:
            raise ValueError(f"mode must be one of {BP_MODES}")


@dataclass
class BpState:
    """Final factor-graph messages, keyed by flat edge arrays."""

    edge_meas: np.ndarray  # measurement index per edge
    edge_pixel: np.ndarray  # pixel index per edge
    msg_pixel_to_meas: np.ndarray  # probability-of-one per edge
    msg_meas_to_pixel: np.ndarray
    marginals: np.ndarray
    iterations_run: int
    converged: bool


@dataclass
class DecodeDiagnostics:
    iterations_run: int
    converged: bool
    residual: float
    unpinned_pixel_count: int
    exact_likelihood: bool = False

    def csv_row(self) -> str:
        return (
            f"{self.iterations_run},{int(self.converged)},"
            f"{self.residual!r},{self.unpinned_pixel_count}"
        )


@dataclass
class DecodeResult:
    pixels: np.ndarray
    marginals: np.ndarray
    diagnostics: DecodeDiagnostics
    state: BpState | None = None


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


class _DegreeGroup:
    """All measurements whose pattern has the same size, batched."""

    def __init__(self, degree: int, meas_ids: np.ndarray, px: np.ndarray):
        self.degree = degree
        self.meas_ids = meas_ids  # (B,)
        self.px = px  # (B, d) pixel indices
        self.p2m = None  # (B, d) pixel->measurement prob-of-one
        self.m2p = None  # (B, d) measurement->pixel prob-of-one
        self.lik = None  # (d'+1, B) per-count likelihood, zero past count d


def _build_groups(ens: IlluminationEnsemble) -> list[_DegreeGroup]:
    by_degree: dict[int, list[int]] = {}
    for n, pat in enumerate(ens.patterns):
        if len(pat) == 0:
            continue  # measurement with no lit pixels constrains nothing
        by_degree.setdefault(len(pat), []).append(n)
    groups = []
    for d in sorted(by_degree):
        ids = np.array(by_degree[d], dtype=np.int64)
        px = np.stack([ens.patterns[n] for n in ids]).astype(np.int64)
        groups.append(_DegreeGroup(d, ids, px))
    return groups


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


def _check_update(group: _DegreeGroup) -> None:
    """Recompute measurement->pixel messages from the current pixel messages.

    Edge t needs m_c = sum_v pmf_{-t}(v) lik(v + c) for c in {0, 1}, where
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
    d = group.degree
    b = len(group.meas_ids)
    levels = (d - 1).bit_length()
    leaves = np.zeros((1 << levels, 2, b))
    leaves[:, 0] = 1.0
    leaves[:d, 0] = 1.0 - group.p2m.T
    leaves[:d, 1] = group.p2m.T
    pmfs = [leaves]  # level l: (d' / 2**l, 2**l + 1, B)
    for _ in range(levels - 1):
        pairs = pmfs[-1].reshape(-1, 2, *pmfs[-1].shape[1:])
        s = pairs.shape[2] - 1
        padded = np.zeros((len(pairs), 3 * s + 1, b))
        padded[:, s : 2 * s + 1] = pairs[:, 0]
        windows = sliding_window_view(padded, s + 1, axis=1)
        pmfs.append(np.einsum("nkbj,njb->nkb", windows, pairs[:, 1, ::-1]))
    gamma = group.lik[None]
    # at d = 1 the root is the only leaf: no level to descend, gamma = lik
    for pmf in reversed(pmfs[:levels]):
        s1 = pmf.shape[1]
        windows = sliding_window_view(gamma, s1, axis=1)
        sibling = pmf.reshape(-1, 2, s1, b)[:, ::-1]
        gamma = np.einsum("nubv,ncvb->ncub", windows, sibling).reshape(-1, s1, b)
    m0, m1 = gamma[:d, 0], gamma[:d, 1]
    denom = m0 + m1
    msg = np.divide(m1, denom, out=np.full_like(m1, 0.5), where=denom > 0)
    group.m2p = np.ascontiguousarray(np.clip(msg, MSG_FLOOR, 1.0 - MSG_FLOOR).T)


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
    if opts.mode != "sum-constraint":
        raise ValueError("decode_sum_bp requires mode='sum-constraint'")
    if ens.n_patterns != m.n_shots:
        raise ValueError(
            f"ensemble has {ens.n_patterns} patterns, measurement {m.n_shots}"
        )
    k = ens.k_pixels
    ch = m.channel
    amp = effective_amplitudes(m)
    groups = _build_groups(ens)
    for g in groups:
        g.p2m = np.full((len(g.meas_ids), g.degree), opts.pixel_prior_one)
        g.lik = _likelihood_table(m.bucket[g.meas_ids], amp[g.meas_ids], g.degree, ch)

    degree_of_pixel = np.zeros(k, dtype=np.int64)
    for g in groups:
        np.add.at(degree_of_pixel, g.px.ravel(), 1)
    unpinned = int((degree_of_pixel == 0).sum())

    prior_logit = math.log(opts.pixel_prior_one) - math.log1p(-opts.pixel_prior_one)
    marginals = np.full(k, opts.pixel_prior_one)
    hard = marginals > 0.5
    stable = 0
    iterations = 0
    converged = False

    for iteration in range(1, opts.max_iters + 1):
        for g in groups:
            _check_update(g)
        # pixel pass: sum incoming logits once, subtract own edge per message
        logits = [_logit(g.m2p) for g in groups]
        total = np.full(k, prior_logit)
        for g, lg in zip(groups, logits):
            total += np.bincount(g.px.ravel(), weights=lg.ravel(), minlength=k)
        for g, lg in zip(groups, logits):
            outgoing = _sigmoid(total[g.px] - lg)
            if opts.damping > 0:
                outgoing = (1.0 - opts.damping) * outgoing + opts.damping * g.p2m
            g.p2m = np.clip(outgoing, MSG_FLOOR, 1.0 - MSG_FLOOR)

        marginals = _sigmoid(total)
        if opts.validate:
            assert np.all((marginals >= 0) & (marginals <= 1))
            for g in groups:
                assert np.all((g.p2m >= 0) & (g.p2m <= 1))
                assert np.all((g.m2p >= 0) & (g.m2p <= 1))

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
    predicted = np.zeros(m.n_shots)
    for g in groups:
        counts = pixels[g.px].sum(axis=1).astype(np.float64)
        predicted[g.meas_ids] = amp[g.meas_ids] * math.sqrt(ch.es) * counts
    residual = float(np.linalg.norm(m.bucket - predicted) / math.sqrt(ch.es))

    edge_meas = np.concatenate(
        [np.repeat(g.meas_ids, g.degree) for g in groups]
    ) if groups else np.empty(0, dtype=np.int64)
    edge_pixel = np.concatenate([g.px.ravel() for g in groups]) if groups else np.empty(
        0, dtype=np.int64
    )
    state = BpState(
        edge_meas=edge_meas,
        edge_pixel=edge_pixel,
        msg_pixel_to_meas=np.concatenate([g.p2m.ravel() for g in groups])
        if groups
        else np.empty(0),
        msg_meas_to_pixel=np.concatenate([g.m2p.ravel() for g in groups])
        if groups
        else np.empty(0),
        marginals=marginals,
        iterations_run=iterations,
        converged=converged,
    )
    diag = DecodeDiagnostics(
        iterations_run=iterations,
        converged=converged,
        residual=residual,
        unpinned_pixel_count=unpinned,
        exact_likelihood=(ch.n0 == 0),
    )
    return DecodeResult(pixels=pixels, marginals=marginals, diagnostics=diag, state=state)


def decode_gf2_bp(
    llrs: np.ndarray, h: ParityCheckMatrix, opts: BpOptions | None = None
) -> DecodeResult:
    """Sum-product over GF(2) with the tanh rule; LLR = log p(0)/p(1).

    Exits early as soon as the hard-decision word has zero syndrome; the
    first K bits of the hard decision are returned as pixels.
    """
    opts = opts or BpOptions(mode="gf2")
    if opts.mode != "gf2":
        raise ValueError("decode_gf2_bp requires mode='gf2'")
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (h.n_total,):
        raise ValueError(f"llr length {llrs.shape}, expected ({h.n_total},)")

    by_degree: dict[int, list[int]] = {}
    for idx, row in enumerate(h.rows):
        by_degree.setdefault(len(row), []).append(idx)
    row_groups = [
        np.stack([h.rows[i] for i in ids]).astype(np.int64)
        for d, ids in sorted(by_degree.items())
        if d > 0
    ]
    c2v = [np.zeros(vr.shape) for vr in row_groups]

    total = llrs.copy()
    hard = total < 0.0
    iterations = 0
    converged = False
    for iteration in range(1, opts.max_iters + 1):
        # variable -> check from the previous totals
        v2c = [total[vr] - msg for vr, msg in zip(row_groups, c2v)]
        # check -> variable, tanh rule with prefix/suffix products
        new_c2v = []
        for lv in v2c:
            t = np.tanh(lv / 2.0)
            nb, d = t.shape
            prefix = np.ones((nb, d + 1))
            np.cumprod(t, axis=1, out=prefix[:, 1:])
            suffix = np.ones((nb, d + 1))
            np.cumprod(t[:, ::-1], axis=1, out=suffix[:, 1:])
            suffix = suffix[:, ::-1]
            prod_excl = prefix[:, :d] * suffix[:, 1:]
            msg = 2.0 * np.arctanh(np.clip(prod_excl, -1 + 1e-15, 1 - 1e-15))
            new_c2v.append(np.clip(msg, -_LLR_CLIP, _LLR_CLIP))
        c2v = new_c2v

        total = llrs.copy()
        for vr, msg in zip(row_groups, c2v):
            total += np.bincount(vr.ravel(), weights=msg.ravel(), minlength=h.n_total)
        hard = total < 0.0
        iterations = iteration
        syndrome_ok = all(
            (hard[vr].sum(axis=1) % 2 == 0).all() for vr in row_groups
        )
        if syndrome_ok:
            converged = True
            break

    pixels = hard[: h.k_info].astype(np.uint8)
    marginals = _sigmoid(-total[: h.k_info])
    diag = DecodeDiagnostics(
        iterations_run=iterations,
        converged=converged,
        residual=math.nan,
        unpinned_pixel_count=0,
    )
    # state carries the full-length posterior so callers can audit the
    # hard-decision word (e.g. the converged => zero-syndrome contract)
    if row_groups:
        edge_check = np.concatenate(
            [np.repeat(np.arange(len(vr)), vr.shape[1]) for vr in row_groups]
        )
        edge_var = np.concatenate([vr.ravel() for vr in row_groups])
        flat_c2v = np.concatenate([m.ravel() for m in c2v])
        msg_c2v = _sigmoid(-flat_c2v)
        msg_v2c = _sigmoid(-(total[edge_var] - flat_c2v))
    else:
        edge_check = edge_var = np.empty(0, dtype=np.int64)
        msg_c2v = msg_v2c = np.empty(0)
    state = BpState(
        edge_meas=edge_check,
        edge_pixel=edge_var,
        msg_pixel_to_meas=msg_v2c,
        msg_meas_to_pixel=msg_c2v,
        marginals=_sigmoid(-total),
        iterations_run=iterations,
        converged=converged,
    )
    return DecodeResult(pixels=pixels, marginals=marginals, diagnostics=diag, state=state)
