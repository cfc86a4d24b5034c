"""Belief-propagation reconstruction from bucket measurements.

Both decoders run the same sum-product core on a bipartite graph: the checks
are the rows of a `codes.SparseRows` (the patterns, or the rows of H), batched
by degree with its `.groups` layout. That layout is built once per matrix, so
decode_sum_bp reuses the one `sense` built. Messages live in plain per-group
arrays, and every variable pass sums its incoming logits with `_totals`. Row
sums over the checks (the residual of decode_sum_bp, the syndrome test of
decode_gf2_bp) are `SparseRows.sums`.

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
  numpy calls. Each group of B checks of degree d runs on a `_CheckPlan`:
  its buffers, zero padding and einsum views are built once, so a pass
  only fills the leaves and runs the einsums into them. A per-thread cache
  keyed by (B, d) holds the plans of the latest decode and drops every
  other shape, so later iterations and trials of one shape build nothing.
  What stays resident between decodes is the sum of the plans of every
  (B, d) shape of the latest decode: about 21 MB at the paper scale (one
  shape, B = 1024, d = 128), and 17.5 MB for the 47 pattern sizes of
  random_speckle(256, 512, 0.5, seed=3). A degree-1 check has
  no other neighbor, so its message never changes; it joins the prior
  once. Pixel->measurement messages are probabilities of one, since
  the count pmf and the damping need them; measurement->pixel messages are
  logits, log p1/p0. Both are clamped to [1e-12, 1-1e-12] (in probability)
  to avoid zero-lock.

- decode_gf2_bp: standard tanh-rule sum-product on a parity-check matrix,
  for the binary-symbol channel view of the same system. Its messages are
  LLRs, log p0/p1.
"""

from __future__ import annotations

import math
import threading
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


@dataclass
class BpOptions:
    """The decoder settings: the one place their names, defaults and ranges live.

    `prior` is the prior probability that a pixel is lit. `decode_gf2_bp`
    reads only `max_iters`: `stall_window`, `prior` and `damping` change
    nothing in GF(2) mode, though a gf2 run config accepts and records them.
    """

    max_iters: int = 50
    stall_window: int = 3
    prior: float = 0.5
    damping: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if not 0.0 < self.prior < 1.0:
            raise ValueError("prior must lie in (0, 1)")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")


@dataclass
class DecodeDiagnostics:
    iterations_run: int
    converged: bool
    residual: float
    unpinned_pixel_count: int


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; both branches of the masked formula in one
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _totals(prior, groups, msgs, n: int) -> np.ndarray:
    """Prior plus every incoming message, summed one group at a time."""
    total = np.full(n, prior, dtype=np.float64)
    for (_, idx), msg in zip(groups, msgs):
        total += np.bincount(idx.ravel(), weights=msg.ravel(), minlength=n)
    return total


def _likelihoods(r: np.ndarray, amp: np.ndarray, degree: int, ch: ChannelParams) -> np.ndarray:
    """(d+1, B) relative likelihoods of counts 0..d, each check scaled to max 1."""
    counts = np.arange(degree + 1, dtype=np.float64)
    mean = amp[:, None] * math.sqrt(ch.es) * counts[None, :]
    if ch.n0 == 0:
        tol = 1e-9 * np.maximum(1.0, np.abs(r))[:, None]
        tab = (np.abs(r[:, None] - mean) <= tol).astype(np.float64)
    else:
        logf = -((r[:, None] - mean) ** 2) / ch.n0
        tab = np.exp(logf - logf.max(axis=1, keepdims=True))
    return tab.T


def _edge_logits(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """(B, d) logits m1 / (m0 + m1) from (d, B) tables; 0.5 where both are 0."""
    denom = m0 + m1
    msg = np.divide(m1, denom, out=np.full_like(m1, 0.5), where=denom > 0)
    np.clip(msg, MSG_FLOOR, 1.0 - MSG_FLOOR, out=msg)
    # log p - log1p(-p), in place: denom holds log1p(-p)
    np.log1p(np.negative(msg, out=denom), out=denom)
    return np.subtract(np.log(msg, out=msg), denom, out=msg).T


class _CheckPlan:
    """Measurement->pixel logits for B checks of degree d, buffers built once.

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

    Everything but the arithmetic is done here, once: the level buffers,
    the padding leaves, the zero borders the convolutions slide over, and
    the window and sibling views each einsum reads and writes. Below the
    top level, node n of the level with s + 1 counts sits at row
    s + n (2s + 1) of its level's buffer: every node has s zero rows on
    each side, so an even node's padded pmf is a plain view. The down pass
    alternates between two buffers. The likelihood table `lik` ((d'+1, B),
    zero past count d) is filled once per decode by `set_likelihoods`.
    """

    def __init__(self, b: int, d: int):
        self.d = d
        levels = (d - 1).bit_length()
        self.lik = np.zeros(((1 << levels) + 1, b))
        nodes = []  # level l: (d' / 2**l, 2**l + 1, B) views of padded buffers
        bufs = []
        for level in range(max(levels, 1)):  # d = 1 still has its leaf
            n, s = 1 << (levels - level), 1 << level
            gap = s if level < levels - 1 else 0  # the top level is never padded
            bufs.append(np.zeros((n * (s + 1 + gap) + gap, b)))
            nodes.append(bufs[-1][gap:].reshape(n, s + 1 + gap, b)[:, : s + 1])
        self._up = []
        for level, (buf, pmf) in enumerate(zip(bufs, nodes[1:])):
            s = 1 << level
            evens = buf[: 2 * len(pmf) * (2 * s + 1)].reshape(len(pmf), 2 * (2 * s + 1), b)
            windows = sliding_window_view(evens[:, : 3 * s + 1], s + 1, axis=1)
            odds = nodes[level].reshape(len(pmf), 2, s + 1, b)[:, 1, ::-1]
            self._up.append((windows, odds, pmf))
        sizes = [pmf.size for pmf in nodes[:levels]]
        gammas = [np.empty(max(sizes[parity::2], default=0)) for parity in range(2)]
        gamma = self.lik[None]
        self._down = []
        # at d = 1 the root is the only leaf: no level to descend, gamma = lik
        for level in reversed(range(levels)):
            pmf = nodes[level]
            s1 = pmf.shape[1]
            windows = sliding_window_view(gamma, s1, axis=1)
            sibling = pmf.reshape(-1, 2, s1, b)[:, ::-1]
            out = gammas[level % 2][: pmf.size].reshape(sibling.shape)
            self._down.append((windows, sibling, out))
            gamma = out.reshape(pmf.shape)
        self._leaves = nodes[0]
        self._leaves[d:, 0] = 1.0
        self._m = gamma[:d, 0], gamma[:d, 1]

    def set_likelihoods(self, r: np.ndarray, amp: np.ndarray, ch: ChannelParams) -> None:
        self.lik[: self.d + 1] = _likelihoods(r, amp, self.d, ch)

    def __call__(self, p2m: np.ndarray) -> np.ndarray:
        """(B, d) logits from (B, d) pixel->measurement probabilities."""
        np.subtract(1.0, p2m.T, out=self._leaves[: self.d, 0])
        self._leaves[: self.d, 1] = p2m.T
        for windows, odds, out in self._up:
            np.einsum("nkbj,njb->nkb", windows, odds, out=out)
        for windows, sibling, out in self._down:
            np.einsum("nubv,ncvb->ncub", windows, sibling, out=out)
        return _edge_logits(*self._m)


_plans = threading.local()


def _check_plans(shapes: list[tuple[int, int]]) -> list[_CheckPlan]:
    """One plan per (B, d) shape, reused from this thread's last decode.

    The cache keeps only the shapes asked for, so plans of a decode with
    other shapes are dropped before new ones are built.
    """
    cached = getattr(_plans, "by_shape", {})
    kept = {shape: cached.pop(shape) for shape in shapes if shape in cached}
    cached.clear()
    _plans.by_shape = {shape: kept.get(shape) or _CheckPlan(*shape) for shape in shapes}
    return list(_plans.by_shape.values())


def decode_sum_bp(
    m: Measurement, ens: IlluminationEnsemble, opts: BpOptions | None = None
) -> DecodeResult:
    """Flooding-schedule BP over the count-observation factor graph.

    Pixel->measurement messages start at the prior; each iteration runs all
    check updates, then recomputes marginals and hard decisions, then (if
    another iteration follows) all pixel updates. Terminates when the hard
    decisions are unchanged for stall_window consecutive iterations, or at
    max_iters.
    """
    opts = opts or BpOptions()
    if len(ens.patterns) != m.n_shots:
        raise ValueError(
            f"ensemble has {len(ens.patterns)} patterns, measurement {m.n_shots}"
        )
    k = ens.k_pixels
    ch = m.channel
    amp = effective_amplitudes(m)
    unpinned = int((np.bincount(ens.patterns.flat, minlength=k) == 0).sum())
    prior_logit = math.log(opts.prior) - math.log1p(-opts.prior)
    # a degree-1 check has no other neighbor, so its message never changes:
    # it joins the prior once, and its pixel->measurement messages go unread
    singles = [(ids, px) for ids, px in ens.patterns.groups if px.shape[1] == 1]
    groups = [(ids, px) for ids, px in ens.patterns.groups if px.shape[1] > 1]
    fixed = [_edge_logits(*_likelihoods(m.bucket[ids], amp[ids], 1, ch)) for ids, _ in singles]
    prior = _totals(prior_logit, singles, fixed, k)
    plans = _check_plans([px.shape for _, px in groups])
    for plan, (ids, _) in zip(plans, groups):
        plan.set_likelihoods(m.bucket[ids], amp[ids], ch)
    p2m = [np.full(px.shape, opts.prior) for _, px in groups]

    marginals = np.full(k, opts.prior)
    hard = marginals > 0.5
    stable = 0
    iterations = 0
    converged = False

    for iteration in range(1, opts.max_iters + 1):
        m2p = [plan(p) for plan, p in zip(plans, p2m)]
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
        # pixel pass: sum incoming logits once, subtract own edge per message
        for i, (_, px) in enumerate(groups):
            outgoing = _sigmoid(total[px] - m2p[i])
            if opts.damping > 0:
                outgoing = (1.0 - opts.damping) * outgoing + opts.damping * p2m[i]
            p2m[i] = np.clip(outgoing, MSG_FLOOR, 1.0 - MSG_FLOOR)

    pixels = hard.astype(np.uint8)
    # residual in count units, using the decoder's amplitude model
    predicted = amp * math.sqrt(ch.es) * ens.patterns.sums(pixels)
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

    groups = h.rows.groups
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
            prefix = np.ones_like(t)  # prefix[:, j] = prod of t[:, :j]
            np.cumprod(t[:, :-1], axis=1, out=prefix[:, 1:])
            suffix = np.ones_like(t)  # suffix[:, j] = prod of t[:, j + 1:]
            np.cumprod(t[:, :0:-1], axis=1, out=suffix[:, -2::-1])
            # the clip keeps every message within 2 atanh(1 - 1e-15) ~ 35.2
            c2v[i] = 2.0 * np.arctanh(np.clip(prefix * suffix, -1 + 1e-15, 1 - 1e-15))

        total = _totals(llrs, groups, c2v, h.n_total)
        hard = total < 0.0
        iterations = iteration
        if not (h.rows.sums(hard) & 1).any():
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
