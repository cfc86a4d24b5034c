"""Belief-propagation reconstruction from bucket measurements.

Both decoders run sum-product on a bipartite graph whose checks are the rows
of a `codes.SparseRows` (the patterns, or the rows of H), batched by degree
with its `.groups` layout. That layout is built once per matrix, so
decode_sum_bp reuses the one `sense` built. Only the check and variable
functions differ: each group is a `_CheckPlan` or `_ParityGroup`, built
from its shape (B, d), that owns (d, B) `cols` and `msg` buffers, whose
call is the check pass and whose `variable_pass(total)` is the variable
pass, and `_flood` is the one schedule that runs them. Each decoder keeps
its set-up, stop rule and result. Both take a `BpOptions`, and both pass
check->variable messages as logits, log p1/p0. The residual of
decode_sum_bp is a row sum, `SparseRows.sums`.

One per-thread cache, `_groups`, holds the groups of the latest decode,
whichever decoder ran it, so later iterations and trials of one shape
build nothing. What stays resident between decodes is that decode's
groups: at the paper scale (one shape, B = 1024, d = 128) about 23 MB of
sum-BP plans or 6.4 MB of GF(2) groups, and 18.6 MB of plans for the 47
pattern sizes of random_speckle(256, 512, 0.5, seed=3).

- decode_sum_bp: sum-product on the pixel/measurement graph. Measurement j
  observes the integer count of lit pixels among its neighbors through the
  channel, so each check-to-pixel message mixes the Poisson-binomial pmf of
  the other neighbors' count with the per-count likelihoods, which are
  `forward.count_loglik`'s: the receiver model is written only there. All d
  leave-one-out sums of a check come from one segment tree over its edges,
  padded to d' = 2**ceil(log2 d) leaves with p = 0 (a neighbor that is never
  lit, so the padding is exact). The up pass convolves sibling count pmfs
  level by level; the down pass correlates each parent's expected-likelihood
  table with the sibling pmf to get each child's table. That is O(d^2) work
  per check per iteration in O(log d) numpy calls. Each group of B checks of
  degree d runs on a `_CheckPlan`: its buffers, zero padding and einsum views
  are built once, so a pass only fills the leaves and runs the einsums into
  them. A decode's first check pass sees every message at the prior, so
  every node of a tree level is alike: with no padding leaf the plan runs
  node 0 of each level only, bit for bit the full pass at about a third of
  its work. A degree-1 check has no other neighbor, so its message never
  changes; it joins the prior once. Pixel->measurement messages, the state
  kept in each plan's `p`, are probabilities of one, since the count pmf
  and the damping need them. Both directions are clamped to
  [1e-12, 1-1e-12] (in probability) to avoid zero-lock.

- decode_gf2_bp: standard tanh-rule sum-product on a parity-check matrix,
  for the binary-symbol channel view of the same system. The channel
  logits it takes come from `forward.onoff_logits`.
  Each group of B checks of degree d is a `_ParityGroup`, whose state is
  its `msg`, zeroed at the start of each decode. It tests its checks'
  syndrome as an XOR-reduce over its `cols`.

Each decoder is one row of `harness._DECODERS`, which acquires the scene
and calls it; the tests' exhaustive oracles score scenes with the same
`count_loglik`, so no second copy of the receiver model lives here.

Undamped loopy BP often settles into an exact cycle of message states.
decode_gf2_bp's stop rule asks a `_CycleWatch` of its message state after
every failed syndrome test before max_iters. The test reads only the
current iterate, so a repeat certifies that it never passes: the decode
stops there, not converged, on the iterate it computed last. decode_sum_bp
stops only on its stall rule or at max_iters, where an undamped decode that
oscillates ends; damped decodes, the default, settle. `iterations_run` is
always the number of iterations computed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import ParityCheckMatrix
from .forward import IlluminationEnsemble, Measurement, count_loglik, receiver_gains

MSG_FLOOR = 1e-12


@dataclass
class BpOptions:
    """The decoder settings: the one place their names, defaults and ranges live.

    Both decoders take one; decode_gf2_bp reads only `max_iters`. `prior` is
    the prior probability that a pixel is lit, or "auto" for `moment_prior`.
    """

    max_iters: int = 50
    stall_window: int = 3
    prior: float | str = "auto"
    damping: float = 0.3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if self.prior != "auto" and (isinstance(self.prior, str) or not 0.0 < self.prior < 1.0):
            raise ValueError(f"prior must lie in (0, 1) or be 'auto', got {self.prior!r}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")


@dataclass
class DecodeDiagnostics:
    """How a decode ended.

    `iterations_run` is the number of iterations computed; the result is the
    last one's. `cycle_period` is the period of an exact repeat of the GF(2)
    message state found before the last iteration, 0 when none was, and
    always 0 for decode_sum_bp. A GF(2) decode that is not converged and
    stopped before max_iters ended on a certified limit cycle.
    """

    iterations_run: int
    converged: bool
    residual: float
    unpinned_pixel_count: int
    cycle_period: int = 0


@dataclass
class DecodeResult:
    """Hard decisions, posterior probabilities of one, and diagnostics.

    `marginals` covers the K pixels for decode_sum_bp and all N code symbols
    for decode_gf2_bp, whose `pixels` are the first K hard decisions.
    """

    pixels: np.ndarray
    marginals: np.ndarray
    diagnostics: DecodeDiagnostics


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


def _likelihoods(m: Measurement, ids: np.ndarray, degree: int) -> np.ndarray:
    """(d+1, B) likelihoods of counts 0..d at shots `ids`, scaled to max 1 (0 if none fits)."""
    logf = count_loglik(m, np.arange(degree + 1), ids)
    top = logf.max(axis=1, keepdims=True)
    x = logf - np.where(np.isfinite(top), top, 0.0)
    # exp is 0 below -745.13 but slow to say so: skip those entries
    return np.exp(x, out=np.zeros_like(x), where=x > -746.0).T


def _edge_logits(m0: np.ndarray, m1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logits m1 / (m0 + m1) in the tables' shape, into `out` if given; 0.5 where both are 0."""
    denom = m0 + m1
    msg = np.empty_like(m1) if out is None else out
    msg.fill(0.5)
    np.divide(m1, denom, out=msg, where=denom > 0)
    np.clip(msg, MSG_FLOOR, 1.0 - MSG_FLOOR, out=msg)
    # log p - log1p(-p), in place: denom holds log1p(-p)
    np.log1p(np.negative(msg, out=denom), out=denom)
    return np.subtract(np.log(msg, out=msg), denom, out=msg)


class _CheckPlan:
    """Measurement->pixel logits for B checks of degree d >= 2, buffers built once.

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
    einsum loops are long: O(d^2) work per check in O(log d) numpy calls
    (27,644 multiply-adds at d = 128, 172 at d = 8), with no division but
    the final m_1 / (m_0 + m_1). A check whose likelihoods are all zero
    (N0 = 0 and no count fits) sends 0.5.

    A uniform pass, one whose `p` holds one value per check, has equal
    leaves, so every node of a level holds the same pmf and receives the
    same table. When `fill` set such a `p` since the last pass, as at the
    start of each decode, and the tree has no padding leaf (d is a
    power of two), the pass checks that `p` is uniform and runs the same
    einsums on node 0 of each level only, node 0 standing in for its
    sibling, then copies leaf 0's message to every edge. Each number it
    computes is summed as the full pass sums it, so the result is bit for
    bit the same, for 8,647 multiply-adds at d = 128 and 59 at d = 8.

    Everything but the arithmetic is done here, once: the level buffers,
    the padding leaves, the zero borders the convolutions slide over, and
    the window and sibling views each einsum reads and writes. Leaf row 1
    is `p`, the decode's one copy of the (d, B) pixel->measurement
    probabilities: set to the prior by `fill`, then overwritten by each
    variable pass.
    `cols` holds each edge's pixel, copied in on each decode, and `msg` the
    logits each call writes.
    Below the top level, node n of the level with s + 1 counts sits at row
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
        for level in range(levels):
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
        self.p = self._leaves[:d, 1]
        self.cols, self.msg = np.zeros((d, b), dtype=np.intp), np.zeros((d, b))
        self.damping = 0.0
        self._filled = False
        # what a pass reads and writes: p, 1 - p, the levels, m_0 and m_1, the logits
        m = gamma.swapaxes(0, 1)
        self._full = (self.p, self._leaves[:d, 0], self._up, self._down, *m[:, :d], self.msg)
        # a uniform pass runs node 0 of each level only, standing in for its sibling
        up0 = [(w[:1], pmf[:1, ::-1], out[:1]) for (w, _, out), pmf in zip(self._up, nodes)]
        down0 = [(w[:1], sibling[:1, 1:], out[:1, :1]) for w, sibling, out in self._down]
        self._node0 = (self.p[:1], self._leaves[:1, 0], up0, down0, *m[:, :1], self.msg[:1])

    def set_likelihoods(self, m: Measurement, ids: np.ndarray) -> None:
        self.lik[: self.d + 1] = _likelihoods(m, ids, self.d)

    def fill(self, p) -> None:
        """Set `p`; one probability per check (a scalar or (B,)) lets the next pass run uniform."""
        self.p[...] = p
        self._filled = len(self._leaves) == self.d

    def __call__(self) -> np.ndarray:
        """The check pass: (d, B) measurement->pixel logits in `msg`, from `p`."""
        # only the first pass after `fill` pays for the test
        uniform = self._filled and (self.p == self.p[0]).all()
        self._filled = False
        p, q, up, down, m0, m1, msg = self._node0 if uniform else self._full
        np.subtract(1.0, p, out=q)
        for windows, odds, out in up:
            np.einsum("nkbj,njb->nkb", windows, odds, out=out)
        for windows, sibling, out in down:
            np.einsum("nubv,ncvb->ncub", windows, sibling, out=out)
        _edge_logits(m0, m1, out=msg)
        if uniform:
            self.msg[1:] = msg
        return self.msg

    def variable_pass(self, total: np.ndarray) -> None:
        """Each edge's pixel total less its own message, as a probability, damped into `p`."""
        outgoing = _sigmoid(total[self.cols] - self.msg)
        if self.damping > 0:
            outgoing = (1.0 - self.damping) * outgoing + self.damping * self.p
        np.clip(outgoing, MSG_FLOOR, 1.0 - MSG_FLOOR, out=self.p)


_cache = threading.local()


def _groups(cls, index_groups) -> list:
    """One `cls` per (B, d) index matrix of `index_groups`, its `cols` copied in.

    Groups of the same class and shape are reused from this thread's last
    decode; every other cached group is dropped before new ones are built.
    `cols` is copied on each decode, so a cached group holds no decode input.
    """
    keys = [(cls, *idx.shape) for _, idx in index_groups]
    cached = getattr(_cache, "groups", {})
    kept = {key: cached.pop(key) for key in keys if key in cached}
    cached.clear()
    _cache.groups = {key: kept.get(key) or cls(*key[1:]) for key in keys}
    groups = list(_cache.groups.values())
    for group, (_, idx) in zip(groups, index_groups):
        group.cols[...] = idx.T
    return groups


class _CycleWatch:
    """Finds an exact repeat of the GF(2) decoder's message state.

    `state` is the list of buffers that hold the decoder's full message
    state; `repeats(i)` reads them when iteration i's result (hard
    decisions, marginals) has been computed from them. It keeps a copy of
    the state seen at i = 1, 2, 4, 8, ... and compares each later state
    with the copy by `np.array_equal` (Brent's cycle detection, BIT 1980).
    If the state at i equals the one kept at c < i, iteration is a
    deterministic map of that state, so the states, and with them the
    results, repeat with period `period` = i - c from iteration c on. The
    syndrome test reads only the current iterate and has failed at every
    iterate of the cycle, so it never passes: a repeat is the certificate
    that the decode cannot converge.
    """

    def __init__(self, state: list[np.ndarray]):
        self.state = state
        self.kept, self.kept_at, self.period = None, 0, 0

    def repeats(self, i: int) -> bool:
        """Whether the state at iteration i repeats a kept one; sets `period` if so."""
        if self.kept is not None and all(map(np.array_equal, self.state, self.kept)):
            self.period = i - self.kept_at
            return True
        if i & (i - 1) == 0:
            self.kept, self.kept_at = [s.copy() for s in self.state], i
        return False


def _flood(checks, prior, groups, n: int, max_iters: int):
    """The flooding schedule of both decoders: yields each iteration's beliefs.

    `checks` are the groups of `groups`, in its order, their first variable
    pass already run. Each of at most max_iters iterations runs every check
    pass and yields the `_totals` of `prior` and every `msg` to the caller's
    stop rule; a caller whose rule fires does not resume. Each iteration but
    the first starts with every variable pass, so none follows the last.
    """
    beliefs = [check.msg.T for check in checks]  # (B, d) views: _totals adds in edge order
    for iteration in range(max_iters):
        if iteration:
            for check in checks:
                check.variable_pass(total)
        for check in checks:
            check()
        total = _totals(prior, groups, beliefs, n)
        yield total


def moment_prior(m: Measurement, ens: IlluminationEnsemble) -> float:
    """The lit fraction by the method of moments, clipped to [0.02, 0.5].

    E r_n = E|h| sqrt(Es) rho |pattern n|, so rho = sum r_n / sum g_n |pattern n|
    with g the receiver's gains. It reads the buckets, never the scene.
    """
    reach = np.sum(receiver_gains(m) * ens.patterns.sizes)
    return float(np.clip(np.sum(m.bucket) / reach, 0.02, 0.5)) if reach > 0 else 0.5


def decode_sum_bp(
    m: Measurement, ens: IlluminationEnsemble, opts: BpOptions | None = None
) -> DecodeResult:
    """Sum-product over the count-observation factor graph, on `_flood`.

    Pixel->measurement messages start at the prior, `moment_prior` when it
    is "auto". The stop rule: the hard decisions are unchanged for
    stall_window consecutive iterations. There is no cycle stop: a decode
    that oscillates runs to max_iters.
    """
    opts = opts or BpOptions()
    ens.require_shots(m)
    if opts.prior == "auto":
        opts = replace(opts, prior=moment_prior(m, ens))
    k = ens.k_pixels
    unpinned = int((np.bincount(ens.patterns.flat, minlength=k) == 0).sum())
    prior_logit = math.log(opts.prior) - math.log1p(-opts.prior)
    # a degree-1 check has no other neighbor, so its message never changes:
    # it joins the prior once, and its pixel->measurement messages go unread
    singles = [(ids, px) for ids, px in ens.patterns.groups if px.shape[1] == 1]
    groups = [(ids, px) for ids, px in ens.patterns.groups if px.shape[1] > 1]
    fixed = [_edge_logits(*_likelihoods(m, ids, 1)) for ids, _ in singles]
    prior = _totals(prior_logit, singles, fixed, k)
    plans = _groups(_CheckPlan, groups)
    for plan, (ids, _) in zip(plans, groups):
        plan.set_likelihoods(m, ids)
        plan.fill(opts.prior)
        plan.damping = opts.damping

    hard = np.full(k, opts.prior > 0.5)
    stable = 0
    for iteration, total in enumerate(_flood(plans, prior, groups, k, opts.max_iters), 1):
        marginals = _sigmoid(total)
        new_hard = marginals > 0.5
        stable = stable + 1 if np.array_equal(new_hard, hard) else 0
        hard = new_hard
        converged = stable >= opts.stall_window
        if converged:
            break

    pixels = hard.astype(np.uint8)
    # residual in count units, using the receiver's gains; np.sum, unlike
    # np.linalg.norm's BLAS dot, adds in an order no thread count changes
    error = m.bucket - receiver_gains(m) * ens.patterns.sums(pixels)
    residual = math.sqrt(np.sum(error * error)) / math.sqrt(m.channel.es)

    diag = DecodeDiagnostics(iteration, converged, residual, unpinned)
    return DecodeResult(pixels=pixels, marginals=marginals, diagnostics=diag)


class _ParityGroup:
    """B parity checks of degree d, their messages kept check-major, buffers built once.

    Row j of the (d, B) arrays `cols` and `msg` holds the j-th edge of every
    check: its variable and its check->variable logit. In logits the tanh
    rule sends edge j 2 (-1)^d atanh(prefix_j * suffix_j), from the other
    d - 1 factors t_i = tanh(x_i / 2) of the incoming logits x_i: each
    factor is the negative of its LLR's, hence the sign, which `_sign`
    folds into the doubling. prefix_j = t_0 * ... * t_(j-1) and
    suffix_j = t_(d-1) * ... * t_(j+1) are each multiplied left to right
    as `np.cumprod` multiplies.
    The (2d, B) buffer `_t` holds the factors twice over, so t_(j-1) and
    t_(d-j) are its rows j-1 and 2d-j, one strided view. Step j multiplies
    that pair into runs[j] = (prefix_j, suffix_(d-1-j)) from runs[j-1]
    (runs[0] is 1): one numpy call per step grows both products for all B
    checks.
    """

    def __init__(self, b: int, d: int):
        self.cols, self.msg = np.zeros((d, b), dtype=np.intp), np.zeros((d, b))
        self._sign = 2.0 if d % 2 == 0 else -2.0
        self._t = np.empty((2 * d, b))
        runs = np.ones((d, 2, b))
        self._steps = [
            (runs[j - 1], self._t[j - 1 :: 2 * (d - j) + 1][:2], runs[j]) for j in range(1, d)
        ]
        self._ends = runs[:, 0], runs[::-1, 1]  # prefix_j and suffix_j at row j

    def variable_pass(self, total: np.ndarray) -> None:
        """The factors tanh((total - msg) / 2) of every edge, into both halves of `_t`."""
        x = self._t[: len(self.msg)]
        np.subtract(total[self.cols], self.msg, out=x)
        x *= 0.5  # exactly x / 2.0
        np.tanh(x, out=x)
        self._t[len(x) :] = x

    def __call__(self) -> None:
        """The check pass: the check->variable logits into `msg`, from the factors in `_t`."""
        for prev, factor, run in self._steps:
            np.multiply(prev, factor, out=run)
        msg = np.multiply(*self._ends, out=self.msg)
        # clip, as max then min, so every message stays within 2 atanh(1 - 1e-15) ~ 35.2
        np.maximum(msg, -1 + 1e-15, out=msg)
        np.minimum(msg, 1 - 1e-15, out=msg)
        np.arctanh(msg, out=msg)
        msg *= self._sign

    def satisfied(self, hard: np.ndarray) -> bool:
        """Whether the bits of every check XOR to 0 in the hard decisions `hard`."""
        return not np.bitwise_xor.reduce(hard[self.cols], axis=0).any()


def decode_gf2_bp(
    logits: np.ndarray, h: ParityCheckMatrix, opts: BpOptions | None = None
) -> DecodeResult:
    """Sum-product over GF(2) with the tanh rule, on `_flood`; logit = log p(1)/p(0).

    Reads `opts.max_iters` only. The stop rule: the hard-decision word has
    zero syndrome, an XOR-reduce over each group's (d, B) index layout, or,
    before max_iters, an exact repeat of the message state (each group's
    `msg`), which its `_CycleWatch` finds. The first K bits of the hard
    decision are the pixels. Products and sums run in the order of a loop
    over (B, d) groups with `np.cumprod`, so results match that loop to the
    bit.
    """
    opts = opts or BpOptions()
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (h.n_total,):
        raise ValueError(f"logit length {logits.shape}, expected ({h.n_total},)")

    groups = h.rows.groups
    checks = _groups(_ParityGroup, groups)
    for check in checks:
        check.msg.fill(0.0)  # a cached group holds the last decode's messages
        check.variable_pass(logits)
    watch = _CycleWatch([check.msg for check in checks])
    for iteration, total in enumerate(_flood(checks, logits, groups, h.n_total, opts.max_iters), 1):
        hard = total > 0.0
        converged = all(check.satisfied(hard) for check in checks)
        if converged or (iteration < opts.max_iters and watch.repeats(iteration)):
            break

    diag = DecodeDiagnostics(iteration, converged, math.nan, 0, watch.period)
    return DecodeResult(hard[: h.k_info].astype(np.uint8), _sigmoid(total), diag)
