"""Systematic sparse generator/parity-check construction over GF(2).

The generator has the form G = [I | P] where P is a random sparse K x (N-K)
binary block. Column weights of P are drawn from a degree distribution, and
each column support is a uniform random subset of the K information positions.
Matrices are deterministic for a fixed seed (numpy PCG64).

The parity block P, the parity-check matrix H and the illumination patterns
are all sparse 0/1 matrices given by the supports of their rows, and all are
`SparseRows`: the supports stored back to back with the row lengths. Each
builds its degree-grouped layout once, on first use, stacking the rows of
each size into a (B, d) index matrix. Every row sum (parity symbols,
syndromes, bucket signals, the decoders' checks) is `SparseRows.sums`, the
mat-vec A v; its transpose A^T s is one `np.bincount` over the same index
matrices.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

# bounded draws per `rng.integers` call in build_generator, to bound memory
_DRAW_CHUNK = 2**20


class SparseRows:
    """A sparse 0/1 matrix by its row supports: `flat` holds them back to back.

    Row i is flat[start_i : start_i + sizes[i]]. Both arrays are read-only
    copies of the caller's, so the row views and the degree-grouped layout,
    each built at most once on first use, cannot go stale.
    """

    def __init__(self, flat, sizes):
        self.flat = np.array(flat, dtype=np.int64)
        self.sizes = np.array(sizes, dtype=np.int64)
        if (self.sizes < 0).any() or self.sizes.sum() != len(self.flat):
            raise ValueError("row sizes must be non-negative and sum to len(flat)")
        self.flat.flags.writeable = self.sizes.flags.writeable = False
        self._rows = None
        self._groups = None

    @classmethod
    def of(cls, rows) -> "SparseRows":
        """From a sequence of index arrays, one per row."""
        sizes = [len(row) for row in rows]
        flat = np.concatenate(rows) if sizes else np.empty(0, np.int64)
        return cls(flat, sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        if self._rows is None:
            ends = np.cumsum(self.sizes).tolist()
            self._rows = [self.flat[e - d : e] for e, d in zip(ends, self.sizes.tolist())]
        return iter(self._rows)

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) index pairs of every nonzero entry, in row order."""
        return np.repeat(np.arange(len(self)), self.sizes), self.flat

    @property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(row ids, (B, d) index matrix) for each nonempty row size, in increasing d.

        An empty row (a measurement with no lit pixels) belongs to no group.
        """
        if self._groups is None:
            starts = np.cumsum(self.sizes) - self.sizes
            self._groups = []
            for d in np.unique(self.sizes[self.sizes > 0]):
                ids = np.flatnonzero(self.sizes == d)
                self._groups.append((ids, self.flat[starts[ids, None] + np.arange(d)]))
        return self._groups

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of `values` over each row, 0 for an empty row.

        Each row of a C-contiguous (B, d) gather is summed as `values[row].sum()`
        sums it (pairwise), so float results match a per-row loop bit for bit.
        """
        values = np.asarray(values)
        # the dtype `sum` gives: float stays float, uint8 -> uint64, bool -> int64
        out = np.zeros(len(self), dtype=np.zeros(1, values.dtype).sum().dtype)
        for ids, idx in self.groups:
            out[ids] = values[idx].sum(axis=1)
        return out


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability weights over parity-column Hamming weights.

    terms: tuple of (degree, weight) pairs; weights sum to 1, degrees are
    distinct positive integers.
    """

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("degree distribution needs at least one term")
        degrees = [d for d, _ in self.terms]
        weights = [w for _, w in self.terms]
        if any(
            not isinstance(d, numbers.Integral) or isinstance(d, bool) or d < 1
            for d in degrees
        ):
            raise ValueError(f"degrees must be positive integers, got {degrees!r}")
        if len(set(degrees)) != len(degrees):
            raise ValueError("degrees must be distinct")
        if not all(0 <= w <= 1 for w in weights):  # also rejects NaN
            raise ValueError(f"weights must lie in [0, 1], got {weights!r}")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")

    @classmethod
    def regular(cls, degree: int) -> "DegreeDistribution":
        """Point mass on a single column weight."""
        return cls(terms=((int(degree), 1.0),))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.terms)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative weights, built as `Generator.choice(p=...)` builds them."""
        weights = np.array([w for _, w in self.terms])
        # guard against accumulated rounding in the caller-supplied weights
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf

    def validate_for_k(self, k: int) -> None:
        if self.max_degree > k:
            raise ValueError(
                f"invalid degree: distribution has degree {self.max_degree} > K={k}"
            )


def sample_degree(dist: DegreeDistribution, rng: np.random.Generator) -> int:
    """Draw one column weight D with probability equal to its weight."""
    if len(dist.terms) == 1:
        return dist.terms[0][0]
    # one double, looked up as `rng.choice(degrees, p=weights)` would: same draw, same stream
    return int(dist.degrees[dist.cdf.searchsorted(rng.random(), side="right")])


@dataclass(frozen=True)
class CodeSpec:
    """Parameters of one systematic code: K info bits into N symbols."""

    k_info: int
    n_total: int
    dist: DegreeDistribution
    seed: int

    def __post_init__(self):
        if self.k_info < 1:
            raise ValueError("K must be >= 1")
        if self.n_total < self.k_info:
            raise ValueError(
                f"invalid shape: N={self.n_total} < K={self.k_info}"
            )


@dataclass
class GeneratorMatrix:
    """G = [I | P], stored sparsely: row j of `parity_columns` is column j's support.

    The identity block is implicit. Arrays are treated as read-only after
    construction; matrices are safe to share across parallel workers.
    """

    k_info: int
    n_total: int
    seed: int
    parity_columns: SparseRows

    @property
    def num_parity(self) -> int:
        return self.n_total - self.k_info

    def parity_duty_ratio(self) -> float:
        """Mean fraction of pixels lit per parity column."""
        if not self.parity_columns:
            return 0.0
        return float(self.parity_columns.sizes.mean()) / self.k_info


@dataclass
class ParityCheckMatrix:
    """H = [P^T | I], one sorted support per row over {0..N-1}."""

    k_info: int
    n_total: int
    rows: SparseRows


def build_generator(spec: CodeSpec) -> GeneratorMatrix:
    """Sample the sparse parity block from the stream of default_rng(spec.seed).

    Each column weight D is drawn from the degree distribution (no draw for a
    single degree), then the support is `rng.choice(K, D, replace=False)`,
    sorted: a uniform random size-D subset of {0..K-1}. Columns are sampled in
    order on one stream, so the code is fixed by the spec. A single degree in
    the range where `choice` runs Floyd's algorithm (K <= 10000 or
    D <= K // 50) is sampled for all columns at once by `_floyd_supports`, bit
    for bit the same; mixtures, whose degree draws interleave with the support
    draws, and numpy's tail-shuffle range sample column by column. Duplicate
    columns are permitted; no girth conditioning is applied.
    """
    spec.dist.validate_for_k(spec.k_info)
    rng = np.random.default_rng(spec.seed)
    k, n_cols = spec.k_info, spec.n_total - spec.k_info
    (d, _), *mixture = spec.dist.terms
    if not mixture and (k <= 10000 or d <= k // 50):
        parity = SparseRows(_floyd_supports(k, d, n_cols, rng), np.full(n_cols, d))
    else:
        columns = []
        for _ in range(n_cols):
            support = rng.choice(k, size=sample_degree(spec.dist, rng), replace=False)
            support.sort()
            columns.append(support)
        parity = SparseRows.of(columns)
    return GeneratorMatrix(
        k_info=spec.k_info,
        n_total=spec.n_total,
        seed=spec.seed,
        parity_columns=parity,
    )


def _floyd_supports(k: int, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The sorted supports of n `rng.choice(k, d, replace=False)` calls, back to back.

    Each call runs Floyd's algorithm: for t = 0..d-1 it draws v_t in [0, j_t],
    j_t = k - d + t, and takes v_t, or j_t if v_t is already taken. It then
    shuffles its d picks with draws in [0, i] for i = d-1..1, which the sort
    undoes but which still consume the stream. `rng.integers` with an int64
    array of bounds makes exactly these bounded draws, Lemire rejections
    included, so one call draws many columns.
    """
    bounds = np.concatenate([np.arange(k - d + 1, k + 1), np.arange(d, 1, -1)])
    per_call = max(1, _DRAW_CHUNK // len(bounds))
    parts = [np.empty(0, dtype=np.int64)]
    for start in range(0, n, per_call):
        m = min(per_call, n - start)
        draws = rng.integers(0, np.tile(bounds, m)).reshape(m, len(bounds))
        parts.append(_floyd_sets(draws[:, :d], k).ravel())
    return np.concatenate(parts)


def _floyd_sets(v: np.ndarray, k: int) -> np.ndarray:
    """Row-sorted Floyd sets of the proposals v (one column's d draws per row).

    v_t is taken unless it is already in the set (dup_t), and it is when it
    repeats an earlier proposal, or when it equals an earlier j_s
    (k - d <= v_t < j_t, s = v_t - (k - d)) that went in because dup_s.
    """
    m, d = v.shape
    t = np.arange(d)
    shift = (d - 1).bit_length()
    # repeats: sorting (v_t, t) row by row puts a repeat right after its first
    keys = (v << shift) | t
    keys.sort(axis=1)
    keys = keys.ravel()
    vals = keys >> shift
    at = np.flatnonzero(vals[1:] == vals[:-1]) + 1
    at = at[at % d != 0]  # not across rows
    dup = np.zeros(m * d, dtype=bool)
    dup[at - at % d + (keys[at] & ((1 << shift) - 1))] = True
    # dup_t |= dup_s along s = v_t - (k - d) < t, by pointer jumping: about log2(d) passes
    u = v - (k - d)
    linked = np.flatnonzero((u >= 0) & (u < t))
    ptr = np.arange(m * d)
    ptr[linked] = linked - linked % d + u.ravel()[linked]
    while len(linked):  # a link ending at an unlinked entry is resolved and drops out
        p = ptr[linked]
        dup[linked] |= dup[p]
        q = ptr[p]
        moving = q != p
        linked = linked[moving]
        ptr[linked] = q[moving]
    out = v.copy()
    taken = np.flatnonzero(dup)
    np.put(out, taken, k - d + taken % d)
    out.sort(axis=1)
    return out


def encode(g: GeneratorMatrix, pixels: np.ndarray) -> np.ndarray:
    """Systematic encode: output[:K] = pixels, output[K+j] = XOR over column j."""
    pixels = np.asarray(pixels)
    if pixels.shape != (g.k_info,):
        raise ValueError(
            f"pixel vector has length {pixels.shape}, expected ({g.k_info},)"
        )
    if not np.isin(pixels, (0, 1)).all():
        raise ValueError("pixels must be binary")
    bits = pixels.astype(np.uint8)
    out = np.empty(g.n_total, dtype=np.uint8)
    out[: g.k_info] = bits
    out[g.k_info :] = g.parity_columns.sums(bits) & 1
    return out


def derive_parity_check(g: GeneratorMatrix) -> ParityCheckMatrix:
    """Systematic dual: row j = parity column j's support plus position K+j."""
    cols = g.parity_columns
    # K+j goes in at the end of row j, where row j+1 starts
    flat = np.insert(cols.flat, np.cumsum(cols.sizes), g.k_info + np.arange(len(cols)))
    return ParityCheckMatrix(g.k_info, g.n_total, rows=SparseRows(flat, cols.sizes + 1))


def syndrome(h: ParityCheckMatrix, codeword: np.ndarray) -> np.ndarray:
    """c . H^T over GF(2); all-zero exactly for codewords."""
    codeword = np.asarray(codeword)
    if codeword.shape != (h.n_total,):
        raise ValueError(
            f"codeword has length {codeword.shape}, expected ({h.n_total},)"
        )
    return (h.rows.sums(codeword.astype(np.uint8)) & 1).astype(np.uint8)


def save_generator(g: GeneratorMatrix, path) -> None:
    """Plain-text serialization; round-trips byte-identically via load_generator.

    Format: header line "K N num_parity_cols seed", then one line per parity
    column of space-separated sorted indices.
    """
    lines = [f"{g.k_info} {g.n_total} {g.num_parity} {g.seed}"]
    for col in g.parity_columns:
        lines.append(" ".join(str(int(i)) for i in col))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_generator(path) -> GeneratorMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"bad generator header in {path}")
        k, n, num_cols, seed = (int(x) for x in header)
        if not 1 <= k <= n:
            raise ValueError(
                f"invalid generator shape in {path}: need 1 <= K <= N, got K={k} N={n}"
            )
        if n - k != num_cols:
            raise ValueError("parity column count does not match N-K")
        columns = []
        for _ in range(num_cols):
            line = fh.readline()
            if not line:
                raise ValueError(f"truncated generator file {path}")
            columns.append(np.array([int(t) for t in line.split()], dtype=np.int64))
    for col in columns:
        if len(col) and (col.min() < 0 or col.max() >= k):
            raise ValueError("parity column index out of range")
        if (np.diff(col) <= 0).any():
            raise ValueError("parity column indices must be strictly increasing")
    return GeneratorMatrix(k, n, seed, parity_columns=SparseRows.of(columns))
