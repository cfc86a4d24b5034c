"""Systematic sparse generator/parity-check construction over GF(2).

The generator has the form G = [I | P] where P is a random sparse K x (N-K)
binary block. Column weights of P are drawn from a degree distribution, and
each column support is a uniform random subset of the K information positions.
Matrices are deterministic for a fixed seed (numpy PCG64).

Every sum over index rows (parity symbols, syndromes, bucket signals, the
decoders' checks) goes through one sparse-row kernel: `degree_groups` stacks
the rows of each size into a (B, d) index matrix, and `group_sums` reduces
each group along its rows. That is the mat-vec A v of a 0/1 matrix given by
its row supports; its transpose A^T s is one `np.bincount` over the same
index matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        if any(d < 1 or d != int(d) for d in degrees):
            raise ValueError("degrees must be positive integers")
        if len(set(degrees)) != len(degrees):
            raise ValueError("degrees must be distinct")
        if any(w < 0 or w > 1 for w in weights):
            raise ValueError("weights must lie in [0, 1]")
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

    def mean_degree(self) -> float:
        return sum(d * w for d, w in self.terms)

    def validate_for_k(self, k: int) -> None:
        if self.max_degree > k:
            raise ValueError(
                f"invalid degree: distribution has degree {self.max_degree} > K={k}"
            )


def sample_degree(dist: DegreeDistribution, rng: np.random.Generator) -> int:
    """Draw one column weight D with probability equal to its weight."""
    if len(dist.terms) == 1:
        return dist.terms[0][0]
    degrees = np.array([d for d, _ in dist.terms])
    weights = np.array([w for _, w in dist.terms])
    # guard against accumulated rounding in the caller-supplied weights
    weights = weights / weights.sum()
    return int(rng.choice(degrees, p=weights))


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

    @property
    def rate(self) -> float:
        return self.k_info / self.n_total


@dataclass
class GeneratorMatrix:
    """G = [I | P], stored sparsely: one sorted index array per parity column.

    The identity block is implicit. Arrays are treated as read-only after
    construction; matrices are safe to share across parallel workers.
    """

    k_info: int
    n_total: int
    seed: int
    parity_columns: list[np.ndarray] = field(default_factory=list)

    @property
    def num_parity(self) -> int:
        return self.n_total - self.k_info

    def column_degrees(self) -> np.ndarray:
        return np.array([len(c) for c in self.parity_columns], dtype=np.int64)

    def parity_duty_ratio(self) -> float:
        """Mean fraction of pixels lit per parity column."""
        if not self.parity_columns:
            return 0.0
        return float(self.column_degrees().mean()) / self.k_info


@dataclass
class ParityCheckMatrix:
    """H = [P^T | I], one sorted index array per row over {0..N-1}."""

    k_info: int
    n_total: int
    rows: list[np.ndarray] = field(default_factory=list)


def build_generator(spec: CodeSpec) -> GeneratorMatrix:
    """Sample the sparse parity block column by column.

    Each column weight is drawn from the degree distribution, then the support
    is a uniform random size-D subset of {0..K-1}, sampled without replacement.
    Deterministic for a fixed spec.seed. Duplicate columns are permitted; no
    girth conditioning is applied.
    """
    spec.dist.validate_for_k(spec.k_info)
    rng = np.random.default_rng(spec.seed)
    columns = []
    for _ in range(spec.n_total - spec.k_info):
        d = sample_degree(spec.dist, rng)
        support = rng.choice(spec.k_info, size=d, replace=False)
        support.sort()
        columns.append(support.astype(np.int64))
    return GeneratorMatrix(
        k_info=spec.k_info,
        n_total=spec.n_total,
        seed=spec.seed,
        parity_columns=columns,
    )


def degree_groups(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """(row ids, (B, d) index matrix) for each nonempty row size, in increasing d.

    An empty row (a measurement with no lit pixels) belongs to no group.
    """
    sizes = np.array([len(row) for row in rows], dtype=np.int64)
    if not sizes.any():
        return []
    flat = np.concatenate(rows).astype(np.int64, copy=False)
    starts = np.cumsum(sizes) - sizes
    groups = []
    for d in np.unique(sizes[sizes > 0]):
        ids = np.flatnonzero(sizes == d)
        groups.append((ids, flat[starts[ids, None] + np.arange(d)]))
    return groups


def group_sums(groups, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum of `values` over each row of `degree_groups`, 0 for an empty row.

    Each row of a C-contiguous (B, d) gather is summed as `values[row].sum()`
    sums it (pairwise), so float results match a per-row loop bit for bit.
    """
    values = np.asarray(values)
    # the dtype `sum` gives: float stays float, uint8 -> uint64, bool -> int64
    out = np.zeros(n_rows, dtype=np.zeros(1, values.dtype).sum().dtype)
    for ids, idx in groups:
        out[ids] = values[idx].sum(axis=1)
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
    out[g.k_info :] = group_sums(degree_groups(g.parity_columns), bits, g.num_parity) & 1
    return out


def derive_parity_check(g: GeneratorMatrix) -> ParityCheckMatrix:
    """Systematic dual: row j = parity column j's support plus position K+j."""
    rows = []
    for j, col in enumerate(g.parity_columns):
        rows.append(np.append(col, g.k_info + j).astype(np.int64))
    return ParityCheckMatrix(k_info=g.k_info, n_total=g.n_total, rows=rows)


def syndrome(h: ParityCheckMatrix, codeword: np.ndarray) -> np.ndarray:
    """c . H^T over GF(2); all-zero exactly for codewords."""
    codeword = np.asarray(codeword)
    if codeword.shape != (h.n_total,):
        raise ValueError(
            f"codeword has length {codeword.shape}, expected ({h.n_total},)"
        )
    sums = group_sums(degree_groups(h.rows), codeword.astype(np.uint8), len(h.rows))
    return (sums & 1).astype(np.uint8)


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
    return GeneratorMatrix(k_info=k, n_total=n, seed=seed, parity_columns=columns)
