"""Code construction: degree distributions, generator/parity-check, encoding."""

import hashlib
import itertools

import numpy as np
import pytest

from codedgi import codes
from codedgi import (
    CodeSpec,
    DegreeDistribution,
    GeneratorMatrix,
    SparseRows,
    avg_column_hit_prob,
    build_generator,
    derive_parity_check,
    encode,
    load_generator,
    sample_degree,
    save_generator,
    syndrome,
)


def toy_generator():
    """K=3, N=5 code with parity columns {0,1} and {1,2}."""
    return GeneratorMatrix(
        k_info=3,
        n_total=5,
        seed=0,
        parity_columns=SparseRows.of([np.array([0, 1]), np.array([1, 2])]),
    )


def _by_degree(rows):
    """The per-row dict loop that `SparseRows.groups` replaced, kept as its reference."""
    ids_of = {}
    for i, row in enumerate(rows):
        if len(row):
            ids_of.setdefault(len(row), []).append(i)
    return [
        (np.array(ids, dtype=np.int64), np.stack([rows[i] for i in ids]).astype(np.int64))
        for _, ids in sorted(ids_of.items())
    ]


def choice_loop(spec):
    """The per-column loop `build_generator` batched, kept as its reference."""
    rng = np.random.default_rng(spec.seed)
    columns = []
    for _ in range(spec.n_total - spec.k_info):
        d = sample_degree(spec.dist, rng)
        support = rng.choice(spec.k_info, size=d, replace=False)
        support.sort()
        columns.append(support.astype(np.int64))
    return SparseRows.of(columns)


class CountingRng:
    """A generator that counts the calls made on it, to catch a per-column loop."""

    def __init__(self, seed, made):
        self.rng, self.calls = np.random.Generator(np.random.PCG64(seed)), 0
        made.append(self)

    def __getattr__(self, name):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def ragged_rows(seed, n_cols=300):
    """Index rows of mixed sizes: empty, d = 1, 8, 9, 33, 128 and speckle-like."""
    rng = np.random.default_rng(seed)
    sizes = [0, 1, 8, 9, 33, 128] * 6 + rng.binomial(n_cols, 0.15, 40).tolist()
    rng.shuffle(sizes)
    return [np.sort(rng.choice(n_cols, size=d, replace=False)) for d in sizes]


def row_values(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gray":  # non-dyadic k/255 levels, where summation order shows
        return rng.integers(0, 256, n) / 255.0
    if kind == "bits":
        return rng.integers(0, 2, n).astype(np.uint8)
    return rng.random(n) < 0.3


def rows_equal(a, b):
    a, b = list(a), list(b)
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestRowKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_groups_match_per_row_loop(self, seed):
        rows = ragged_rows(seed)
        got, want = SparseRows.of(rows).groups, _by_degree(rows)
        assert len(got) == len(want)
        for (ids, idx), (want_ids, want_idx) in zip(got, want):
            assert np.array_equal(ids, want_ids)
            assert idx.dtype == want_idx.dtype and idx.flags.c_contiguous
            assert np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("kind", ["gray", "bits", "bools"])
    @pytest.mark.parametrize("seed", range(4))
    def test_sums_match_per_row_loop(self, kind, seed):
        rows = ragged_rows(seed)
        values = row_values(kind, 300, seed + 100)
        got = SparseRows.of(rows).sums(values)
        want = np.array([values[row].sum() for row in rows])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_no_rows_and_empty_rows(self):
        assert SparseRows.of([]).groups == []
        empty = SparseRows.of([np.array([], dtype=np.int64)] * 3)
        assert empty.groups == []
        assert np.array_equal(empty.sums(np.ones(4)), np.zeros(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_iteration_round_trips(self, seed):
        rows = ragged_rows(seed)
        got = SparseRows.of(rows)
        assert len(got) == len(rows)
        assert rows_equal(got, rows)
        assert all(row.dtype == np.int64 for row in got)
        with pytest.raises(ValueError, match="read-only"):
            next(row for row in got if len(row))[0] = 1  # would leave the layout stale
        assert rows_equal(SparseRows.of([]), [])
        assert rows_equal(SparseRows.of([np.array([], dtype=np.int64)] * 2), [[], []])

    def test_entries_in_row_order(self):
        rows = [np.array([3, 5]), np.array([], dtype=np.int64), np.array([0])]
        r, c = SparseRows.of(rows).entries()
        assert r.tolist() == [0, 0, 2] and c.tolist() == [3, 5, 0]

    def test_copies_the_callers_arrays(self):
        rows = ragged_rows(5)
        flat, sizes = np.concatenate(rows), np.array([len(row) for row in rows])
        matrix = SparseRows(flat, sizes)
        values = row_values("gray", 300, 6)
        want = np.array([values[row].sum() for row in rows])
        assert np.array_equal(matrix.sums(values), want)
        flat[:] = 0
        sizes[:] = 0
        assert np.array_equal(matrix.flat, np.concatenate(rows))
        assert rows_equal(matrix, rows)
        assert np.array_equal(matrix.sums(values), want)

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError):
            SparseRows(np.arange(3), [1, 1])
        with pytest.raises(ValueError):
            SparseRows(np.arange(3), [4, -1])

    @pytest.mark.parametrize("seed", range(3))
    def test_encode_and_syndrome_match_per_row_loops(self, seed):
        dist = DegreeDistribution(((1, 0.2), (8, 0.3), (9, 0.2), (33, 0.3)))
        g = build_generator(CodeSpec(64, 200, dist, seed=seed))
        columns = list(g.parity_columns)
        columns[5] = np.array([], dtype=np.int64)  # a loaded file may hold one
        g.parity_columns = SparseRows.of(columns)
        h = derive_parity_check(g)
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 2, 64)
        parity = [pixels[col].sum() & 1 for col in g.parity_columns]
        assert encode(g, pixels)[64:].tolist() == parity
        word = rng.integers(0, 2, 200)
        got = syndrome(h, word)
        assert got.dtype == np.uint8
        assert got.tolist() == [word[row].sum() & 1 for row in h.rows]

    @pytest.mark.parametrize("seed", range(3))
    def test_parity_check_matches_per_row_append(self, seed):
        dist = DegreeDistribution(((1, 0.3), (8, 0.4), (33, 0.3)))
        g = build_generator(CodeSpec(64, 150, dist, seed=seed))
        columns = list(g.parity_columns)
        columns[0] = columns[7] = columns[-1] = np.array([], dtype=np.int64)
        g.parity_columns = SparseRows.of(columns)
        # the per-row loop derive_parity_check replaced, kept as its reference
        want = [np.append(col, 64 + j).astype(np.int64) for j, col in enumerate(columns)]
        h = derive_parity_check(g)
        assert h.rows.flat.dtype == np.int64
        assert rows_equal(h.rows, want)


class TestDegreeDistribution:
    def test_regular_is_point_mass(self):
        dist = DegreeDistribution.regular(8)
        assert dist.terms == ((8, 1.0),)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((2, 0.5), (4, 0.4)))

    def test_degrees_distinct_and_positive(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((2, 0.5), (2, 0.5)))
        with pytest.raises(ValueError):
            DegreeDistribution(((0, 1.0),))
        assert DegreeDistribution(((np.int64(8), 1.0),)).degrees == (8,)

    @pytest.mark.parametrize("degree", [8.0, True, 2.5, "8"])
    def test_degrees_must_be_integers(self, degree):
        with pytest.raises(ValueError, match="degrees must be positive integers"):
            DegreeDistribution(((degree, 1.0),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.5, 1.5])
    def test_weights_must_lie_in_unit_interval(self, weight):
        with pytest.raises(ValueError, match="weights must lie in"):
            DegreeDistribution(((2, weight), (3, 1.0)))

    def test_validate_for_k(self):
        DegreeDistribution.regular(8).validate_for_k(8)
        with pytest.raises(ValueError):
            DegreeDistribution.regular(9).validate_for_k(8)


class TestSampleDegree:
    def test_point_mass_always_returns_degree(self):
        rng = np.random.default_rng(0)
        for dist, expect in ((DegreeDistribution.regular(8), 8), (DegreeDistribution.regular(1), 1)):
            assert all(sample_degree(dist, rng) == expect for _ in range(50))

    @pytest.mark.parametrize("terms", [
        ((2, 0.5), (8, 0.5)),
        ((1, 0.2), (3, 0.5), (8, 0.3)),
        ((3, 0.1), (5, 0.0), (9, 0.9)),
        ((2, 1 / 3), (4, 1 / 3), (6, 1 / 3)),
    ])
    def test_mixture_draws_match_choice(self, terms):
        # reference: numpy's weighted choice on the same stream, draw for draw
        dist = DegreeDistribution(terms)
        degrees = np.array([d for d, _ in terms])
        weights = np.array([w for _, w in terms])
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            want = int(ref.choice(degrees, p=weights / weights.sum()))
            assert sample_degree(dist, rng) == want
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_mixture_frequencies(self):
        # binomial CI oracle: sigma = sqrt(0.25/1e5) ~ 0.00158, so +-0.01 is >6 sigma
        dist = DegreeDistribution(((2, 0.5), (4, 0.5)))
        rng = np.random.default_rng(123)
        draws = np.array([sample_degree(dist, rng) for _ in range(100_000)])
        freq2 = np.mean(draws == 2)
        assert abs(freq2 - 0.5) < 0.01
        assert set(np.unique(draws)) == {2, 4}


# sha256 of parity flat + sizes bytes, frozen from the per-column `choice` loop (numpy 2.4):
# a numpy whose `choice` or `integers` draws differently changes every code and replay
GOLDEN = {
    "desk": ((256, 512, ((8, 1.0),)), "e218352fbf32821db6fbafe19c355bef6127e8933d2411a4961773fbff85243e"),
    "paper-v": ((1024, 2048, ((128, 1.0),)), "de1d55738c80aced2c395e7d06ad4c8a905634041c904ed6b7e41d5ae8a0177e"),
    "compare-32": ((1024, 2048, ((8, 1.0),)), "19a45dce46dfcf334fb578492cf0b83a010bcd1c9d80e794a7cad80a096f4757"),
    "mixture": (
        (256, 512, ((1, 0.2), (3, 0.5), (8, 0.3))),
        "7f1b19b3e6444bab7bab2067e05f7af0157384bd7df1368f9d860310e1ce05f2",
    ),
}

# (K, N, terms): K = 10001 sits on numpy's switch from Floyd's algorithm (d <= K // 50 = 200)
# to the tail shuffle; (64, 20064, 32) spans two draw chunks
EDGE_SHAPES = [
    (50, 120, ((1, 1.0),)),
    (12, 40, ((12, 1.0),)),
    (1, 4, ((1, 1.0),)),
    (30, 30, ((4, 1.0),)),
    (100, 101, ((7, 1.0),)),
    (64, 20064, ((32, 1.0),)),
    (10001, 10061, ((200, 1.0),)),
    (10001, 10061, ((201, 1.0),)),
    (64, 300, ((1, 0.5), (4, 0.5))),
    (256, 700, ((1, 0.2), (3, 0.5), (8, 0.3))),
]


def assert_matches_choice_loop(spec):
    got, want = build_generator(spec).parity_columns, choice_loop(spec)
    assert got.flat.dtype == np.int64
    assert np.array_equal(got.flat, want.flat)
    assert np.array_equal(got.sizes, want.sizes)


class TestBuildGenerator:
    @pytest.mark.parametrize("k, n, degree", [(256, 512, 8), (1024, 2048, 128), (1024, 2048, 8)])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_choice_loop_at_workload_shapes(self, k, n, degree, seed):
        assert_matches_choice_loop(CodeSpec(k, n, DegreeDistribution.regular(degree), seed))

    @pytest.mark.parametrize("k, n, terms", EDGE_SHAPES)
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_choice_loop_at_edges(self, k, n, terms, seed):
        assert_matches_choice_loop(CodeSpec(k, n, DegreeDistribution(terms), seed))

    def test_matches_choice_loop_through_a_lemire_rejection(self, monkeypatch):
        # a bound b near 70000 rejects a 32-bit draw with probability (2**32 % b) / 2**32,
        # about 1e-5, so the 100000 draws of seed 0 hold one; without it the 32-bit
        # draws used would equal the 5 bounded draws made per column
        made = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingRng(seed, made))
        spec = CodeSpec(70000, 90000, DegreeDistribution.regular(3), seed=0)
        got = build_generator(spec).parity_columns
        state = made[0].rng.bit_generator.state
        words, bits = 5 * 20000 // 2, np.random.PCG64(0)
        bits.advance(words)
        while bits.state["state"] != state["state"]:
            bits.advance(1)
            words += 1
        assert 2 * words - state["has_uint32"] > 5 * 20000
        monkeypatch.undo()
        want = choice_loop(spec)
        assert np.array_equal(got.flat, want.flat)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_codes(self, name):
        (k, n, terms), digest = GOLDEN[name]
        cols = build_generator(CodeSpec(k, n, DegreeDistribution(terms), seed=20250810)).parity_columns
        assert hashlib.sha256(cols.flat.tobytes() + cols.sizes.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "k, n, degree, calls",
        [(1024, 2048, 8, 1), (1024, 2048, 128, 1), (64, 20064, 32, 2), (10001, 10201, 200, 1)],
    )
    def test_one_generator_call_per_draw_chunk(self, monkeypatch, k, n, degree, calls):
        made = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingRng(seed, made))
        build_generator(CodeSpec(k, n, DegreeDistribution.regular(degree), seed=1))
        per_call = codes._DRAW_CHUNK // (2 * degree - 1)
        assert made[0].calls == calls == -(-(n - k) // per_call)

    def test_degree_one_gives_singletons(self):
        g = build_generator(CodeSpec(4, 8, DegreeDistribution.regular(1), seed=5))
        assert len(g.parity_columns) == 4
        assert all(len(c) == 1 for c in g.parity_columns)

    def test_duty_ratio_matches_degree_over_k(self):
        g = build_generator(CodeSpec(1024, 2048, DegreeDistribution.regular(8), seed=1))
        assert g.parity_duty_ratio() == 8 / 1024  # 0.78%

    def test_deterministic_for_fixed_seed(self):
        spec = CodeSpec(64, 128, DegreeDistribution.regular(4), seed=99)
        g1, g2 = build_generator(spec), build_generator(spec)
        assert all(np.array_equal(a, b) for a, b in zip(g1.parity_columns, g2.parity_columns))

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            build_generator(CodeSpec(4, 8, DegreeDistribution.regular(5), seed=0))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            CodeSpec(8, 4, DegreeDistribution.regular(2), seed=0)

    def test_supports_in_range_and_distinct(self):
        g = build_generator(CodeSpec(32, 96, DegreeDistribution.regular(6), seed=3))
        for col in g.parity_columns:
            assert len(set(col.tolist())) == 6
            assert col.min() >= 0 and col.max() < 32

    def test_empirical_duty_converges_to_mean_degree(self):
        # duty of the parity block -> mean(D)/K within 3 standard errors
        dist = DegreeDistribution(((2, 0.5), (8, 0.5)))
        k, extra = 64, 4000
        g = build_generator(CodeSpec(k, k + extra, dist, seed=11))
        degrees = g.parity_columns.sizes
        se = degrees.std(ddof=1) / np.sqrt(extra) / k
        assert abs(g.parity_duty_ratio() - avg_column_hit_prob(dist, k)) < 3 * se


class TestEncode:
    def test_all_zero_maps_to_all_zero(self):
        g = build_generator(CodeSpec(16, 32, DegreeDistribution.regular(4), seed=2))
        assert not encode(g, np.zeros(16, dtype=np.uint8)).any()

    def test_systematic_prefix(self):
        g = build_generator(CodeSpec(16, 32, DegreeDistribution.regular(4), seed=2))
        rng = np.random.default_rng(7)
        for _ in range(10):
            bits = rng.integers(0, 2, 16)
            assert np.array_equal(encode(g, bits)[:16], bits)

    def test_hand_worked_toy(self):
        # parity1 = p0^p1 = 1, parity2 = p1^p2 = 1
        cw = encode(toy_generator(), np.array([1, 0, 1]))
        assert cw.tolist() == [1, 0, 1, 1, 1]

    def test_linearity_exhaustive(self):
        g = build_generator(CodeSpec(5, 12, DegreeDistribution.regular(3), seed=4))
        words = [np.array(b) for b in itertools.product([0, 1], repeat=5)]
        for a in words[:8]:
            for b in words:
                lhs = encode(g, a ^ b)
                rhs = encode(g, a) ^ encode(g, b)
                assert np.array_equal(lhs, rhs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode(toy_generator(), np.array([1, 0]))


class TestParityCheck:
    def test_toy_rows(self):
        h = derive_parity_check(toy_generator())
        assert [r.tolist() for r in h.rows] == [[0, 1, 3], [1, 2, 4]]

    def test_random_codewords_have_zero_syndrome(self):
        g = build_generator(CodeSpec(24, 48, DegreeDistribution.regular(5), seed=8))
        h = derive_parity_check(g)
        rng = np.random.default_rng(1)
        for _ in range(100):
            cw = encode(g, rng.integers(0, 2, 24))
            assert not syndrome(h, cw).any()

    def test_single_flips_detected_on_toy(self):
        # brute force over all 5 positions; every bit participates in >= 1 row
        g = toy_generator()
        h = derive_parity_check(g)
        cw = encode(g, np.array([1, 0, 1]))
        for pos in range(5):
            flipped = cw.copy()
            flipped[pos] ^= 1
            assert syndrome(h, flipped).any(), f"flip at {pos} undetected"

    def test_random_words_rarely_codewords(self):
        g = build_generator(CodeSpec(16, 48, DegreeDistribution.regular(4), seed=6))
        h = derive_parity_check(g)
        rng = np.random.default_rng(2)
        hits = sum(
            not syndrome(h, rng.integers(0, 2, 48)).any() for _ in range(200)
        )
        # chance per word is 2^-32
        assert hits == 0


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        g = build_generator(CodeSpec(32, 64, DegreeDistribution.regular(4), seed=77))
        p1, p2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
        save_generator(g, p1)
        save_generator(load_generator(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_contents(self, tmp_path):
        g = toy_generator()
        path = tmp_path / "toy.txt"
        save_generator(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "3 5 2 0"
        assert lines[1] == "0 1" and lines[2] == "1 2"

    def test_bad_file_rejected(self, tmp_path):
        # truncated; a repeated index; unsorted indices
        for text in ("3 5 2 0\n0 1\n", "3 5 2 0\n0 0\n1 2\n", "3 5 2 0\n2 1\n1 2\n"):
            path = tmp_path / "bad.txt"
            path.write_text(text)
            with pytest.raises(ValueError):
                load_generator(path)

    def test_header_shape_rejected(self, tmp_path):
        # N < K (with the matching column count N - K = -1); K = 0
        for text in ("3 2 -1 0\n", "0 2 2 0\n\n\n"):
            path = tmp_path / "bad.txt"
            path.write_text(text)
            with pytest.raises(ValueError, match="1 <= K <= N"):
                load_generator(path)
