"""Code construction: degree distributions, generator/parity-check, encoding."""

import itertools

import numpy as np
import pytest

from codedgi import (
    CodeSpec,
    DegreeDistribution,
    GeneratorMatrix,
    build_generator,
    derive_parity_check,
    encode,
    load_generator,
    sample_degree,
    save_generator,
    syndrome,
)
from codedgi.codes import degree_groups, group_sums


def toy_generator():
    """K=3, N=5 code with parity columns {0,1} and {1,2}."""
    return GeneratorMatrix(
        k_info=3,
        n_total=5,
        seed=0,
        parity_columns=[np.array([0, 1]), np.array([1, 2])],
    )


def _by_degree(rows):
    """The per-row dict loop that `degree_groups` replaced, kept as its reference."""
    ids_of = {}
    for i, row in enumerate(rows):
        if len(row):
            ids_of.setdefault(len(row), []).append(i)
    return [
        (np.array(ids, dtype=np.int64), np.stack([rows[i] for i in ids]).astype(np.int64))
        for _, ids in sorted(ids_of.items())
    ]


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


class TestRowKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_groups_match_per_row_loop(self, seed):
        rows = ragged_rows(seed)
        got, want = degree_groups(rows), _by_degree(rows)
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
        got = group_sums(degree_groups(rows), values, len(rows))
        want = np.array([values[row].sum() for row in rows])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_no_rows_and_empty_rows(self):
        assert degree_groups([]) == []
        empty = [np.array([], dtype=np.int64)] * 3
        assert degree_groups(empty) == []
        assert np.array_equal(group_sums([], np.ones(4), 3), np.zeros(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_encode_and_syndrome_match_per_row_loops(self, seed):
        dist = DegreeDistribution(((1, 0.2), (8, 0.3), (9, 0.2), (33, 0.3)))
        g = build_generator(CodeSpec(64, 200, dist, seed=seed))
        g.parity_columns[5] = np.array([], dtype=np.int64)  # a loaded file may hold one
        h = derive_parity_check(g)
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 2, 64)
        parity = [pixels[col].sum() & 1 for col in g.parity_columns]
        assert encode(g, pixels)[64:].tolist() == parity
        word = rng.integers(0, 2, 200)
        got = syndrome(h, word)
        assert got.dtype == np.uint8
        assert got.tolist() == [word[row].sum() & 1 for row in h.rows]


class TestDegreeDistribution:
    def test_regular_is_point_mass(self):
        dist = DegreeDistribution.regular(8)
        assert dist.terms == ((8, 1.0),)
        assert dist.mean_degree() == 8

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((2, 0.5), (4, 0.4)))

    def test_degrees_distinct_and_positive(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((2, 0.5), (2, 0.5)))
        with pytest.raises(ValueError):
            DegreeDistribution(((0, 1.0),))

    def test_validate_for_k(self):
        DegreeDistribution.regular(8).validate_for_k(8)
        with pytest.raises(ValueError):
            DegreeDistribution.regular(9).validate_for_k(8)


class TestSampleDegree:
    def test_point_mass_always_returns_degree(self):
        rng = np.random.default_rng(0)
        for dist, expect in ((DegreeDistribution.regular(8), 8), (DegreeDistribution.regular(1), 1)):
            assert all(sample_degree(dist, rng) == expect for _ in range(50))

    def test_mixture_frequencies(self):
        # binomial CI oracle: sigma = sqrt(0.25/1e5) ~ 0.00158, so +-0.01 is >6 sigma
        dist = DegreeDistribution(((2, 0.5), (4, 0.5)))
        rng = np.random.default_rng(123)
        draws = np.array([sample_degree(dist, rng) for _ in range(100_000)])
        freq2 = np.mean(draws == 2)
        assert abs(freq2 - 0.5) < 0.01
        assert set(np.unique(draws)) == {2, 4}


class TestBuildGenerator:
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
        degrees = g.column_degrees()
        se = degrees.std(ddof=1) / np.sqrt(extra) / k
        assert abs(g.parity_duty_ratio() - dist.mean_degree() / k) < 3 * se


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
