"""Correlation and least-squares reconstructions, plus Otsu binarization."""

import math

import numpy as np
import pytest

from codedgi import (
    ChannelParams,
    IlluminationEnsemble,
    Measurement,
    SceneImage,
    SparseRows,
    binarize,
    builtin_scene,
    cgi_reconstruct,
    decode_sum_bp,
    dgi_reconstruct,
    otsu_threshold,
    pinv_reconstruct,
    random_speckle,
    receiver_gains,
    sense,
)
from codedgi import baselines
from codedgi.baselines import GRAM_RCOND_MIN, Reconstruction, _centred_correlation, _gram_norm1


def identity_ensemble(k):
    return IlluminationEnsemble(k, SparseRows.of([np.array([i]) for i in range(k)]))


def manual_measurement(bucket, es=1.0, n0=0.0, fading="none", h=None):
    bucket = np.asarray(bucket, dtype=np.float64)
    h = np.ones_like(bucket) if h is None else np.asarray(h, dtype=np.float64)
    return Measurement(
        bucket=bucket,
        fading_mag=h,
        channel=ChannelParams(es=es, n0=n0, fading=fading),
        seed=0,
    )


def cgi_oracle(a, r):
    """Literal covariance formula, computed independently per pixel."""
    n, k = a.shape
    out = np.zeros(k)
    for i in range(k):
        out[i] = np.mean((r - r.mean()) * (a[:, i] - a[:, i].mean()))
    return out


def dense_correlation(a, c):
    """(1/N) c^T (A - ABar) on the dense pattern matrix."""
    return c @ (a - a.mean(axis=0)) / a.shape[0]


class TestCgi:
    def test_constant_bucket_gives_zero_image(self):
        ens = random_speckle(8, 20, 0.5, seed=1)
        m = manual_measurement(np.full(20, 3.0))
        assert np.allclose(cgi_reconstruct(ens, m).image, 0.0)

    def test_identity_closed_form(self):
        ens = identity_ensemble(4)
        delta = np.array([1.0, 0.0, 1.0, 0.0])
        m = manual_measurement(delta)  # noiseless: R = A delta
        image = cgi_reconstruct(ens, m).image
        expect = cgi_oracle(ens.dense(), m.bucket)
        np.testing.assert_allclose(image, expect, atol=1e-15)
        # argmax set equals the support of delta
        support = set(np.flatnonzero(delta))
        top = set(np.argsort(image)[-len(support):])
        assert top == support

    def test_energy_scaling_preserves_ranking(self):
        ens = random_speckle(16, 64, 0.3, seed=2)
        scene = SceneImage(4, 4, np.random.default_rng(0).integers(0, 2, 16).astype(float))
        m1 = sense(ens, scene, ChannelParams(es=1.0, n0=0.0, fading="none"), seed=3)
        m2 = sense(ens, scene, ChannelParams(es=2.0, n0=0.0, fading="none"), seed=3)
        img1 = cgi_reconstruct(ens, m1).image
        img2 = cgi_reconstruct(ens, m2).image
        np.testing.assert_allclose(img2, math.sqrt(2.0) * img1, rtol=1e-12)
        assert np.array_equal(np.argsort(img1), np.argsort(img2))


class TestDgi:
    def test_bucket_proportional_to_intensity_cancels(self):
        ens = random_speckle(8, 30, 0.5, seed=4)
        s = ens.patterns.sizes.astype(float)
        m = manual_measurement(2.5 * s)
        assert np.allclose(dgi_reconstruct(ens, m).image, 0.0, atol=1e-12)

    def test_identity_ranking(self):
        ens = identity_ensemble(4)
        delta = np.array([0.0, 1.0, 1.0, 0.0])
        m = manual_measurement(delta)
        image = dgi_reconstruct(ens, m).image
        support = set(np.flatnonzero(delta))
        assert set(np.argsort(image)[-2:]) == support

    def test_equals_cgi_for_equal_intensities(self):
        # all patterns the same size -> differential term reduces to R - RBar
        rng = np.random.default_rng(5)
        patterns = [np.sort(rng.choice(12, 3, replace=False)) for _ in range(40)]
        ens = IlluminationEnsemble(12, SparseRows.of(patterns))
        m = manual_measurement(rng.normal(2.0, 1.0, 40))
        np.testing.assert_allclose(
            dgi_reconstruct(ens, m).image, cgi_reconstruct(ens, m).image, atol=1e-12
        )

    def test_all_empty_patterns_rejected(self):
        ens = IlluminationEnsemble(4, SparseRows.of([np.array([], dtype=np.int64)] * 3))
        m = manual_measurement(np.zeros(3))
        with pytest.raises(ValueError):
            dgi_reconstruct(ens, m)


@pytest.mark.parametrize("method", [cgi_reconstruct, dgi_reconstruct, pinv_reconstruct])
def test_empty_ensemble_rejected(method):
    ens = IlluminationEnsemble(4, SparseRows.of([]))
    with pytest.raises(ValueError, match="empty ensemble"):
        method(ens, manual_measurement(np.zeros(0)))


def near_singular_acquisition():
    """Six pixels, full rank, but pixels 0 and 1 are lit apart only by a shot
    whose |h| is 1e-5: cond(A) is about 8e5, so the Gram's is about 7e11."""
    rng = np.random.default_rng(40)
    patterns = []
    for _ in range(17):
        lit = rng.choice(np.arange(2, 6), 2, replace=False).tolist()
        if rng.random() < 0.5:
            lit += [0, 1]
        patterns.append(np.sort(lit))
    patterns.append(np.array([0]))
    ens = IlluminationEnsemble(6, SparseRows.of(patterns))
    h = rng.rayleigh(math.sqrt(2 / math.pi), 18)
    h[-1] = 1e-5
    delta = rng.integers(0, 2, 6).astype(float)
    bucket = h * (ens.dense() @ delta) + rng.normal(0, 0.3, 18)
    return ens, manual_measurement(bucket, fading="rayleigh", h=h)


def underdetermined_acquisition():
    """Fewer patterns (12) than pixels (24), with CSI."""
    ens = random_speckle(24, 12, 0.5, seed=41)
    scene = SceneImage(6, 4, np.random.default_rng(42).integers(0, 2, 24).astype(float))
    return ens, sense(ens, scene, ChannelParams(es=1.0, n0=0.5, fading="rayleigh"), seed=43)


def well_conditioned_acquisition(fading="rayleigh", csi=True):
    """Twice as many speckle patterns (32) as pixels (16), Rayleigh with CSI by default."""
    ens = random_speckle(16, 32, 0.4, seed=44)
    scene = SceneImage(4, 4, np.random.default_rng(45).integers(0, 2, 16).astype(float))
    ch = ChannelParams(es=1.0, n0=0.5, fading=fading, csi_known=csi)
    return ens, sense(ens, scene, ch, seed=46)


def gram_kernel_calls(monkeypatch):
    """Names of the scipy BLAS Gram kernels (ssyrk, dsyrk) called from now on, in order."""
    from scipy.linalg import blas

    seen = []
    for name in ("ssyrk", "dsyrk"):

        def counting(*args, _name=name, _real=getattr(blas, name), **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(blas, name, counting)
    return seen


def reference_pinv(ens, m):
    """pinv_reconstruct as numpy forms the Gram: `system.T @ system`, its
    `np.linalg.norm(gram, 1)` and `system.T @ bucket`, with scipy's LAPACK
    factoring and solving and the same gelsy fallback.

    When every shot has the same gain g the Gram is `(dense.T @ dense) * g**2`:
    the float64 counts are exact, so the one rounding is that of the product,
    as pinv_reconstruct's exact float32 counts claim. The right-hand side is
    then g times the per-pixel bucket sums from the sparse entries, formed
    exactly as pinv_reconstruct forms it."""
    import scipy.linalg
    from scipy.linalg import lapack

    gains, dense = receiver_gains(m), ens.dense()
    system = gains[:, None] * dense
    if (gains == gains[0]).all():
        g = gains[0]
        gram = (dense.T @ dense) * g**2
        rows, pixels = ens.patterns.entries()
        rhs = g * np.bincount(pixels, weights=m.bucket[rows], minlength=ens.k_pixels)
    else:
        gram = system.T @ system
        rhs = system.T @ m.bucket
    chol, info = lapack.dpotrf(gram)
    if info == 0:
        rcond, _ = lapack.dpocon(chol, np.linalg.norm(gram, 1))
        if rcond > GRAM_RCOND_MIN:
            return lapack.dpotrs(chol, rhs)[0]
    return scipy.linalg.lstsq(system, m.bucket, cond=1e-10, lapack_driver="gelsy")[0]


class TestPinv:
    @pytest.fixture(autouse=True)
    def matches_reference_bits(self, monkeypatch):
        """Every pinv_reconstruct call in this class must equal reference_pinv
        bit for bit, which also pins the branch each acquisition takes."""

        real = pinv_reconstruct

        def checked(ens, m):
            recon = real(ens, m)
            assert np.array_equal(recon.image, reference_pinv(ens, m))
            return recon

        monkeypatch.setitem(globals(), "pinv_reconstruct", checked)

    def test_square_invertible_noiseless(self):
        ens = identity_ensemble(5)
        delta = np.array([0.2, 0.9, 0.0, 0.5, 1.0])
        m = manual_measurement(delta)
        x = pinv_reconstruct(ens, m).image
        np.testing.assert_allclose(x, delta, atol=1e-12)
        assert np.linalg.norm(m.bucket - ens.dense() @ x) < 1e-9

    def test_tall_consistent_system(self):
        rng = np.random.default_rng(6)
        ens = random_speckle(16, 32, 0.4, seed=7)
        delta = rng.integers(0, 2, 16).astype(float)
        scene = SceneImage(4, 4, delta)
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.0, fading="none"), seed=8)
        x = pinv_reconstruct(ens, m).image
        np.testing.assert_allclose(x, delta, atol=1e-9)

    def test_rank_deficient_returns_minimum_norm(self):
        # duplicate rows x0+x1 = 2 plus x2 = 3: minimum-norm gives (1, 1, 3)
        patterns = [np.array([0, 1]), np.array([0, 1]), np.array([2])]
        ens = IlluminationEnsemble(3, SparseRows.of(patterns))
        m = manual_measurement([2.0, 2.0, 3.0])
        x = pinv_reconstruct(ens, m).image
        np.testing.assert_allclose(x, [1.0, 1.0, 3.0], atol=1e-10)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(9)
        ens = random_speckle(10, 25, 0.4, seed=10)
        scene = SceneImage(5, 2, rng.integers(0, 2, 10).astype(float))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.5, fading="rayleigh"), seed=11)
        a = m.fading_mag[:, None] * ens.dense()
        x = pinv_reconstruct(ens, m).image
        best = np.linalg.norm(m.bucket - a @ x)
        for _ in range(100):
            cand = x + rng.normal(0, 0.2, 10)
            assert best <= np.linalg.norm(m.bucket - a @ cand) + 1e-12

    def test_unlit_pixel_is_exactly_zero(self):
        # pixel 3 is in no pattern: its column is zero, so the minimum-norm x_3 is 0
        rng = np.random.default_rng(22)
        lit = random_speckle(8, 24, 0.5, seed=23).patterns
        ens = IlluminationEnsemble(8, SparseRows.of([p[p != 3] for p in lit]))
        scene = SceneImage(4, 2, rng.integers(0, 2, 8).astype(float))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.5, fading="rayleigh"), seed=24)
        x = pinv_reconstruct(ens, m).image
        assert x[3] == 0.0
        want = np.linalg.lstsq(m.fading_mag[:, None] * ens.dense(), m.bucket, rcond=1e-10)[0]
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "acquire, atol",
        [(near_singular_acquisition, 1e-5), (underdetermined_acquisition, 1e-10)],
        ids=["near_singular", "underdetermined"],
    )
    def test_ill_conditioned_matches_svd_least_squares(self, acquire, atol):
        # neither may take the normal equations: the first would lose about
        # 12 of 16 digits there, and the second has a singular Gram
        ens, m = acquire()
        system = receiver_gains(m)[:, None] * ens.dense()
        want = np.linalg.lstsq(system, m.bucket, rcond=1e-10)[0]
        np.testing.assert_allclose(pinv_reconstruct(ens, m).image, want, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "acquire, calls",
        [
            (near_singular_acquisition, ["gelsy"]),
            (underdetermined_acquisition, ["gelsy"]),
            (well_conditioned_acquisition, []),
        ],
        ids=["near_singular", "underdetermined", "well_conditioned"],
    )
    def test_gelsy_fallback_calls(self, acquire, calls, monkeypatch):
        import scipy.linalg

        real, seen = scipy.linalg.lstsq, []

        def counting(*args, **kwargs):
            seen.append(kwargs["lapack_driver"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lstsq", counting)
        # the module's own function: this class's wrapper would add reference_pinv's calls
        baselines.pinv_reconstruct(*acquire())
        assert seen == calls

    @pytest.mark.parametrize(
        "fading, csi, kernel",
        [
            ("rayleigh", False, "ssyrk"),
            ("none", False, "ssyrk"),
            ("none", True, "ssyrk"),
            ("rayleigh", True, "dsyrk"),
        ],
        ids=["rayleigh_no_csi", "no_fading_no_csi", "no_fading_csi", "rayleigh_csi"],
    )
    def test_gram_kernel_follows_the_gains(self, fading, csi, kernel, monkeypatch):
        # equal gains take the exact float32 count Gram, per-shot gains the float64 one
        seen = gram_kernel_calls(monkeypatch)
        baselines.pinv_reconstruct(*well_conditioned_acquisition(fading, csi))
        assert seen == [kernel]

    @pytest.mark.parametrize("margin, kernel", [(0, "dsyrk"), (1, "ssyrk")], ids=["at", "below"])
    def test_count_gram_needs_fewer_shots_than_the_limit(self, margin, kernel, monkeypatch):
        # the limit is exclusive: a shot count equal to it takes the float64 Gram
        ens, m = well_conditioned_acquisition("none", False)
        monkeypatch.setattr(baselines, "COUNT_GRAM_SHOTS_MAX", len(ens.patterns) + margin)
        seen = gram_kernel_calls(monkeypatch)
        x = baselines.pinv_reconstruct(ens, m).image
        assert seen == [kernel]
        want = np.linalg.lstsq(receiver_gains(m)[:, None] * ens.dense(), m.bucket, rcond=None)[0]
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-12)

    def test_uses_mean_amplitude_without_csi(self):
        rng = np.random.default_rng(12)
        ens = random_speckle(6, 18, 0.5, seed=13)
        scene = SceneImage(3, 2, rng.integers(0, 2, 6).astype(float))
        m_csi = sense(ens, scene, ChannelParams(fading="rayleigh", csi_known=True), seed=14)
        m_blind = Measurement(
            bucket=m_csi.bucket,
            fading_mag=m_csi.fading_mag,
            channel=ChannelParams(fading="rayleigh", csi_known=False),
            seed=14,
        )
        x_csi = pinv_reconstruct(ens, m_csi).image
        x_blind = pinv_reconstruct(ens, m_blind).image
        assert not np.allclose(x_csi, x_blind)


class TestBenchmarkScale:
    """The compare benchmark's shape: 32x32 glyphs, N = 2048, duty 0.15, Rayleigh
    with and without CSI, and no fading."""

    @pytest.fixture(
        scope="class",
        params=[("rayleigh", False), ("rayleigh", True), ("none", False)],
        ids=["no_csi", "csi", "no_fading"],
    )
    def acquisition(self, request):
        fading, csi = request.param
        ens = random_speckle(1024, 2048, 0.15, seed=31)
        ch = ChannelParams.at_snr_db(10.0, 1.0, fading, csi_known=csi)
        return ens, sense(ens, builtin_scene("glyphs", 32, 32), ch, seed=32)

    def test_count_gram_is_exact(self):
        ens = random_speckle(1024, 2048, 0.15, seed=31)
        a = ens.dense()
        counts = baselines._count_gram(ens)
        assert np.array_equal(np.triu(counts), np.triu(a.T @ a))

    def test_cgi_and_dgi_match_dense_formula(self, acquisition):
        ens, m = acquisition
        a = ens.dense()
        r = m.bucket
        s = a.sum(axis=1)
        np.testing.assert_allclose(
            cgi_reconstruct(ens, m).image, dense_correlation(a, r - r.mean()), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            dgi_reconstruct(ens, m).image,
            dense_correlation(a, r - (r.mean() / s.mean()) * s),
            rtol=0,
            atol=1e-12,
        )
        # both estimators centre c, so Sum c = 0; a raw bucket exercises the ABar term
        np.testing.assert_allclose(
            _centred_correlation(ens, r), dense_correlation(a, r), rtol=0, atol=1e-12
        )

    def test_pinv_matches_svd_least_squares(self, acquisition):
        ens, m = acquisition
        system = receiver_gains(m)[:, None] * ens.dense()
        want = np.linalg.lstsq(system, m.bucket, rcond=1e-10)[0]
        np.testing.assert_allclose(pinv_reconstruct(ens, m).image, want, rtol=0, atol=1e-9)

    def test_pinv_bits_match_numpy_gram_reference(self, acquisition):
        ens, m = acquisition
        assert np.array_equal(pinv_reconstruct(ens, m).image, reference_pinv(ens, m))


class TestGramNorm:
    @pytest.mark.parametrize(
        "fading, csi",
        [("rayleigh", True), ("rayleigh", False), ("none", True)],
        ids=["rayleigh_csi", "rayleigh_no_csi", "no_fading"],
    )
    def test_matches_dense_gram_norm(self, fading, csi):
        rng = np.random.default_rng(50)
        for trial in range(8):
            k, n = int(rng.integers(3, 20)), int(rng.integers(4, 40))
            lit = random_speckle(k, n, rng.uniform(0.1, 0.9), seed=trial).patterns
            # pixel 0 is unlit and pattern 0 empty
            rows = [p[p != 0] for p in lit]
            rows[0] = np.array([], dtype=np.int64)
            ens = IlluminationEnsemble(k, SparseRows.of(rows))
            ch = ChannelParams(es=rng.uniform(0.5, 3.0), n0=0.5, fading=fading, csi_known=csi)
            m = sense(ens, SceneImage(k, 1, rng.random(k)), ch, seed=trial)
            system = receiver_gains(m)[:, None] * ens.dense()
            want = np.linalg.norm(system.T @ system, 1)
            assert want > 0
            assert _gram_norm1(ens, receiver_gains(m)) == pytest.approx(want, rel=1e-13)


class TestSharedProperties:
    @pytest.mark.parametrize(
        "method",
        [cgi_reconstruct, dgi_reconstruct, pinv_reconstruct, lambda ens, m: decode_sum_bp(m, ens)],
        ids=["cgi", "dgi", "pinv", "decode_sum_bp"],
    )
    def test_pattern_and_shot_counts_must_agree(self, method):
        # every reconstruction, coded BP among them, runs the ensemble's one check
        with pytest.raises(ValueError, match="^ensemble has 3 patterns, measurement 4$"):
            method(identity_ensemble(3), manual_measurement(np.ones(4)))

    @pytest.mark.parametrize(
        "method", [cgi_reconstruct, dgi_reconstruct, pinv_reconstruct]
    )
    def test_permutation_equivariance(self, method):
        rng = np.random.default_rng(15)
        k = 9
        ens = random_speckle(k, 27, 0.4, seed=16)
        scene = SceneImage(3, 3, rng.integers(0, 2, k).astype(float))
        m = sense(ens, scene, ChannelParams(es=1.0, n0=0.3, fading="none"), seed=17)
        perm = rng.permutation(k)
        inv = np.argsort(perm)
        permuted = IlluminationEnsemble(k, SparseRows.of([np.sort(inv[p]) for p in ens.patterns]))
        base = method(ens, m).image
        moved = method(permuted, m).image
        np.testing.assert_allclose(moved, base[perm], atol=1e-9)

    def test_cgi_affine_bucket_invariance_of_ranking(self):
        rng = np.random.default_rng(18)
        ens = random_speckle(8, 40, 0.4, seed=19)
        r = rng.normal(1.0, 0.5, 40)
        m1 = manual_measurement(r)
        m2 = manual_measurement(3.0 * r + 7.0)
        assert np.array_equal(
            np.argsort(cgi_reconstruct(ens, m1).image),
            np.argsort(cgi_reconstruct(ens, m2).image),
        )

    @pytest.mark.parametrize("method", [cgi_reconstruct, dgi_reconstruct])
    def test_positive_scaling_invariance_of_ranking(self, method):
        # DGI is only scale-invariant: a bucket offset couples to the
        # pattern-intensity covariance and can reorder pixels
        rng = np.random.default_rng(18)
        ens = random_speckle(8, 40, 0.4, seed=19)
        r = rng.normal(1.0, 0.5, 40)
        m1 = manual_measurement(r)
        m2 = manual_measurement(3.0 * r)
        assert np.array_equal(
            np.argsort(method(ens, m1).image), np.argsort(method(ens, m2).image)
        )


class TestOtsu:
    def test_separates_bimodal(self):
        rng = np.random.default_rng(20)
        lo = rng.normal(0.1, 0.03, 300)
        hi = rng.normal(0.9, 0.03, 200)
        values = np.concatenate([lo, hi])
        thr = otsu_threshold(values)
        # ties resolve low, so the threshold sits just above the low cluster
        assert lo.max() <= thr < hi.min()
        bits = (values > thr).astype(int)
        assert bits[:300].sum() == 0 and bits[300:].sum() == 200

    def test_constant_binarizes_to_zero(self):
        # values that differ only by rounding are too close for 256 bins
        near = np.full(10, 0.3)
        near[4] += 2e-16
        for image in (np.full(10, 0.7), near):
            recon = Reconstruction(image=image)
            assert not binarize(recon).any()

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        values = rng.normal(0, 1, 500)
        assert otsu_threshold(values) == otsu_threshold(values.copy())

    def test_reconstruction_validation(self):
        with pytest.raises(ValueError):
            Reconstruction(image=np.array([np.inf]))
