"""Correlation and least-squares reconstructions, plus Otsu binarization."""

import math

import numpy as np
import pytest

from codedgi import (
    ChannelParams,
    IlluminationEnsemble,
    Measurement,
    SceneImage,
    binarize,
    builtin_scene,
    cgi_reconstruct,
    dgi_reconstruct,
    effective_amplitudes,
    otsu_threshold,
    pinv_reconstruct,
    random_speckle,
    sense,
)
from codedgi.baselines import Reconstruction, _centred_correlation


def identity_ensemble(k):
    return IlluminationEnsemble(k, [np.array([i]) for i in range(k)], source="coded")


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
        s = ens.pattern_sizes().astype(float)
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
        ens = IlluminationEnsemble(12, patterns, source="speckle")
        m = manual_measurement(rng.normal(2.0, 1.0, 40))
        np.testing.assert_allclose(
            dgi_reconstruct(ens, m).image, cgi_reconstruct(ens, m).image, atol=1e-12
        )

    def test_all_empty_patterns_rejected(self):
        ens = IlluminationEnsemble(4, [np.array([], dtype=np.int64)] * 3, source="speckle")
        m = manual_measurement(np.zeros(3))
        with pytest.raises(ValueError):
            dgi_reconstruct(ens, m)


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
    ens = IlluminationEnsemble(6, patterns, source="speckle")
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


class TestPinv:
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
        ens = IlluminationEnsemble(3, patterns, source="coded")
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
        ens = IlluminationEnsemble(8, [p[p != 3] for p in lit], source="speckle")
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
        system = effective_amplitudes(m)[:, None] * ens.dense()
        want = np.linalg.lstsq(system, m.bucket, rcond=1e-10)[0]
        np.testing.assert_allclose(pinv_reconstruct(ens, m).image, want, rtol=0, atol=atol)

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
    """The compare benchmark's shape: 32x32 glyphs, N = 2048, duty 0.15, Rayleigh."""

    @pytest.fixture(scope="class", params=[False, True], ids=["no_csi", "csi"])
    def acquisition(self, request):
        ens = random_speckle(1024, 2048, 0.15, seed=31)
        ch = ChannelParams.at_snr_db(10.0, 1.0, "rayleigh", csi_known=request.param)
        return ens, sense(ens, builtin_scene("glyphs", 32, 32), ch, seed=32)

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
        system = effective_amplitudes(m)[:, None] * ens.dense()
        want = np.linalg.lstsq(system, m.bucket, rcond=1e-10)[0]
        np.testing.assert_allclose(pinv_reconstruct(ens, m).image, want, rtol=0, atol=1e-9)


class TestSharedProperties:
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
        permuted = IlluminationEnsemble(
            k, [np.sort(inv[p]) for p in ens.patterns], source=ens.source
        )
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
