"""BER, normalization, PSNR, and grayscale frame stacking."""

import math

import numpy as np
import pytest

from codedgi import (
    FrameStack,
    SceneImage,
    ber,
    grayscale_stack,
    mean_abs_error,
    normalize,
    psnr,
)


class TestBer:
    def test_identical_is_zero(self):
        v = np.array([1, 0, 1, 1])
        assert ber(v, v) == 0.0

    def test_complement_is_one(self):
        v = np.array([1, 0, 1, 1])
        assert ber(v, 1 - v) == 1.0

    def test_two_flips_in_eight(self):
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        b = np.array([1, 0, 0, 0, 0, 1, 1, 1])
        assert ber(a, b) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ber(np.zeros(3), np.zeros(4))

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y, z = (rng.integers(0, 2, 16) for _ in range(3))
            assert ber(x, y) == ber(y, x)
            assert (ber(x, y) == 0) == np.array_equal(x, y)
            assert ber(x, z) <= ber(x, y) + ber(y, z) + 1e-15


class TestNormalize:
    def test_full_range_unchanged(self):
        v = np.array([0.0, 0.25, 1.0])
        np.testing.assert_array_equal(normalize(v, 3, 1).reflectance, v)

    def test_constant_maps_to_zero(self):
        assert not normalize(np.full(6, 4.2), 3, 2).reflectance.any()

    def test_affine_map(self):
        np.testing.assert_allclose(
            normalize(np.array([2.0, 4.0, 6.0]), 3, 1).reflectance, [0.0, 0.5, 1.0]
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([]), 0, 0)


class TestPsnr:
    def test_identical_gives_infinity(self):
        img = SceneImage(2, 2, np.array([0.0, 0.5, 0.25, 1.0]))
        assert psnr(img, img) == math.inf

    def test_mse_hundredth_gives_twenty_db(self):
        truth = SceneImage(2, 2, np.zeros(4))
        recon = SceneImage(2, 2, np.full(4, 0.1))  # MSE = 0.01
        assert psnr(truth, recon) == pytest.approx(20.0)

    def test_peak_error_gives_zero_db(self):
        truth = SceneImage(2, 2, np.zeros(4))
        recon = SceneImage(2, 2, np.ones(4))  # MSE = 1
        assert psnr(truth, recon) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(SceneImage(2, 2, np.zeros(4)), SceneImage(4, 1, np.zeros(4)))

    def test_decreases_with_noise_level(self):
        rng = np.random.default_rng(1)
        truth = SceneImage(8, 8, rng.random(64))
        values = []
        for sigma in (0.01, 0.05, 0.2):
            noisy = np.clip(truth.reflectance + rng.normal(0, sigma, 64), 0, 1)
            values.append(psnr(truth, SceneImage(8, 8, noisy)))
        assert values[0] > values[1] > values[2]


class TestGrayscaleStack:
    def test_identical_frames_idempotent(self):
        frame = np.array([1, 0, 0, 1], dtype=np.uint8)
        stack = FrameStack(2, 2, [frame] * 5)
        np.testing.assert_array_equal(grayscale_stack(stack).reflectance, frame)

    def test_half_lit(self):
        stack = FrameStack(2, 1, [np.array([1, 0]), np.array([0, 0])])
        np.testing.assert_array_equal(grayscale_stack(stack).reflectance, [0.5, 0.0])

    def test_five_bit_level(self):
        # 20 of 32 frames lit -> 0.625, an exact 5-bit gray level
        frames = [np.array([1]) for _ in range(20)] + [np.array([0]) for _ in range(12)]
        assert grayscale_stack(FrameStack(1, 1, frames)).reflectance[0] == 0.625

    def test_mean_linearity(self):
        rng = np.random.default_rng(2)
        frames = [rng.integers(0, 2, 12) for _ in range(7)]
        stack_mean = grayscale_stack(FrameStack(4, 3, frames)).reflectance.mean()
        assert stack_mean == pytest.approx(np.mean([f.mean() for f in frames]))

    def test_bernoulli_frames_converge_to_reflectance(self):
        rng = np.random.default_rng(3)
        rho = 0.3
        count = 512
        frames = [(rng.random(16) < rho).astype(np.uint8) for _ in range(count)]
        value = grayscale_stack(FrameStack(4, 4, frames)).reflectance.mean()
        assert abs(value - rho) < 3 * math.sqrt(rho * (1 - rho) / count / 16)

    def test_shape_and_content_validation(self):
        with pytest.raises(ValueError):
            FrameStack(2, 2, [])
        with pytest.raises(ValueError):
            FrameStack(2, 2, [np.zeros(3)])
        with pytest.raises(ValueError):
            FrameStack(2, 1, [np.array([0.5, 1.0])])


class TestMeanAbsError:
    def test_zero_for_identical(self):
        img = SceneImage(2, 2, np.array([0.1, 0.9, 0.5, 0.0]))
        assert mean_abs_error(img, img) == 0.0

    def test_hand_value(self):
        a = SceneImage(2, 1, np.array([0.0, 1.0]))
        b = SceneImage(2, 1, np.array([0.5, 0.5]))
        assert mean_abs_error(a, b) == 0.5
