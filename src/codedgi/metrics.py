"""Quality metrics and grayscale reconstruction by frame averaging."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import SceneImage


@dataclass
class FrameStack:
    """Binary frames of identical shape, to be averaged into a gray image.

    `frames` becomes an (F, width*height) uint8 array, one row per frame.
    """

    width: int
    height: int
    frames: np.ndarray

    def __post_init__(self):
        if len(self.frames) == 0:
            raise ValueError("stack needs at least one frame")
        frames = np.asarray(self.frames)
        if frames.shape[1:] != (self.width * self.height,):
            raise ValueError("all frames must match the stack shape")
        if not np.isin(frames, (0, 1)).all():
            raise ValueError("frames must be binary")
        self.frames = frames.astype(np.uint8)


def ber(truth: np.ndarray, decoded: np.ndarray) -> float:
    """Fraction of disagreeing bits (Hamming distance / length)."""
    truth = np.asarray(truth)
    decoded = np.asarray(decoded)
    if truth.shape != decoded.shape or truth.ndim != 1:
        raise ValueError("vectors must be 1-D and of equal length")
    return float(np.mean(truth.astype(np.uint8) != decoded.astype(np.uint8)))


def normalize(values: np.ndarray, width: int, height: int) -> SceneImage:
    """Min-max map to [0, 1]; constant input maps to all zeros."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty image")
    lo, hi = v.min(), v.max()
    if hi == lo:
        out = np.zeros_like(v)
    else:
        out = (v - lo) / (hi - lo)
    return SceneImage(width=width, height=height, reflectance=out)


def psnr(truth: SceneImage, recon: SceneImage) -> float:
    """-10 log10(MSE) with peak 1; identical images give +inf."""
    if (truth.width, truth.height) != (recon.width, recon.height):
        raise ValueError("image dimensions differ")
    mse = float(np.mean((truth.reflectance - recon.reflectance) ** 2))
    if mse == 0:
        return math.inf
    # + 0.0 turns the -0.0 of an MSE of 1 into 0.0 and leaves every other value as it is
    return -10.0 * math.log10(mse) + 0.0


def mean_abs_error(truth: SceneImage, recon: SceneImage) -> float:
    if (truth.width, truth.height) != (recon.width, recon.height):
        raise ValueError("image dimensions differ")
    return float(np.mean(np.abs(truth.reflectance - recon.reflectance)))


def grayscale_stack(stack: FrameStack) -> SceneImage:
    """Per-pixel arithmetic mean of binary frames.

    Output values lie on the lattice {0, 1/F, ..., 1} exactly, F the frame
    count: the sum is an integer and the division by F a single rounding.
    """
    total = stack.frames.sum(axis=0, dtype=np.int64)
    return SceneImage(stack.width, stack.height, total / len(stack.frames))
