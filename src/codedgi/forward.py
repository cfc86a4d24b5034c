"""Forward model: illumination ensembles and noisy bucket-detector synthesis.

A measurement n integrates the scene reflectance over the lit pixel set,
scales it by a per-shot fading magnitude and the symbol amplitude sqrt(Es),
and adds real Gaussian noise of variance N0/2:

    R_n = |h_n| * sqrt(Es) * sum_{i in pattern_n} delta_i + w_n

`sense` is `pattern_sums` followed by `transmit`, the channel; the GF(2)
path sends codeword bits through the same `transmit`. The patterns are a
`codes.SparseRows` (one row of lit pixels per pattern), so `pattern_sums` is
its row sum, over the same layout the decoder reads.
`ChannelParams.at_snr_db` turns an SNR in dB into a channel.

Fading magnitudes are Rayleigh with unit second moment (the magnitude of a
circularly-symmetric unit-variance complex Gaussian); with fading off they
are all ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import GeneratorMatrix, SparseRows

FADING_MODES = ("none", "rayleigh")


@dataclass
class SceneImage:
    """Row-major reflectance map, values in [0, 1].

    Also the gray image of `metrics`: normalized reconstructions and frame stacks.
    """

    width: int
    height: int
    reflectance: np.ndarray

    def __post_init__(self):
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if self.reflectance.shape != (self.width * self.height,):
            raise ValueError(
                f"reflectance length {self.reflectance.shape} != width*height"
            )
        if self.reflectance.min() < 0 or self.reflectance.max() > 1:
            raise ValueError("reflectance values must lie in [0, 1]")

    @property
    def k_pixels(self) -> int:
        return self.width * self.height

    def is_binary(self) -> bool:
        return bool(np.isin(self.reflectance, (0.0, 1.0)).all())

    def require_binary(self) -> None:
        if not self.is_binary():
            raise ValueError("binary analysis path requires a {0,1} scene")


@dataclass
class IlluminationEnsemble:
    """N pixel-subset patterns: row n of `patterns` lists pattern n's lit pixels."""

    k_pixels: int
    patterns: SparseRows

    def dense(self) -> np.ndarray:
        """(N, K) 0/1 matrix, the tests' oracle for the sparse computations."""
        a = np.zeros((len(self.patterns), self.k_pixels), dtype=np.float64)
        a[self.patterns.entries()] = 1.0
        return a


@dataclass(frozen=True)
class ChannelParams:
    """Symbol energy, noise density, and fading mode of the acquisition."""

    es: float = 1.0
    n0: float = 1.0
    fading: str = "none"
    csi_known: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.es) and self.es > 0):
            raise ValueError(f"Es must be positive and finite, got {self.es}")
        if not (math.isfinite(self.n0) and self.n0 >= 0):
            raise ValueError(f"N0 must be non-negative and finite, got {self.n0}")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}")

    @classmethod
    def at_snr_db(
        cls, snr_db: float, es: float = 1.0, fading: str = "none", csi_known: bool = True
    ) -> "ChannelParams":
        """The channel whose Es/N0 is `snr_db` decibels."""
        if not math.isfinite(snr_db):
            raise ValueError(f"SNR must be finite, got {snr_db} dB")
        try:
            n0 = es / snr_db_to_linear(snr_db)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"SNR {snr_db} dB is out of the float range") from None
        return cls(es=es, n0=n0, fading=fading, csi_known=csi_known)


@dataclass
class Measurement:
    """Bucket signal plus the per-shot fading magnitudes that produced it."""

    bucket: np.ndarray
    fading_mag: np.ndarray
    channel: ChannelParams
    seed: int

    def __post_init__(self):
        self.bucket = np.asarray(self.bucket, dtype=np.float64)
        self.fading_mag = np.asarray(self.fading_mag, dtype=np.float64)
        if self.bucket.shape != self.fading_mag.shape:
            raise ValueError("bucket and fading_mag lengths differ")
        if (self.fading_mag < 0).any():
            raise ValueError("fading magnitudes must be non-negative")

    @property
    def n_shots(self) -> int:
        return len(self.bucket)


def patterns_from_generator(g: GeneratorMatrix) -> IlluminationEnsemble:
    """Column supports of G as illumination patterns.

    The K identity columns give singleton patterns {0}..{K-1}; pattern K+j is
    parity column j's support.
    """
    cols = g.parity_columns
    patterns = SparseRows(
        np.concatenate([np.arange(g.k_info), cols.flat]),
        np.concatenate([np.ones(g.k_info, np.int64), cols.sizes]),
    )
    return IlluminationEnsemble(k_pixels=g.k_info, patterns=patterns)


def random_speckle(
    k: int, n: int, duty: float, seed: int
) -> IlluminationEnsemble:
    """Bernoulli(duty) speckle: each pixel lit independently per pattern."""
    if not 0 < duty <= 1:
        raise ValueError("duty must lie in (0, 1]")
    # one (n, k) draw is the same PCG64 stream as n draws of k
    lit = np.random.default_rng(seed).random((n, k)) < duty
    pixels = (np.flatnonzero(lit) % k).astype(np.int64, copy=False)
    return IlluminationEnsemble(k_pixels=k, patterns=SparseRows(pixels, lit.sum(axis=1)))


def pattern_sums(ens: IlluminationEnsemble, scene: SceneImage) -> np.ndarray:
    """Noise-free aggregated return per pattern: s_n = sum of lit reflectances."""
    if scene.k_pixels != ens.k_pixels:
        raise ValueError(
            f"scene has {scene.k_pixels} pixels, ensemble expects {ens.k_pixels}"
        )
    return ens.patterns.sums(scene.reflectance)


def transmit(sums, ch: ChannelParams, seed: int) -> Measurement:
    """Send noise-free per-shot sums (pattern sums or code bits) through the channel.

    Draw order is fixed (fading first, then noise) so a seed reproduces the
    measurement exactly.
    """
    sums = np.asarray(sums, dtype=np.float64)
    n = len(sums)
    rng = np.random.default_rng(seed)
    if ch.fading == "rayleigh":
        # scale 1/sqrt(2) gives E[|h|^2] = 1
        h = rng.rayleigh(scale=math.sqrt(0.5), size=n)
    else:
        h = np.ones(n)
    bucket = h * math.sqrt(ch.es) * sums
    if ch.n0 > 0:
        bucket = bucket + rng.normal(0.0, math.sqrt(ch.n0 / 2.0), size=n)
    return Measurement(bucket=bucket, fading_mag=h, channel=ch, seed=seed)


def sense(
    ens: IlluminationEnsemble,
    scene: SceneImage,
    ch: ChannelParams,
    seed: int,
) -> Measurement:
    """Synthesize one bucket-signal acquisition through the fading channel."""
    return transmit(pattern_sums(ens, scene), ch, seed)


RAYLEIGH_MEAN_MAG = math.sqrt(math.pi) / 2.0  # mean |h| at unit second moment


def effective_amplitudes(m: Measurement) -> np.ndarray:
    """Fading magnitudes as a receiver sees them.

    With CSI the true per-shot magnitudes are available; without it every
    shot is assigned the ensemble-mean magnitude, which deliberately
    mismatches the reconstruction against the realized fading.
    """
    if m.channel.csi_known:
        return m.fading_mag
    mean = RAYLEIGH_MEAN_MAG if m.channel.fading == "rayleigh" else 1.0
    return np.full_like(m.fading_mag, mean)


def snr_db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def save_measurement_csv(m: Measurement, path) -> None:
    """CSV with channel parameters in '#' comment lines, then index,bucket,fading_mag."""
    ch = m.channel
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# es = {ch.es!r}\n")
        fh.write(f"# n0 = {ch.n0!r}\n")
        fh.write(f"# fading = {ch.fading}\n")
        fh.write(f"# csi_known = {int(ch.csi_known)}\n")
        fh.write(f"# seed = {m.seed}\n")
        fh.write("index,bucket,fading_mag\n")
        for i, (r, h) in enumerate(zip(m.bucket, m.fading_mag)):
            fh.write(f"{i},{float(r)!r},{float(h)!r}\n")


def load_measurement_csv(path) -> Measurement:
    meta: dict[str, str] = {}
    bucket = []
    fading = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif line.startswith("index,"):
                continue
            else:
                _, r, h = line.split(",")
                bucket.append(float(r))
                fading.append(float(h))
    for key in ("es", "n0", "fading", "csi_known", "seed"):
        if key not in meta:
            raise ValueError(f"{path}: no '# {key} = ...' header line")
    ch = ChannelParams(
        es=float(meta["es"]),
        n0=float(meta["n0"]),
        fading=meta["fading"],
        csi_known=bool(int(meta["csi_known"])),
    )
    return Measurement(
        bucket=np.array(bucket),
        fading_mag=np.array(fading),
        channel=ch,
        seed=int(meta["seed"]),
    )
