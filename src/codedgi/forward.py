"""Forward model: illumination ensembles and noisy bucket-detector synthesis.

A measurement n integrates the scene reflectance over the lit pixel set,
scales it by a per-shot fading magnitude and the symbol amplitude sqrt(Es),
and adds real Gaussian noise of variance N0/2:

    R_n = |h_n| * sqrt(Es) * sum_{i in pattern_n} delta_i + w_n

`sense` is `pattern_sums` followed by `transmit`, the channel; the GF(2)
path sends codeword bits through the same `transmit`. The patterns are a
`codes.SparseRows` (one row of lit pixels per pattern), so `pattern_sums` is
its row sum, over the same layout the decoder reads.
`ChannelParams.at_snr_db` turns an SNR in dB into a channel. The receiver's
model of it is written once, here: `receiver_gains`, `count_loglik` and
`onoff_logits`, the last the GF(2) path's view of the same likelihood.

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
        if not (self.reflectance.min() >= 0 and self.reflectance.max() <= 1):  # also rejects NaN
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

    def require_shots(self, m: Measurement) -> None:
        """Raise ValueError unless `m` has one shot per pattern."""
        if len(self.patterns) != m.n_shots:
            raise ValueError(
                f"ensemble has {len(self.patterns)} patterns, measurement {m.n_shots}"
            )

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
        if not np.isfinite(self.bucket).all():
            raise ValueError("bucket values must be finite")
        if not np.isfinite(self.fading_mag).all():
            raise ValueError("fading magnitudes must be finite")
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


def receiver_gains(m: Measurement) -> np.ndarray:
    """Per-shot gain sqrt(Es) times |h_n| with CSI, else times the mean magnitude E|h|."""
    mean = RAYLEIGH_MEAN_MAG if m.channel.fading == "rayleigh" else 1.0
    mag = m.fading_mag if m.channel.csi_known else np.full_like(m.fading_mag, mean)
    return mag * math.sqrt(m.channel.es)


def count_loglik(m: Measurement, counts, shots=slice(None)) -> np.ndarray:
    """(shots, counts) log p(r | count c), a Gaussian in r with mean g c, g the receiver's gain.

    With a known gain the variance is N0/2: -(r - g c)^2 / N0 + const, and
    at N0 = 0 the exact-match indicator, 0 where |r - g c| <= 1e-9 max(1, |r|),
    else -inf. Without CSI under Rayleigh fading the gain spreads a count's
    return, so the variance is v_c = N0/2 + Es c^2 (1 - pi/4), the count's:
    -(r - g c)^2 / (2 v_c) - log(v_c) / 2. At N0 = 0 count 0 is a point mass
    at r = 0, fitting by the same rule and outweighing every density there.
    """
    ch = m.channel
    r = m.bucket[shots][:, None]
    counts = np.asarray(counts, dtype=np.float64)[None, :]
    mean = receiver_gains(m)[shots][:, None] * counts
    if ch.csi_known or ch.fading == "none":
        if ch.n0 == 0:
            fits = np.abs(r - mean) <= 1e-9 * np.maximum(1.0, np.abs(r))
            return np.where(fits, 0.0, -np.inf)
        return -((r - mean) ** 2) / ch.n0
    var = ch.n0 / 2.0 + ch.es * (1.0 - math.pi / 4.0) * counts**2
    if ch.n0 > 0:
        return -((r - mean) ** 2) / (2.0 * var) - 0.5 * np.log(var)
    # N0 = 0: a reading of 0 fits count 0 alone, any other reading only counts >= 1
    zero = np.abs(r) <= 1e-9 * np.maximum(1.0, np.abs(r))
    var[counts == 0] = 1.0  # count 0's Gaussian column is never returned
    gauss = -((r - mean) ** 2) / (2.0 * var) - 0.5 * np.log(var)
    return np.where(zero == (counts == 0), np.where(zero, 0.0, gauss), -np.inf)


def onoff_logits(m: Measurement) -> np.ndarray:
    """Per-shot on-off logit log p(r | 1) / p(r | 0) of code bits sent as counts 0 and 1."""
    loglik = count_loglik(m, (0, 1))
    return loglik[:, 1] - loglik[:, 0]


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
    """The measurement of a `save_measurement_csv` file, whose rows hold indices 0..n-1 in order."""
    meta: dict[str, str] = {}
    bucket = []
    fading = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif line.startswith("index,"):
                continue
            else:
                index, r, h = line.split(",")
                if index.strip() != str(len(bucket)):
                    raise ValueError(
                        f"{path}: line {number}: index {index!r}, expected {len(bucket)}"
                    )
                bucket.append(float(r))
                fading.append(float(h))
    for key in ("es", "n0", "fading", "csi_known", "seed"):
        if key not in meta:
            raise ValueError(f"{path}: no '# {key} = ...' header line")
    if meta["csi_known"] not in ("0", "1"):
        raise ValueError(f"{path}: csi_known must be 0 or 1, got {meta['csi_known']!r}")
    ch = ChannelParams(
        es=float(meta["es"]),
        n0=float(meta["n0"]),
        fading=meta["fading"],
        csi_known=meta["csi_known"] == "1",
    )
    return Measurement(
        bucket=np.array(bucket),
        fading_mag=np.array(fading),
        channel=ch,
        seed=int(meta["seed"]),
    )
