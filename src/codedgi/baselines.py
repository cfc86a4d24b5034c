"""Classical ghost-imaging reconstructions for comparison runs.

CGI and DGI are model-free ensemble correlators on the raw bucket signal,
computed from the patterns' index lists. The pseudo-inverse solves the
linear system with known fading folded into the rows by a column-pivoted QR
(complete orthogonal factorization), which cuts the rank where the estimated
condition number would pass 1e10 and returns the minimum-norm least-squares
solution. All three return unnormalized real-valued images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import IlluminationEnsemble, Measurement, effective_amplitudes

METHODS = ("cgi", "dgi", "pinv", "ldpc")


@dataclass
class Reconstruction:
    image: np.ndarray  # length K, unnormalized
    method: str

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        if not np.isfinite(self.image).all():
            raise ValueError("reconstruction contains non-finite values")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


def _check_lengths(ens: IlluminationEnsemble, m: Measurement) -> None:
    if ens.n_patterns != m.n_shots:
        raise ValueError(
            f"ensemble has {ens.n_patterns} patterns, measurement {m.n_shots}"
        )
    if ens.n_patterns == 0:
        raise ValueError("empty ensemble")


def _centred_correlation(ens: IlluminationEnsemble, c: np.ndarray) -> np.ndarray:
    """(1/N) c^T (A - ABar) without forming the dense (N, K) matrix A."""
    rows, pixels = ens.lit_entries()
    n = ens.n_patterns
    lit_fraction = np.bincount(pixels, minlength=ens.k_pixels) / n
    hits = np.bincount(pixels, weights=c[rows], minlength=ens.k_pixels)
    return (hits - lit_fraction * c.sum()) / n


def cgi_reconstruct(ens: IlluminationEnsemble, m: Measurement) -> Reconstruction:
    """Ensemble-covariance estimator: (1/N) sum (R_n - RBar)(A_n - ABar)."""
    _check_lengths(ens, m)
    r = m.bucket
    return Reconstruction(image=_centred_correlation(ens, r - r.mean()), method="cgi")


def dgi_reconstruct(ens: IlluminationEnsemble, m: Measurement) -> Reconstruction:
    """Differential estimator: bucket recentered by total pattern intensity."""
    _check_lengths(ens, m)
    r = m.bucket
    s = ens.pattern_sizes().astype(np.float64)
    s_mean = s.mean()
    if s_mean == 0:
        raise ValueError("all patterns are empty; differential term undefined")
    diff = r - (r.mean() / s_mean) * s
    return Reconstruction(image=_centred_correlation(ens, diff), method="dgi")


def pinv_reconstruct(ens: IlluminationEnsemble, m: Measurement) -> Reconstruction:
    """Minimum-norm least squares of (diag(|h| sqrt(Es)) A) x = R.

    Per-shot magnitudes enter the system matrix as the receiver knows them
    (true values with CSI, ensemble mean without). Solved by a column-pivoted
    QR, a complete orthogonal factorization (LAPACK gelsy): the rank is the
    largest leading triangle of R whose estimated condition number stays
    below 1e10, and the rest is cut, so a rank-deficient system, such as one
    with a pixel no pattern lights, returns the minimum-norm solution.
    """
    # imported here: scipy.linalg costs about 50 ms to import, and only pinv uses it
    import scipy.linalg

    _check_lengths(ens, m)
    system = effective_amplitudes(m)[:, None] * math.sqrt(m.channel.es) * ens.dense()
    x, *_ = scipy.linalg.lstsq(system, m.bucket, cond=1e-10, lapack_driver="gelsy")
    return Reconstruction(image=x, method="pinv")


def otsu_threshold(values: np.ndarray) -> float:
    """Deterministic two-class threshold maximizing between-class variance.

    Works on a 256-bin histogram between min and max; ties resolve to the
    lowest qualifying threshold. Constant input returns its maximum (so
    `values > threshold` is all False); so does input whose range is too
    small for 256 float bins, i.e. values that differ only by rounding.
    """
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    nbins = 256
    if not np.all(np.diff(np.linspace(lo, hi, nbins + 1)) > 0):
        return hi
    hist, edges = np.histogram(v, bins=nbins, range=(lo, hi))
    w = hist.astype(np.float64) / hist.sum()
    centers = (edges[:-1] + edges[1:]) / 2.0
    omega0 = np.cumsum(w)
    mu = np.cumsum(w * centers)
    mu_total = mu[-1]
    omega1 = 1.0 - omega0
    valid = (omega0 > 0) & (omega1 > 0)
    between = np.zeros(nbins)
    between[valid] = (mu_total * omega0[valid] - mu[valid]) ** 2 / (
        omega0[valid] * omega1[valid]
    )
    best = int(np.argmax(between))  # first maximum -> lowest threshold
    return float(edges[best + 1])


def binarize(recon: Reconstruction) -> np.ndarray:
    """Otsu-threshold a real-valued reconstruction to {0,1} pixels."""
    thr = otsu_threshold(recon.image)
    return (recon.image > thr).astype(np.uint8)
