"""Classical ghost-imaging reconstructions for comparison runs.

CGI and DGI are model-free ensemble correlators on the raw bucket signal,
computed from the patterns' index lists. The pseudo-inverse solves the
linear system with known fading folded into the rows. A well-conditioned
system goes through a Cholesky factor of its Gram matrix (the normal
equations); one whose Gram is singular or has an estimated reciprocal
condition number at or below GRAM_RCOND_MIN goes through a column-pivoted QR
(complete orthogonal factorization), which cuts the rank where the estimated
condition number would pass 1e10. Either path returns the minimum-norm
least-squares solution. All three return unnormalized real-valued images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import IlluminationEnsemble, Measurement, effective_amplitudes

# The normal equations square the system's condition number, so their Cholesky
# solve loses about log10(1/rcond) digits, rcond being the Gram's reciprocal
# condition number. Below 1e-8 (cond(A) above about 1e4) more than half of
# float64's 16 digits would go, and the column-pivoted QR takes over.
GRAM_RCOND_MIN = 1e-8


@dataclass
class Reconstruction:
    image: np.ndarray  # length K, unnormalized

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        if not np.isfinite(self.image).all():
            raise ValueError("reconstruction contains non-finite values")


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
    return Reconstruction(image=_centred_correlation(ens, r - r.mean()))


def dgi_reconstruct(ens: IlluminationEnsemble, m: Measurement) -> Reconstruction:
    """Differential estimator: bucket recentered by total pattern intensity."""
    _check_lengths(ens, m)
    r = m.bucket
    s = ens.pattern_sizes().astype(np.float64)
    s_mean = s.mean()
    if s_mean == 0:
        raise ValueError("all patterns are empty; differential term undefined")
    diff = r - (r.mean() / s_mean) * s
    return Reconstruction(image=_centred_correlation(ens, diff))


def pinv_reconstruct(ens: IlluminationEnsemble, m: Measurement) -> Reconstruction:
    """Minimum-norm least squares of (diag(|h| sqrt(Es)) A) x = R.

    Per-shot magnitudes enter the system matrix as the receiver knows them
    (true values with CSI, ensemble mean without). The fast path solves the
    normal equations (A^T A) x = A^T R by a Cholesky factor (LAPACK potrf),
    taken only when the factor exists and the Gram's estimated 1-norm
    reciprocal condition number (pocon) exceeds GRAM_RCOND_MIN. Then the
    system has full column rank and its unique least-squares solution is the
    minimum-norm one. Otherwise, as for an unlit pixel, repeated patterns,
    patterns that light every pixel or fewer patterns than pixels, a
    column-pivoted QR (LAPACK gelsy) solves it: the rank is the largest
    leading triangle of R whose estimated condition number stays below 1e10,
    and the rest is cut, so a rank-deficient system returns the minimum-norm
    solution.
    """
    # imported here: scipy.linalg costs about 0.25 s to import cold, and only pinv uses it
    import scipy.linalg
    from scipy.linalg import lapack

    _check_lengths(ens, m)
    rows, pixels = ens.lit_entries()
    system = np.zeros((ens.n_patterns, ens.k_pixels))
    system[rows, pixels] = (effective_amplitudes(m) * math.sqrt(m.channel.es))[rows]
    gram = system.T @ system
    chol, info = lapack.dpotrf(gram)
    if info == 0:
        rcond, _ = lapack.dpocon(chol, np.linalg.norm(gram, 1))
        if rcond > GRAM_RCOND_MIN:
            x, _ = lapack.dpotrs(chol, system.T @ m.bucket)
            return Reconstruction(image=x)
    x, *_ = scipy.linalg.lstsq(system, m.bucket, cond=1e-10, lapack_driver="gelsy")
    return Reconstruction(image=x)


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
