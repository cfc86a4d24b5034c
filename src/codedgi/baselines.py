"""Classical ghost-imaging reconstructions for comparison runs.

CGI and DGI are model-free ensemble correlators on the raw bucket signal,
computed from the patterns' (row, col) entries. The pseudo-inverse solves the
linear system with known fading folded into the rows. A well-conditioned
system goes through a Cholesky factor of its Gram matrix (the normal
equations); one whose Gram is singular or has an estimated reciprocal
condition number at or below GRAM_RCOND_MIN goes through a column-pivoted QR
(complete orthogonal factorization), which cuts the rank where the estimated
condition number would pass 1e10. Either path returns the minimum-norm
least-squares solution. All three return unnormalized real-valued images.

The pseudo-inverse's dense solve runs on scipy's BLAS/LAPACK alone. The
gains pick the kernel for the Gram's upper triangle: when every shot has the
same gain g and there are fewer than 2^24 shots, `ssyrk` forms the counts
A^T A from a float32 0/1 matrix, exact because every partial sum is an
integer below 2^24, and the Gram is g^2 times them; per-shot gains take
`dsyrk` on the float64 system. `dpotrf`, `dpocon` and `dpotrs` then factor
and solve. numpy and scipy each bundle their own OpenBLAS, each with its own
thread pool whose idle workers spin, so a solve that used both would leave
more busy threads than cores for the rest of the run. The Gram's 1-norm,
which only feeds `dpocon`, comes from the sparse entries as S^T (S 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import IlluminationEnsemble, Measurement, receiver_gains

# The normal equations square the system's condition number, so their Cholesky
# solve loses about log10(1/rcond) digits, rcond being the Gram's reciprocal
# condition number. Below 1e-8 (cond(A) above about 1e4) more than half of
# float64's 16 digits would go, and the column-pivoted QR takes over.
GRAM_RCOND_MIN = 1e-8
# float32 holds every integer up to 2^24, so a float32 Gram of a 0/1 matrix with
# fewer rows is exact in any summation order, blocking or thread count
COUNT_GRAM_SHOTS_MAX = 2**24


@dataclass
class Reconstruction:
    image: np.ndarray  # length K, unnormalized

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        if not np.isfinite(self.image).all():
            raise ValueError("reconstruction contains non-finite values")


def _check_lengths(ens: IlluminationEnsemble, m: Measurement) -> None:
    ens.require_shots(m)
    if len(ens.patterns) == 0:
        raise ValueError("empty ensemble")


def _centred_correlation(ens: IlluminationEnsemble, c: np.ndarray) -> np.ndarray:
    """(1/N) c^T (A - ABar) without forming the dense (N, K) matrix A."""
    rows, pixels = ens.patterns.entries()
    n = len(ens.patterns)
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
    s = ens.patterns.sizes.astype(np.float64)
    s_mean = s.mean()
    if s_mean == 0:
        raise ValueError("all patterns are empty; differential term undefined")
    diff = r - (r.mean() / s_mean) * s
    return Reconstruction(image=_centred_correlation(ens, diff))


def _gram_norm1(ens: IlluminationEnsemble, gains: np.ndarray) -> float:
    """1-norm of the Gram S^T S, S the (N, K) system with S[n, i] = g_n on pattern n's pixels.

    Every entry of S is a gain g_n >= 0, so the Gram's entries are too and its
    1-norm is its largest column sum, S^T (S 1): pixel i sums g_n^2 size_n
    over the patterns that light it.
    """
    sizes = ens.patterns.sizes
    weights = np.repeat(gains * gains * sizes, sizes)
    return float(np.bincount(ens.patterns.flat, weights=weights, minlength=ens.k_pixels).max())


def _count_gram(ens: IlluminationEnsemble) -> np.ndarray:
    """Upper triangle of A^T A, A the (N, K) 0/1 pattern matrix, by ssyrk in float32.

    Exact while N < COUNT_GRAM_SHOTS_MAX: every partial sum is a count of at most N.
    """
    from scipy.linalg import blas

    lit = np.zeros((len(ens.patterns), ens.k_pixels), dtype=np.float32)
    lit[ens.patterns.entries()] = 1.0
    # lit.T is an F-contiguous view, so scipy's BLAS reads it without a copy
    return blas.ssyrk(1.0, lit.T, trans=0, lower=0)


def _gain_system(ens: IlluminationEnsemble, gains: np.ndarray) -> np.ndarray:
    """The dense (N, K) system S with S[n, i] = g_n on pattern n's pixels."""
    rows, pixels = ens.patterns.entries()
    system = np.zeros((len(ens.patterns), ens.k_pixels))
    system[rows, pixels] = gains[rows]
    return system


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

    The Gram's upper triangle, which potrf reads in place, comes from one of
    two kernels, picked from the gains. When every shot has the same gain g
    and there are fewer than COUNT_GRAM_SHOTS_MAX (2^24) shots, as without CSI
    or without fading, ssyrk forms the exact counts A^T A in float32 and the
    Gram is g^2 times them, rounded once; the right-hand side is g A^T R from
    the sparse entries. Otherwise dsyrk forms it from the float64 system and
    dgemv forms A^T R. Both call scipy's BLAS and LAPACK only, never numpy's:
    the two libraries keep separate thread pools whose idle workers spin.
    pocon's 1-norm is S^T (S 1), from the sparse entries. The gelsy fallback
    runs on the float64 system either way.
    """
    # imported here: scipy.linalg costs about 0.25 s to import cold, and only pinv uses it
    import scipy.linalg
    from scipy.linalg import blas, lapack

    _check_lengths(ens, m)
    gains = receiver_gains(m)
    g = gains[0]
    if len(gains) < COUNT_GRAM_SHOTS_MAX and (gains == g).all():
        gram_upper = np.multiply(_count_gram(ens), g * g, dtype=np.float64)
        rows, pixels = ens.patterns.entries()
        rhs = g * np.bincount(pixels, weights=m.bucket[rows], minlength=ens.k_pixels)
    else:
        system = _gain_system(ens, gains)
        # system.T is an F-contiguous view, so scipy's BLAS reads it without a copy
        gram_upper = blas.dsyrk(1.0, system.T, trans=0, lower=0)
        rhs = blas.dgemv(1.0, system.T, m.bucket)
    chol, info = lapack.dpotrf(gram_upper, overwrite_a=1)
    if info == 0:
        rcond, _ = lapack.dpocon(chol, _gram_norm1(ens, gains))
        if rcond > GRAM_RCOND_MIN:
            x, _ = lapack.dpotrs(chol, rhs)
            return Reconstruction(image=x)
    system = _gain_system(ens, gains)
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
