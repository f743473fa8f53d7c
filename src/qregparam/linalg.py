"""Classical SVD machinery: Tikhonov/TSVD solutions, extended matrices, GCV.

Everything here is exact dense linear algebra.  These routines double as the
oracle that the quantum simulation is validated against, so they are written
for clarity and correctness rather than speed.  An ExtendedMatrix is built
from (mu, A, svd) and derives its dilation, and that dilation's
eigendecomposition, itself.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# sigma_i counts as nonzero iff sigma_i > RANK_TOLERANCE * sigma_max
RANK_TOLERANCE = 1e-12


class MuRangeError(ValueError):
    """A mu beyond float64: mu^2 overflows, or the GCV denominator's square underflows."""


def _check_mu(mu: float, positive: bool = False) -> None:
    """Refuse a negative mu (a nonpositive one if positive) or one whose square overflows."""
    if mu < 0 or (positive and mu == 0):
        raise ValueError(f"mu must be {'positive' if positive else 'nonnegative'}")
    if not mu * mu < math.inf:  # NaN fails too
        raise MuRangeError(f"mu = {mu:g} is out of range: mu^2 is not finite in float64")


@dataclass
class RegularizedProblem:
    """An ill-conditioned system A x = b, optionally with known truth."""

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray | None = None

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        self.b = np.asarray(self.b, dtype=complex).ravel()
        m, n = self.A.shape
        if m < 1 or n < 1:
            raise ValueError(f"matrix must be nonempty, got shape {self.A.shape}")
        if self.b.shape[0] != m:
            raise ValueError(f"b has {self.b.shape[0]} entries, expected {m}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b has a non-finite entry")
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, dtype=complex).ravel()
            if self.x_true.shape[0] != n:
                raise ValueError(f"x_true has {self.x_true.shape[0]} entries, expected {n}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class SvdFactorization:
    """Full SVD A = U diag(sigma) V^dag with sigma sorted descending."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def sigma_max(self) -> float:
        return float(self.sigma[0]) if self.sigma.size else 0.0

    @property
    def numerical_rank(self) -> int:
        if self.sigma.size == 0 or self.sigma_max == 0.0:
            return 0
        return int(np.count_nonzero(self.sigma > RANK_TOLERANCE * self.sigma_max))


@dataclass
class TikhonovSolution:
    """A regularized solution together with its two L-curve norms."""

    mu: float
    x: np.ndarray
    solution_norm: float
    residual_norm: float


@dataclass(frozen=True)
class ExtendedMatrix:
    """The stacked matrix (A; mu I), held as its Hermitian block-antidiagonal dilation.

    svd is compute_svd(A).  The dilation is derived from A and mu, 2^k x 2^k: it
    acts on a k-qubit system register.
    """

    mu: float
    A: np.ndarray = field(repr=False)
    svd: SvdFactorization = field(repr=False)
    dilation: np.ndarray = field(init=False)
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)  # eigh(dilation)

    def __post_init__(self):
        object.__setattr__(self, "dilation", _dilation(self.A, self.mu))
        object.__setattr__(self, "eig", np.linalg.eigh(self.dilation))


def compute_svd(A: np.ndarray) -> SvdFactorization:
    """Full SVD with descending singular values; raises on LAPACK failure."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.size == 0 or not np.all(np.isfinite(A)):  # numpy's SVD turns inf into nan silently
        raise ValueError(f"cannot factor an empty or non-finite {A.shape[0]}x{A.shape[1]} matrix")
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed to converge for {A.shape[0]}x{A.shape[1]} matrix"
        ) from exc
    return SvdFactorization(U=U, sigma=s, V=Vh.conj().T)


def _filter_factors(sigma: np.ndarray, mu: float) -> np.ndarray:
    denom = sigma**2 + mu**2
    out = np.zeros_like(sigma)
    nz = denom > 0
    out[nz] = sigma[nz] ** 2 / denom[nz]
    return out


def _solve_with_filters(svd: SvdFactorization, b: np.ndarray,
                        filters: np.ndarray, mu: float) -> TikhonovSolution:
    """Assemble x = sum_i f_i (u_i^dag b / sigma_i) v_i and its norms."""
    b = np.asarray(b, dtype=complex).ravel()
    if b.shape[0] != svd.m:
        raise ValueError(f"b has {b.shape[0]} entries, expected {svd.m}")
    q = svd.sigma.size
    beta = svd.U.conj().T @ b
    nonzero = svd.sigma > RANK_TOLERANCE * svd.sigma_max
    coef = np.zeros(svd.n, dtype=complex)
    coef[:q][nonzero] = filters[nonzero] * beta[:q][nonzero] / svd.sigma[nonzero]
    x = svd.V @ coef
    # residual in the U basis: (1 - f_i) beta_i on the singular modes,
    # beta_i untouched beyond them
    res_modes = np.abs((1.0 - filters) * beta[:q]) ** 2
    res_modes[~nonzero] = np.abs(beta[:q][~nonzero]) ** 2
    res_sq = float(np.sum(res_modes) + np.sum(np.abs(beta[q:]) ** 2))
    return TikhonovSolution(mu=mu, x=x, solution_norm=float(np.linalg.norm(x)),
                            residual_norm=math.sqrt(max(res_sq, 0.0)))


def tikhonov_solve(svd: SvdFactorization, b: np.ndarray, mu: float) -> TikhonovSolution:
    """Tikhonov solution with filter factors sigma^2/(sigma^2+mu^2).

    mu = 0 falls back to the pseudoinverse convention: exactly-zero singular
    values contribute nothing.
    """
    _check_mu(mu)
    filters = _filter_factors(svd.sigma, mu)
    return _solve_with_filters(svd, b, filters, mu)


def tsvd_solve(svd: SvdFactorization, b: np.ndarray, k: int) -> TikhonovSolution:
    """Truncated-SVD solution keeping the k largest singular triplets."""
    rank = svd.numerical_rank
    if not 1 <= k <= rank:
        raise ValueError(f"truncation k={k} outside [1, numerical rank {rank}]")
    filters = np.zeros_like(svd.sigma)
    filters[:k] = 1.0
    return _solve_with_filters(svd, b, filters, 0.0)


def extended_spectrum(svd: SvdFactorization, mu: float) -> tuple[float, float]:
    """(lambda_max, lambda_min): the largest and smallest nonzero singular value of (A; mu I).

    Those are sqrt(sigma_i^2 + mu^2), i = 1..n, where a sigma_i beyond the
    numerical rank (or beyond min(m, n)) counts as 0; at mu = 0 they are A's
    own.  lambda_min is HHL's rotation constant C~, and lambda_max sets the
    evolution time.  lambda_min is 0 only for the zero matrix at mu = 0; a
    positive mu at which it underflows to 0 raises MuRangeError.  Python
    floats only, no numpy temporaries: this runs several times per mu.
    """
    smax = svd.sigma_max
    kept = [s for s in svd.sigma.tolist() if s > RANK_TOLERANCE * smax]
    tail = kept[-1] if kept and (mu == 0.0 or len(kept) == svd.n) else 0.0
    if mu == 0.0:
        return smax, tail
    lam_min = math.sqrt(tail**2 + mu**2)
    if lam_min == 0.0:
        raise MuRangeError(f"mu = {mu:g} is out of range: C~ = sqrt(sigma_n^2 + mu^2) "
                           "underflows to 0 in float64")
    return math.sqrt(smax**2 + mu**2), lam_min


def condition_number_mu(svd: SvdFactorization, mu: float) -> float:
    """Condition number lambda_max / lambda_min of the stacked matrix (A; mu I)."""
    _check_mu(mu)
    if mu == 0.0 and svd.numerical_rank < svd.n:
        raise ValueError("kappa_mu is infinite: mu = 0 with rank-deficient A")
    lam_max, lam_min = extended_spectrum(svd, mu)
    return lam_max / lam_min


def _dilation(A: np.ndarray, mu: float) -> np.ndarray:
    """Hermitian dilation of (A; mu I) in the layout build_extended describes.

    At mu = 0 it is A's own dilation, in the same (m, n, n) blocks, for the A x stage.
    """
    m, n = A.shape
    K = 2 ** max(1, (m + 2 * n - 1).bit_length())
    D = np.zeros((K, K), dtype=complex)
    x = slice(m + n, m + 2 * n)  # the x block
    D[:m, x] = A
    D[m:m + n, x] = mu * np.eye(n)
    D[x, :m] = A.conj().T
    D[x, m:m + n] = mu * np.eye(n)
    return D


def build_extended(A: np.ndarray, mu: float,
                   svd: SvdFactorization | None = None) -> ExtendedMatrix:
    """Stack A over mu*I and embed the stack in its Hermitian dilation.

    Dilation layout is the 3-block form ((0,0,A),(0,0,mu I),(A^dag,mu I,0)),
    with row/column blocks of sizes (m, n, n), zero-padded to 2^k x 2^k for
    the smallest k >= 1 with 2^k >= m + 2n.  Its nonzero eigenvalues are
    +-sqrt(sigma_i^2 + mu^2); the A x stage runs on A's own, at mu = 0.  svd is
    compute_svd(A) when the caller already has it (a pipeline factors A once).
    """
    _check_mu(mu)
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if svd is None:
        svd = compute_svd(A)
    return ExtendedMatrix(mu, A, svd)


def _gcv_from_parts(residual_sq: float, m: int, n: int, g: float, mu: float) -> float:
    """residual_sq / (m - n + g)^2, where g = g(mu) is the trace term."""
    denom = (m - n) + g
    if denom**2 == 0.0:
        raise MuRangeError(f"GCV denominator m - n + g(mu) = {denom:g} at mu = {mu:g} "
                           "is zero or its square underflows")
    if denom < 0.0:
        warnings.warn(
            f"GCV denominator m - n + g(mu) = {denom:g} is negative (m < n case); "
            "value computed literally",
            RuntimeWarning,
            stacklevel=3,
        )
    return residual_sq / denom**2


def _gcv_trace(svd: SvdFactorization, mu: float) -> float:
    """g(mu) = sum mu^2/(sigma_i^2+mu^2), the trace term of the GCV denominator."""
    g = float(np.sum(mu**2 / (svd.sigma**2 + mu**2)))
    # singular values beyond min(m, n) are zero when m < n: each contributes 1
    return g + max(0, svd.n - svd.sigma.size)


def gcv_value(svd: SvdFactorization, b: np.ndarray, mu: float) -> float:
    """GCV function ||A x_mu - b||^2 / [m - n + sum mu^2/(sigma_i^2+mu^2)]^2."""
    _check_mu(mu, positive=True)
    sol = tikhonov_solve(svd, b, mu)
    return _gcv_from_parts(sol.residual_norm**2, svd.m, svd.n, _gcv_trace(svd, mu), mu)


def gcv_lowrank(sigma_r: np.ndarray, residual_sq: float, m: int, n: int, mu: float) -> float:
    """GCV with the trace term truncated to the r largest singular values."""
    _check_mu(mu, positive=True)
    if residual_sq < 0:
        raise ValueError("residual_sq must be nonnegative")
    sigma_r = np.asarray(sigma_r, dtype=float).ravel()
    g = float(np.sum(mu**2 / (sigma_r**2 + mu**2)))
    return _gcv_from_parts(residual_sq, m, n, g, mu)
