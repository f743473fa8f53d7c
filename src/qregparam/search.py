"""Regularization parameter search: minimum finding, L-curve and GCV pipelines.

The Grover-threshold minimum finder is simulated at the probability level:
marked-set amplitudes after r Grover iterations are computed exactly and
sampled, so query accounting and success statistics match the real loop.

The pipelines build the per-branch solver states (one per grid value), sample
the amplitude-estimation readout for each branch, and then run the minimum
finder on the resulting criterion values.  Per the desk-scale concurrency
model, the p branches are simulated independently and combined
deterministically rather than as one tensor state.

Before its branches, the GCV pipeline samples the singular values of A by
phase estimation on the vectorized dilation.  Its register distribution is a
set of point masses read off the snapped spectrum in closed form (see
principal_singular_values), so that stage builds no state vector.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .hhl import (
    HhlConfig,
    _padded,
    _phase_cells,
    estimate_norms,
    estimate_residual_norm,
)
from .linalg import (
    ExtendedMatrix,
    RegularizedProblem,
    SvdFactorization,
    build_extended,
    compute_svd,
    gcv_lowrank,
    gcv_value,
    tikhonov_solve,
)
from .statevector import _check_capacity, twos_complement


@dataclass
class ParameterGrid:
    """Geometric grid mu_j = mu0 * rho^j, j = 1..p (strictly decreasing)."""

    mus: np.ndarray
    rho: float
    p: int

    def __post_init__(self):
        self.mus = np.asarray(self.mus, dtype=float).ravel()
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if self.p < 1 or self.mus.size != self.p:
            raise ValueError("grid length must equal p >= 1")
        if np.any(self.mus <= 0) or np.any(np.diff(self.mus) >= 0):
            raise ValueError("grid must be strictly decreasing and positive")

    @classmethod
    def geometric(cls, mu0: float = 1.0, rho: float = 0.9, p: int = 16) -> "ParameterGrid":
        return cls(mus=mu0 * rho ** np.arange(1, p + 1), rho=rho, p=p)


@dataclass
class LCurvePoint:
    mu: float
    residual_norm: float
    solution_norm: float


@dataclass
class SelectionResult:
    """Chosen grid index plus the per-parameter criterion table and query budget."""

    chosen_index: int
    chosen_mu: float
    criterion_values: np.ndarray
    queries_used: int
    threshold_history: list[int]
    points: list[LCurvePoint] | None = None


def durr_hoyer_budget(p: int) -> float:
    return 22.5 * math.sqrt(p) + 1.4 * math.log2(p) ** 2 if p > 1 else 0.0


def durr_hoyer_min(values: np.ndarray, rng: np.random.Generator,
                   mus: np.ndarray | None = None) -> SelectionResult:
    """Grover-threshold minimum finding within the 22.5 sqrt(p) + 1.4 log^2 p budget."""
    values = np.asarray(values, dtype=float).ravel()
    p = values.size
    if p < 1:
        raise ValueError("need at least one value")
    mu_of = (lambda j: float(mus[j])) if mus is not None else (lambda j: math.nan)
    if p == 1:
        return SelectionResult(0, mu_of(0), values, 0, [0])
    budget = durr_hoyer_budget(p)
    y = int(rng.integers(p))
    history = [y]
    queries = 0
    m = 1.0
    grow = 6.0 / 5.0
    while True:
        r = int(rng.integers(int(m)))
        if queries + r + 1 > budget:
            break
        queries += r + 1
        marked = np.flatnonzero(values < values[y])
        k = marked.size
        if k == 0:
            m = min(grow * m, math.sqrt(p))
            continue
        theta = math.asin(math.sqrt(k / p))
        p_marked = math.sin((2 * r + 1) * theta) ** 2
        if rng.random() < p_marked:
            y_new = int(marked[rng.integers(k)])
        else:
            unmarked = np.flatnonzero(values >= values[y])
            y_new = int(unmarked[rng.integers(unmarked.size)])
        if values[y_new] < values[y]:
            y = y_new
            history.append(y)
            m = 1.0
        else:
            m = min(grow * m, math.sqrt(p))
    return SelectionResult(y, mu_of(y), values, queries, history)


def _at_mu(problem: RegularizedProblem, svd: SvdFactorization, mu: float,
           n_phase_bits: int, step: Callable[[ExtendedMatrix, HhlConfig], Any]) -> Any:
    """Run step(ext, cfg) on (A; mu I) with its derived HhlConfig.

    svd = compute_svd(problem.A), factored once per pipeline.  A ValueError or
    RuntimeError keeps its type and gains "(at mu = ...)"; any other
    exception reaches the caller unchanged.
    """
    ext = build_extended(problem.A, mu, svd)
    try:
        return step(ext, HhlConfig.for_extended(ext, n_phase_bits=n_phase_bits))
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{exc} (at mu = {mu:g})") from exc


def lcurve_pipeline(problem: RegularizedProblem, grid: ParameterGrid, n_phase_bits: int,
                    epsilon: float, rng: np.random.Generator, repeats: int = 5,
                    translation: tuple[float, float] = (0.0, 0.0)) -> SelectionResult:
    """Parallel norm estimation followed by minimum finding on ||x||^2 + ||r||^2.

    translation shifts the two L-curve axes before the corner criterion is
    evaluated (caller-supplied; default zero).
    """
    points = []
    criterion = np.empty(grid.p)
    queries = 0
    dx, dr = translation
    svd = compute_svd(problem.A)
    for j, mu in enumerate(grid.mus):
        est = _at_mu(problem, svd, float(mu), n_phase_bits, lambda ext, cfg: estimate_norms(
            ext, problem.b, cfg, epsilon, rng, repeats))
        sol, res = est.solution_norm, est.residual_norm
        points.append(LCurvePoint(mu=float(mu), residual_norm=res, solution_norm=sol))
        criterion[j] = (sol - dx) ** 2 + (res - dr) ** 2
        queries += est.queries_used
    result = durr_hoyer_min(criterion, rng, mus=grid.mus)
    result.queries_used += queries
    result.points = points
    return result


def principal_singular_values(ext, r: int, n_bits: int, shots: int,
                              rng: np.random.Generator,
                              eigvals: np.ndarray | None = None) -> np.ndarray:
    """Singular values of A recovered by QPE sampling on the vectorized dilation.

    The circuit prepares |A~> proportional to the entries of the padded
    dilation H, runs phase estimation with e^{-i t H} on the row register,
    samples the phase register, merges outcomes with equal magnitude, and
    converts sigma~ -> sqrt(sigma~^2 - mu^2).  eigvals is
    np.linalg.eigvalsh of the padded dilation when the caller already has it.

    The register distribution is evaluated in closed form, without the
    2^(n_bits + 2k)-amplitude state.  With H = sum_l lambda_l v_l v_l^dag,
    the input is |A~> = sum_l lambda_l |v_l>|conj(v_l)> / ||H||_F, and the
    terms are orthogonal because the v_l are orthonormal.  The snapped phase
    estimation is exact: it maps |v_l>|conj(v_l)> to
    |cell of lambda_l>|v_l>|conj(v_l)>.  So the register reads cell y with
    probability sum over the lambda_l in y of lambda_l^2 / ||H||_F^2, which
    is (eigenvalues in y) * lambda_y^2, normalized, since a cell's
    eigenvalues agree within the zero tolerance of _phase_cells.  Zero
    eigenvalues sit in cell 0 with weight 0.  The register must still fit
    the simulator: CapacityError when n_bits + 2k exceeds MAX_QUBITS.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not np.any(ext.A):
        raise ValueError("zero matrix has no singular values to sample")
    Hd, k = _padded(ext.dilation)
    w = np.linalg.eigvalsh(Hd) if eigvals is None else eigvals
    lam_max = float(np.max(np.abs(w)))
    # the premise is about A: its sigma^2 = lambda^2 - mu^2, once per sign of lambda
    sigma_sq = np.sort(np.maximum(w**2 - ext.mu**2, 0.0))[::-1]
    mass = np.sum(sigma_sq[: 2 * r]) / np.sum(sigma_sq)
    if mass < 0.99:
        warnings.warn(
            f"top-{r} singular values carry only {mass:.3f} of the Frobenius mass "
            "of A; the low-rank premise is violated",
            RuntimeWarning,
            stacklevel=2,
        )
    t = math.pi / (2.0 * lam_max)
    (_, phases), lam_by_cell = _phase_cells(Hd, t, n_bits)
    _check_capacity(n_bits + 2 * k)
    N = 2**n_bits
    probs = np.bincount(np.rint(phases * N).astype(int), minlength=N) * lam_by_cell**2
    probs = probs / probs.sum()
    outcomes = rng.choice(N, size=shots, p=probs)
    counts: dict[float, int] = {}
    for y in outcomes:
        mag = abs(twos_complement(int(y), n_bits))
        if mag == 0:
            continue
        counts[mag] = counts.get(mag, 0) + 1
    if len(counts) < r:
        raise RuntimeError(
            f"only {len(counts)} distinct singular-value clusters found after "
            f"{shots} shots; need {r}"
        )
    top_cells = sorted(counts, key=counts.get, reverse=True)[:r]
    sigma_tilde = np.array([2 * math.pi * c / (2**n_bits * t) for c in top_cells])
    sigma = np.sqrt(np.maximum(sigma_tilde**2 - ext.mu**2, 0.0))
    return np.sort(sigma)[::-1]


def gcv_pipeline(problem: RegularizedProblem, grid: ParameterGrid, r: int,
                 n_phase_bits: int, epsilon: float, rng: np.random.Generator,
                 repeats: int = 5) -> SelectionResult:
    """Singular-value extraction, parallel residual estimation, min of G(mu_j)."""
    def sample(ext: ExtendedMatrix, _cfg: HhlConfig) -> tuple[int, np.ndarray]:
        eigvals = np.linalg.eigvalsh(_padded(ext.dilation)[0])
        w = np.abs(eigvals)
        nz = np.sort(w[w > 1e-12 * w.max()])
        ratio = (nz[-1] / nz[0]) ** 2 if nz.size else 1.0
        k = max(10 * r, math.ceil(10 * r * ratio))
        return k, principal_singular_values(ext, r, n_phase_bits, k, rng, eigvals)

    svd = compute_svd(problem.A)
    shots, sigma_est = _at_mu(problem, svd, float(grid.mus[0]), n_phase_bits, sample)
    criterion = np.empty(grid.p)
    queries = shots
    for j, mu in enumerate(grid.mus):
        res, q = _at_mu(problem, svd, float(mu), n_phase_bits,
                        lambda ext, cfg: estimate_residual_norm(
                            ext, problem.b, cfg, epsilon, rng, repeats))
        criterion[j] = gcv_lowrank(sigma_est, res**2, problem.m, problem.n, float(mu))
        queries += q
    result = durr_hoyer_min(criterion, rng, mus=grid.mus)
    result.queries_used += queries
    return result


def classical_select(problem: RegularizedProblem, grid: ParameterGrid,
                     criterion: str) -> SelectionResult:
    """Exhaustive oracle: exact per-mu solves, argmin (lowest index on ties)."""
    if criterion not in ("lcurve-sum", "gcv"):
        raise ValueError(f"unknown criterion {criterion!r}")
    svd = compute_svd(problem.A)
    values = np.empty(grid.p)
    points = []
    for j, mu in enumerate(grid.mus):
        sol = tikhonov_solve(svd, problem.b, float(mu))
        points.append(LCurvePoint(mu=float(mu), residual_norm=sol.residual_norm,
                                  solution_norm=sol.solution_norm))
        if criterion == "lcurve-sum":
            values[j] = sol.solution_norm**2 + sol.residual_norm**2
        else:
            values[j] = gcv_value(svd, problem.b, float(mu))
    j0 = int(np.argmin(values))
    return SelectionResult(j0, float(grid.mus[j0]), values, grid.p, [j0], points=points)
