"""Regularization parameter search: minimum finding, L-curve and GCV pipelines.

The Grover-threshold minimum finder is simulated at the probability level:
marked-set amplitudes after r Grover iterations are computed exactly and
sampled, so query accounting and success statistics match the real loop.

The pipelines share one per-mu loop: each branch (one per grid value) runs its
chain of states (solver, A x, residual), reads the norms its criterion needs by
amplitude estimation into a GridRow, and the minimum finder runs on the rows'
criteria; every A x stage runs on A's own extended matrix (mu = 0), built once.
Minimum finding returns only what it found (a Minimum); each selector then
builds its frozen SelectionResult once, complete, and chosen_mu and the
criterion values are read off its rows.
Per the desk-scale concurrency model, the p branches are simulated
independently and combined deterministically rather than as one tensor state.

Before its branches, the GCV pipeline samples the singular values of A by
phase estimation on the vectorized dilation, with max(10 r, ceil(10 r kappa_mu^2))
shots at mu_1 (kappa_mu from linalg.condition_number_mu) and the solver's
evolution time.  Its register distribution is a set of point masses read off
the snapped spectrum in closed form (see principal_singular_values), so that
stage builds no state vector.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .hhl import (
    ZERO_MATRIX,
    Estimate,
    _phase_cells,
    apply_A_state,
    estimate_residual_norm,
    estimate_solution_norm,
    evolution_time,
    hhl_solution_state,
    residual_state,
)
from .linalg import (
    ExtendedMatrix,
    RegularizedProblem,
    build_extended,
    compute_svd,
    condition_number_mu,
    gcv_lowrank,
    _gcv_from_parts,
    _gcv_trace,
    tikhonov_solve,
)
from .statevector import MAX_QUBITS, CapacityError, _check_capacity


@dataclass
class ParameterGrid:
    """A strictly decreasing, positive grid of mu values; p is its length."""

    mus: np.ndarray

    def __post_init__(self):
        self.mus = np.asarray(self.mus, dtype=float).ravel()
        if self.mus.size < 1 or np.any(self.mus <= 0) or np.any(np.diff(self.mus) >= 0):
            raise ValueError("grid must be nonempty, strictly decreasing and positive")

    @property
    def p(self) -> int:
        return self.mus.size

    @classmethod
    def geometric(cls, mu0: float = 1.0, rho: float = 0.9, p: int = 16) -> "ParameterGrid":
        """mu_j = mu0 * rho^j, j = 1..p."""
        if not 0 < rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        return cls(mus=mu0 * rho ** np.arange(1, p + 1))


class GridRow(NamedTuple):
    """One grid value's norms, criterion and Estimates; solution_norm is None for GCV."""

    mu: float
    solution_norm: float | None
    residual_norm: float
    criterion: float
    estimates: tuple[Estimate, ...]


class Minimum(NamedTuple):
    """What minimum finding found: the index, the queries it spent and its thresholds."""

    chosen_index: int
    queries_used: int
    threshold_history: tuple[int, ...]


@dataclass(frozen=True)
class SelectionResult:
    """Chosen grid index, one row per grid value, and the queries spent in all."""

    chosen_index: int
    queries_used: int
    threshold_history: tuple[int, ...]
    rows: tuple[GridRow, ...]

    # read off the rows, which hold each grid value and its criterion
    chosen_mu = property(lambda self: self.rows[self.chosen_index].mu)
    criterion_values = property(lambda self: np.array([row.criterion for row in self.rows]))


def durr_hoyer_budget(p: int) -> float:
    return 22.5 * math.sqrt(p) + 1.4 * math.log2(p) ** 2 if p > 1 else 0.0


def durr_hoyer_min(values: np.ndarray, rng: np.random.Generator) -> Minimum:
    """Grover-threshold minimum finding within the 22.5 sqrt(p) + 1.4 log^2 p budget."""
    values = np.asarray(values, dtype=float).ravel()
    p = values.size
    if p < 1:
        raise ValueError("need at least one value")
    if p == 1:
        return Minimum(0, 0, (0,))
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
    return Minimum(y, queries, tuple(history))


def _at_mu(ext_A: ExtendedMatrix, mu: float, step: Callable[[ExtendedMatrix], Any]) -> Any:
    """Run step(ext) on ext = (A; mu I).

    ext_A = build_extended(A, 0.0), built once per pipeline, lends ext A and its
    SVD.  A ValueError or RuntimeError, from building ext or from the step,
    keeps its type and gains "(at mu = ...)"; any other exception reaches the
    caller unchanged.
    """
    try:
        return step(build_extended(ext_A.A, mu, ext_A.svd))
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{exc} (at mu = {mu:g})") from exc


def _search(ext_A: ExtendedMatrix, grid: ParameterGrid,
            row: Callable[[ExtendedMatrix], GridRow], rng: np.random.Generator,
            queries: int = 0) -> SelectionResult:
    """row(ext) at every grid value, then minimum finding on the rows' criteria.

    queries, spent before the rows, joins theirs and minimum finding's in the total.
    """
    rows, criterion = [], np.empty(grid.p)
    for j, mu in enumerate(grid.mus):
        rows.append(_at_mu(ext_A, float(mu), row))
        criterion[j] = rows[j].criterion
    found = durr_hoyer_min(criterion, rng)
    queries += found.queries_used + sum(e.queries for r in rows for e in r.estimates)
    return SelectionResult(found.chosen_index, queries, found.threshold_history, tuple(rows))


def lcurve_pipeline(problem: RegularizedProblem, grid: ParameterGrid, n_phase_bits: int,
                    epsilon: float, rng: np.random.Generator, repeats: int = 5
                    ) -> SelectionResult:
    """Parallel norm estimation followed by minimum finding on ||x||^2 + ||r||^2."""
    def row(ext: ExtendedMatrix) -> GridRow:
        state = hhl_solution_state(ext, problem.b, n_phase_bits)
        sol = estimate_solution_norm(state, ext, problem.b, epsilon, rng, repeats)
        state = apply_A_state(state, ext_A)
        state = residual_state(state, ext, problem.b)
        res = estimate_residual_norm(state, ext, problem.b, epsilon, rng, repeats)
        return GridRow(ext.mu, sol.norm, res.norm, sol.norm**2 + res.norm**2, (sol, res))

    ext_A = build_extended(problem.A, 0.0)
    return _search(ext_A, grid, row, rng)


def principal_singular_values(ext: ExtendedMatrix, r: int, n_bits: int, shots: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Singular values of A recovered by QPE sampling on the vectorized dilation.

    The circuit prepares |A~> proportional to the entries of the padded
    dilation H, runs phase estimation with e^{-i t H} on the row register,
    samples the phase register, merges outcomes with equal magnitude, and
    converts sigma~ -> sqrt(sigma~^2 - mu^2).  The integer cells come from ext.eig
    via _phase_cells at the solver's t = evolution_time(ext) = pi / (2 lambda_max).

    The register distribution is evaluated in closed form, without the
    2^(n_bits + 2k)-amplitude state.  With H = sum_l lambda_l v_l v_l^dag,
    the input is |A~> = sum_l lambda_l |v_l>|conj(v_l)> / ||H||_F, and the
    terms are orthogonal because the v_l are orthonormal.  The snapped phase
    estimation is exact: it maps |v_l>|conj(v_l)> to
    |cell of lambda_l>|v_l>|conj(v_l)>.  So the register reads cell y with
    probability sum over the lambda_l in y of lambda_l^2 / ||H||_F^2, which
    is bincount(cells)[y] * lambda_y^2, normalized, since a cell's
    eigenvalues agree within the zero tolerance of _phase_cells.  Zero
    eigenvalues sit in cell 0 with weight 0.  The register must still fit
    the simulator: CapacityError, before any 2^n_bits array or draw, when
    n_bits + 2k exceeds MAX_QUBITS or shots exceeds 2^MAX_QUBITS.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if ext.svd.sigma_max == 0:
        raise ValueError(ZERO_MATRIX)
    k = ext.dilation.shape[0].bit_length() - 1
    _check_capacity(n_bits + 2 * k)
    if shots > 2**MAX_QUBITS:
        raise CapacityError(f"{shots} shots exceed the {2**MAX_QUBITS}-draw capacity")
    mass = np.sum(ext.svd.sigma[:r]**2) / np.sum(ext.svd.sigma**2)
    if mass < 0.99:
        warnings.warn(
            f"top-{r} singular values carry only {mass:.3f} of the Frobenius mass "
            "of A; the low-rank premise is violated",
            RuntimeWarning,
            stacklevel=2,
        )
    t = evolution_time(ext)
    (_, eig_cells), lam_by_cell = _phase_cells(ext.eig, t, n_bits)
    N = 2**n_bits
    # lambda / 2^e, with 2^e near lambda_max = pi / (2 t), squares without overflow; a
    # power of two scales every weight and their sum exactly, so probs keep their bits
    scaled = np.ldexp(lam_by_cell, -math.frexp(math.pi / (2.0 * t))[1])
    probs = np.bincount(eig_cells, minlength=N) * scaled**2
    probs = probs / probs.sum()
    outcomes = rng.choice(N, size=shots, p=probs)
    # fold in place: y reads as |y| in two's complement, min(y, N - y)
    np.subtract(N, outcomes, out=outcomes, where=outcomes > N // 2)
    counts = np.bincount(outcomes, minlength=N // 2 + 1)
    counts[0] = 0  # cell 0 holds the zero eigenvalues
    found = np.count_nonzero(counts)
    if found < r:
        raise RuntimeError(
            f"only {found} distinct singular-value clusters found after "
            f"{shots} shots; need {r}"
        )
    # most counted first; ties at the r-th count in order of first appearance
    cut = np.partition(counts, -r)[-r]
    top_cells, tied = np.flatnonzero(counts > cut), np.flatnonzero(counts == cut)
    if top_cells.size + tied.size > r:
        cells, first = np.unique(outcomes[(counts == cut)[outcomes]], return_index=True)
        tied = cells[np.argsort(first)]
    top_cells = np.concatenate([top_cells, tied[: r - top_cells.size]])
    sigma_tilde = 2 * math.pi * top_cells / (N * t)
    return np.sort(np.sqrt(np.maximum(sigma_tilde**2 - ext.mu**2, 0.0)))[::-1]


def gcv_pipeline(problem: RegularizedProblem, grid: ParameterGrid, r: int,
                 n_phase_bits: int, epsilon: float, rng: np.random.Generator,
                 repeats: int = 5) -> SelectionResult:
    """Singular-value extraction, parallel residual estimation, min of G(mu_j)."""
    def sample(ext: ExtendedMatrix) -> tuple[int, np.ndarray]:
        kappa = condition_number_mu(ext.svd, ext.mu)
        if kappa > 2**MAX_QUBITS:  # past capacity, and kappa**2 may overflow
            raise CapacityError(f"kappa_mu = {kappa:g} asks for over 2^{2 * MAX_QUBITS} "
                                f"shots, past the {2**MAX_QUBITS}-draw capacity")
        k = max(10 * r, math.ceil(10 * r * kappa**2))
        return k, principal_singular_values(ext, r, n_phase_bits, k, rng)

    def row(ext: ExtendedMatrix) -> GridRow:
        state = hhl_solution_state(ext, problem.b, n_phase_bits)
        state = apply_A_state(state, ext_A)
        state = residual_state(state, ext, problem.b)
        res = estimate_residual_norm(state, ext, problem.b, epsilon, rng, repeats)
        value = gcv_lowrank(sigma_est, res.norm**2, problem.m, problem.n, ext.mu)
        return GridRow(ext.mu, None, res.norm, value, (res,))

    ext_A = build_extended(problem.A, 0.0)
    shots, sigma_est = _at_mu(ext_A, float(grid.mus[0]), sample)
    return _search(ext_A, grid, row, rng, shots)


def classical_select(problem: RegularizedProblem, grid: ParameterGrid,
                     criterion: str) -> SelectionResult:
    """Exhaustive oracle: exact per-mu solves, argmin (lowest index on ties)."""
    if criterion not in ("lcurve-sum", "gcv"):
        raise ValueError(f"unknown criterion {criterion!r}")
    svd = compute_svd(problem.A)
    rows, values = [], np.empty(grid.p)
    for j, mu in enumerate(map(float, grid.mus)):
        sol = tikhonov_solve(svd, problem.b, mu)
        if criterion == "lcurve-sum":
            values[j] = sol.solution_norm**2 + sol.residual_norm**2
        else:
            g = _gcv_trace(svd, mu)
            values[j] = _gcv_from_parts(sol.residual_norm**2, svd.m, svd.n, g, mu)
        rows.append(GridRow(mu, sol.solution_norm, sol.residual_norm, float(values[j]), ()))
    j0 = int(np.argmin(values))
    return SelectionResult(j0, grid.p, (j0,), tuple(rows))
