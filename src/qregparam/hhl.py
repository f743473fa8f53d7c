"""HHL-style states on the extended matrix and amplitude-estimated norms.

The solver runs phase estimation with e^{-i t H} for the Hermitian dilation H
of the stacked matrix (A; mu I), rotates an ancilla by the inverted eigenvalue,
and uncomputes.  Eigenvalue signs are handled by reading the phase register in
two's complement with |lambda| t < pi.

The simulated evolution always snaps each eigenphase to its phase cell
("dyadic engineering"): every distinct eigenvalue owns one cell, phase
estimation is exact, and the rotation reads the true eigenvalue from the
cell.  All estimator error then comes from amplitude estimation, which the
pipelines budget through epsilon; the unmodified evolution would add a
phase-estimation leakage that no error budget accounts for.  A register too
narrow to give each eigenvalue its own cell raises SpectrumResolutionError.
The states follow the statevector layout [flags, phase, system], as
(2^flags, 2^n, 2^k) amplitudes: each rotated ancilla is a fresh flag
inserted above the phase register.  Each stage reads n and k off the shape of
the state it is handed and refuses, by ValueError, a wrong flag count or k.

The per-mu step is the chain solver -> A x -> residual: each stage takes the
previous stage's state, and each estimator reads its state into an Estimate.
C~ (rotation_constant) and the evolution time come from the classical SVD.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .amplitude import (
    ae_bits_for_accuracy,
    ae_query_count,
    estimate_theta,
    good_branch_angle,
)
from .linalg import ExtendedMatrix, _dilation
from .statevector import (
    StateVector,
    _check_capacity,
    qpe_forward,
    qpe_inverse,
)

_ZERO_EIG_TOL = 1e-12
ZERO_MATRIX = ("A is the zero matrix: sigma_max = 0 leaves nothing to scale the A x "
               "and residual states by")


class SpectrumResolutionError(RuntimeError):
    """Phase register too narrow to separate the dilation eigenvalues."""


class Estimate(NamedTuple):
    """A norm read off the good branch's angle theta as theta_tilde on ae_bits bits."""

    norm: float
    theta: float
    theta_tilde: float
    ae_bits: int
    queries: int


def rotation_constant(ext: ExtendedMatrix) -> float:
    """C~, read off the classical SVD (a simulator privilege).

    C~ is the smallest nonzero dilation eigenvalue magnitude, the largest
    value that keeps every rotation amplitude C~/lambda <= 1.
    """
    sigma = ext.svd.sigma
    smax = ext.svd.sigma_max
    if smax == 0:
        raise ValueError(ZERO_MATRIX)
    if ext.mu > 0:
        # nonzero dilation eigenvalues are +-sqrt(sigma_i^2 + mu^2), i = 1..n,
        # padding sigma_i = 0 beyond min(m, n)
        tail = 0.0 if ext.svd.n > sigma.size else float(sigma[ext.svd.n - 1])
        return math.sqrt(tail**2 + ext.mu**2)
    return float(sigma[sigma > 1e-12 * smax][-1])


def prepare_b_state(b: np.ndarray, width: int) -> StateVector:
    """Amplitudes proportional to b on the first m basis states of 2^width."""
    b = np.asarray(b, dtype=complex).ravel()
    norm = np.linalg.norm(b)
    if norm == 0:
        raise ValueError("cannot prepare a state from b = 0")
    if 2**width < b.size:
        raise ValueError(f"width {width} too small for a vector of length {b.size}")
    amps = np.zeros(2**width, dtype=complex)
    amps[: b.size] = b / norm
    return StateVector(width, amps)


def _layout(state: StateVector, ext: ExtendedMatrix, flags: int, stage: str
            ) -> tuple[int, int]:
    """(n, k) read off a stage's input: `flags` flag qubits on ext's system register
    (a 2x2 and a 3x2 A both pad to 8 rows, so a state of one passes for the other)."""
    shape, rows = state.amplitudes.shape, ext.dilation.shape[0]
    if len(shape) != 3 or shape[0] != 2**flags or shape[2] != rows:
        raise ValueError(f"{stage} expects the (2^{flags}, 2^n, {rows}) amplitudes of a "
                         f"state with {flags} flag qubit(s), got shape {shape}")
    return shape[1].bit_length() - 1, shape[2].bit_length() - 1


def _phase_cells(H: np.ndarray, t: float, n_bits: int
                 ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The snapped evolution e^{-i t H} as (V, phases), and each cell's eigenvalue.

    A distinct nonzero eigenvalue lambda owns the phase cell
    y = round(2^n_bits ((-lambda t / 2 pi) mod 1)); an eigenvalue within the
    zero tolerance of its sorted predecessor shares that cell, and a zero
    eigenvalue gets phase 0.  The evolution is V diag(e^{2 pi i phases}) V^dag
    with phases = y / 2^n_bits.  The second result, of length 2^n_bits, holds
    each cell's eigenvalue (0 in cell 0 and in empty cells).

    Raises SpectrumResolutionError if two distinct eigenvalues share a cell or
    a nonzero eigenvalue rounds to cell 0.
    """
    w, V = np.linalg.eigh(H)  # ascending eigenvalues
    if np.max(np.abs(w)) * t >= math.pi:
        raise ValueError("t_evolution does not scale all eigenvalues into (-pi, pi)")
    N = 2**n_bits
    tol = _ZERO_EIG_TOL * max(np.max(np.abs(w)), 1.0)
    nonzero = np.abs(w) > tol
    lam = w[nonzero]
    first = np.diff(lam, prepend=-np.inf) > tol
    distinct = lam[first]
    cells = np.rint((-distinct * t / (2 * math.pi)) % 1.0 * N).astype(int) % N
    per_cell = np.bincount(cells, minlength=N)
    if per_cell[0] or per_cell.max() > 1:
        gaps = np.abs(np.concatenate([distinct, np.diff(distinct)]))
        raise SpectrumResolutionError(
            f"{n_bits} phase bits cannot separate the spectrum "
            f"(minimal eigenvalue gap {float(gaps.min()):.3e})"
        )
    phases = np.zeros_like(w)
    phases[nonzero] = cells[np.cumsum(first) - 1] / N
    lam_by_cell = np.zeros(N)
    lam_by_cell[cells] = distinct
    return (V, phases), lam_by_cell


def _add_flag(state: StateVector, amps_by_cell: np.ndarray) -> StateVector:
    """Insert a fresh flag qubit directly above the phase register.

    The flag starts in |0> and is rotated by arcsin of the per-phase-cell
    amplitude a(y): its |0> branch is a(y) psi and its |1> branch
    sqrt(1 - a(y)^2) psi.  Cell 0 (and any cell with a = 0) sends the
    component entirely to |1>, excluding it from inversion.
    """
    psi = state.amplitudes
    a = amps_by_cell[:, np.newaxis]
    b = np.sqrt(np.maximum(0.0, 1.0 - a**2))
    out = np.empty((psi.shape[0], 2, *psi.shape[1:]), dtype=complex)
    np.multiply(a, psi, out=out[:, 0])
    np.multiply(b, psi, out=out[:, 1])
    return StateVector(out.size.bit_length() - 1, out.reshape(-1, *psi.shape[1:]))


def hhl_solution_state(ext: ExtendedMatrix, b: np.ndarray, n_phase_bits: int) -> StateVector:
    """The solver state: good flag |0> branch carries C~ ||x_mu|| |x_mu>.

    Register order: [ancilla, phase (n_phase_bits), system (the dilation's
    k qubits)].  The x block occupies system coordinates m+n .. m+2n-1.
    Forward phase estimation runs before the ancilla exists, with
    t = pi / (2 sqrt(sigma_max^2 + mu^2)).
    """
    c_tilde = rotation_constant(ext)
    t = math.pi / (2.0 * math.sqrt(ext.svd.sigma_max**2 + ext.mu**2))
    eig, lam = _phase_cells(ext.dilation, t, n_phase_bits)
    lam_min = float(np.min(np.abs(lam[lam != 0]), initial=np.inf))
    if c_tilde > lam_min * (1 + 1e-9):
        raise ValueError(
            f"c_tilde {c_tilde:g} exceeds smallest nonzero eigenvalue {lam_min:g}"
        )
    n, k = n_phase_bits, ext.dilation.shape[0].bit_length() - 1
    _check_capacity(n + k + 1)
    amps = np.zeros((1, 2**n, 2**k), dtype=complex)
    amps[0, 0] = prepare_b_state(b, k).amplitudes  # phase register |0>
    state = qpe_forward(StateVector(n + k, amps), eig)
    amps = np.divide(c_tilde, lam, out=np.zeros(lam.size), where=lam != 0)
    state = _add_flag(state, np.clip(amps, -1.0, 1.0))
    return qpe_inverse(state, eig)


def apply_A_state(solution: StateVector, ext: ExtendedMatrix) -> StateVector:
    """Good branch (both ancillas |0>) proportional to A x_mu with amplitude C ||x_mu||.

    solution is hhl_solution_state(ext, b, n_phase_bits); its phase width is
    reused.  Register order: [hhl ancilla, multiply ancilla, phase, system].
    """
    n, k = _layout(solution, ext, 1, "apply_A_state")
    _check_capacity(n + k + 2)
    smax = ext.svd.sigma_max
    # the dilation of A alone: the (m, n, n) layout of ext.dilation at mu = 0
    eig2, lam2 = _phase_cells(_dilation(ext.A, 0.0), math.pi / (2.0 * smax), n)
    state = qpe_forward(solution, eig2)
    state = _add_flag(state, np.clip(lam2 / smax, -1.0, 1.0))
    return qpe_inverse(state, eig2)


def residual_state(ax: StateVector, ext: ExtendedMatrix, b: np.ndarray) -> StateVector:
    """All-ancillas-zero component equals (t/2)(||x_mu|| A|x_mu> - |b>), b normalized.

    ax is apply_A_state(solution, ext).  Register order: [hhl ancilla,
    multiply ancilla, selector, rotation qubit, phase, system]; the good flag
    is the four leading qubits, so the good branch is row 0 of the
    (16, 2^n, 2^k) amplitudes.
    """
    n, k = _layout(ax, ext, 2, "residual_state")
    _check_capacity(n + k + 4)
    # Step 1: a selector qubit whose |0> carries ax and |1> carries -|b>
    # (phase 0, ancillas 00).  Step 2: amplitude balancing rotates a fresh
    # rotation qubit by R(a0) under selector 0 and R(a1) under selector 1;
    # radicand corrected to 1 - t^2 C^-2 for unitarity.  Step 3: Hadamard on
    # the selector.  Together: selector s, rotation qubit r carry
    # (col0[r] ax - col1[r] b) for s = 0 and (col0[r] ax + col1[r] b) for s = 1.
    # ax's two ancillas (its leading qubits) stay the two leading rows.
    C = rotation_constant(ext) / ext.svd.sigma_max
    t = min(1.0, C)
    a0, a1 = t / C, t
    col0 = np.array([a0, math.sqrt(1 - a0**2)]) / 2
    col1 = np.array([a1, math.sqrt(1 - a1**2)]) / 2
    rows = ax.amplitudes.reshape(4, -1)
    out = np.empty((4, 2, 2, rows.shape[1]), dtype=complex)
    np.multiply(rows[:, np.newaxis, :], col0[:, np.newaxis], out=out[:, 0])
    out[:, 1] = out[:, 0]
    b_terms = np.outer(col1, prepare_b_state(b, k).amplitudes)
    out[0, 0, :, : 2**k] -= b_terms
    out[0, 1, :, : 2**k] += b_terms
    return StateVector(n + k + 4, out.reshape(16, 2**n, 2**k))


def _estimate(state: StateVector, scale: float, b: np.ndarray,
              epsilon: float, rng: np.random.Generator, repeats: int) -> Estimate:
    """The norm read off the good branch, whose amplitude is scale * norm / ||b||."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n_ae = ae_bits_for_accuracy(scale * epsilon)
    theta = good_branch_angle(state.amplitudes)
    theta_tilde = estimate_theta(theta, n_ae, rng, repeats=repeats)
    b_norm = float(np.linalg.norm(np.asarray(b, dtype=complex)))
    return Estimate(math.cos(theta_tilde) / scale * b_norm, theta, theta_tilde, n_ae,
                    ae_query_count(n_ae, repeats))


def estimate_solution_norm(solution: StateVector, ext: ExtendedMatrix, b: np.ndarray,
                           epsilon: float, rng: np.random.Generator, repeats: int = 1
                           ) -> Estimate:
    """||x_mu|| to within epsilon * ||b||, by amplitude estimation.

    solution is hhl_solution_state(ext, b, n_phase_bits); its good flag is
    the ancilla, its first qubit.
    """
    _layout(solution, ext, 1, "estimate_solution_norm")
    return _estimate(solution, rotation_constant(ext), b, epsilon, rng, repeats)


def estimate_residual_norm(residual: StateVector, ext: ExtendedMatrix, b: np.ndarray,
                           epsilon: float, rng: np.random.Generator, repeats: int = 1
                           ) -> Estimate:
    """||A x_mu - b|| to within epsilon * ||b||, by amplitude estimation.

    residual is residual_state(ax, ext, b).  The good flags are its four
    ancillas, its first four qubits.
    """
    _layout(residual, ext, 4, "estimate_residual_norm")
    t = min(1.0, rotation_constant(ext) / ext.svd.sigma_max)
    return _estimate(residual, t / 2, b, epsilon, rng, repeats)
