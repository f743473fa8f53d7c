"""HHL-style states on the extended matrix and amplitude-estimated norms.

The solver's circuit runs phase estimation with e^{-i t H} for the Hermitian
dilation H of the stacked matrix (A; mu I), rotates an ancilla by the
inverted eigenvalue, and uncomputes.  Eigenvalue signs are handled by reading
the phase register in two's complement with |lambda| t < pi.

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
The A x stage runs on A's own extended matrix (mu = 0).  C~
(rotation_constant), the evolution time t = pi / (2 lambda_max)
(evolution_time) and the residual scale min(1, C~ / sigma_max) come from the
classical SVD, through linalg.extended_spectrum's (lambda_max, lambda_min)
of (A; mu I).

Snapped phase estimation is exact, so no stage runs it.  A circuit of phase
estimation with the eigendecomposition V each ExtendedMatrix holds, a
rotation by a per phase cell and uncompute maps a state on phase value 0 to
V diag(a) V^dag on one flag branch and V diag(sqrt(1 - a^2)) V^dag on the
other, again on phase value 0.  The solver (a = C~ / lambda on b) and the
A x stage (a = lambda / sigma_max) apply those maps to the phase-0 slice
directly; their phase cells still decide a and still raise
SpectrumResolutionError.  The residual stage only mixes the four flag rows
of the A x state with b, so it too computes on the phase-0 slice alone.
tests/reference.py keeps the circuit forms as hhl_solution_state_qpe,
apply_A_state_qpe and residual_state_full.
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
from .linalg import ExtendedMatrix, extended_spectrum
from .statevector import StateVector, _check_capacity

_ZERO_EIG_TOL = 1e-12
_OFF_PHASE_TOL = 1e-10  # the norm apply_A_state allows off phase value 0
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

    C~ is lambda_min of (A; mu I), the smallest nonzero dilation eigenvalue
    magnitude: the largest value that keeps every rotation amplitude
    C~/lambda <= 1.
    """
    if ext.svd.sigma_max == 0:
        raise ValueError(ZERO_MATRIX)
    return extended_spectrum(ext.svd, ext.mu)[1]


def evolution_time(ext: ExtendedMatrix) -> float:
    """t = pi / (2 lambda_max): every dilation eigenvalue lambda has |lambda| t <= pi/2."""
    return math.pi / (2.0 * extended_spectrum(ext.svd, ext.mu)[0])


def _residual_scale(ext: ExtendedMatrix) -> tuple[float, float]:
    """(C, min(1, C)) with C = C~ / sigma_max: residual_state's balancing ratio and
    scale, its good branch being min(1, C) / 2 times ||A x_mu - b|| / ||b||."""
    C = rotation_constant(ext) / ext.svd.sigma_max
    return C, min(1.0, C)


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
    return StateVector(amps)


def _layout(state: StateVector, ext: ExtendedMatrix, flags: int, stage: str
            ) -> tuple[int, int]:
    """(n, k) read off a stage's input: `flags` flag qubits on ext's system register
    (a 2x2 and a 3x2 A both pad to 8 rows, so a state of one passes for the other)."""
    shape, rows = state.amplitudes.shape, ext.dilation.shape[0]
    if len(shape) != 3 or shape[0] != 2**flags or shape[2] != rows:
        raise ValueError(f"{stage} expects the (2^{flags}, 2^n, {rows}) amplitudes of a "
                         f"state with {flags} flag qubit(s), got shape {shape}")
    return shape[1].bit_length() - 1, shape[2].bit_length() - 1


def _phase_cells(eig: tuple[np.ndarray, np.ndarray], t: float, n_bits: int
                 ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The snapped evolution e^{-i t H} as (V, cells), and each cell's eigenvalue.

    eig = eigh(H) = (w, V).  A distinct nonzero eigenvalue lambda owns the phase cell
    y = round(2^n_bits ((-lambda t / 2 pi) mod 1)); an eigenvalue within the
    zero tolerance of its sorted predecessor shares that cell, and a zero
    eigenvalue gets cell 0.  The evolution is V diag(omega^cells) V^dag with
    omega = e^{2 pi i / 2^n_bits} and cells an int array, one entry per
    eigenvalue.  The second result, of length 2^n_bits, holds each cell's
    eigenvalue (0 in cell 0 and in empty cells).

    Raises SpectrumResolutionError if two distinct eigenvalues share a cell or
    a nonzero eigenvalue rounds to cell 0.
    """
    w, V = eig  # ascending eigenvalues
    if np.max(np.abs(w)) * t >= math.pi:
        raise ValueError("t_evolution does not scale all eigenvalues into (-pi, pi)")
    N = 2**n_bits
    tol = _ZERO_EIG_TOL * max(np.max(np.abs(w)), 1.0)
    nonzero = np.abs(w) > tol
    lam = w[nonzero]
    first = np.diff(lam, prepend=-np.inf) > tol
    distinct = lam[first]
    owned = np.rint((-distinct * t / (2 * math.pi)) % 1.0 * N).astype(int) % N
    per_cell = np.bincount(owned, minlength=N)
    if per_cell[0] or per_cell.max() > 1:
        gaps = np.abs(np.concatenate([distinct, np.diff(distinct)]))
        raise SpectrumResolutionError(
            f"{n_bits} phase bits cannot separate the spectrum "
            f"(minimal eigenvalue gap {float(gaps.min()):.3e})"
        )
    cells = np.zeros(w.shape, dtype=int)
    cells[nonzero] = owned[np.cumsum(first) - 1]
    lam_by_cell = np.zeros(N)
    lam_by_cell[owned] = distinct
    return (V, cells), lam_by_cell


def hhl_solution_state(ext: ExtendedMatrix, b: np.ndarray, n_phase_bits: int) -> StateVector:
    """The solver state: good flag |0> branch carries C~ ||x_mu|| |x_mu>.

    Register order: [ancilla, phase (n_phase_bits), system (the dilation's
    k qubits)].  The x block occupies system coordinates m+n .. m+2n-1.
    The circuit (phase estimation with e^{-i t H}, t = evolution_time(ext) =
    pi / (2 lambda_max), the ancilla rotated by a = C~ / lambda, uncompute)
    maps b on phase value 0 to V diag(a) V^dag b (ancilla |0>) and
    V diag(sqrt(1 - a^2)) V^dag b (ancilla |1>) on phase value 0, with a read
    from each eigenvector's phase cell (0 in cell 0).  Those maps are applied
    directly.
    """
    c_tilde = rotation_constant(ext)
    t = evolution_time(ext)
    n, k = n_phase_bits, ext.dilation.shape[0].bit_length() - 1
    _check_capacity(n + k + 1)  # before _phase_cells allocates its 2^n arrays
    (V, cells), lam = _phase_cells(ext.eig, t, n_phase_bits)
    lam_min = float(np.min(np.abs(lam[lam != 0]), initial=np.inf))
    if c_tilde > lam_min * (1 + 1e-9):
        raise ValueError(
            f"c_tilde {c_tilde:g} exceeds smallest nonzero eigenvalue {lam_min:g}"
        )
    amps = np.divide(c_tilde, lam, out=np.zeros(lam.size), where=lam != 0)
    a = np.clip(amps, -1.0, 1.0)[cells]
    c = prepare_b_state(b, k).amplitudes @ V.conj()  # b's eigenbasis coordinates
    out = np.zeros((2, 2**n, 2**k), dtype=complex)
    out[0, 0] = (c * a) @ V.T
    out[1, 0] = (c * np.sqrt(np.maximum(0.0, 1.0 - a**2))) @ V.T
    return StateVector(out)


def apply_A_state(solution: StateVector, ext_A: ExtendedMatrix) -> StateVector:
    """Good branch (both ancillas |0>) proportional to A x_mu with amplitude C ||x_mu||.

    solution is hhl_solution_state(ext, b, n_phase_bits); its phase width is
    reused.  ext_A is A's own extended matrix build_extended(A, 0.0, svd).
    Register order: [hhl ancilla, multiply ancilla, phase, system].

    The circuit (phase estimation with e^{-i t H_A}, t = pi / (2 sigma_max),
    a multiply ancilla rotated by a = lambda / sigma_max, uncompute) maps a
    state on phase value 0 to V diag(a) V^dag (ancilla |0>) and
    V diag(sqrt(1 - a^2)) V^dag (ancilla |1>) on phase value 0, with a read
    from each eigenvector's phase cell (0 in cell 0).  Those maps are applied
    directly; a state with norm above 1e-10 off phase value 0 is refused by
    ValueError.
    """
    if ext_A.mu != 0:
        raise ValueError(f"apply_A_state runs at mu = 0 (A's own matrix), got mu = {ext_A.mu:g}")
    n, k = _layout(solution, ext_A, 1, "apply_A_state")
    _check_capacity(n + k + 2)
    psi = solution.amplitudes
    # one vdot per flag branch: each branch's y != 0 block is contiguous
    off = sum(np.vdot(branch[1:], branch[1:]).real for branch in psi)
    if off > _OFF_PHASE_TOL**2:
        raise ValueError(f"apply_A_state expects a state on phase value 0, got norm "
                         f"{math.sqrt(off):.3e} off it")
    (V, cells), lam = _phase_cells(ext_A.eig, evolution_time(ext_A), n)
    a = np.clip(lam[cells] / ext_A.svd.sigma_max, -1.0, 1.0)
    c = psi[:, 0] @ V.conj()  # the eigenbasis coordinates of each flag branch
    out = np.zeros((4, *psi.shape[1:]), dtype=complex)
    out[0::2, 0] = (c * a) @ V.T
    out[1::2, 0] = (c * np.sqrt(1.0 - a**2)) @ V.T
    return StateVector(out)


def residual_state(ax: StateVector, ext: ExtendedMatrix, b: np.ndarray) -> StateVector:
    """All-ancillas-zero component equals (t/2)(||x_mu|| A|x_mu> - |b>), b normalized.

    ax is apply_A_state(solution, ext_A).  Register order: [hhl ancilla,
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
    C, t = _residual_scale(ext)
    a0, a1 = t / C, t
    col0 = np.array([a0, math.sqrt(1 - a0**2)]) / 2
    col1 = np.array([a1, math.sqrt(1 - a1**2)]) / 2
    rows = ax.amplitudes[:, 0]  # every row is zero off phase value 0
    out = np.zeros((4, 2, 2, 2**n, 2**k), dtype=complex)
    np.multiply(rows[:, np.newaxis, :], col0[:, np.newaxis], out=out[:, 0, :, 0])
    out[:, 1, :, 0] = out[:, 0, :, 0]
    b_terms = np.outer(col1, prepare_b_state(b, k).amplitudes)
    out[0, 0, :, 0] -= b_terms
    out[0, 1, :, 0] += b_terms
    return StateVector(out.reshape(16, 2**n, 2**k))


def _estimate(state: StateVector, scale: float, b: np.ndarray,
              epsilon: float, rng: np.random.Generator, repeats: int) -> Estimate:
    """The norm read off the good branch, whose amplitude is scale * norm / ||b||."""
    n_ae = ae_bits_for_accuracy(epsilon, scale)
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
    return _estimate(residual, _residual_scale(ext)[1] / 2, b, epsilon, rng, repeats)
