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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    zero_state,
)

_ZERO_EIG_TOL = 1e-12


class SpectrumResolutionError(RuntimeError):
    """Phase register too narrow to separate the dilation eigenvalues."""


@dataclass
class HhlConfig:
    """Phase-register width, rotation constant, and evolution time scaling."""

    n_phase_bits: int
    c_tilde: float
    sigma_max: float
    t_evolution: float

    @classmethod
    def for_extended(cls, ext: ExtendedMatrix, n_phase_bits: int = 6) -> "HhlConfig":
        """Derive the constants from the classical SVD (a simulator privilege).

        c_tilde is the smallest nonzero dilation eigenvalue magnitude, the
        largest value that keeps every rotation amplitude c_tilde/lambda <= 1.
        """
        sigma = ext.svd.sigma
        smax = ext.svd.sigma_max
        if smax == 0:
            raise ValueError("A is the zero matrix: sigma_max = 0 leaves nothing to "
                             "scale the A x and residual states by")
        mu = ext.mu
        # nonzero dilation eigenvalues are +-sqrt(sigma_i^2 + mu^2), i = 1..n,
        # padding sigma_i = 0 beyond min(m, n)
        tail = 0.0 if ext.n > sigma.size else float(sigma[ext.n - 1])
        if mu > 0:
            lam_min = math.sqrt(tail**2 + mu**2)
        else:
            lam_min = float(sigma[sigma > 1e-12 * smax][-1])
        lam_max = math.sqrt(smax**2 + mu**2)
        return cls(
            n_phase_bits=n_phase_bits,
            c_tilde=lam_min,
            sigma_max=smax,
            t_evolution=math.pi / (2.0 * lam_max),
        )


@dataclass
class NormEstimates:
    """Amplitude-estimated solution and residual norms with the query budget spent."""

    solution_norm: float
    residual_norm: float
    queries_used: int


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


def _padded(H: np.ndarray) -> tuple[np.ndarray, int]:
    d = H.shape[0]
    k = max(1, (d - 1).bit_length())
    out = np.zeros((2**k, 2**k), dtype=complex)
    out[:d, :d] = H
    return out, k


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


def _rotate_ancilla(state: StateVector, amps_by_cell: np.ndarray, n_bits: int,
                    ancilla: int) -> StateVector:
    """Rotate the ancilla by arcsin of the per-phase-cell good amplitude.

    The ancilla |0> branch receives amplitude a(y); cell 0 (and any cell with
    a = 0) sends the component entirely to |1>, excluding it from inversion.
    """
    q = state.num_qubits
    psi = state.amplitudes.reshape((2,) * q)
    psi = np.moveaxis(psi, [*range(n_bits), ancilla], [*range(n_bits), q - 1])
    shape = psi.shape
    psi = psi.reshape(2**n_bits, -1, 2)
    a = amps_by_cell[:, np.newaxis]
    b = np.sqrt(np.maximum(0.0, 1.0 - a**2))
    out = np.empty_like(psi)
    out[:, :, 0] = a * psi[:, :, 0] - b * psi[:, :, 1]
    out[:, :, 1] = b * psi[:, :, 0] + a * psi[:, :, 1]
    psi = np.moveaxis(out.reshape(shape), [*range(n_bits), q - 1],
                      [*range(n_bits), ancilla])
    return StateVector(q, psi.reshape(-1))


def hhl_solution_state(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig) -> StateVector:
    """The solver state: good flag |0> branch carries C~ ||x_mu|| |x_mu>.

    Register order: [phase (n_phase_bits), system (dilation, padded), ancilla].
    The x block occupies system coordinates m+n .. m+2n-1.
    """
    Hd, k = _padded(ext.dilation)
    n = cfg.n_phase_bits
    eig, lam = _phase_cells(Hd, cfg.t_evolution, n)
    lam_min = float(np.min(np.abs(lam[lam != 0]), initial=np.inf))
    if cfg.c_tilde > lam_min * (1 + 1e-9):
        raise ValueError(
            f"c_tilde {cfg.c_tilde:g} exceeds smallest nonzero eigenvalue {lam_min:g}"
        )
    _check_capacity(n + k + 1)
    amps = np.zeros(2 ** (n + k + 1), dtype=complex)
    amps[: 2 ** (k + 1): 2] = prepare_b_state(b, k).amplitudes  # phase 0, ancilla 0
    phase, system = list(range(n)), list(range(n, n + k))
    state = qpe_forward(StateVector(n + k + 1, amps), eig, phase, system)
    amps = np.divide(cfg.c_tilde, lam, out=np.zeros(lam.size), where=lam != 0)
    state = _rotate_ancilla(state, np.clip(amps, -1.0, 1.0), n, ancilla=n + k)
    return qpe_inverse(state, eig, phase, system)


def apply_A_state(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                  solution: StateVector | None = None) -> StateVector:
    """Good branch (both ancillas |0>) proportional to A x_mu with amplitude C ||x_mu||.

    Register order: [phase, system, hhl ancilla, multiply ancilla].
    solution is hhl_solution_state(ext, b, cfg) when the caller already has it.
    """
    state = hhl_solution_state(ext, b, cfg) if solution is None else solution
    n = cfg.n_phase_bits
    k = state.num_qubits - n - 1
    _check_capacity(n + k + 2)
    # the dilation of A alone: the (m, n, n) layout of ext.dilation at mu = 0
    Ha, _ = _padded(_dilation(ext.A, 0.0))
    smax = cfg.sigma_max
    eig2, lam2 = _phase_cells(Ha, math.pi / (2.0 * smax), n)
    state = state.tensor(zero_state(1))
    phase, system = list(range(n)), list(range(n, n + k))
    state = qpe_forward(state, eig2, phase, system)
    state = _rotate_ancilla(state, np.clip(lam2 / smax, -1.0, 1.0), n, ancilla=n + k + 1)
    return qpe_inverse(state, eig2, phase, system)


def residual_state(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                   solution: StateVector | None = None) -> StateVector:
    """All-ancillas-zero component equals (t/2)(||x_mu|| A|x_mu> - |b>), b normalized.

    Register order: [hhl ancilla, multiply ancilla, selector, rotation qubit,
    phase, system]; the good flag is the four leading qubits.  With the flags
    in front, the good branch is the first 2^(n+k) amplitudes, and amplitude
    estimation reads its angle without a permuted copy of the state.
    solution is hhl_solution_state(ext, b, cfg) when the caller already has it.
    """
    psi = apply_A_state(ext, b, cfg, solution)
    n = cfg.n_phase_bits
    k = psi.num_qubits - n - 2
    _check_capacity(psi.num_qubits + 2)
    # Step 1: a selector qubit whose |0> carries psi and |1> carries -|b>
    # (phase 0, ancillas 00).  Step 2: amplitude balancing rotates a fresh
    # rotation qubit by R(a0) under selector 0 and R(a1) under selector 1;
    # radicand corrected to 1 - t^2 C^-2 for unitarity.  Step 3: Hadamard on
    # the selector.  Together: selector s, rotation qubit r carry
    # (col0[r] psi - col1[r] b) for s = 0 and (col0[r] psi + col1[r] b) for s = 1.
    # psi's two ancillas (its trailing qubits) become the two leading rows.
    C = cfg.c_tilde / cfg.sigma_max
    t = min(1.0, C)
    a0, a1 = t / C, t
    col0 = np.array([a0, math.sqrt(1 - a0**2)]) / 2
    col1 = np.array([a1, math.sqrt(1 - a1**2)]) / 2
    ancillas_first = psi.amplitudes.reshape(-1, 4).T
    out = np.empty((4, 2, 2, ancillas_first.shape[1]), dtype=complex)
    np.multiply(ancillas_first[:, np.newaxis, :], col0[:, np.newaxis], out=out[:, 0])
    out[:, 1] = out[:, 0]
    b_terms = np.outer(col1, prepare_b_state(b, k).amplitudes)
    out[0, 0, :, : 2**k] -= b_terms
    out[0, 1, :, : 2**k] += b_terms
    return StateVector(psi.num_qubits + 2, out.reshape(-1))


def _estimate(state: StateVector, flag_qubits: tuple[int, ...], epsilon_int: float,
              rng: np.random.Generator, repeats: int) -> tuple[float, int]:
    """(cos theta~, queries) from amplitude estimation on the state's good branch."""
    n_ae = ae_bits_for_accuracy(epsilon_int)
    theta = good_branch_angle(state.amplitudes, flag_qubits)
    theta_tilde = estimate_theta(theta, n_ae, rng, repeats=repeats)
    return math.cos(theta_tilde), ae_query_count(n_ae, repeats)


def estimate_solution_norm(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                           epsilon: float, rng: np.random.Generator, repeats: int = 1,
                           solution: StateVector | None = None) -> tuple[float, int]:
    """(||x_mu|| to within epsilon * ||b||, queries), by amplitude estimation.

    The good flag is the solver state's ancilla, its last qubit.  solution is
    hhl_solution_state(ext, b, cfg) when the caller already has it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    state = hhl_solution_state(ext, b, cfg) if solution is None else solution
    flags = (state.num_qubits - 1,)
    cos_t, queries = _estimate(state, flags, cfg.c_tilde * epsilon, rng, repeats)
    b_norm = float(np.linalg.norm(np.asarray(b, dtype=complex)))
    return cos_t / cfg.c_tilde * b_norm, queries


def estimate_residual_norm(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                           epsilon: float, rng: np.random.Generator, repeats: int = 1,
                           solution: StateVector | None = None) -> tuple[float, int]:
    """(||A x_mu - b|| to within epsilon * ||b||, queries).

    The good flags are the residual state's four ancillas, its first four
    qubits.  solution is hhl_solution_state(ext, b, cfg) when the caller
    already has it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    state = residual_state(ext, b, cfg, solution)
    flags = (0, 1, 2, 3)
    t = min(1.0, cfg.c_tilde / cfg.sigma_max)
    cos_t, queries = _estimate(state, flags, epsilon * t / 2.0, rng, repeats)
    b_norm = float(np.linalg.norm(np.asarray(b, dtype=complex)))
    return 2.0 * cos_t / t * b_norm, queries


def estimate_norms(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig, epsilon: float,
                   rng: np.random.Generator, repeats: int = 1) -> NormEstimates:
    """Both norm estimators in one call, with combined query accounting.

    The solver state is built once and shared by the two estimators.
    """
    solution = hhl_solution_state(ext, b, cfg)
    sol, q1 = estimate_solution_norm(ext, b, cfg, epsilon, rng, repeats, solution)
    res, q2 = estimate_residual_norm(ext, b, cfg, epsilon, rng, repeats, solution)
    return NormEstimates(solution_norm=sol, residual_norm=res, queries_used=q1 + q2)
