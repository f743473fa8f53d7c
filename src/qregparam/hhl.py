"""HHL-style states on the extended matrix and amplitude-estimated norms.

The solver runs phase estimation with e^{-i t H} for the Hermitian dilation H
of the stacked matrix (A; mu I), rotates an ancilla by the inverted eigenvalue,
and uncomputes.  Eigenvalue signs are handled by reading the phase register in
two's complement with |lambda| t < pi.

By default the simulated evolution snaps each eigenphase to its nearest phase
cell ("dyadic engineering"): phase estimation is then exact for any spectrum
and the inversion rotation looks the true eigenvalue up from the cell, so all
remaining estimator error is attributable to amplitude estimation.  Setting
snap_spectrum=False simulates the unmodified e^{-i t H} instead, with the
rotation driven by the raw phase-grid value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import (
    StatePrep,
    ae_bits_for_accuracy,
    ae_query_count,
    estimate_theta,
)
from .linalg import ExtendedMatrix
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
    snap_spectrum: bool = True

    @classmethod
    def for_extended(cls, ext: ExtendedMatrix, n_phase_bits: int = 6,
                     snap_spectrum: bool = True,
                     c_tilde: float | None = None) -> "HhlConfig":
        """Derive the constants from the classical SVD (a simulator privilege).

        c_tilde defaults to the smallest nonzero dilation eigenvalue magnitude;
        tests may override it with a lower bound instead.
        """
        sigma = ext.svd.sigma
        smax = ext.svd.sigma_max
        mu = ext.mu
        # nonzero dilation eigenvalues are +-sqrt(sigma_i^2 + mu^2), i = 1..n,
        # padding sigma_i = 0 beyond min(m, n)
        tail = 0.0 if ext.n > sigma.size or sigma.size == 0 else float(sigma[ext.n - 1])
        if mu > 0:
            lam_min = math.sqrt(tail**2 + mu**2)
        else:
            nonzero = sigma[sigma > 1e-12 * smax] if smax > 0 else sigma[:0]
            if nonzero.size == 0:
                raise ValueError("dilation has no nonzero eigenvalues (A = 0 and mu = 0)")
            lam_min = float(nonzero[-1])
        lam_max = math.sqrt(smax**2 + mu**2)
        return cls(
            n_phase_bits=n_phase_bits,
            c_tilde=lam_min if c_tilde is None else c_tilde,
            sigma_max=smax,
            t_evolution=math.pi / (2.0 * lam_max),
            snap_spectrum=snap_spectrum,
        )


@dataclass
class NormEstimates:
    """Amplitude-estimated solution and residual norms with the query budget spent."""

    solution_norm: float
    residual_norm: float
    epsilon: float
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


def _spectral_cells(eigvals: np.ndarray, t: float, n_bits: int) -> dict[int, float]:
    """Map each distinct nonzero eigenvalue to its phase cell; zero maps to cell 0.

    Raises SpectrumResolutionError if two distinct eigenvalues collide or a
    nonzero eigenvalue rounds to cell 0.
    """
    N = 2**n_bits
    scale = max(np.max(np.abs(eigvals)), 1.0)
    cells: dict[int, float] = {0: 0.0}
    distinct: list[float] = []
    for lam in np.sort(eigvals):
        if abs(lam) <= _ZERO_EIG_TOL * scale:
            continue
        if distinct and abs(lam - distinct[-1]) <= _ZERO_EIG_TOL * scale:
            continue
        distinct.append(float(lam))
    gaps = [abs(a) for a in distinct]
    gaps += [abs(b - a) for a, b in zip(distinct, distinct[1:])]
    min_gap = min(gaps) if gaps else 0.0
    for lam in distinct:
        y = round(((-lam * t / (2 * math.pi)) % 1.0) * N) % N
        if y in cells:
            raise SpectrumResolutionError(
                f"{n_bits} phase bits cannot separate the spectrum "
                f"(minimal eigenvalue gap {min_gap:.3e})"
            )
        cells[y] = lam
    return cells


def _evolution_operator(H: np.ndarray, t: float, n_bits: int, snap: bool
                        ) -> tuple[tuple[np.ndarray, np.ndarray], dict[int, float]]:
    """Eigendecomposition (V, phases) of the simulated e^{-i t H}, and its cells.

    The evolution is V diag(e^{2 pi i phases}) V^dag: phases = -w t / 2 pi,
    or with snap each nonzero eigenvalue's phase cell y / 2^n_bits.
    """
    w, V = np.linalg.eigh(H)
    if np.max(np.abs(w)) * t >= math.pi:
        raise ValueError("t_evolution does not scale all eigenvalues into (-pi, pi)")
    cells = _spectral_cells(w, t, n_bits)
    if snap:
        N = 2**n_bits
        scale = max(np.max(np.abs(w)), 1.0)
        phases = np.empty_like(w)
        for i, lam in enumerate(w):
            if abs(lam) <= _ZERO_EIG_TOL * scale:
                phases[i] = 0.0
            else:
                y = min((c for c in cells if c), key=lambda c: abs(cells[c] - lam))
                phases[i] = y / N
    else:
        phases = -w * t / (2 * math.pi)
    return (V, phases), cells


def _grid_eigenvalue(y: int, t: float, n_bits: int) -> float:
    from .statevector import twos_complement

    return -2.0 * math.pi * twos_complement(y, n_bits) / (2**n_bits * t)


def _cell_amplitudes(cells: dict[int, float], t: float, n_bits: int, snap: bool,
                     numerator: float, invert: bool, scale_div: float = 1.0) -> np.ndarray:
    """Per-cell rotation amplitude: numerator/lambda (invert) or lambda/scale_div."""
    N = 2**n_bits
    amps = np.zeros(N)
    for y in range(N):
        if y == 0:
            continue
        if snap:
            if y not in cells:
                continue
            lam = cells[y]
        else:
            lam = _grid_eigenvalue(y, t, n_bits)
        a = numerator / lam if invert else lam / scale_div
        amps[y] = min(max(a, -1.0), 1.0)
    return amps


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


def _dilation_parts(ext: ExtendedMatrix, cfg: HhlConfig):
    Hd, k = _padded(ext.dilation)
    eig, cells = _evolution_operator(Hd, cfg.t_evolution, cfg.n_phase_bits,
                                     cfg.snap_spectrum)
    lam_min = min(abs(v) for c, v in cells.items() if c) if len(cells) > 1 else 0.0
    if lam_min and cfg.c_tilde > lam_min * (1 + 1e-9):
        raise ValueError(
            f"c_tilde {cfg.c_tilde:g} exceeds smallest nonzero eigenvalue {lam_min:g}"
        )
    return k, eig, cells


def hhl_solution_state(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig) -> StateVector:
    """The solver state: good flag |0> branch carries C~ ||x_mu|| |x_mu>.

    Register order: [phase (n_phase_bits), system (dilation, padded), ancilla].
    The x block occupies system coordinates m+n .. m+2n-1.
    """
    k, eig, cells = _dilation_parts(ext, cfg)
    n = cfg.n_phase_bits
    _check_capacity(n + k + 1)
    amps = np.zeros(2 ** (n + k + 1), dtype=complex)
    amps[: 2 ** (k + 1): 2] = prepare_b_state(b, k).amplitudes  # phase 0, ancilla 0
    phase, system = list(range(n)), list(range(n, n + k))
    state = qpe_forward(StateVector(n + k + 1, amps), eig, phase, system)
    amps = _cell_amplitudes(cells, cfg.t_evolution, n, cfg.snap_spectrum,
                            numerator=cfg.c_tilde, invert=True)
    state = _rotate_ancilla(state, amps, n, ancilla=n + k)
    return qpe_inverse(state, eig, phase, system)


def _multiply_dilation(ext: ExtendedMatrix) -> np.ndarray:
    """Hermitian dilation of A alone, in the same (m, n, n) block layout."""
    m, n = ext.m, ext.n
    D = np.zeros((m + 2 * n, m + 2 * n), dtype=complex)
    D[:m, m + n:] = ext.A
    D[m + n:, :m] = ext.A.conj().T
    return D


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
    Ha, _ = _padded(_multiply_dilation(ext))
    smax = cfg.sigma_max
    t2 = math.pi / (2.0 * smax) if smax > 0 else 1.0
    eig2, cells2 = _evolution_operator(Ha, t2, n, cfg.snap_spectrum)
    state = state.tensor(zero_state(1))
    phase, system = list(range(n)), list(range(n, n + k))
    state = qpe_forward(state, eig2, phase, system)
    amps = _cell_amplitudes(cells2, t2, n, cfg.snap_spectrum,
                            numerator=0.0, invert=False, scale_div=smax)
    state = _rotate_ancilla(state, amps, n, ancilla=n + k + 1)
    return qpe_inverse(state, eig2, phase, system)


def residual_state(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                   solution: StateVector | None = None) -> StateVector:
    """All-ancillas-zero component equals (t/2)(||x_mu|| A|x_mu> - |b>), b normalized.

    Register order: [phase, system, hhl ancilla, multiply ancilla, selector,
    rotation qubit]; the good flag is the four trailing qubits.
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
    C = cfg.c_tilde / cfg.sigma_max
    t = min(1.0, C)
    a0, a1 = t / C, t
    col0 = np.array([a0, math.sqrt(1 - a0**2)]) / 2
    col1 = np.array([a1, math.sqrt(1 - a1**2)]) / 2
    out = np.empty((psi.amplitudes.size, 2, 2), dtype=complex)
    out[:, 0, :] = np.outer(psi.amplitudes, col0)
    out[:, 1, :] = out[:, 0, :]
    b_terms = np.outer(prepare_b_state(b, k).amplitudes, col1)
    out[: 2**k * 4:4, 0, :] -= b_terms
    out[: 2**k * 4:4, 1, :] += b_terms
    return StateVector(psi.num_qubits + 2, out.reshape(-1))


def good_flag_qubits(state: StateVector, cfg: HhlConfig, kind: str) -> tuple[int, ...]:
    """Flag qubits whose all-zeros branch is the 'good' branch."""
    if kind == "solution":
        return (state.num_qubits - 1,)
    if kind == "residual":
        return tuple(range(state.num_qubits - 4, state.num_qubits))
    raise ValueError(f"unknown state kind {kind!r}")


def solution_block(state: StateVector, ext: ExtendedMatrix, cfg: HhlConfig) -> np.ndarray:
    """The x-block of the good branch of hhl_solution_state (unnormalized)."""
    n, m, nn = cfg.n_phase_bits, ext.m, ext.n
    k = state.num_qubits - n - 1
    psi = state.amplitudes.reshape(2**n, 2**k, 2)
    return psi[0, m + nn:m + 2 * nn, 0]


def _estimate(theta_state: StateVector, flag_qubits: tuple[int, ...], epsilon_int: float,
              rng: np.random.Generator, repeats: int) -> tuple[float, int, int]:
    """(cos theta~, n_bits, queries) from amplitude estimation on the given state."""
    prep = StatePrep.from_state(theta_state.amplitudes, flag_qubits)
    n_ae = ae_bits_for_accuracy(epsilon_int)
    est = estimate_theta(prep, n_ae, rng, repeats=repeats)
    return math.cos(est.theta_tilde), n_ae, ae_query_count(n_ae, repeats)


def estimate_solution_norm(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                           epsilon: float, rng: np.random.Generator,
                           repeats: int = 1) -> float:
    """||x_mu|| to within epsilon * ||b||, via amplitude estimation on the flag."""
    value, _, _ = _solution_norm_with_queries(ext, b, cfg, epsilon, rng, repeats)
    return value


def _solution_norm_with_queries(ext, b, cfg, epsilon, rng, repeats, solution=None):
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    state = hhl_solution_state(ext, b, cfg) if solution is None else solution
    flags = good_flag_qubits(state, cfg, "solution")
    cos_t, n_ae, queries = _estimate(state, flags, cfg.c_tilde * epsilon, rng, repeats)
    b_norm = float(np.linalg.norm(np.asarray(b, dtype=complex)))
    return cos_t / cfg.c_tilde * b_norm, n_ae, queries


def estimate_residual_norm(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig,
                           epsilon: float, rng: np.random.Generator,
                           repeats: int = 1) -> float:
    """||A x_mu - b|| to within epsilon * ||b||."""
    value, _, _ = _residual_norm_with_queries(ext, b, cfg, epsilon, rng, repeats)
    return value


def _residual_norm_with_queries(ext, b, cfg, epsilon, rng, repeats, solution=None):
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    state = residual_state(ext, b, cfg, solution)
    flags = good_flag_qubits(state, cfg, "residual")
    C = cfg.c_tilde / cfg.sigma_max
    t = min(1.0, C)
    cos_t, n_ae, queries = _estimate(state, flags, epsilon * t / 2.0, rng, repeats)
    b_norm = float(np.linalg.norm(np.asarray(b, dtype=complex)))
    return 2.0 * cos_t / t * b_norm, n_ae, queries


def estimate_norms(ext: ExtendedMatrix, b: np.ndarray, cfg: HhlConfig, epsilon: float,
                   rng: np.random.Generator, repeats: int = 1) -> NormEstimates:
    """Both norm estimators in one call, with combined query accounting.

    The solver state is built once and shared by the two estimators.
    """
    solution = hhl_solution_state(ext, b, cfg)
    sol, _, q1 = _solution_norm_with_queries(ext, b, cfg, epsilon, rng, repeats,
                                             solution)
    res, _, q2 = _residual_norm_with_queries(ext, b, cfg, epsilon, rng, repeats,
                                             solution)
    return NormEstimates(solution_norm=sol, residual_norm=res, epsilon=epsilon,
                         queries_used=q1 + q2)
