"""Gate-level references that the tests compare the library against.

The library evaluates phase estimation in the eigenbasis and the amplitude
estimation readout as a closed-form Fejer kernel.  The code here simulates
the same circuits the long way: dense QFT matrices, exact Hamiltonian
evolution, Born-rule measurement, the inverse controlled-power ladder and
the full Grover circuit.  float_phase_qpe is the eigenbasis kernel with one
complex exp per amplitude, the bit-for-bit reference for the library's table
of roots of unity.  estimate_theta_table samples the amplitude-estimation
readout from its full 2^n table, the draw-for-draw reference for the
library's windowed inverse CDF.  hhl_solution_state_qpe and
apply_A_state_qpe are the solver and A x stages as the circuits they
simulate (phase estimation, rotation, uncompute), and residual_state_full is
the residual stage on every phase value: the references for the library's
phase-0 maps.  They call the QPE kernels through this module's own
qpe_forward and qpe_inverse names, so a test that patches those two names
here runs the whole reference chain under its own kernel.
top_magnitude_cells tallies phase-register shots one at a time.
solution_block reads the x block out of a solver state.  Nothing under src/
imports this module.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qregparam.amplitude import fold_register, qpe_on_grover_distribution
from qregparam.hhl import (
    _layout,
    _phase_cells,
    _residual_scale,
    evolution_time,
    prepare_b_state,
    rotation_constant,
)
from qregparam.linalg import ExtendedMatrix
from qregparam.statevector import (
    MAX_QUBITS,
    CapacityError,
    H,
    StateVector,
    UnitaryOp,
    _apply_qft_fast,
    _check_capacity,
    _fourier,
    _walsh_hadamard,
    apply,
    controlled,
    phase_estimation,
    qpe_forward,
    qpe_inverse,
)

# common single-qubit gates (H stays with the simulator, whose ladder uses it)
X = UnitaryOp(np.array([[0, 1], [1, 0]], dtype=complex))
Z = UnitaryOp(np.array([[1, 0], [0, -1]], dtype=complex))
I2 = UnitaryOp(np.eye(2, dtype=complex))


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def qft(n: int, inverse: bool = False) -> UnitaryOp:
    """DFT matrix with entries omega^{jk} / sqrt(2^n), omega = e^{2 pi i / 2^n}."""
    if n < 1:
        raise ValueError("need at least one qubit")
    N = 2**n
    j = np.arange(N)
    mat = np.exp(2j * np.pi * np.outer(j, j) / N) / np.sqrt(N)
    return UnitaryOp(mat.conj().T if inverse else mat)


def hamiltonian_evolution(H_mat: np.ndarray, t: float) -> UnitaryOp:
    """Exact e^{-i H t} via eigendecomposition."""
    H_mat = np.asarray(H_mat, dtype=complex)
    if np.max(np.abs(H_mat - H_mat.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian is not Hermitian")
    w, V = np.linalg.eigh(H_mat)
    return UnitaryOp((V * np.exp(-1j * w * t)) @ V.conj().T)


def _ladder_inverse(state: StateVector, op: UnitaryOp,
                    phase_targets: list[int], system_targets: list[int]) -> StateVector:
    """Exact inverse of _ladder_forward; the tests' reference for qpe_inverse."""
    n = len(phase_targets)
    dagger = UnitaryOp(op.matrix.conj().T)
    state = _apply_qft_fast(state, list(phase_targets), inverse=False)
    for j, qubit in reversed(list(enumerate(phase_targets))):
        state = apply(state, controlled(dagger, 2 ** (n - 1 - j)), [qubit, *system_targets])
    for j in phase_targets:
        state = apply(state, H, [j])
    return state


def float_phase_qpe(state: StateVector, eig: tuple[np.ndarray, np.ndarray],
                    inverse: bool) -> StateVector:
    """qpe_forward (qpe_inverse if inverse) for eig = (V, phases) with float phases:
    the factor is e^{+-2 pi i ((y phases) mod 1)}, one complex exp per amplitude."""
    V, phases = eig
    psi = state.amplitudes
    _, N, K = shape = psi.shape
    psi = _fourier(psi, False) if inverse else _walsh_hadamard(psi, np.empty_like(psi))
    # y * phase reduced mod 1 before scaling by 2 pi keeps dyadic phases exact
    turns = np.outer(np.arange(N), phases) % 1.0
    factor = np.exp((-2j if inverse else 2j) * math.pi * turns)
    psi = (psi.reshape(-1, K) @ V.conj()).reshape(shape)   # V^dag on the system
    psi *= factor
    psi = (psi.reshape(-1, K) @ V.T).reshape(shape)        # V on the system
    psi = _walsh_hadamard(psi, psi) if inverse else _fourier(psi, True)
    return StateVector(psi)


def measure(state: StateVector, qubits: list[int],
            rng: np.random.Generator) -> tuple[tuple[int, ...], StateVector]:
    """Sample the addressed qubits from the Born marginal and collapse."""
    qubits = list(qubits)
    q = state.num_qubits
    if len(set(qubits)) != len(qubits) or any(not 0 <= i < q for i in qubits):
        raise ValueError(f"invalid measurement qubits {qubits}")
    psi = state.amplitudes.reshape((2,) * q)
    marginal = register_distribution(state, qubits)
    total = marginal.sum()
    outcome = int(rng.choice(2 ** len(qubits), p=marginal / total))
    bits = tuple((outcome >> (len(qubits) - 1 - i)) & 1 for i in range(len(qubits)))
    sel = [slice(None)] * q
    for bit, qubit in zip(bits, qubits):
        sel[qubit] = bit
    collapsed = np.zeros_like(psi)
    collapsed[tuple(sel)] = psi[tuple(sel)]
    collapsed = collapsed.reshape(-1)
    collapsed /= np.linalg.norm(collapsed)
    return bits, StateVector(collapsed)


def register_distribution(state: StateVector, qubits: list[int]) -> np.ndarray:
    """Exact Born marginal over the addressed qubits, indexed by register value."""
    q = state.num_qubits
    psi = state.amplitudes.reshape((2,) * q)
    moved = np.moveaxis(np.abs(psi) ** 2, list(qubits), range(len(qubits)))
    return moved.reshape(2 ** len(qubits), -1).sum(axis=1)


def grover_operator(amplitudes: np.ndarray, flag_qubits: Sequence[int]) -> UnitaryOp:
    """G = (2|phi><phi| - I) * M with M = -1 where some flag qubit reads 1."""
    signs = np.full((2,) * (amplitudes.size.bit_length() - 1), -1.0)
    signs[tuple(0 if q in flag_qubits else slice(None) for q in range(signs.ndim))] = 1.0
    refl = 2.0 * np.outer(amplitudes, amplitudes.conj()) - np.eye(amplitudes.size)
    return UnitaryOp(refl * signs.ravel())


def estimate_theta_full_circuit(amplitudes: np.ndarray, flag_qubits: Sequence[int],
                                n_bits: int, rng: np.random.Generator) -> float:
    """Same contract as estimate_theta but simulating the full Grover operator."""
    G = grover_operator(amplitudes, flag_qubits)
    out = phase_estimation(G, StateVector(amplitudes), n_bits)
    bits, _ = measure(out, list(range(n_bits)), rng)
    return fold_register(int("".join(map(str, bits)), 2), n_bits)


def estimate_theta_table(theta: float, n_bits: int, rng: np.random.Generator,
                         repeats: int = 1) -> float:
    """estimate_theta drawn from the whole 2^n-entry readout table by rng.choice.

    O(2^n) time and memory: 24 bits take about 0.4 GB.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if n_bits > MAX_QUBITS:
        raise CapacityError(f"amplitude estimation on {n_bits} bits exceeds the "
                            f"{MAX_QUBITS}-qubit capacity")
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("repeats must be odd and >= 1")
    probs = qpe_on_grover_distribution(theta, n_bits)
    outcomes = rng.choice(2**n_bits, size=repeats, p=probs / probs.sum())
    return sorted(fold_register(int(y), n_bits) for y in outcomes)[repeats // 2]


def top_magnitude_cells(outcomes: Sequence[int], n_bits: int, r: int) -> list[int]:
    """The r most counted nonzero |two's complement| register values, shot by shot.

    Ties keep the order of first appearance (sorted is stable); the reference
    for the vectorized tally in principal_singular_values.  A value y >= 2^(n-1)
    reads as y - 2^n, with its own scalar rule rather than the library's fold.
    """
    counts: dict[int, int] = {}
    for y in map(int, outcomes):
        mag = abs(y - 2**n_bits if y >= 2 ** (n_bits - 1) else y)
        if mag:
            counts[mag] = counts.get(mag, 0) + 1
    if len(counts) < r:
        raise RuntimeError(
            f"only {len(counts)} distinct singular-value clusters found after "
            f"{len(outcomes)} shots; need {r}"
        )
    return sorted(counts, key=counts.get, reverse=True)[:r]


def solution_block(state: StateVector, ext: ExtendedMatrix) -> np.ndarray:
    """The x-block of the good branch of hhl_solution_state(ext, b, n) (unnormalized)."""
    m, nn = ext.A.shape
    return state.amplitudes[0, 0, m + nn:m + 2 * nn]


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
    return StateVector(out.reshape(-1, *psi.shape[1:]))


def hhl_solution_state_qpe(ext: ExtendedMatrix, b: np.ndarray, n_phase_bits: int
                           ) -> StateVector:
    """hhl_solution_state as the circuit: phase estimation with e^{-i t H}, the
    ancilla rotated by C~ / lambda, and the inverse phase estimation."""
    c_tilde = rotation_constant(ext)
    t = evolution_time(ext)
    n, k = n_phase_bits, ext.dilation.shape[0].bit_length() - 1
    _check_capacity(n + k + 1)  # before _phase_cells allocates its 2^n arrays
    eig, lam = _phase_cells(ext.eig, t, n_phase_bits)
    lam_min = float(np.min(np.abs(lam[lam != 0]), initial=np.inf))
    if c_tilde > lam_min * (1 + 1e-9):
        raise ValueError(
            f"c_tilde {c_tilde:g} exceeds smallest nonzero eigenvalue {lam_min:g}"
        )
    amps = np.zeros((1, 2**n, 2**k), dtype=complex)
    amps[0, 0] = prepare_b_state(b, k).amplitudes  # phase register |0>
    state = qpe_forward(StateVector(amps), eig)
    amps = np.divide(c_tilde, lam, out=np.zeros(lam.size), where=lam != 0)
    state = _add_flag(state, np.clip(amps, -1.0, 1.0))
    return qpe_inverse(state, eig)


def apply_A_state_qpe(solution: StateVector, ext_A: ExtendedMatrix) -> StateVector:
    """apply_A_state as the circuit: phase estimation with e^{-i t H_A}, the
    multiply ancilla rotated by lambda / sigma_max, and the inverse phase estimation.

    It calls this module's qpe_forward and qpe_inverse (see the module docstring).
    """
    if ext_A.mu != 0:
        raise ValueError(f"apply_A_state runs at mu = 0 (A's own matrix), got mu = {ext_A.mu:g}")
    n, k = _layout(solution, ext_A, 1, "apply_A_state")
    _check_capacity(n + k + 2)
    smax = ext_A.svd.sigma_max
    eig2, lam2 = _phase_cells(ext_A.eig, math.pi / (2.0 * smax), n)
    state = qpe_forward(solution, eig2)
    state = _add_flag(state, np.clip(lam2 / smax, -1.0, 1.0))
    return qpe_inverse(state, eig2)


def residual_state_full(ax: StateVector, ext: ExtendedMatrix, b: np.ndarray) -> StateVector:
    """residual_state on every phase value of ax, not only on phase value 0."""
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
    rows = ax.amplitudes.reshape(4, -1)
    out = np.empty((4, 2, 2, rows.shape[1]), dtype=complex)
    np.multiply(rows[:, np.newaxis, :], col0[:, np.newaxis], out=out[:, 0])
    out[:, 1] = out[:, 0]
    b_terms = np.outer(col1, prepare_b_state(b, k).amplitudes)
    out[0, 0, :, : 2**k] -= b_terms
    out[0, 1, :, : 2**k] += b_terms
    return StateVector(out.reshape(16, 2**n, 2**k))
