"""Gate-level references that the tests compare the library against.

The library evaluates phase estimation in the eigenbasis and the amplitude
estimation readout as a closed-form Fejer kernel.  The code here simulates
the same circuits the long way: dense QFT matrices, exact Hamiltonian
evolution, Born-rule measurement, the inverse controlled-power ladder and
the full Grover circuit.  float_phase_qpe is the eigenbasis kernel with one
complex exp per amplitude, the bit-for-bit reference for the library's table
of roots of unity.  estimate_theta_table samples the amplitude-estimation
readout from its full 2^n table, the draw-for-draw reference for the
library's windowed inverse CDF.  apply_A_state_qpe is the A x stage as the
circuit it simulates (phase estimation, rotation, uncompute), the reference
for the library's spectral map.  top_magnitude_cells tallies phase-register
shots one at a time.  solution_block reads the x block out of a solver state.
Nothing under src/ imports this module.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qregparam import hhl
from qregparam.amplitude import fold_register, qpe_on_grover_distribution
from qregparam.hhl import _add_flag, _layout, _phase_cells
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


def apply_A_state_qpe(solution: StateVector, ext_A: ExtendedMatrix) -> StateVector:
    """apply_A_state as the circuit: phase estimation with e^{-i t H_A}, the
    multiply ancilla rotated by lambda / sigma_max, and the inverse phase estimation.

    It looks qpe_forward and qpe_inverse up on qregparam.hhl at each call, so a
    test that patches them there runs this stage under its own kernel too.
    """
    if ext_A.mu != 0:
        raise ValueError(f"apply_A_state runs at mu = 0 (A's own matrix), got mu = {ext_A.mu:g}")
    n, k = _layout(solution, ext_A, 1, "apply_A_state")
    _check_capacity(n + k + 2)
    smax = ext_A.svd.sigma_max
    eig2, lam2 = _phase_cells(ext_A.eig, math.pi / (2.0 * smax), n)
    state = hhl.qpe_forward(solution, eig2)
    state = _add_flag(state, np.clip(lam2 / smax, -1.0, 1.0))
    return hhl.qpe_inverse(state, eig2)
