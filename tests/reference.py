"""Gate-level references that the tests compare the library against.

The library evaluates phase estimation in the eigenbasis and the amplitude
estimation readout as a closed-form Fejer kernel.  The code here simulates
the same circuits the long way: dense QFT matrices, exact Hamiltonian
evolution, Born-rule measurement, the inverse controlled-power ladder and
the full Grover circuit.  solution_block reads the x block out of a solver
state.  Nothing under src/ imports this module.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from qregparam.amplitude import fold_register
from qregparam.hhl import HhlConfig
from qregparam.linalg import ExtendedMatrix
from qregparam.statevector import (
    H,
    StateVector,
    UnitaryOp,
    _apply_qft_fast,
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
    return StateVector(num_qubits, amps)


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
    return bits, StateVector(q, collapsed)


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
    out = phase_estimation(G, StateVector(amplitudes.size.bit_length() - 1, amplitudes),
                           n_bits)
    bits, _ = measure(out, list(range(n_bits)), rng)
    return fold_register(int("".join(map(str, bits)), 2), n_bits)


def solution_block(state: StateVector, ext: ExtendedMatrix, cfg: HhlConfig) -> np.ndarray:
    """The x-block of the good branch of hhl_solution_state (unnormalized)."""
    n, m, nn = cfg.n_phase_bits, ext.m, ext.n
    k = state.num_qubits - n - 1
    psi = state.amplitudes.reshape(2**n, 2**k, 2)
    return psi[0, m + nn:m + 2 * nn, 0]
