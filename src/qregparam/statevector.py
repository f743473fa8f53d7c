"""Dense statevector simulator: states, gates and phase estimation.

The pipelines run phase estimation through qpe_forward/qpe_inverse, which
evaluate the controlled-power ladder in the eigenbasis of the evolution.
phase_estimation and _ladder_forward simulate the same circuit gate by gate
with apply and controlled; the tests use them, together with the dense QFT
matrix, Hamiltonian evolution and measurement in tests/reference.py, as the
reference for the eigenbasis form.

Qubit ordering convention (used everywhere in this package): qubit 0 is the
MOST significant bit of the basis-state index, so a register listed first
occupies the high bits.  For a phase-estimation register of n qubits the
register value y and a system state s combine into index y * 2^k + s.
Every state the pipelines build is laid out [flag qubits in creation order,
phase register, system] and held in that shape, a (2^flags, 2^n, 2^k) array:
the QPE kernels read n and k off it and work along its middle axis, a fresh
flag doubles the leading axis, and the all-flags-zero branch is row 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24
_UNITARY_TOL = 1e-10


class CapacityError(RuntimeError):
    """Raised when a simulation would exceed MAX_QUBITS."""


def _check_capacity(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"simulation of {num_qubits} qubits exceeds the {MAX_QUBITS}-qubit capacity"
        )


@dataclass(frozen=True)
class StateVector:
    """2^num_qubits complex amplitudes (immutable), held in the shape the caller gives."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        _check_capacity(self.num_qubits)
        if amps.size != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state is not normalized (norm {norm:.3e})")


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix on a whole number of qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        d = mat.shape[0]
        if mat.ndim != 2 or mat.shape[1] != d:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if d < 2 or d & (d - 1):
            raise ValueError(f"dimension {d} is not a power of two >= 2")
        err = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
        if err > _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {err:.3e})")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


# the Hadamard gate of the gate-level QPE ladder
H = UnitaryOp(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def apply(state: StateVector, op: UnitaryOp, targets: list[int]) -> StateVector:
    """Apply op to the addressed qubits; targets[0] is op's most significant qubit."""
    targets = list(targets)
    t = len(targets)
    q = state.num_qubits
    if op.dimension != 2**t:
        raise ValueError(
            f"operator dimension {op.dimension} does not match {t} target qubits"
        )
    if len(set(targets)) != t:
        raise ValueError(f"duplicate target qubits in {targets}")
    if any(not 0 <= i < q for i in targets):
        raise ValueError(f"target qubits {targets} out of range for {q} qubits")
    psi = state.amplitudes.reshape((2,) * q)
    psi = np.moveaxis(psi, targets, range(t))
    shape = psi.shape
    psi = op.matrix @ psi.reshape(2**t, -1)
    psi = np.moveaxis(psi.reshape(shape), range(t), targets)
    return StateVector(q, psi.reshape(state.amplitudes.shape))


def controlled(op: UnitaryOp, power: int = 1) -> UnitaryOp:
    """Block-diagonal (I, op^power); the control qubit is the most significant."""
    d = op.dimension
    mat = np.eye(2 * d, dtype=complex)
    mat[d:, d:] = np.linalg.matrix_power(op.matrix, power)
    return UnitaryOp(mat)


def _fourier(block: np.ndarray, inverse: bool) -> np.ndarray:
    """QFT (or its inverse) along axis 1 of a (rest, 2^n, ...) block, via an FFT."""
    scale = 2 ** ((block.shape[1].bit_length() - 1) / 2)
    # QFT has exponent +2 pi i jk / N: that is numpy's ifft up to normalization
    if inverse:
        out = np.fft.fft(block, axis=1)
        out /= scale
    else:
        out = np.fft.ifft(block, axis=1)
        out *= scale
    return out


def _apply_qft_fast(state: StateVector, targets: list[int], inverse: bool) -> StateVector:
    """Apply the QFT to a register via an FFT along its axis.

    Equivalent to applying the dense QFT matrix (qft in tests/reference.py)
    to the register, but O(N log N) in the register size instead of O(N^2).
    """
    n = len(targets)
    q = state.num_qubits
    psi = state.amplitudes.reshape((2,) * q)
    psi = np.moveaxis(psi, targets, range(n))
    shape = psi.shape
    block = _fourier(psi.reshape(1, 2**n, -1), inverse)
    psi = np.moveaxis(block.reshape(shape), range(n), targets)
    return StateVector(q, psi.reshape(state.amplitudes.shape))


def _walsh_hadamard(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """H on every qubit of the register along axis 1 of a (rest, 2^n, K) block.

    The result goes to out, which may be block itself.  The butterflies run
    one qubit at a time; the only temporary is half a block.
    """
    rest, N = block.shape[:2]
    half = 1
    while half < N:
        pairs = block.reshape(rest * half, 2, -1)
        dest = out.reshape(rest * half, 2, -1)
        low = pairs[:, 0].copy()
        np.add(low, pairs[:, 1], out=dest[:, 0])
        np.subtract(low, pairs[:, 1], out=dest[:, 1])
        block = out
        half *= 2
    return np.multiply(block, 1.0 / math.sqrt(N), out=out)


def _eigen_qpe(state: StateVector, eig: tuple[np.ndarray, np.ndarray],
               inverse: bool) -> StateVector:
    """The controlled-power ladder of QPE evaluated in the eigenbasis of op.

    With op = V diag(e^{2 pi i phases}) V^dag, the ladder applies op^y to the
    system when the phase register holds y, so in the eigenbasis it is one
    elementwise factor e^{2 pi i y phases_j}.  The amplitudes are a
    (2^flags, 2^n, 2^k) array, so each change of basis is one matrix product
    over the last axis.
    """
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
    return StateVector(state.num_qubits, psi)


def qpe_forward(state: StateVector, eig: tuple[np.ndarray, np.ndarray]) -> StateVector:
    """Hadamards, the controlled-op^{2^j} ladder, then the inverse QFT.

    eig = (V, phases) describes op = V diag(e^{2 pi i phases}) V^dag on the
    system, the last axis of the state's (2^flags, 2^n, 2^k) amplitudes; the
    phase register is the middle axis.  The ladder is evaluated in that
    eigenbasis (_ladder_forward is the same circuit gate by gate).
    """
    return _eigen_qpe(state, eig, inverse=False)


def qpe_inverse(state: StateVector, eig: tuple[np.ndarray, np.ndarray]) -> StateVector:
    """Exact inverse of qpe_forward."""
    return _eigen_qpe(state, eig, inverse=True)


def _ladder_forward(state: StateVector, op: UnitaryOp,
                    phase_targets: list[int], system_targets: list[int]) -> StateVector:
    """qpe_forward simulated gate by gate with controlled powers of a dense op."""
    n = len(phase_targets)
    for j in phase_targets:
        state = apply(state, H, [j])
    for j, qubit in enumerate(phase_targets):
        state = apply(state, controlled(op, 2 ** (n - 1 - j)), [qubit, *system_targets])
    return _apply_qft_fast(state, list(phase_targets), inverse=True)


def phase_estimation(op: UnitaryOp, input_state: StateVector, n_bits: int) -> StateVector:
    """Standard QPE; returns the combined [phase register, system] state.

    For an eigenvector with eigenvalue e^{2 pi i y / 2^n} (integer y) the phase
    register ends in |y> exactly.  Simulated gate by gate with controlled
    powers of op.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if op.dimension != 2**input_state.num_qubits:
        raise ValueError(
            f"operator dimension {op.dimension} does not match input on "
            f"{input_state.num_qubits} qubits"
        )
    k = input_state.num_qubits
    _check_capacity(n_bits + k)
    amps = np.zeros(2 ** (n_bits + k), dtype=complex)
    amps[: 2**k] = input_state.amplitudes
    state = StateVector(n_bits + k, amps)
    return _ladder_forward(state, op, list(range(n_bits)),
                           list(range(n_bits, n_bits + k)))


def twos_complement(y: int, n_bits: int) -> int:
    """Read register value y as a signed two's-complement integer."""
    half = 1 << (n_bits - 1)
    return y - (1 << n_bits) if y >= half else y
