"""Dense statevector simulator: states, gates and phase estimation.

qpe_forward/qpe_inverse evaluate the controlled-power ladder in the
eigenbasis of the evolution op = V diag(omega^cells) V^dag,
omega = e^{2 pi i / 2^n}, with integer phase cells on the register's 2^n
grid.  No pipeline stage calls them: snapped phase estimation is exact, so
the hhl stages apply its spectral maps on phase value 0 instead.  They stay
here as the circuit form that the tests' references (tests/reference.py)
and the benchmark tracer's targets (perfbench/tracer.py TARGETS) name.
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
A StateVector is built from its amplitudes alone: their count is a power of
two, and num_qubits is its log2.
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
    """Complex amplitudes (immutable), held in the shape the caller gives.

    Their count is a power of two >= 2, and its log2 is the qubit count.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(f"{amps.size} amplitudes is not a power of two >= 2")
        _check_capacity(self.num_qubits)
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails too
            raise ValueError(f"state is not normalized (norm {norm:.3e})")

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


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
    return StateVector(psi.reshape(state.amplitudes.shape))


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
    return StateVector(psi.reshape(state.amplitudes.shape))


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

    With op = V diag(omega^cells) V^dag, omega = e^{2 pi i / 2^n}, the ladder
    applies op^y to the system when the phase register holds y, so in the
    eigenbasis it is one elementwise factor omega^(y cells_j mod 2^n), read
    from a table of the 2^n roots of unity.  The amplitudes are a
    (2^flags, 2^n, 2^k) array, so each change of basis is one matrix product
    over the last axis.
    """
    V, cells = eig
    psi = state.amplitudes
    _, N, K = shape = psi.shape
    psi = _fourier(psi, False) if inverse else _walsh_hadamard(psi, np.empty_like(psi))
    # (y c mod N) / N equals the float (y c / N) mod 1 exactly, so each factor has
    # the bits of the exp of y * phase reduced mod 1 before scaling by 2 pi
    roots = np.exp((-2j if inverse else 2j) * math.pi * (np.arange(N) / N))
    factor = roots[np.outer(np.arange(N), cells) % N]
    psi = (psi.reshape(-1, K) @ V.conj()).reshape(shape)   # V^dag on the system
    psi *= factor
    psi = (psi.reshape(-1, K) @ V.T).reshape(shape)        # V on the system
    psi = _walsh_hadamard(psi, psi) if inverse else _fourier(psi, True)
    return StateVector(psi)


def qpe_forward(state: StateVector, eig: tuple[np.ndarray, np.ndarray]) -> StateVector:
    """Hadamards, the controlled-op^{2^j} ladder, then the inverse QFT.

    eig = (V, cells) describes op = V diag(omega^cells) V^dag, omega =
    e^{2 pi i / 2^n}, on the system, the last axis of the state's
    (2^flags, 2^n, 2^k) amplitudes; the phase register is the middle axis
    and cells is an integer array (any sign, read mod 2^n).  The ladder is
    evaluated in that eigenbasis (_ladder_forward is the same circuit gate
    by gate).
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
    return _ladder_forward(StateVector(amps), op, list(range(n_bits)),
                           list(range(n_bits, n_bits + k)))
