"""Dense statevector simulator: gates, QFT, phase estimation, Hamiltonian evolution.

Qubit ordering convention (used everywhere in this package): qubit 0 is the
MOST significant bit of the basis-state index, so a register listed first
occupies the high bits.  For a phase-estimation register of n qubits the
register value y and a system state s combine into index y * 2^k + s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24
_NORM_TOL = 1e-10
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
    """2^num_qubits complex amplitudes of a qubit register (immutable)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(
            self.num_qubits + other.num_qubits,
            np.kron(self.amplitudes, other.amplitudes),
        )


def zero_state(num_qubits: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


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

    @property
    def num_qubits(self) -> int:
        return self.dimension.bit_length() - 1


# common single-qubit gates
X = UnitaryOp(np.array([[0, 1], [1, 0]], dtype=complex))
Z = UnitaryOp(np.array([[1, 0], [0, -1]], dtype=complex))
H = UnitaryOp(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
I2 = UnitaryOp(np.eye(2, dtype=complex))


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
    return StateVector(q, psi.reshape(-1))


def controlled(op: UnitaryOp, power: int = 1) -> UnitaryOp:
    """Block-diagonal (I, op^power); the control qubit is the most significant."""
    d = op.dimension
    mat = np.eye(2 * d, dtype=complex)
    mat[d:, d:] = np.linalg.matrix_power(op.matrix, power)
    return UnitaryOp(mat)


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


def _successive_powers(op: UnitaryOp, n_bits: int) -> list[np.ndarray]:
    """[op^(2^0), ..., op^(2^(n_bits-1))] by repeated squaring."""
    pows = [op.matrix]
    for _ in range(n_bits - 1):
        pows.append(pows[-1] @ pows[-1])
    return pows


def _fourier(block: np.ndarray, inverse: bool) -> np.ndarray:
    """QFT (or its inverse) along axis 0 of a (2^n, ...) block, via an FFT."""
    scale = 2 ** ((block.shape[0].bit_length() - 1) / 2)
    # QFT has exponent +2 pi i jk / N: that is numpy's ifft up to normalization
    if inverse:
        out = np.fft.fft(block, axis=0)
        out /= scale
    else:
        out = np.fft.ifft(block, axis=0)
        out *= scale
    return out


def _apply_qft_fast(state: StateVector, targets: list[int], inverse: bool) -> StateVector:
    """Apply the QFT to a register via an FFT along its axis.

    Equivalent to apply(state, qft(n, inverse), targets) but O(N log N) in the
    register size instead of O(N^2) matrix application.
    """
    n = len(targets)
    q = state.num_qubits
    psi = state.amplitudes.reshape((2,) * q)
    psi = np.moveaxis(psi, targets, range(n))
    shape = psi.shape
    block = _fourier(psi.reshape(2**n, -1), inverse)
    psi = np.moveaxis(block.reshape(shape), range(n), targets)
    return StateVector(q, psi.reshape(-1))


def _walsh_hadamard(block: np.ndarray) -> np.ndarray:
    """In place: H on every qubit of the register along axis 0 of a C-ordered block.

    The butterflies run one qubit at a time; the only temporary is half a block.
    """
    N = block.shape[0]
    flat = block.reshape(N, -1)
    half = 1
    while half < N:
        pairs = flat.reshape(half, 2, -1)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
        half *= 2
    flat *= 1.0 / math.sqrt(N)
    return block


def _eigen_qpe(state: StateVector, eig: tuple[np.ndarray, np.ndarray],
               phase_targets: list[int], system_targets: list[int],
               inverse: bool) -> StateVector:
    """The controlled-power ladder of QPE evaluated in the eigenbasis of op.

    With op = V diag(e^{2 pi i phases}) V^dag, the ladder applies op^y to the
    system when the phase register holds y, so in the eigenbasis it is one
    elementwise factor e^{2 pi i y phases_j}.  The amplitudes are laid out as
    (phase register, other qubits, system register), so that each change of
    basis is one matrix product.
    """
    V, phases = eig
    n, k = len(phase_targets), len(system_targets)
    q = state.num_qubits
    rest = [i for i in range(q) if i not in phase_targets and i not in system_targets]
    order = [*phase_targets, *rest, *system_targets]
    psi = np.transpose(state.amplitudes.reshape((2,) * q), order)
    if inverse:
        psi = _fourier(psi.reshape(2**n, -1), inverse=False)
    else:
        psi = _walsh_hadamard(np.array(psi, order="C").reshape(2**n, -1))
    shape = (2**n, -1, 2**k)
    # y * phase reduced mod 1 before scaling by 2 pi keeps dyadic phases exact
    turns = np.outer(np.arange(2**n), phases) % 1.0
    factor = np.exp((-2j if inverse else 2j) * math.pi * turns)
    psi = (psi.reshape(-1, 2**k) @ V.conj()).reshape(shape)   # V^dag on the system
    psi *= factor[:, np.newaxis, :]
    psi = (psi.reshape(-1, 2**k) @ V.T).reshape(2**n, -1)      # V on the system
    psi = _walsh_hadamard(psi) if inverse else _fourier(psi, inverse=True)
    psi = np.transpose(psi.reshape((2,) * q), np.argsort(order))
    return StateVector(q, psi.reshape(-1))


def qpe_forward(state: StateVector, eig: tuple[np.ndarray, np.ndarray],
                phase_targets: list[int], system_targets: list[int]) -> StateVector:
    """Hadamards, the controlled-op^{2^j} ladder, then the inverse QFT.

    eig = (V, phases) describes op = V diag(e^{2 pi i phases}) V^dag; the
    ladder is evaluated in that eigenbasis (_ladder_forward is the same
    circuit gate by gate).
    """
    return _eigen_qpe(state, eig, phase_targets, system_targets, inverse=False)


def qpe_inverse(state: StateVector, eig: tuple[np.ndarray, np.ndarray],
                phase_targets: list[int], system_targets: list[int]) -> StateVector:
    """Exact inverse of qpe_forward."""
    return _eigen_qpe(state, eig, phase_targets, system_targets, inverse=True)


def _ladder_forward(state: StateVector, op: UnitaryOp,
                    phase_targets: list[int], system_targets: list[int]) -> StateVector:
    """qpe_forward simulated gate by gate with controlled powers of a dense op."""
    n = len(phase_targets)
    pows = _successive_powers(op, n)
    for j in phase_targets:
        state = apply(state, H, [j])
    for j, qubit in enumerate(phase_targets):
        c_op = UnitaryOp(_block_controlled(pows[n - 1 - j]))
        state = apply(state, c_op, [qubit] + list(system_targets))
    return _apply_qft_fast(state, list(phase_targets), inverse=True)


def _ladder_inverse(state: StateVector, op: UnitaryOp,
                    phase_targets: list[int], system_targets: list[int]) -> StateVector:
    """Exact inverse of _ladder_forward; the tests' reference for qpe_inverse."""
    n = len(phase_targets)
    pows = _successive_powers(op, n)
    state = _apply_qft_fast(state, list(phase_targets), inverse=False)
    for j, qubit in reversed(list(enumerate(phase_targets))):
        c_op = UnitaryOp(_block_controlled(pows[n - 1 - j].conj().T))
        state = apply(state, c_op, [qubit] + list(system_targets))
    for j in phase_targets:
        state = apply(state, H, [j])
    return state


def _block_controlled(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = mat
    return out


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


def measure(state: StateVector, qubits: list[int],
            rng: np.random.Generator) -> tuple[tuple[int, ...], StateVector]:
    """Sample the addressed qubits from the Born marginal and collapse."""
    qubits = list(qubits)
    q = state.num_qubits
    if len(set(qubits)) != len(qubits) or any(not 0 <= i < q for i in qubits):
        raise ValueError(f"invalid measurement qubits {qubits}")
    psi = state.amplitudes.reshape((2,) * q)
    # marginal over the measured qubits, in their listed order
    moved = np.moveaxis(np.abs(psi) ** 2, qubits, range(len(qubits)))
    marginal = moved.reshape(2 ** len(qubits), -1).sum(axis=1)
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


def twos_complement(y: int, n_bits: int) -> int:
    """Read register value y as a signed two's-complement integer."""
    half = 1 << (n_bits - 1)
    return y - (1 << n_bits) if y >= half else y
