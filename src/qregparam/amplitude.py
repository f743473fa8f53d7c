"""Amplitude estimation: Grover operator and folded angle readout.

A state preparation splits |0...0> into cos(theta) |good> + sin(theta) |bad>,
where "good" means every flag qubit reads 0.  The Grover operator rotates the
plane spanned by the two branches by 2*theta, so phase estimation on it reads
theta off the phase register.  Register values are folded through two's
complement so both +-theta branches decode to the same cos(theta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .statevector import (
    StateVector,
    UnitaryOp,
    measure,
    phase_estimation,
    register_distribution,
    twos_complement,
)


@dataclass
class StatePrep:
    """A prepared state plus the flag qubits that mark its good branch."""

    num_qubits: int
    flag_qubits: tuple[int, ...]
    state: np.ndarray

    def __post_init__(self):
        self.flag_qubits = tuple(self.flag_qubits)
        self.state = np.asarray(self.state, dtype=complex).ravel()
        if self.state.size != 2**self.num_qubits:
            raise ValueError("state length does not match num_qubits")
        if abs(np.linalg.norm(self.state) - 1.0) > 1e-8:
            raise ValueError("prepared state is not normalized")
        if not self.flag_qubits or any(
            not 0 <= f < self.num_qubits for f in self.flag_qubits
        ):
            raise ValueError(f"invalid flag qubits {self.flag_qubits}")

    @classmethod
    def from_state(cls, state: np.ndarray, flag_qubits: Sequence[int]) -> "StatePrep":
        state = np.asarray(state, dtype=complex).ravel()
        k = state.size.bit_length() - 1
        return cls(k, tuple(flag_qubits), state)

    def good_mask(self) -> np.ndarray:
        """Boolean mask over basis states where every flag qubit is 0."""
        idx = np.arange(2**self.num_qubits)
        mask = np.ones_like(idx, dtype=bool)
        for f in self.flag_qubits:
            shift = self.num_qubits - 1 - f
            mask &= (idx >> shift) & 1 == 0
        return mask

    @property
    def theta(self) -> float:
        """Rotation angle in [0, pi/2] with cos(theta) the good-branch amplitude."""
        mask = self.good_mask()
        good = np.linalg.norm(self.state[mask])
        bad = np.linalg.norm(self.state[~mask])
        return math.atan2(bad, good)


@dataclass
class AmplitudeEstimate:
    """Folded QPE readout of the rotation angle."""

    theta_tilde: float
    n_bits: int
    raw_register: int
    probability_estimate: float = field(init=False)

    def __post_init__(self):
        self.probability_estimate = math.sin(self.theta_tilde) ** 2


def grover_operator(prep: StatePrep) -> UnitaryOp:
    """G = (2|phi><phi| - I) * M with M = -1 on every non-good basis state."""
    phi = prep.state
    d = phi.size
    refl = 2.0 * np.outer(phi, phi.conj()) - np.eye(d)
    signs = np.where(prep.good_mask(), 1.0, -1.0)
    return UnitaryOp(refl * signs[np.newaxis, :])


def fold_register(y: int, n_bits: int) -> float:
    """Map a register outcome to theta_tilde = |y_signed| * pi / 2^n."""
    return abs(twos_complement(y, n_bits)) * math.pi / 2**n_bits


def _plane_rotation(theta: float) -> UnitaryOp:
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return UnitaryOp(np.array([[c, -s], [s, c]], dtype=complex))


def qpe_on_grover_distribution(theta: float, n_bits: int) -> np.ndarray:
    """Exact phase-register distribution of QPE on the Grover operator.

    Computed on the 2-dimensional invariant subspace spanned by the good and
    bad branches, where G acts as the rotation by 2*theta.
    """
    inp = StateVector(1, np.array([math.cos(theta), math.sin(theta)], dtype=complex))
    out = phase_estimation(_plane_rotation(theta), inp, n_bits)
    return register_distribution(out, list(range(n_bits)))


def estimate_theta(prep: StatePrep, n_bits: int, rng: np.random.Generator,
                   repeats: int = 1) -> AmplitudeEstimate:
    """QPE on the Grover operator, measured and folded.

    repeats > 1 (odd) reruns the estimate and reports the median theta_tilde.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("repeats must be odd and >= 1")
    probs = qpe_on_grover_distribution(prep.theta, n_bits)
    outcomes = rng.choice(2**n_bits, size=repeats, p=probs / probs.sum())
    folded = sorted((fold_register(int(y), n_bits), int(y)) for y in outcomes)
    theta_tilde, raw = folded[repeats // 2]
    return AmplitudeEstimate(theta_tilde=theta_tilde, n_bits=n_bits, raw_register=raw)


def estimate_theta_full_circuit(prep: StatePrep, n_bits: int,
                                rng: np.random.Generator) -> AmplitudeEstimate:
    """Same contract as estimate_theta but simulating the full Grover operator."""
    G = grover_operator(prep)
    inp = StateVector(prep.num_qubits, prep.state)
    out = phase_estimation(G, inp, n_bits)
    bits, _ = measure(out, list(range(n_bits)), rng)
    y = int("".join(map(str, bits)), 2)
    return AmplitudeEstimate(theta_tilde=fold_register(y, n_bits), n_bits=n_bits,
                             raw_register=y)


def ae_bits_for_accuracy(epsilon: float) -> int:
    """Phase bits so the grid is below epsilon, plus two bits of success margin."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil(math.log2(math.pi / epsilon)) + 2)


def ae_query_count(n_bits: int, repeats: int = 1) -> int:
    """Controlled-G applications in one QPE pass: 2^n - 1 per repetition."""
    return (2**n_bits - 1) * repeats
