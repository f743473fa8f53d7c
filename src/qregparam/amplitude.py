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
        f = len(self.flag_qubits)
        psi = np.moveaxis(self.state.reshape((2,) * self.num_qubits),
                          self.flag_qubits, range(f)).reshape(2**f, -1)
        # row 0: every flag qubit reads 0
        return math.atan2(np.linalg.norm(psi[1:]), np.linalg.norm(psi[0]))


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


def _fejer(offsets: np.ndarray, frac: float, N: int) -> np.ndarray:
    """Fejer kernel F_N(m - frac) = sin^2(pi (m - frac)) / (N sin(pi (m - frac) / N))^2.

    The offsets m are integers in [-N/2, N/2) and |frac| <= 1/2, so the
    numerator is sin^2(pi frac) without cancellation and the denominator
    vanishes only at m - frac = 0, where the kernel is 1.
    """
    if frac == 0.0:
        return (offsets == 0).astype(float)
    return math.sin(math.pi * frac) ** 2 / (N * np.sin(np.pi * (offsets - frac) / N)) ** 2


def qpe_on_grover_distribution(theta: float, n_bits: int) -> np.ndarray:
    """Exact phase-register distribution of QPE on the Grover operator.

    On the plane of the good and bad branches G rotates by 2*theta; the input
    state has weight 1/2 on each of its eigenvectors, with eigenphases
    +-theta/pi.  The register therefore reads y with probability
    F_N(y - N theta/pi)/2 + F_N(y + N theta/pi)/2, F_N the Fejer kernel
    (Brassard, Hoyer, Mosca, Tapp, arXiv:quant-ph/0005055).  Each argument is
    reduced to an integer offset from the peak, so theta = 0, pi/2 and
    dyadic angles give exact point masses.
    """
    N = 2**n_bits
    peak = N * theta / math.pi
    centre = round(peak)
    frac = peak - centre
    # within rounding of an integer: the peak sits exactly on a grid point
    if abs(frac) <= 2 * math.ulp(peak):
        frac = 0.0
    half = N // 2
    # F_N(m - frac) for m = -N/2 .. N/2 - 1, rotated so index y holds F_N(y - peak)
    minus = np.roll(_fejer(np.arange(-half, half, dtype=float), frac, N), centre - half)
    # F_N(y + peak) = F_N(-y - peak): the same values read at -y mod N
    return 0.5 * (minus + np.roll(minus[::-1], 1))


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
