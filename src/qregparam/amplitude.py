"""Amplitude estimation on the angle of a good branch.

A state splits as cos(theta) |good> + sin(theta) |bad>, where "good" means
every flag qubit reads 0.  The flags lead the register and index axis 0 of
its amplitudes (the statevector layout), so good_branch_angle reads theta
off two contiguous blocks.  Everything else here works on theta alone.
The Grover operator rotates the plane spanned by the two branches by
2*theta, so phase estimation on it reads theta off the phase register;
its register distribution is the closed-form Fejer kernel of theta.
Register values are folded through two's complement so both +-theta
branches decode to the same cos(theta).  The circuit itself (the dense
Grover operator under gate-level phase estimation) is simulated in
tests/reference.py, the reference for that closed form.
"""
from __future__ import annotations

import math

import numpy as np

from .statevector import MAX_QUBITS, CapacityError, twos_complement


def good_branch_angle(amplitudes: np.ndarray) -> float:
    """Angle in [0, pi/2] whose cosine is the norm of the all-flags-zero branch.

    Axis 0 of amplitudes runs over the values of the flag qubits.
    """
    # row 0: every flag qubit reads 0
    return math.atan2(np.linalg.norm(amplitudes[1:]), np.linalg.norm(amplitudes[0]))


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


def estimate_theta(theta: float, n_bits: int, rng: np.random.Generator,
                   repeats: int = 1) -> float:
    """theta~: QPE on the Grover operator at angle theta, measured and folded.

    repeats > 1 (odd) reruns the estimate and reports the median theta~.
    CapacityError, before any allocation, when n_bits exceeds MAX_QUBITS.
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


def ae_bits_for_accuracy(epsilon: float) -> int:
    """Phase bits so the grid is below epsilon, plus two bits of success margin."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil(math.log2(math.pi / epsilon)) + 2)


def ae_query_count(n_bits: int, repeats: int = 1) -> int:
    """Controlled-G applications in one QPE pass: 2^n - 1 per repetition."""
    return (2**n_bits - 1) * repeats
