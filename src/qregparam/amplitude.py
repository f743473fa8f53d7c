"""Amplitude estimation on the angle of a good branch.

A state splits as cos(theta) |good> + sin(theta) |bad>, where "good" means
every flag qubit reads 0.  The flags lead the register and index axis 0 of
its amplitudes (the statevector layout), so good_branch_angle reads theta
off two contiguous blocks.  Everything else here works on theta alone.
The Grover operator rotates the plane spanned by the two branches by
2*theta, so phase estimation on it reads theta off the phase register;
its register distribution, qpe_on_grover_distribution, is the closed-form
Fejer kernel of theta: half its mass peaks at y = N theta / pi, half at
N - N theta / pi.  Register values are folded through two's complement so
both +-theta branches decode to the same cos(theta).  The circuit itself
(the dense Grover operator under gate-level phase estimation) is simulated
in tests/reference.py, the reference for that closed form.

estimate_theta reads the register without building that 2^n table.  It
tabulates the kernel on WINDOW values either side of each peak, sums each
gap between the windows in closed form (Euler-Maclaurin on the kernel's
csc^2 tail) and inverts the resulting CDF at the uniform draws rng.choice
would make on the table.  On a 2-CPU Xeon with numpy 2.4 a call with 5
repeats takes about 0.1 ms and 12 kB at any width up to MAX_QUBITS; the
table took about as long at 10 bits, 5-18 ms at 17-19 bits and 1 s and
0.4 GB at 24.  The tests check it draw for draw, and its CDF to 1e-12,
against sampling qpe_on_grover_distribution (estimate_theta_table in
tests/reference.py).
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


def _peak(theta: float, N: int) -> tuple[int, float]:
    """The register value nearest the peak N theta / pi, and the peak's offset from it."""
    peak = N * theta / math.pi
    centre = round(peak)
    frac = peak - centre
    # within rounding of an integer, or so near one that sin^2(pi frac) would
    # underflow and the kernel read 0/0 at the peak: the peak sits on a grid point
    if abs(frac) <= max(2 * math.ulp(peak), 1e-150):
        frac = 0.0
    return centre, frac


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
    centre, frac = _peak(theta, N)
    half = N // 2
    # F_N(m - frac) for m = -N/2 .. N/2 - 1, rotated so index y holds F_N(y - peak)
    minus = np.roll(_fejer(np.arange(-half, half, dtype=float), frac, N), centre - half)
    # F_N(y + peak) = F_N(-y - peak): the same values read at -y mod N
    return 0.5 * (minus + np.roll(minus[::-1], 1))


# Register values within WINDOW of a peak are tabulated; the gaps between the
# windows are summed in closed form.  After the B6 term the Euler-Maclaurin
# remainder of a gap is at most (1/30240) * integral |f^(6)|, and from the
# partial fractions csc^2(pi x / N) = (N/pi)^2 sum_j (x - jN)^-2 each pole at
# distance d contributes at most (N/pi)^2 / (42 d^7).  The prefactor
# sin^2(pi frac) / (2 N^2) makes that 1 / (84 pi^2 d^7) < 3e-16 of probability
# at d >= WINDOW - 1/2, far below the 1e-14 to 1e-12 by which the float64
# cumsum of a 17- to 20-bit table (what rng.choice searches) strays.
WINDOW = 64


def _windows(centre: int, N: int) -> list[tuple[int, int]]:
    """Values within WINDOW of centre or -centre mod N, as sorted disjoint [lo, hi) runs."""
    runs = []
    for c in (centre, -centre % N):
        lo, hi = c - WINDOW, c + WINDOW + 1
        if hi - lo >= N:
            return [(0, N)]
        runs.append((max(lo, 0), min(hi, N)))
        if lo < 0:  # the window wraps around y = 0
            runs.append((lo + N, N))
        elif hi > N:
            runs.append((0, hi - N))
    runs.sort()
    merged = [runs[0]]
    for lo, hi in runs[1:]:
        if lo <= merged[-1][1]:  # the peaks meet (near y = 0 or N/2)
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _gap_primitive(y: int, centre: int, frac: float, N: int) -> float:
    """Pi(y), so that the register values a .. b-1 of a gap have probability Pi(b) - Pi(a).

    Outside the windows the readout law is P(y) = sin^2(pi frac) / (2 N^2) *
    (csc^2(pi (y - p) / N) + csc^2(pi (y + p) / N)), p the peak.  Each csc^2
    is summed by Euler-Maclaurin: the antiderivative -(N/pi) cot(pi x / N),
    the half end term and the B2, B4 and B6 terms, whose derivatives are
    written in t = cot(pi x / N) and c = csc^2(pi x / N) = 1 + t^2.  Every
    term has period N, so x is reduced to [-N/2, N/2], where it stays accurate
    near the poles.
    """
    half = N // 2
    h = math.pi / N
    total = 0.0
    for x in ((y - centre + half) % N - half - frac, (y + centre + half) % N - half + frac):
        t = 1.0 / math.tan(h * x)
        c = 1.0 + t * t
        total += (-t / h - c / 2 - h * c * t / 6 + h**3 * c * t * (3 * c - 1) / 90
                  - h**5 * c * t * (45 * c * c - 30 * c + 2) / 1890)
    return math.sin(math.pi * frac) ** 2 / (2 * N * N) * total


def _readout_cdf(theta: float, n_bits: int):
    """The CDF of qpe_on_grover_distribution(theta, n_bits), without its 2^n table.

    Returns (runs, ends, tail).  The runs (lo, hi, cdf) cover the register
    values 0 .. N-1 in order: a window's cdf holds the cumulative probability
    at each of its values, read off the Fejer kernel as the table does, and a
    gap's is None.  ends[i] is the cumulative probability at the last value
    of run i, so ends[-1] is the total mass, 1 up to rounding.  tail is the
    gap primitive Pi bound to theta: the probability of a .. b-1 inside a gap
    is tail(b) - tail(a).
    """
    N = 2**n_bits
    centre, frac = _peak(theta, N)
    centre %= N
    half = N // 2
    windows = _windows(centre, N)
    y = np.concatenate([np.arange(lo, hi) for lo, hi in windows])
    probs = 0.5 * (_fejer((y - centre + half) % N - half, frac, N)
                   + _fejer((-y - centre + half) % N - half, frac, N))
    runs, ends, mass, start, at = [], [], 0.0, 0, 0
    for lo, hi in windows + [(N, N)]:
        if start < lo:
            mass += _gap_primitive(lo, centre, frac, N) - _gap_primitive(start, centre, frac, N)
            runs.append((start, lo, None))
            ends.append(mass)
        if lo < hi:
            cdf = mass + np.cumsum(probs[at:at + hi - lo])
            mass = cdf[-1]
            runs.append((lo, hi, cdf))
            ends.append(mass)
            at += hi - lo
        start = hi
    return runs, np.array(ends), lambda y: _gap_primitive(y, centre, frac, N)


def _register_values(theta: float, n_bits: int, u: np.ndarray) -> list[int]:
    """The register value at which the normalized readout CDF first exceeds each u.

    That is what rng.choice(2^n, p=probs / probs.sum()) returns for the same
    uniform draws: numpy normalizes the cumsum of p by its last entry and
    searches it (side='right') for rng.random(size).
    """
    runs, ends, tail = _readout_cdf(theta, n_bits)
    total = ends[-1]
    values = []
    for x, i in zip(u, np.searchsorted(ends / total, u, side="right")):
        lo, hi, cdf = runs[i]
        if cdf is not None:
            values.append(lo + int(np.searchsorted(cdf / total, x, side="right")))
            continue
        # bisect the gap: the first y with cumulative probability above x
        base = ends[i - 1] if i else 0.0
        start = tail(lo)
        while lo < hi - 1:
            mid = (lo + hi - 1) // 2
            if (base + (tail(mid + 1) - start)) / total > x:
                hi = mid + 1
            else:
                lo = mid + 1
        values.append(lo)
    return values


def estimate_theta(theta: float, n_bits: int, rng: np.random.Generator,
                   repeats: int = 1) -> float:
    """theta~: QPE on the Grover operator at angle theta, measured and folded.

    repeats > 1 (odd) reruns the estimate and reports the median theta~.
    The register is read by inverting the readout CDF at rng.random(repeats),
    the draws rng.choice would make on the full table, in O(WINDOW) work and
    memory rather than O(2^n).  CapacityError when n_bits exceeds MAX_QUBITS.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if n_bits > MAX_QUBITS:
        raise CapacityError(f"amplitude estimation on {n_bits} bits exceeds the "
                            f"{MAX_QUBITS}-qubit capacity")
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("repeats must be odd and >= 1")
    outcomes = _register_values(theta, n_bits, rng.random(repeats))
    return sorted(fold_register(y, n_bits) for y in outcomes)[repeats // 2]


def ae_bits_for_accuracy(epsilon: float) -> int:
    """Phase bits so the grid is below epsilon, plus two bits of success margin."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil(math.log2(math.pi / epsilon)) + 2)


def ae_query_count(n_bits: int, repeats: int = 1) -> int:
    """Controlled-G applications in one QPE pass: 2^n - 1 per repetition."""
    return (2**n_bits - 1) * repeats
