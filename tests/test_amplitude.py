"""Amplitude estimation: Grover operator and angle readout."""
import math
import tracemalloc

import numpy as np
import pytest

from qregparam import amplitude
from qregparam.statevector import CapacityError, StateVector, UnitaryOp, phase_estimation
from qregparam.amplitude import (
    ae_bits_for_accuracy,
    ae_query_count,
    estimate_theta,
    fold,
    fold_register,
    good_branch_angle,
    qpe_on_grover_distribution,
)

from reference import (
    estimate_theta_full_circuit,
    estimate_theta_table,
    grover_operator,
    register_distribution,
)


def gate_level_distribution(theta, n_bits):
    """Reference: QPE simulated gate by gate on the plane rotation by 2*theta."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    rotation = UnitaryOp(np.array([[c, -s], [s, c]], dtype=complex))
    inp = StateVector(np.array([math.cos(theta), math.sin(theta)], dtype=complex))
    out = phase_estimation(rotation, inp, n_bits)
    return register_distribution(out, list(range(n_bits)))


def prep_with_angle(theta, k=2):
    """k-qubit amplitudes whose flag qubit 0 splits cos/sin at the given angle."""
    amps = np.zeros(2**k, dtype=complex)
    amps[0] = math.cos(theta)          # flag qubit 0 reads 0
    amps[2 ** (k - 1)] = math.sin(theta)  # flag qubit 0 reads 1
    return amps


class TestStatePrep:
    def test_theta_readout(self):
        theta = good_branch_angle(prep_with_angle(0.4).reshape(2, -1))
        assert theta == pytest.approx(0.4, abs=1e-12)


class TestGroverOperator:
    def test_zero_rotation(self):
        amps = prep_with_angle(0.0)
        G = grover_operator(amps, (0,))
        assert np.allclose(G.matrix @ amps, amps, atol=1e-12)

    def test_quarter_rotation(self):
        G = grover_operator(prep_with_angle(math.pi / 4, k=1), (0,))
        # restricted to the (good, bad) plane the operator is ((0,-1),(1,0))
        assert np.allclose(G.matrix, [[0, -1], [1, 0]], atol=1e-12)

    def test_eigenphases_match_amplitude_readout(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            amps /= np.linalg.norm(amps)
            G = grover_operator(amps, (0,))
            w = np.linalg.eigvals(G.matrix)
            angles = np.sort(np.abs(np.angle(w)))
            assert np.min(np.abs(angles - 2 * good_branch_angle(amps.reshape(2, -1)))) < 1e-8


class TestEstimateTheta:
    def test_full_flag_is_exact(self):
        est = estimate_theta(math.pi / 2, 4, np.random.default_rng(0))
        assert est == pytest.approx(math.pi / 2, abs=1e-12)

    def test_zero_flag_is_exact(self):
        assert estimate_theta(0.0, 4, np.random.default_rng(0)) == 0.0

    def test_tiny_angle_reads_zero(self):
        # sin^2(pi frac) underflows there, and the kernel would read 0/0 at its peak
        for theta in (5e-324, 1e-200):
            probs = qpe_on_grover_distribution(theta, 10)
            assert probs[0] == 1.0 and probs.sum() == 1.0
            assert estimate_theta(theta, 10, np.random.default_rng(0)) == 0.0

    def test_nondyadic_success_rate(self):
        theta = math.asin(0.6)
        hits = sum(
            abs(estimate_theta(theta, 8, np.random.default_rng(s)) - theta)
            <= math.pi / 256
            for s in range(100)
        )
        assert hits >= 80

    def test_register_beyond_capacity_fails_before_allocating(self, monkeypatch):
        # the check reads MAX_QUBITS at each call, so a lowered capacity moves its boundary
        monkeypatch.setattr(amplitude, "MAX_QUBITS", 6)
        rng = np.random.default_rng(0)
        assert 0 <= estimate_theta(0.3, 6, rng) <= math.pi / 2
        with pytest.raises(CapacityError, match="on 7 bits exceeds the 6-qubit capacity"):
            estimate_theta(0.3, 7, rng)

    def test_folding_invariance(self):
        for n in (3, 5):
            for y in range(2**n):
                assert fold_register(y, n) == fold_register((-y) % 2**n, n)
                assert 0 <= fold_register(y, n) <= math.pi / 2 + 1e-12

    def test_fold_is_twos_complement_magnitude(self):
        assert (fold(3, 3), fold(4, 3), fold(7, 3)) == (3, 4, 1)
        for n in range(1, 11):
            y = np.arange(2**n)
            signed = np.where(y >= 2 ** (n - 1), y - 2**n, y)
            assert [fold(int(v), n) for v in y] == list(np.abs(signed))
            assert np.array_equal(fold(y, n), np.abs(signed))

    def test_repeats_must_be_odd(self):
        with pytest.raises(ValueError):
            estimate_theta(0.3, 4, np.random.default_rng(0), repeats=2)

    def test_median_mode_tightens(self):
        theta = 0.77
        errs1 = [abs(estimate_theta(theta, 5, np.random.default_rng(s)) - theta)
                 for s in range(200)]
        errs5 = [abs(estimate_theta(theta, 5, np.random.default_rng(s), repeats=5) - theta)
                 for s in range(200)]
        assert np.mean(errs5) <= np.mean(errs1) + 1e-9

    def test_full_circuit_agrees_with_subspace(self):
        # dyadic angle: both implementations must read the phase exactly
        theta = math.pi * 4 / 2**4  # rotation 2*theta has dyadic phase 4/16
        amps = prep_with_angle(theta, k=2)
        sub = estimate_theta(good_branch_angle(amps.reshape(2, -1)), 4,
                             np.random.default_rng(1))
        full = estimate_theta_full_circuit(amps, (0,), 4, np.random.default_rng(1))
        assert sub == pytest.approx(theta, abs=1e-9)
        assert full == pytest.approx(theta, abs=1e-9)

    def test_distribution_is_symmetric(self):
        # the closed form against the gate-level circuit: at 0 and pi/2, on a
        # grid angle k pi / 2^n and 1e-12 either side of it, and at random
        rng = np.random.default_rng(9)
        for n in range(1, 17):
            grid = max(1, 2 ** (n - 1) - 1) * math.pi / 2**n
            for theta in (0.0, math.pi / 2, grid, grid + 1e-12, grid - 1e-12,
                          float(rng.uniform(0, math.pi / 2))):
                probs = qpe_on_grover_distribution(theta, n)
                if theta in (0.0, math.pi / 2, grid):  # exact point masses
                    assert np.count_nonzero(probs) <= 2
                assert np.all(np.isfinite(probs)) and np.all(probs >= 0)
                assert abs(probs.sum() - 1.0) <= 1e-12
                assert np.max(np.abs(probs[1:][::-1] - probs[1:]), initial=0.0) <= 1e-12
                ref = gate_level_distribution(theta, n)
                assert np.max(np.abs(probs - ref)) <= 1e-10


def identity_cases(n_bits, count):
    """count fixed (theta, seed, repeats) at n_bits, cycling through the edge cases."""
    rng = np.random.default_rng([7, n_bits])
    N = 2**n_bits
    near = (amplitude.WINDOW + 2) * math.pi / N  # peak within a window of y = 0 or N/2

    def dyadic():
        return int(rng.integers(0, N // 2 + 1)) * math.pi / N

    def nudged(theta):
        return float(np.nextafter(theta, rng.choice([-1.0, 4.0])))

    kinds = (
        lambda: float(rng.uniform(0, math.pi / 2)),
        dyadic,
        lambda: nudged(dyadic()),                       # 1 ulp off a dyadic angle
        lambda: nudged(nudged(dyadic())),               # 2 ulp off
        lambda: float(rng.uniform(0, near)),            # windows wrap around y = 0
        lambda: math.pi / 2 - float(rng.uniform(0, near)),  # peaks meet at N/2
        lambda: (int(rng.integers(0, N // 2)) + 0.5) * math.pi / N,  # peak halfway
    )
    cases = [(0.0, 0, 1), (math.pi / 2, 1, 5)]
    for i in range(count - len(cases)):
        cases.append((kinds[i % len(kinds)](), int(rng.integers(2**32)),
                      int(rng.choice([1, 3, 5, 7]))))
    return cases


def table_cdf(theta, n_bits):
    """The CDF rng.choice searches when it samples the readout table."""
    probs = qpe_on_grover_distribution(theta, n_bits)
    cdf = np.cumsum(probs / probs.sum())
    return cdf / cdf[-1]


class TestWindowedReadout:
    """estimate_theta against the table sampler it replaces (reference.estimate_theta_table)."""

    # 135 cases per width up to 14 bits, 20 or 30 up to 20, a few at 22 and 24
    @pytest.mark.parametrize("n_bits,count", [*((n, 135) for n in range(1, 15)),
                                              (15, 30), (16, 30),
                                              *((n, 20) for n in range(17, 21)),
                                              (22, 3), (24, 2)])
    def test_same_draws_as_table(self, n_bits, count):
        for theta, seed, repeats in identity_cases(n_bits, count):
            ours, table = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (estimate_theta(theta, n_bits, ours, repeats)
                    == estimate_theta_table(theta, n_bits, table, repeats)), (theta, seed)
            assert ours.bit_generator.state == table.bit_generator.state

    def test_cdf_matches_table_cumsum(self):
        rng = np.random.default_rng(11)
        for i in range(200):
            n_bits = 8 + i % 13
            theta = float(rng.uniform(0, math.pi / 2))
            runs, ends, tail = amplitude._readout_cdf(theta, n_bits)
            ref = table_cdf(theta, n_bits)
            assert abs(ends[-1] - 1.0) <= 1e-12
            assert [r[0] for r in runs] == [0, *(r[1] for r in runs[:-1])]
            assert runs[-1][1] == 2**n_bits
            for (lo, hi, cdf), end, before in zip(runs, ends / ends[-1],
                                                  [0.0, *ends[:-1] / ends[-1]]):
                assert abs(end - ref[hi - 1]) <= 1e-12
                if cdf is not None:
                    assert np.max(np.abs(cdf / ends[-1] - ref[lo:hi])) <= 1e-12
                else:  # the partial sum the gap's bisection reads, halfway in
                    mid = (lo + hi) // 2
                    part = (tail(mid + 1) - tail(lo)) / ends[-1]
                    assert abs(before + part - ref[mid]) <= 1e-12

    def test_gap_masses_match_exact_sums(self):
        # Euler-Maclaurin through B6 against math.fsum of the table over each
        # gap: the B6 term is ~1e-16 here and the remainder after it ~1e-20
        rng = np.random.default_rng(5)
        for i in range(40):
            n_bits = (9, 10, 12, 14)[i % 4]
            theta = float(rng.uniform(0, math.pi / 2))
            probs = qpe_on_grover_distribution(theta, n_bits)
            runs, _, tail = amplitude._readout_cdf(theta, n_bits)
            for lo, hi, cdf in runs:
                if cdf is None:
                    assert abs(tail(hi) - tail(lo) - math.fsum(probs[lo:hi])) <= 1e-17

    def test_gap_draws_match_table(self):
        # Uniform draws land in a gap 0.3% of the time, so aim u into the gaps.
        # Up to 14 bits a gap value carries >= 1e-9, far above both CDFs' rounding.
        rng = np.random.default_rng(13)
        for i in range(60):
            n_bits = 9 + i % 6
            theta = float(rng.uniform(0, math.pi / 2))
            runs, ends, _ = amplitude._readout_cdf(theta, n_bits)
            cdf = ends / ends[-1]
            u = np.concatenate([rng.uniform(cdf[j - 1] if j else 0.0, cdf[j], 5)
                                for j, run in enumerate(runs) if run[2] is None])
            assert (amplitude._register_values(theta, n_bits, u)
                    == np.searchsorted(table_cdf(theta, n_bits), u, side="right").tolist())

    def test_24_bit_call_stays_small(self):
        tracemalloc.start()
        try:
            estimate_theta(0.7, 24, np.random.default_rng(0), repeats=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestAccounting:
    def test_bits_for_accuracy(self):
        assert ae_bits_for_accuracy(0.05) == math.ceil(math.log2(math.pi / 0.05)) + 2
        with pytest.raises(ValueError):
            ae_bits_for_accuracy(0.0)

    @pytest.mark.parametrize("epsilon, scale, bits", [
        (1e-300, 1e-17, 1057), (5e-324, 1.0, 1078), (1e-300, 1e-300, 1997)])
    def test_bits_beyond_float_range_typed_error(self, epsilon, scale, bits):
        # pi / (scale * epsilon) overflows, or scale * epsilon underflows to 0
        with pytest.raises(CapacityError, match=f" needs {bits} bits, beyond the "):
            ae_bits_for_accuracy(epsilon, scale)

    def test_scaled_bits_match_the_product(self):
        for epsilon in (0.05, 5e-4, 1e-9):
            for scale in (1.0, 0.3, 1e-6):
                assert (ae_bits_for_accuracy(epsilon, scale)
                        == ae_bits_for_accuracy(scale * epsilon)
                        == max(1, math.ceil(math.log2(math.pi / (scale * epsilon))) + 2))

    def test_query_count(self):
        assert ae_query_count(5) == 31
        assert ae_query_count(5, repeats=3) == 93

    def test_margin_keeps_median_of_five_misses_rare(self):
        # An estimate misses when |cos(theta~) - cos(theta)| > scale * eps, the
        # norm error of epsilon * ||b||.  The median of 5 misses high (low) when
        # 3 or more of its draws do; computed exactly from the readout law.
        thetas = np.random.default_rng(2024).uniform(0, math.pi / 2, 200)
        for scale, eps in ((0.3, 0.05), (0.1, 0.05), (0.5, 0.01), (0.2, 5e-3)):
            tol = scale * eps
            n_bits = ae_bits_for_accuracy(tol)
            cos_tilde = np.cos([fold_register(y, n_bits) for y in range(2**n_bits)])
            worst = 0.0
            for theta in thetas:
                probs = qpe_on_grover_distribution(theta, n_bits)
                for p in (probs[cos_tilde > math.cos(theta) + tol].sum(),
                          probs[cos_tilde < math.cos(theta) - tol].sum()):
                    worst = max(worst, sum(math.comb(5, k) * p**k * (1 - p) ** (5 - k)
                                           for k in range(3, 6)))
            assert worst <= 3e-4, (scale, eps, worst)
