"""Amplitude estimation: Grover operator and angle readout."""
import math

import numpy as np
import pytest

from qregparam import amplitude
from qregparam.statevector import CapacityError, StateVector, UnitaryOp, phase_estimation
from qregparam.amplitude import (
    ae_bits_for_accuracy,
    ae_query_count,
    estimate_theta,
    fold_register,
    good_branch_angle,
    qpe_on_grover_distribution,
)

from reference import estimate_theta_full_circuit, grover_operator, register_distribution


def gate_level_distribution(theta, n_bits):
    """Reference: QPE simulated gate by gate on the plane rotation by 2*theta."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    rotation = UnitaryOp(np.array([[c, -s], [s, c]], dtype=complex))
    inp = StateVector(1, np.array([math.cos(theta), math.sin(theta)], dtype=complex))
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

    def test_nondyadic_success_rate(self):
        theta = math.asin(0.6)
        hits = sum(
            abs(estimate_theta(theta, 8, np.random.default_rng(s)) - theta)
            <= math.pi / 256
            for s in range(100)
        )
        assert hits >= 80

    def test_register_beyond_capacity_fails_before_allocating(self, monkeypatch):
        # a lowered capacity stands in for 25 or more bits, whose tables take gigabytes
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


class TestAccounting:
    def test_bits_for_accuracy(self):
        assert ae_bits_for_accuracy(0.05) == math.ceil(math.log2(math.pi / 0.05)) + 2
        with pytest.raises(ValueError):
            ae_bits_for_accuracy(0.0)

    def test_query_count(self):
        assert ae_query_count(5) == 31
        assert ae_query_count(5, repeats=3) == 93

