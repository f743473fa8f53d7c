"""Amplitude estimation: Grover operator and angle readout."""
import math

import numpy as np
import pytest

from qregparam.amplitude import (
    AmplitudeEstimate,
    StatePrep,
    ae_bits_for_accuracy,
    ae_query_count,
    estimate_theta,
    estimate_theta_full_circuit,
    fold_register,
    grover_operator,
    qpe_on_grover_distribution,
)


def prep_with_angle(theta, k=2, flag=0):
    """A k-qubit preparation whose flag branch splits cos/sin at the given angle."""
    amps = np.zeros(2**k, dtype=complex)
    amps[0] = math.cos(theta)          # flag qubit 0 reads 0
    amps[2 ** (k - 1)] = math.sin(theta)  # flag qubit 0 reads 1
    return StatePrep.from_state(amps, (flag,))


class TestStatePrep:
    def test_theta_readout(self):
        prep = prep_with_angle(0.4)
        assert prep.theta == pytest.approx(0.4, abs=1e-12)

    def test_good_mask(self):
        prep = prep_with_angle(0.3, k=2)
        assert list(prep.good_mask()) == [True, True, False, False]

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            StatePrep.from_state(np.array([1.0, 1.0]), (0,))


class TestGroverOperator:
    def test_zero_rotation(self):
        prep = prep_with_angle(0.0)
        G = grover_operator(prep)
        assert np.allclose(G.matrix @ prep.state, prep.state, atol=1e-12)

    def test_quarter_rotation(self):
        prep = prep_with_angle(math.pi / 4, k=1)
        G = grover_operator(prep)
        # restricted to the (good, bad) plane the operator is ((0,-1),(1,0))
        assert np.allclose(G.matrix, [[0, -1], [1, 0]], atol=1e-12)

    def test_eigenphases_match_amplitude_readout(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            amps /= np.linalg.norm(amps)
            prep = StatePrep.from_state(amps, (1,))
            G = grover_operator(prep)
            w = np.linalg.eigvals(G.matrix)
            angles = np.sort(np.abs(np.angle(w)))
            assert np.min(np.abs(angles - 2 * prep.theta)) < 1e-8


class TestEstimateTheta:
    def test_full_flag_is_exact(self):
        est = estimate_theta(prep_with_angle(math.pi / 2), 4, np.random.default_rng(0))
        assert est.theta_tilde == pytest.approx(math.pi / 2, abs=1e-12)
        assert est.probability_estimate == pytest.approx(1.0, abs=1e-12)

    def test_zero_flag_is_exact(self):
        est = estimate_theta(prep_with_angle(0.0), 4, np.random.default_rng(0))
        assert est.theta_tilde == 0.0

    def test_nondyadic_success_rate(self):
        theta = math.asin(0.6)
        prep = prep_with_angle(theta)
        hits = sum(
            abs(estimate_theta(prep, 8, np.random.default_rng(s)).theta_tilde - theta)
            <= math.pi / 256
            for s in range(100)
        )
        assert hits >= 80

    def test_folding_invariance(self):
        for n in (3, 5):
            for y in range(2**n):
                assert fold_register(y, n) == fold_register((-y) % 2**n, n)
                assert 0 <= fold_register(y, n) <= math.pi / 2 + 1e-12

    def test_repeats_must_be_odd(self):
        with pytest.raises(ValueError):
            estimate_theta(prep_with_angle(0.3), 4, np.random.default_rng(0), repeats=2)

    def test_median_mode_tightens(self):
        theta = 0.77
        prep = prep_with_angle(theta)
        errs1 = [abs(estimate_theta(prep, 5, np.random.default_rng(s)).theta_tilde - theta)
                 for s in range(200)]
        errs5 = [abs(estimate_theta(prep, 5, np.random.default_rng(s),
                                    repeats=5).theta_tilde - theta)
                 for s in range(200)]
        assert np.mean(errs5) <= np.mean(errs1) + 1e-9

    def test_full_circuit_agrees_with_subspace(self):
        # dyadic angle: both implementations must read the phase exactly
        theta = math.pi * 4 / 2**4  # rotation 2*theta has dyadic phase 4/16
        prep = prep_with_angle(theta, k=2)
        sub = estimate_theta(prep, 4, np.random.default_rng(1))
        full = estimate_theta_full_circuit(prep, 4, np.random.default_rng(1))
        assert sub.theta_tilde == pytest.approx(theta, abs=1e-9)
        assert full.theta_tilde == pytest.approx(theta, abs=1e-9)

    def test_distribution_is_symmetric(self):
        probs = qpe_on_grover_distribution(0.3, 5)
        assert probs[1:][::-1] == pytest.approx(probs[1:], abs=1e-12)


class TestAccounting:
    def test_bits_for_accuracy(self):
        assert ae_bits_for_accuracy(0.05) == math.ceil(math.log2(math.pi / 0.05)) + 2
        with pytest.raises(ValueError):
            ae_bits_for_accuracy(0.0)

    def test_query_count(self):
        assert ae_query_count(5) == 31
        assert ae_query_count(5, repeats=3) == 93

    def test_probability_estimate_field(self):
        est = AmplitudeEstimate(theta_tilde=0.6, n_bits=4, raw_register=3)
        assert est.probability_estimate == pytest.approx(math.sin(0.6) ** 2)

