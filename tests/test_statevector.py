"""Statevector simulator: gates, QFT, phase estimation, evolution, measurement."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregparam import build_extended
from qregparam.statevector import (
    CapacityError,
    H,
    StateVector,
    UnitaryOp,
    _apply_qft_fast,
    apply,
    controlled,
    phase_estimation,
    qpe_forward,
    qpe_inverse,
)

from conftest import gate_level_qpe, random_problem
from reference import (
    I2,
    X,
    Z,
    basis_state,
    float_phase_qpe,
    hamiltonian_evolution,
    measure,
    qft,
    register_distribution,
)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return UnitaryOp(np.array([[c, -s], [s, c]], dtype=complex))


class TestApply:
    def test_pauli_x(self):
        out = apply(basis_state(1, 0), X, [0])
        assert np.allclose(out.amplitudes, [0, 1])

    def test_pauli_z_phase(self):
        out = apply(basis_state(1, 1), Z, [0])
        assert np.allclose(out.amplitudes, [0, -1])

    def test_hadamard(self):
        out = apply(basis_state(1, 0), H, [0])
        assert np.allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_target_addressing(self):
        # X on qubit 1 of |00> flips the least significant bit
        out = apply(basis_state(2, 0), X, [1])
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_errors(self):
        with pytest.raises(ValueError):
            apply(basis_state(2, 0), X, [0, 1])
        with pytest.raises(ValueError):
            apply(basis_state(2, 0), X, [5])
        with pytest.raises(ValueError):
            apply(basis_state(2, 0), controlled(X), [0, 0])


class TestUnitaryOp:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOp(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            UnitaryOp(np.eye(3, dtype=complex))


class TestControlled:
    def test_cnot(self):
        cx = controlled(X).matrix
        expect = np.eye(4)[[0, 1, 3, 2]]
        assert np.allclose(cx, expect)

    def test_power_zero_is_identity(self):
        c = controlled(rotation(0.7), power=0)
        assert np.allclose(c.matrix, np.eye(4))

    def test_power_doubles_rotation(self):
        c = controlled(rotation(0.7), power=2)
        assert np.allclose(c.matrix[2:, 2:], rotation(1.4).matrix)


class TestQft:
    def test_one_qubit_is_hadamard(self):
        assert np.allclose(qft(1).matrix, H.matrix)

    def test_inverse_pair(self):
        F, Fi = qft(3), qft(3, inverse=True)
        assert np.allclose(F.matrix @ Fi.matrix, np.eye(8), atol=1e-10)

    def test_uniform_superposition(self):
        out = apply(basis_state(2, 0), qft(2), [0, 1])
        assert np.allclose(out.amplitudes, 0.5)

    def test_fast_path_matches_dense(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(2**6) + 1j * rng.standard_normal(2**6)
        st = StateVector(a / np.linalg.norm(a))
        for inverse in (False, True):
            dense = apply(st, qft(4, inverse=inverse), [1, 3, 4, 0])
            fast = _apply_qft_fast(st, [1, 3, 4, 0], inverse)
            assert np.allclose(dense.amplitudes, fast.amplitudes, atol=1e-12)


class TestHamiltonianEvolution:
    def test_pauli_x_half_turn(self):
        U = hamiltonian_evolution(X.matrix, math.pi)
        assert np.allclose(U.matrix, -np.eye(2), atol=1e-12)

    def test_zero_hamiltonian(self):
        U = hamiltonian_evolution(np.zeros((2, 2)), 3.7)
        assert np.allclose(U.matrix, np.eye(2))

    def test_dilation_eigenphases(self):
        # dilation of the 1x1 matrix (1) has eigenvalues +-1; at t = pi/2 the
        # corresponding eigenphases are -+ pi/2
        D = np.array([[0, 1], [1, 0]], dtype=complex)
        U = hamiltonian_evolution(D, math.pi / 2)
        w, V = np.linalg.eigh(D)
        applied = U.matrix @ V
        assert np.allclose(applied[:, 0], np.exp(1j * math.pi / 2) * V[:, 0])
        assert np.allclose(applied[:, 1], np.exp(-1j * math.pi / 2) * V[:, 1])

    def test_inverse_property(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        Hm = M + M.T
        prod = hamiltonian_evolution(Hm, 0.9).matrix @ hamiltonian_evolution(Hm, -0.9).matrix
        assert np.allclose(prod, np.eye(4), atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_evolution(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestPhaseEstimation:
    def test_pauli_z_phase_half(self):
        out = phase_estimation(Z, basis_state(1, 1), 3)
        probs = np.abs(out.amplitudes) ** 2
        assert probs[0b100 * 2 + 1] == pytest.approx(1.0, abs=1e-12)

    def test_identity_reads_zero(self):
        out = phase_estimation(I2, basis_state(1, 1), 2)
        assert np.abs(out.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_grover_style_rotation_dyadic(self):
        theta = math.pi * 13 / 2**6
        G = rotation(2 * theta)
        w, V = np.linalg.eig(G.matrix)
        # pick the eigenvector with eigenvalue e^{+2 pi i 13/64}
        idx = int(np.argmin(np.abs(w - np.exp(2j * math.pi * 13 / 64))))
        vec = StateVector(V[:, idx])
        out = phase_estimation(G, vec, 6)
        dist = register_distribution(out, list(range(6)))
        assert dist[13] == pytest.approx(1.0, abs=1e-10)

    def test_dyadic_exactness_all_phases(self):
        for n in range(1, 6):
            for y in range(2**n):
                U = UnitaryOp(np.diag([1.0, np.exp(2j * math.pi * y / 2**n)]))
                out = phase_estimation(U, basis_state(1, 1), n)
                assert np.abs(out.amplitudes[2 * y + 1]) ** 2 == pytest.approx(
                    1.0, abs=1e-10)

    def test_nondyadic_error_bound(self):
        rng = np.random.default_rng(12)
        n = 6
        for _ in range(20):
            phi = float(rng.uniform(0, 1))
            U = UnitaryOp(np.diag([1.0, np.exp(2j * math.pi * phi)]))
            out = phase_estimation(U, basis_state(1, 1), n)
            dist = register_distribution(out, list(range(n)))
            y = int(np.argmax(dist))
            err = min(abs(phi - y / 2**n), 1 - abs(phi - y / 2**n))
            assert err <= 2**-n
            assert dist[y] >= 4 / math.pi**2 - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phase_estimation(qft(2), basis_state(1, 0), 2)


class TestEigenbasisQpe:
    """qpe_forward/qpe_inverse against the gate-level ladder on dilation spectra."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
           rank_deficient=st.booleans(), real=st.booleans(),
           n_bits=st.integers(1, 8), rest=st.integers(0, 2))
    def test_matches_gate_ladder(self, seed, m, n, rank_deficient, real, n_bits, rest):
        state, eig = self.case(seed, m, n, rank_deficient, real, n_bits, rest)
        for inverse, kernel in ((False, qpe_forward), (True, qpe_inverse)):
            got = kernel(state, eig).amplitudes
            ref = gate_level_qpe(state, eig, inverse).amplitudes
            assert np.max(np.abs(got - ref)) <= 1e-11
        back = qpe_inverse(qpe_forward(state, eig), eig)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
           rank_deficient=st.booleans(), real=st.booleans(),
           n_bits=st.integers(1, 8), rest=st.integers(0, 2))
    def test_bit_identical_to_float_phases(self, seed, m, n, rank_deficient, real,
                                           n_bits, rest):
        # the roots-of-unity table gives the same bits as one complex exp per
        # amplitude of the phases cells / 2^n, signed zeros included
        state, (V, cells) = self.case(seed, m, n, rank_deficient, real, n_bits, rest)
        for inverse, kernel in ((False, qpe_forward), (True, qpe_inverse)):
            got = kernel(state, (V, cells)).amplitudes
            ref = float_phase_qpe(state, (V, cells / 2**n_bits), inverse).amplitudes
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @staticmethod
    def case(seed, m, n, rank_deficient, real, n_bits, rest):
        """A random state and the eig = (V, cells) of a dilation's evolution;
        the cells round -lambda t / 2 pi onto the 2^n grid, negative ones included."""
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, m, n, rank_deficient=rank_deficient and min(m, n) > 1)
        A = prob.A.real if real else prob.A
        mu = float(rng.uniform(0.1, 1.5))
        Hd = build_extended(A, mu).dilation
        k = Hd.shape[0].bit_length() - 1
        w, V = np.linalg.eigh(Hd)
        t = math.pi / (2 * np.max(np.abs(w)))
        cells = np.rint(-w * t / (2 * math.pi) * 2**n_bits).astype(int)
        # the rest qubits lead, then the phase register, then the system
        q = rest + n_bits + k
        amps = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
        amps = amps.reshape(2**rest, 2**n_bits, 2**k)
        return StateVector(amps / np.linalg.norm(amps)), (V, cells)


class TestMeasure:
    def test_deterministic_outcome(self):
        rng = np.random.default_rng(0)
        bits, post = measure(basis_state(1, 1), [0], rng)
        assert bits == (1,)
        assert np.allclose(post.amplitudes, [0, 1])

    def test_uniform_statistics(self):
        rng = np.random.default_rng(123)
        st = apply(basis_state(1, 0), H, [0])
        ones = sum(measure(st, [0], rng)[0][0] for _ in range(10_000))
        assert abs(ones / 10_000 - 0.5) < 0.02

    def test_product_state_untouched(self):
        rng = np.random.default_rng(1)
        v = np.array([0.6, 0.8j])
        st = StateVector(np.kron([1.0, 0.0], v))
        bits, post = measure(st, [0], rng)
        assert bits == (0,)
        assert np.allclose(post.amplitudes[:2], v)

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(2)
        st = apply(apply(basis_state(2, 0), H, [0]), H, [1])
        _, post = measure(st, [0], rng)
        assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestInfrastructure:
    def test_norm_validation(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([np.nan, 0.0]))

    def test_capacity_error(self):
        # 2^25 amplitudes held as a zero-stride view: refused before any copy or norm
        amps = np.broadcast_to(np.zeros(1, dtype=complex), (2**25,))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="25 qubits"):
                StateVector(amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("size", [0, 1, 3, 6, 12])
    def test_size_not_a_power_of_two(self, size):
        amps = np.zeros(size, dtype=complex)
        amps[:1] = 1.0
        with pytest.raises(ValueError, match=f"^{size} amplitudes is not a power of two"):
            StateVector(amps)

    def test_width_is_read_off_the_amplitudes(self):
        st = StateVector(np.full((2, 4, 8), 1 / 8, dtype=complex))
        assert st.num_qubits == 6
        assert [f.name for f in dataclasses.fields(StateVector)] == ["amplitudes"]

    def test_norm_preserved_through_circuits(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        st = StateVector(a / np.linalg.norm(a))
        st = apply(st, qft(2), [0, 2])
        st = apply(st, controlled(rotation(0.4)), [1, 0])
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-10)
