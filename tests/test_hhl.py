"""Solver states on the extended matrix and the amplitude-estimated norms."""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregparam import (
    HhlConfig,
    SpectrumResolutionError,
    apply_A_state,
    build_extended,
    compute_svd,
    estimate_norms,
    estimate_residual_norm,
    estimate_solution_norm,
    hhl_solution_state,
    prepare_b_state,
    residual_state,
    tikhonov_solve,
)
from qregparam import hhl

from conftest import gate_level_qpe, random_problem
from reference import solution_block


def flag_zero_mass(state, flags):
    """Mass of the branch where every qubit in flags reads 0."""
    probs = np.abs(state.amplitudes) ** 2
    idx = np.arange(probs.size)
    mask = np.ones(probs.size, dtype=bool)
    for f in flags:
        mask &= (idx >> (state.num_qubits - 1 - f)) & 1 == 0
    return float(probs[mask].sum())


class TestPrepareBState:
    def test_basis_vector(self):
        st = prepare_b_state(np.array([1.0, 0.0]), 2)
        assert np.allclose(st.amplitudes, [1, 0, 0, 0])

    def test_uniform_pair(self):
        st = prepare_b_state(np.array([1.0, 1.0]), 2)
        assert np.allclose(st.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])

    def test_overlaps_match_svd_projections(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2))
        b = rng.standard_normal(2)
        ext = build_extended(A, 0.4)
        w, V = np.linalg.eigh(ext.dilation)
        b_tilde = np.zeros(6)
        b_tilde[:2] = b / np.linalg.norm(b)
        st = prepare_b_state(b, 3)
        for j in range(6):
            expect = V[:, j] @ b_tilde
            got = np.vdot(np.concatenate([V[:, j], [0, 0]]), st.amplitudes)
            assert abs(got - expect) < 1e-12

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            prepare_b_state(np.zeros(2), 2)

    def test_width_too_small(self):
        with pytest.raises(ValueError):
            prepare_b_state(np.ones(5), 2)


class TestSolutionState:
    def test_identity_system(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=4)
        st = hhl_solution_state(ext, np.array([1.0]), cfg)
        blk = solution_block(st, ext, cfg)
        assert abs(blk[0]) == pytest.approx(cfg.c_tilde * 1.0, abs=1e-10)
        assert flag_zero_mass(st, [st.num_qubits - 1]) == pytest.approx(
            cfg.c_tilde**2, abs=1e-10)

    def test_worked_flag_mass_and_block(self, worked_problem):
        ext, b, cfg = worked_problem
        st = hhl_solution_state(ext, b, cfg)
        assert flag_zero_mass(st, [st.num_qubits - 1]) == pytest.approx(
            cfg.c_tilde**2 * 0.64, abs=1e-10)
        blk = solution_block(st, ext, cfg)
        x_oracle = tikhonov_solve(ext.svd, b, 0.5).x
        assert np.allclose(blk, cfg.c_tilde * x_oracle, atol=1e-10)

    def test_singular_vector_input_maps_to_partner(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((2, 2))
        svd = compute_svd(A)
        ext = build_extended(A, 0.3)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=6)
        b = svd.U[:, 0].real
        st = hhl_solution_state(ext, b, cfg)
        blk = solution_block(st, ext, cfg)
        direction = blk / np.linalg.norm(blk)
        overlap = abs(np.vdot(direction, svd.V[:, 0]))
        assert overlap >= 1 - 1e-6

    def test_narrow_register_reports_gap(self):
        ext = build_extended(np.diag([1.0, 0.999]), 0.01)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=3)
        with pytest.raises(SpectrumResolutionError, match="gap"):
            hhl_solution_state(ext, np.array([1.0, 0.0]), cfg)

    def test_c_tilde_ceiling_enforced(self, worked_problem):
        ext, b, _ = worked_problem
        cfg = dataclasses.replace(HhlConfig.for_extended(ext, n_phase_bits=5), c_tilde=2.0)
        with pytest.raises(ValueError, match="c_tilde"):
            hhl_solution_state(ext, b, cfg)


class TestPhaseCells:
    """The snapped-cell rules on hand-built spectra."""

    def test_degenerate_spectrum_shares_one_cell(self):
        ext = build_extended(np.eye(3), 0.5)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=4)
        Hd, _ = hhl._padded(ext.dilation)
        (_, phases), lam = hhl._phase_cells(Hd, cfg.t_evolution, 4)
        w = np.linalg.eigvalsh(Hd)
        top = math.sqrt(1.25)
        # +-sqrt(1 + mu^2), three times each, own one cell per sign
        assert np.count_nonzero(lam) == 2
        assert np.allclose(np.sort(lam[lam != 0]), [-top, top], atol=1e-12)
        for sign in (-1, 1):
            cell = phases[np.abs(w - sign * top) < 1e-9]
            assert cell.size == 3 and np.all(cell == cell[0]) and cell[0] != 0
        b = np.array([1.0, -2.0, 0.5])
        blk = solution_block(hhl_solution_state(ext, b, cfg), ext, cfg)
        assert np.allclose(blk, cfg.c_tilde * 0.8 * b / np.linalg.norm(b), atol=1e-12)

    def test_zero_eigenvalues_get_phase_zero(self):
        ext = build_extended(np.eye(3), 0.5)
        Hd, _ = hhl._padded(ext.dilation)
        (_, phases), lam = hhl._phase_cells(Hd, math.pi / (2 * math.sqrt(1.25)), 4)
        zero = np.abs(np.linalg.eigvalsh(Hd)) < 1e-12
        assert np.count_nonzero(zero) == Hd.shape[0] - 6
        assert np.all(phases[zero] == 0.0) and np.all(phases[~zero] != 0.0)
        assert lam[0] == 0.0

    def test_small_sigma_in_cell_zero_reports_gap(self):
        # the solver separates sqrt(sigma^2 + mu^2); the A x stage's +-1e-4
        # rounds into cell 0
        ext = build_extended(np.diag([1.0, 1e-4]), 0.5)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=6)
        b = np.array([1.0, 1.0])
        solution = hhl_solution_state(ext, b, cfg)
        with pytest.raises(SpectrumResolutionError, match="gap"):
            apply_A_state(ext, b, cfg, solution)
        # a dilation's +-sigma pair also collides; a lone eigenvalue in cell 0
        # is refused as well
        with pytest.raises(SpectrumResolutionError, match="gap"):
            hhl._phase_cells(np.diag([1.0, 1e-4]), math.pi / 2, 6)


class TestGateLevelReference:
    """The states built with the eigenbasis QPE equal the gate-level circuit's."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
           rank_deficient=st.booleans(), real=st.booleans(), n_bits=st.integers(1, 8))
    def test_states_match(self, seed, m, n, rank_deficient, real, n_bits):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, m, n, rank_deficient=rank_deficient and min(m, n) > 1)
        A, b = (prob.A.real, prob.b.real) if real else (prob.A, prob.b)
        ext = build_extended(A, float(rng.uniform(0.2, 1.5)))
        cfg = HhlConfig.for_extended(ext, n_phase_bits=n_bits)

        def states():
            sol = hhl_solution_state(ext, b, cfg)
            return (sol, apply_A_state(ext, b, cfg, sol),
                    residual_state(ext, b, cfg, sol))

        gate_level = (
            mock.patch.object(hhl, "qpe_forward",
                              lambda *args: gate_level_qpe(*args, inverse=False)),
            mock.patch.object(hhl, "qpe_inverse",
                              lambda *args: gate_level_qpe(*args, inverse=True)),
        )
        try:
            got = states()
        except (SpectrumResolutionError, ValueError) as exc:
            with gate_level[0], gate_level[1], pytest.raises(type(exc)):
                states()
            return
        with gate_level[0], gate_level[1]:
            ref = states()
        for g, r in zip(got, ref):
            assert np.max(np.abs(g.amplitudes - r.amplitudes)) <= 1e-11
        assert np.array_equal(residual_state(ext, b, cfg).amplitudes, got[2].amplitudes)


class TestAngleContract:
    """The angle each estimator hands to amplitude estimation, against the oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
           rank_deficient=st.booleans(), real=st.booleans(), n_bits=st.integers(3, 8))
    def test_cos_angle_is_the_scaled_norm(self, seed, m, n, rank_deficient, real, n_bits):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, m, n, rank_deficient=rank_deficient and min(m, n) > 1)
        A, b = (prob.A.real, prob.b.real) if real else (prob.A, prob.b)
        mu = float(rng.uniform(0.2, 1.5))
        ext = build_extended(A, mu)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=n_bits)
        oracle = tikhonov_solve(ext.svd, b, mu)
        b_norm = np.linalg.norm(b)
        t = min(1.0, cfg.c_tilde / cfg.sigma_max)
        cases = ((estimate_solution_norm, oracle.solution_norm, cfg.c_tilde),
                 (estimate_residual_norm, oracle.residual_norm, t / 2))
        for estimator, norm, scale in cases:
            angles = []
            # an exact readout: estimate_theta returns the angle it is given
            with mock.patch.object(hhl, "estimate_theta",
                                   lambda theta, *_, **__: angles.append(theta) or theta):
                try:
                    got, _ = estimator(ext, b, cfg, 0.05, np.random.default_rng(0))
                except SpectrumResolutionError:  # the register cannot resolve A
                    continue
            assert math.cos(angles[0]) == pytest.approx(scale * norm / b_norm, abs=1e-10)
            assert got == pytest.approx(norm, abs=1e-10 * b_norm / scale)


class TestApplyAState:
    def test_identity_system_returns_b(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=4)
        st = apply_A_state(ext, np.array([1.0]), cfg)
        n, k = cfg.n_phase_bits, st.num_qubits - cfg.n_phase_bits - 2
        good = st.amplitudes.reshape(2**n, 2**k, 2, 2)[0, :, 0, 0]
        C = cfg.c_tilde / cfg.sigma_max
        assert abs(good[0]) == pytest.approx(C, abs=1e-10)

    def test_worked_good_branch(self, worked_problem):
        ext, b, cfg = worked_problem
        st = apply_A_state(ext, b, cfg)
        n, k = cfg.n_phase_bits, st.num_qubits - cfg.n_phase_bits - 2
        good = st.amplitudes.reshape(2**n, 2**k, 2, 2)[0, :, 0, 0]
        C = cfg.c_tilde / cfg.sigma_max
        x = tikhonov_solve(ext.svd, b, 0.5).x
        expect = np.zeros(2**k, dtype=complex)
        expect[:2] = C * (ext.A @ x)
        assert np.allclose(good, expect, atol=1e-10)

    def test_null_direction_gives_zero(self):
        # b orthogonal to range(A): x_mu = 0 and the good branch vanishes
        A = np.array([[1.0], [0.0]])
        ext = build_extended(A, 0.4)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=5)
        st = apply_A_state(ext, np.array([0.0, 1.0]), cfg)
        n, k = cfg.n_phase_bits, st.num_qubits - cfg.n_phase_bits - 2
        good = st.amplitudes.reshape(2**n, 2**k, 2, 2)[0, :, 0, 0]
        assert np.linalg.norm(good) < 1e-10


class TestResidualState:
    def test_identity_residual_vanishes(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=4)
        st = residual_state(ext, np.array([1.0]), cfg)
        assert flag_zero_mass(st, range(4)) < 1e-12

    def test_worked_component_norm(self, worked_problem):
        ext, b, cfg = worked_problem
        st = residual_state(ext, b, cfg)
        C = cfg.c_tilde / cfg.sigma_max
        t = min(1.0, C)
        assert math.sqrt(flag_zero_mass(st, range(4))) == pytest.approx(
            (t / 2) * 0.2, abs=1e-10)

    def test_orthogonal_b_full_residual(self):
        A = np.array([[1.0], [0.0]])
        ext = build_extended(A, 0.4)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=5)
        st = residual_state(ext, np.array([0.0, 1.0]), cfg)
        C = cfg.c_tilde / cfg.sigma_max
        t = min(1.0, C)
        assert math.sqrt(flag_zero_mass(st, range(4))) == pytest.approx(
            t / 2, abs=1e-10)

    def test_state_normalized(self, worked_problem):
        ext, b, cfg = worked_problem
        st = residual_state(ext, b, cfg)
        assert st.norm == pytest.approx(1.0, abs=1e-10)


class TestNormEstimators:
    def test_identity_solution_norm(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=4)
        got, _ = estimate_solution_norm(ext, np.array([1.0]), cfg, 0.05,
                                        np.random.default_rng(0))
        assert got == pytest.approx(1.0, abs=0.05)

    def test_worked_solution_norm(self, worked_problem):
        ext, b, cfg = worked_problem
        got, _ = estimate_solution_norm(ext, b, cfg, 0.05, np.random.default_rng(1),
                                        repeats=5)
        assert got == pytest.approx(0.8, abs=0.05)

    def test_large_mu_crushes_solution(self):
        ext = build_extended(np.array([[1.0]]), 1000.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=5)
        got, _ = estimate_solution_norm(ext, np.array([1.0]), cfg, 0.05,
                                        np.random.default_rng(2))
        assert got <= 0.05

    def test_identity_residual_norm(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=4)
        got, _ = estimate_residual_norm(ext, np.array([1.0]), cfg, 0.05,
                                        np.random.default_rng(3))
        assert got == pytest.approx(0.0, abs=0.05)

    def test_worked_residual_norm(self, worked_problem):
        ext, b, cfg = worked_problem
        got, _ = estimate_residual_norm(ext, b, cfg, 0.05, np.random.default_rng(4),
                                        repeats=5)
        assert got == pytest.approx(0.2, abs=0.05)

    def test_huge_mu_residual_is_b_norm(self):
        ext = build_extended(np.array([[1.0]]), 1000.0)
        cfg = HhlConfig.for_extended(ext, n_phase_bits=5)
        b = np.array([5.0])
        got, _ = estimate_residual_norm(ext, b, cfg, 0.05, np.random.default_rng(5))
        assert got == pytest.approx(5.0, abs=0.05 * 5.0)

    def test_combined_accounting(self, worked_problem):
        ext, b, cfg = worked_problem
        est = estimate_norms(ext, b, cfg, 0.05, np.random.default_rng(6))
        assert est.queries_used > 0
        assert est.residual_norm <= np.linalg.norm(b) + est.solution_norm * cfg.sigma_max

    def test_nonpositive_epsilon_rejected(self, worked_problem):
        ext, b, cfg = worked_problem
        with pytest.raises(ValueError):
            estimate_solution_norm(ext, b, cfg, 0.0, np.random.default_rng(0))

    def test_random_problems_within_epsilon(self):
        rng = np.random.default_rng(10)
        hits = total = 0
        for s in range(30):
            prob = random_problem(np.random.default_rng(100 + s), 3, 2)
            prob.A = prob.A.real
            prob.b = prob.b.real
            mu = float(rng.uniform(0.2, 0.8))
            ext = build_extended(prob.A, mu)
            cfg = HhlConfig.for_extended(ext, n_phase_bits=6)
            oracle = tikhonov_solve(ext.svd, prob.b, mu)
            b_norm = np.linalg.norm(prob.b)
            eps = 0.05
            sol, _ = estimate_solution_norm(ext, prob.b, cfg, eps,
                                            np.random.default_rng(s))
            res, _ = estimate_residual_norm(ext, prob.b, cfg, eps,
                                            np.random.default_rng(s))
            hits += abs(sol - oracle.solution_norm) <= eps * b_norm
            hits += abs(res - oracle.residual_norm) <= eps * b_norm
            total += 2
        assert hits / total >= 0.8

    def test_monotone_consistency(self):
        prob = random_problem(np.random.default_rng(42), 3, 2)
        prob.A, prob.b = prob.A.real, prob.b.real
        eps = 0.02
        sols, ress = [], []
        for mu in (0.2, 0.4, 0.8, 1.6):
            ext = build_extended(prob.A, mu)
            cfg = HhlConfig.for_extended(ext, n_phase_bits=6)
            est = estimate_norms(ext, prob.b, cfg, eps, np.random.default_rng(7),
                                 repeats=3)
            sols.append(est.solution_norm)
            ress.append(est.residual_norm)
        slack = 2 * eps * np.linalg.norm(prob.b)
        assert np.all(np.diff(sols) <= slack)
        assert np.all(np.diff(ress) >= -slack)
