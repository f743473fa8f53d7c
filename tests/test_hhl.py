"""Solver states on the extended matrix and the amplitude-estimated norms."""
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qregparam import (
    SpectrumResolutionError,
    apply_A_state,
    build_extended,
    compute_svd,
    estimate_residual_norm,
    estimate_solution_norm,
    hhl_solution_state,
    prepare_b_state,
    residual_state,
    rotation_constant,
    tikhonov_solve,
)
from qregparam import hhl

from conftest import gate_level_qpe, random_problem
from reference import solution_block


def flag_zero_mass(state, flags):
    """Mass of the branch where every qubit in flags reads 0."""
    probs = np.abs(state.amplitudes.ravel()) ** 2
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
        b_tilde = np.zeros(8)
        b_tilde[:2] = b / np.linalg.norm(b)
        st = prepare_b_state(b, 3)
        for j in range(8):
            expect = V[:, j] @ b_tilde
            got = np.vdot(V[:, j], st.amplitudes)
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
        st = hhl_solution_state(ext, np.array([1.0]), 4)
        blk = solution_block(st, ext)
        assert abs(blk[0]) == pytest.approx(rotation_constant(ext) * 1.0, abs=1e-10)
        assert flag_zero_mass(st, [0]) == pytest.approx(
            rotation_constant(ext)**2, abs=1e-10)

    def test_worked_flag_mass_and_block(self, worked_problem):
        ext, b, n_bits = worked_problem
        st = hhl_solution_state(ext, b, n_bits)
        assert flag_zero_mass(st, [0]) == pytest.approx(
            rotation_constant(ext)**2 * 0.64, abs=1e-10)
        blk = solution_block(st, ext)
        x_oracle = tikhonov_solve(ext.svd, b, 0.5).x
        assert np.allclose(blk, rotation_constant(ext) * x_oracle, atol=1e-10)

    def test_singular_vector_input_maps_to_partner(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((2, 2))
        svd = compute_svd(A)
        ext = build_extended(A, 0.3)
        b = svd.U[:, 0].real
        st = hhl_solution_state(ext, b, 6)
        blk = solution_block(st, ext)
        direction = blk / np.linalg.norm(blk)
        overlap = abs(np.vdot(direction, svd.V[:, 0]))
        assert overlap >= 1 - 1e-6

    def test_narrow_register_reports_gap(self):
        ext = build_extended(np.diag([1.0, 0.999]), 0.01)
        with pytest.raises(SpectrumResolutionError, match="gap"):
            hhl_solution_state(ext, np.array([1.0, 0.0]), 3)

    def test_c_tilde_ceiling_enforced(self, worked_problem, monkeypatch):
        ext, b, n_bits = worked_problem
        monkeypatch.setattr(hhl, "rotation_constant", lambda ext: 2.0)
        with pytest.raises(ValueError, match="c_tilde"):
            hhl_solution_state(ext, b, n_bits)


class TestRotationConstant:
    """C~ read off the SVD is the smallest nonzero |eigenvalue| of the dilation."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
           rank_deficient=st.booleans(), real=st.booleans(), zero_mu=st.booleans())
    def test_smallest_nonzero_eigenvalue(self, seed, m, n, rank_deficient, real, zero_mu):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, m, n, rank_deficient=rank_deficient and min(m, n) > 1)
        A = prob.A.real if real else prob.A
        mu = 0.0 if zero_mu else float(rng.uniform(0.2, 1.5))
        ext = build_extended(A, mu)
        sigma = ext.svd.sigma
        if zero_mu:
            # far above the SVD rank cut and the phase cells' zero tolerance
            nonzero = sigma[sigma > 1e-9 * sigma[0]]
            assume(nonzero[-1] >= 1e-2 * sigma[0])
        w = np.abs(np.linalg.eigvalsh(ext.dilation))
        lam_min = w[w > 1e-9 * max(w.max(), 1.0)].min()
        assert rotation_constant(ext) == pytest.approx(lam_min, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="A is the zero matrix"):
            rotation_constant(build_extended(np.zeros((3, 2)), 0.5))


class TestPhaseCells:
    """The snapped-cell rules on hand-built spectra."""

    def test_degenerate_spectrum_shares_one_cell(self):
        ext = build_extended(np.eye(3), 0.5)
        Hd = ext.dilation
        t = math.pi / (2 * math.sqrt(ext.svd.sigma_max**2 + 0.25))
        (_, phases), lam = hhl._phase_cells(Hd, t, 4)
        w = np.linalg.eigvalsh(Hd)
        top = math.sqrt(1.25)
        # +-sqrt(1 + mu^2), three times each, own one cell per sign
        assert np.count_nonzero(lam) == 2
        assert np.allclose(np.sort(lam[lam != 0]), [-top, top], atol=1e-12)
        for sign in (-1, 1):
            cell = phases[np.abs(w - sign * top) < 1e-9]
            assert cell.size == 3 and np.all(cell == cell[0]) and cell[0] != 0
        b = np.array([1.0, -2.0, 0.5])
        blk = solution_block(hhl_solution_state(ext, b, 4), ext)
        assert np.allclose(blk, rotation_constant(ext) * 0.8 * b / np.linalg.norm(b),
                           atol=1e-12)

    def test_zero_eigenvalues_get_phase_zero(self):
        ext = build_extended(np.eye(3), 0.5)
        Hd = ext.dilation
        (_, phases), lam = hhl._phase_cells(Hd, math.pi / (2 * math.sqrt(1.25)), 4)
        zero = np.abs(np.linalg.eigvalsh(Hd)) < 1e-12
        assert np.count_nonzero(zero) == Hd.shape[0] - 6
        assert np.all(phases[zero] == 0.0) and np.all(phases[~zero] != 0.0)
        assert lam[0] == 0.0

    def test_small_sigma_in_cell_zero_reports_gap(self):
        # the solver separates sqrt(sigma^2 + mu^2); the A x stage's +-1e-4
        # rounds into cell 0
        ext = build_extended(np.diag([1.0, 1e-4]), 0.5)
        solution = hhl_solution_state(ext, np.array([1.0, 1.0]), 6)
        with pytest.raises(SpectrumResolutionError, match="gap"):
            apply_A_state(solution, ext)
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

        def states():
            sol = hhl_solution_state(ext, b, n_bits)
            ax = apply_A_state(sol, ext)
            return sol, ax, residual_state(ax, ext, b)

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
        # the later stages leave the solver state they were handed as built
        assert np.array_equal(hhl_solution_state(ext, b, n_bits).amplitudes, got[0].amplitudes)


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
        oracle = tikhonov_solve(ext.svd, b, mu)
        b_norm = np.linalg.norm(b)
        c_tilde = rotation_constant(ext)
        t = min(1.0, c_tilde / ext.svd.sigma_max)
        cases = ((estimate_solution_norm, oracle.solution_norm, c_tilde,
                  lambda: hhl_solution_state(ext, b, n_bits)),
                 (estimate_residual_norm, oracle.residual_norm, t / 2,
                  lambda: residual_of(ext, b, n_bits)))
        for estimator, norm, scale, state in cases:
            try:
                got = estimator(state(), ext, b, 0.05, np.random.default_rng(0))
            except SpectrumResolutionError:  # the register cannot resolve A
                continue
            assert math.cos(got.theta) == pytest.approx(scale * norm / b_norm, abs=1e-10)
            # the norm is the one the sampled angle encodes
            assert got.norm == pytest.approx(math.cos(got.theta_tilde) / scale * b_norm,
                                             abs=1e-10 * b_norm / scale)


class TestApplyAState:
    def test_identity_system_returns_b(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        st = apply_A_state(hhl_solution_state(ext, np.array([1.0]), 4), ext)
        n, k = 4, st.num_qubits - 4 - 2
        good = st.amplitudes.reshape(2, 2, 2**n, 2**k)[0, 0, 0, :]
        C = rotation_constant(ext) / ext.svd.sigma_max
        assert abs(good[0]) == pytest.approx(C, abs=1e-10)

    def test_worked_good_branch(self, worked_problem):
        ext, b, n = worked_problem
        st = apply_A_state(hhl_solution_state(ext, b, n), ext)
        k = st.num_qubits - n - 2
        good = st.amplitudes.reshape(2, 2, 2**n, 2**k)[0, 0, 0, :]
        C = rotation_constant(ext) / ext.svd.sigma_max
        x = tikhonov_solve(ext.svd, b, 0.5).x
        expect = np.zeros(2**k, dtype=complex)
        expect[:2] = C * (ext.A @ x)
        assert np.allclose(good, expect, atol=1e-10)

    def test_null_direction_gives_zero(self):
        # b orthogonal to range(A): x_mu = 0 and the good branch vanishes
        A = np.array([[1.0], [0.0]])
        ext = build_extended(A, 0.4)
        st = apply_A_state(hhl_solution_state(ext, np.array([0.0, 1.0]), 5), ext)
        n, k = 5, st.num_qubits - 5 - 2
        good = st.amplitudes.reshape(2, 2, 2**n, 2**k)[0, 0, 0, :]
        assert np.linalg.norm(good) < 1e-10


class TestStageCheck:
    """Each stage refuses a state built for another stage, naming itself and the shape."""

    @pytest.fixture
    def chain(self, worked_problem):
        # 2x2 A: the dilation is 8 x 8 (k = 3); 5 phase bits
        ext, b, n_bits = worked_problem
        sol = hhl_solution_state(ext, b, n_bits)
        ax = apply_A_state(sol, ext)
        return ext, b, sol, ax, residual_state(ax, ext, b)

    @staticmethod
    def refused(stage, shape):
        return pytest.raises(ValueError, match=f"^{stage} expects .*{re.escape(str(shape))}$")

    def test_solver_state_to_residual_state(self, chain):
        ext, b, sol, _, _ = chain
        with self.refused("residual_state", (2, 32, 8)):
            residual_state(sol, ext, b)

    def test_ax_state_to_apply_A_state(self, chain):
        ext, _, _, ax, _ = chain
        with self.refused("apply_A_state", (4, 32, 8)):
            apply_A_state(ax, ext)

    def test_residual_state_to_estimate_solution_norm(self, chain):
        ext, b, _, _, res = chain
        with self.refused("estimate_solution_norm", (16, 32, 8)):
            estimate_solution_norm(res, ext, b, 0.05, np.random.default_rng(0))

    def test_solver_state_to_estimate_residual_norm(self, chain):
        ext, b, sol, _, _ = chain
        with self.refused("estimate_residual_norm", (2, 32, 8)):
            estimate_residual_norm(sol, ext, b, 0.05, np.random.default_rng(0))

    def test_state_on_another_system_width(self, chain):
        # the solver state of a 2x2 A (8 system amplitudes) against a 4x4 A's
        # 16-row dilation: the message names the stage and both widths
        _, _, sol, _, _ = chain
        other = build_extended(np.diag([1.0, 0.8, 0.6, 0.4]), 0.5)
        with pytest.raises(ValueError, match=r"^apply_A_state expects the \(2\^1, 2\^n, 16\) "
                                             r"amplitudes .*, got shape \(2, 32, 8\)$"):
            apply_A_state(sol, other)


def residual_of(ext, b, n_bits):
    """The residual state at the end of the chain solver -> A x -> residual."""
    ax = apply_A_state(hhl_solution_state(ext, b, n_bits), ext)
    return residual_state(ax, ext, b)


class TestResidualState:
    def test_identity_residual_vanishes(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        st = residual_of(ext, np.array([1.0]), 4)
        assert flag_zero_mass(st, range(4)) < 1e-12

    def test_worked_component_norm(self, worked_problem):
        ext, b, n_bits = worked_problem
        st = residual_of(ext, b, n_bits)
        C = rotation_constant(ext) / ext.svd.sigma_max
        t = min(1.0, C)
        assert math.sqrt(flag_zero_mass(st, range(4))) == pytest.approx(
            (t / 2) * 0.2, abs=1e-10)

    def test_orthogonal_b_full_residual(self):
        A = np.array([[1.0], [0.0]])
        ext = build_extended(A, 0.4)
        st = residual_of(ext, np.array([0.0, 1.0]), 5)
        C = rotation_constant(ext) / ext.svd.sigma_max
        t = min(1.0, C)
        assert math.sqrt(flag_zero_mass(st, range(4))) == pytest.approx(
            t / 2, abs=1e-10)

    def test_state_normalized(self, worked_problem):
        ext, b, n_bits = worked_problem
        st = residual_of(ext, b, n_bits)
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-10)


def solution_norm(ext, b, n_bits, *args, **kwargs):
    """estimate_solution_norm on a freshly built solver state."""
    return estimate_solution_norm(hhl_solution_state(ext, b, n_bits), ext, b,
                                  *args, **kwargs)


def residual_norm(ext, b, n_bits, *args, **kwargs):
    """estimate_residual_norm on a freshly built residual state."""
    return estimate_residual_norm(residual_of(ext, b, n_bits), ext, b, *args, **kwargs)


def both_norms(ext, b, n_bits, epsilon, rng, repeats=1):
    """The L-curve pipeline's per-mu step: the solver state, then the residual state."""
    state = hhl_solution_state(ext, b, n_bits)
    sol = estimate_solution_norm(state, ext, b, epsilon, rng, repeats)
    state = residual_state(apply_A_state(state, ext), ext, b)
    res = estimate_residual_norm(state, ext, b, epsilon, rng, repeats)
    return sol.norm, res.norm, sol.queries + res.queries


class TestNormEstimators:
    def test_identity_solution_norm(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        got = solution_norm(ext, np.array([1.0]), 4, 0.05,
                            np.random.default_rng(0)).norm
        assert got == pytest.approx(1.0, abs=0.05)

    def test_worked_solution_norm(self, worked_problem):
        ext, b, n_bits = worked_problem
        got = solution_norm(ext, b, n_bits, 0.05, np.random.default_rng(1),
                            repeats=5).norm
        assert got == pytest.approx(0.8, abs=0.05)

    def test_large_mu_crushes_solution(self):
        ext = build_extended(np.array([[1.0]]), 1000.0)
        got = solution_norm(ext, np.array([1.0]), 5, 0.05,
                            np.random.default_rng(2)).norm
        assert got <= 0.05

    def test_identity_residual_norm(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        got = residual_norm(ext, np.array([1.0]), 4, 0.05,
                            np.random.default_rng(3)).norm
        assert got == pytest.approx(0.0, abs=0.05)

    def test_worked_residual_norm(self, worked_problem):
        ext, b, n_bits = worked_problem
        got = residual_norm(ext, b, n_bits, 0.05, np.random.default_rng(4),
                            repeats=5).norm
        assert got == pytest.approx(0.2, abs=0.05)

    def test_huge_mu_residual_is_b_norm(self):
        ext = build_extended(np.array([[1.0]]), 1000.0)
        b = np.array([5.0])
        got = residual_norm(ext, b, 5, 0.05, np.random.default_rng(5)).norm
        assert got == pytest.approx(5.0, abs=0.05 * 5.0)

    def test_combined_accounting(self, worked_problem):
        ext, b, n_bits = worked_problem
        sol, res, queries = both_norms(ext, b, n_bits, 0.05, np.random.default_rng(6))
        assert queries > 0
        assert res <= np.linalg.norm(b) + sol * ext.svd.sigma_max

    def test_nonpositive_epsilon_rejected(self, worked_problem):
        ext, b, n_bits = worked_problem
        with pytest.raises(ValueError):
            solution_norm(ext, b, n_bits, 0.0, np.random.default_rng(0))

    def test_random_problems_within_epsilon(self):
        rng = np.random.default_rng(10)
        hits = total = 0
        for s in range(30):
            prob = random_problem(np.random.default_rng(100 + s), 3, 2)
            prob.A = prob.A.real
            prob.b = prob.b.real
            mu = float(rng.uniform(0.2, 0.8))
            ext = build_extended(prob.A, mu)
            oracle = tikhonov_solve(ext.svd, prob.b, mu)
            b_norm = np.linalg.norm(prob.b)
            eps = 0.05
            sol = solution_norm(ext, prob.b, 6, eps, np.random.default_rng(s)).norm
            res = residual_norm(ext, prob.b, 6, eps, np.random.default_rng(s)).norm
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
            sol, res, _ = both_norms(ext, prob.b, 6, eps, np.random.default_rng(7),
                                     repeats=3)
            sols.append(sol)
            ress.append(res)
        slack = 2 * eps * np.linalg.norm(prob.b)
        assert np.all(np.diff(sols) <= slack)
        assert np.all(np.diff(ress) >= -slack)
