"""Classical SVD machinery: solves, extended matrices, condition numbers, GCV."""
import dataclasses
import math
import re

import numpy as np
import pytest

from qregparam import (
    MuRangeError,
    build_extended,
    compute_svd,
    condition_number_mu,
    gcv_lowrank,
    gcv_value,
    tikhonov_solve,
    tsvd_solve,
)
from qregparam.linalg import _solve_with_filters

from conftest import random_problem


class TestComputeSvd:
    def test_identity(self):
        svd = compute_svd(np.eye(2))
        assert np.allclose(svd.sigma, [1.0, 1.0])

    def test_diagonal_with_zero(self):
        svd = compute_svd(np.diag([3.0, 0.0]))
        assert np.allclose(svd.sigma, [3.0, 0.0])
        assert svd.numerical_rank == 1

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        svd = compute_svd(A)
        q = svd.sigma.size
        rebuilt = svd.U[:, :q] @ np.diag(svd.sigma) @ svd.V[:, :q].conj().T
        assert np.linalg.norm(rebuilt - A) <= 1e-10 * np.linalg.norm(A)
        assert np.allclose(svd.U.conj().T @ svd.U, np.eye(4), atol=1e-10)
        assert np.allclose(svd.V.conj().T @ svd.V, np.eye(3), atol=1e-10)
        assert np.all(np.diff(svd.sigma) <= 0) and np.all(svd.sigma >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_svd(np.zeros((0, 0)))


class TestTikhonovSolve:
    def test_identity_halving(self):
        sol = tikhonov_solve(compute_svd(np.eye(2)), np.array([1.0, 0.0]), 1.0)
        assert np.allclose(sol.x, [0.5, 0.0])

    def test_mu_zero_plain_inverse(self):
        sol = tikhonov_solve(compute_svd(np.diag([1.0, 0.5])), np.array([1.0, 1.0]), 0.0)
        assert np.allclose(sol.x, [1.0, 2.0])

    def test_term_by_term_summation(self):
        # independent evaluation of x = sum f_i (u_i^dag b / s_i) v_i
        A = np.diag([1.0, 0.5, 0.1, 0.01])
        b = np.ones(4)
        mu = 0.1
        svd = compute_svd(A)
        x_expect = np.zeros(4, dtype=complex)
        for i in range(4):
            s = svd.sigma[i]
            f = s**2 / (s**2 + mu**2)
            x_expect += f * (svd.U[:, i].conj() @ b) / s * svd.V[:, i]
        sol = tikhonov_solve(svd, b, mu)
        assert np.allclose(sol.x, x_expect, atol=1e-12)
        assert sol.solution_norm == pytest.approx(np.linalg.norm(x_expect), rel=1e-12)
        assert sol.residual_norm == pytest.approx(np.linalg.norm(A @ sol.x - b), rel=1e-10)

    def test_mu_zero_singular_pseudoinverse(self):
        sol = tikhonov_solve(compute_svd(np.diag([1.0, 0.0])), np.array([1.0, 1.0]), 0.0)
        assert np.allclose(sol.x, [1.0, 0.0])

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            tikhonov_solve(compute_svd(np.eye(2)), np.array([1.0, 0.0]), -0.1)


class TestTsvdSolve:
    def test_single_mode(self):
        sol = tsvd_solve(compute_svd(np.diag([2.0, 1.0])), np.array([2.0, 1.0]), 1)
        assert np.allclose(sol.x, [1.0, 0.0])

    def test_full_rank(self):
        sol = tsvd_solve(compute_svd(np.diag([2.0, 1.0])), np.array([2.0, 1.0]), 2)
        assert np.allclose(sol.x, [1.0, 1.0])

    def test_term_by_term(self):
        svd = compute_svd(np.diag([1.0, 0.5, 0.1, 0.01]))
        b = np.ones(4)
        x_expect = sum(
            (svd.U[:, i].conj() @ b) / svd.sigma[i] * svd.V[:, i] for i in range(2)
        )
        sol = tsvd_solve(svd, b, 2)
        assert np.allclose(sol.x, x_expect, atol=1e-12)

    def test_k_beyond_rank_reports_rank(self):
        with pytest.raises(ValueError, match="numerical rank 1"):
            tsvd_solve(compute_svd(np.diag([3.0, 0.0])), np.array([1.0, 1.0]), 2)

    def test_bridge_bitwise(self):
        # TSVD must equal the Tikhonov assembly with filters overridden to 0/1
        rng = np.random.default_rng(11)
        for _ in range(50):
            prob = random_problem(rng, 4, 3)
            svd = compute_svd(prob.A)
            k = int(rng.integers(1, svd.numerical_rank + 1))
            filters = np.zeros_like(svd.sigma)
            filters[:k] = 1.0
            expect = _solve_with_filters(svd, prob.b, filters, 0.0)
            got = tsvd_solve(svd, prob.b, k)
            assert np.array_equal(got.x, expect.x)
            assert got.solution_norm == expect.solution_norm
            assert got.residual_norm == expect.residual_norm


class TestBuildExtended:
    def test_one_by_one(self):
        ext = build_extended(np.array([[1.0]]), 0.0)
        w = np.sort(np.linalg.eigvalsh(ext.dilation))
        assert np.allclose(w, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_worked_dilation_eigenvalues(self):
        ext = build_extended(np.diag([1.0, 0.5]), 0.5)
        w = np.sort(np.abs(np.linalg.eigvalsh(ext.dilation)))[::-1]
        assert np.allclose(w[:4], [math.sqrt(1.25), math.sqrt(1.25),
                                   math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
        assert np.allclose(w[4:], 0.0, atol=1e-12)

    def test_structure(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 2))
        ext = build_extended(A, 0.7)
        D = ext.dilation
        assert np.allclose(D, D.conj().T, atol=1e-12)
        assert np.allclose(D[:3, 5:7], A)
        assert np.allclose(D[3:5, 5:7], 0.7 * np.eye(2))
        # mu = 0 leaves the middle block empty
        D0 = build_extended(A, 0.0).dilation
        assert np.allclose(D0[3:5, 5:7], 0.0)

    def test_holds_its_eigendecomposition(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        for mu in (0.0, 0.6):
            ext = build_extended(A, mu)
            w, V = np.linalg.eigh(ext.dilation)
            assert np.array_equal(ext.eig[0], w) and np.array_equal(ext.eig[1], V)
        # frozen, so the decomposition cannot come apart from the dilation
        for field, value in (("mu", 0.0), ("dilation", np.eye(8)), ("eig", (w, V))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ext, field, value)


class TestConditionNumber:
    def test_closed_form_ten(self):
        svd = compute_svd(np.diag([1.0, 0.5, 0.1, 0.01]))
        assert condition_number_mu(svd, 0.1) == pytest.approx(10.0, abs=1e-12)

    def test_rank_deficient_sqrt5(self):
        svd = compute_svd(np.diag([1.0, 0.0]))
        assert condition_number_mu(svd, 0.5) == pytest.approx(math.sqrt(5), rel=1e-12)

    def test_perfectly_conditioned(self):
        svd = compute_svd(np.eye(2))
        for mu in (0.0, 0.3, 2.0):
            assert condition_number_mu(svd, mu) == pytest.approx(1.0, rel=1e-12)

    def test_infinite_case_rejected(self):
        with pytest.raises(ValueError):
            condition_number_mu(compute_svd(np.diag([1.0, 0.0])), 0.0)

    def test_matches_stacked_svd(self):
        rng = np.random.default_rng(5)
        for case in (False, True):
            for _ in range(20):
                prob = random_problem(rng, 5, 3, rank_deficient=case)
                mu = float(rng.uniform(0.05, 2.0))
                svd = compute_svd(prob.A)
                stacked = np.vstack([prob.A, mu * np.eye(3)])
                s = np.linalg.svd(stacked, compute_uv=False)
                assert condition_number_mu(svd, mu) == pytest.approx(
                    s[0] / s[-1], rel=1e-8)

    def test_never_exceeds_kappa(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            prob = random_problem(rng, 4, 4)
            svd = compute_svd(prob.A)
            kappa = svd.sigma[0] / svd.sigma[-1]
            for mu in (0.01, 0.1, 1.0, 10.0):
                assert condition_number_mu(svd, mu) <= kappa * (1 + 1e-12)


class TestGcv:
    def test_worked_value(self):
        svd = compute_svd(np.diag([1.0, 0.5]))
        b = np.array([1.0, 1.0])
        assert gcv_value(svd, b, 0.5) == pytest.approx(0.29 / 0.49, rel=1e-12)

    def test_identity_collapse(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(3)
        for mu in (0.1, 0.5, 2.0):
            assert gcv_value(compute_svd(np.eye(3)), b, mu) == pytest.approx(
                np.linalg.norm(b) ** 2 / 9, rel=1e-12)

    def test_large_mu_limit(self):
        rng = np.random.default_rng(2)
        prob = random_problem(rng, 4, 3)
        svd = compute_svd(prob.A)
        val = gcv_value(svd, prob.b, 1e8)
        assert val == pytest.approx(np.linalg.norm(prob.b) ** 2 / 16, rel=1e-6)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            gcv_value(compute_svd(np.eye(2)), np.ones(2), 0.0)

    @pytest.mark.parametrize("mu", [1e-200, 1e-90])
    def test_vanishing_denominator_names_mu(self, mu):
        # square A: g(mu) -> 0 with mu, so the denominator is 0 (mu^2 underflows)
        # or so small that its square underflows
        svd = compute_svd(np.diag([1.0, 0.5]))
        with pytest.raises(MuRangeError, match=f"at mu = {mu:g} is zero or its square "
                                               "underflows$"):
            gcv_value(svd, np.ones(2), mu)
        with pytest.raises(MuRangeError, match=f"at mu = {mu:g} "):
            gcv_lowrank(svd.sigma, 0.5, 2, 2, mu)

    def test_wide_matrix_positive_denominator(self):
        # m < n: the zero singular values each contribute 1 to the trace term,
        # keeping the denominator positive (and the value finite) as mu -> 0
        svd = compute_svd(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]]))
        assert gcv_value(svd, np.ones(2), 0.01) >= 0.0

    def test_wide_matrix_truncated_flagged(self):
        # truncating the trace term below n - m drives the denominator negative
        with pytest.warns(RuntimeWarning, match="negative"):
            gcv_lowrank(np.array([1.0]), 0.3, 2, 4, 0.01)


class TestMuRange:
    """A mu whose square overflows float64 is refused by a typed error naming it."""

    @pytest.mark.parametrize("mu", [1e155, 1e300, math.inf, math.nan])
    def test_refused_where_mu_enters(self, mu):
        svd = compute_svd(np.diag([1.0, 0.5]))
        calls = (lambda: tikhonov_solve(svd, np.ones(2), mu),
                 lambda: condition_number_mu(svd, mu),
                 lambda: build_extended(np.diag([1.0, 0.5]), mu, svd),
                 lambda: gcv_value(svd, np.ones(2), mu),
                 lambda: gcv_lowrank(svd.sigma, 0.5, 2, 2, mu))
        for call in calls:
            with pytest.raises(MuRangeError, match=f"^mu = {re.escape(f'{mu:g}')} is out of range"):
                call()

    def test_largest_finite_square_accepted(self):
        svd = compute_svd(np.diag([1.0, 0.5]))
        sol = tikhonov_solve(svd, np.array([1.0, 1.0]), 1e154)
        assert sol.residual_norm == pytest.approx(math.sqrt(2), rel=1e-12)


class TestGcvLowrank:
    def test_full_rank_reduction(self):
        svd = compute_svd(np.diag([1.0, 0.5]))
        b = np.array([1.0, 1.0])
        for mu in (0.1, 0.5, 1.5):
            sol = tikhonov_solve(svd, b, mu)
            lr = gcv_lowrank(svd.sigma, sol.residual_norm**2, 2, 2, mu)
            assert lr == pytest.approx(gcv_value(svd, b, mu), rel=1e-12)

    def test_hand_value(self):
        assert gcv_lowrank(np.array([1.0]), 0.29, 2, 2, 0.5) == pytest.approx(
            7.25, rel=1e-12)

    def test_small_mu_limit_tall(self):
        # m > n: g -> 0 and the value approaches residual_sq / (m - n)^2
        val = gcv_lowrank(np.array([1.0, 0.5]), 0.5, 5, 3, 1e-9)
        assert val == pytest.approx(0.5 / 4, rel=1e-6)

    def test_random_reduction(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            prob = random_problem(rng, 5, 3)
            svd = compute_svd(prob.A)
            mu = float(rng.uniform(0.1, 1.0))
            sol = tikhonov_solve(svd, prob.b, mu)
            lr = gcv_lowrank(svd.sigma, sol.residual_norm**2, 5, 3, mu)
            assert lr == pytest.approx(gcv_value(svd, prob.b, mu), rel=1e-12)


class TestMonotonicity:
    def test_norms_monotone_in_mu(self):
        rng = np.random.default_rng(6)
        mus = np.geomspace(1e-3, 10.0, 25)
        for _ in range(50):
            prob = random_problem(rng, 4, 3)
            svd = compute_svd(prob.A)
            sols = [tikhonov_solve(svd, prob.b, mu) for mu in mus]
            xs = np.array([s.solution_norm for s in sols])
            rs = np.array([s.residual_norm for s in sols])
            assert np.all(np.diff(xs) <= 1e-12)
            assert np.all(np.diff(rs) >= -1e-12)

    def test_filter_factor_bounds(self):
        sigma = np.array([2.0, 1.0, 0.25])
        from qregparam.linalg import _filter_factors

        for mu in (0.0, 0.5, 3.0, 100.0):
            f = _filter_factors(sigma, mu)
            assert np.all(f >= 0) and np.all(f <= 1)
        assert np.allclose(_filter_factors(sigma, 1e-12), 1.0, atol=1e-20)
        assert np.allclose(_filter_factors(sigma, 1e12), 0.0, atol=1e-20)
