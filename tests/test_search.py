"""Minimum finding, the two selection pipelines, and the classical oracle."""
import copy
import dataclasses
import math
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregparam import (
    CapacityError,
    ParameterGrid,
    RegularizedProblem,
    SpectrumResolutionError,
    apply_A_state,
    build_extended,
    classical_select,
    compute_svd,
    condition_number_mu,
    durr_hoyer_min,
    estimate_residual_norm,
    estimate_solution_norm,
    gcv_lowrank,
    gcv_value,
    gcv_pipeline,
    generate_problem,
    hhl_solution_state,
    lcurve_pipeline,
    residual_state,
    rotation_constant,
    tikhonov_solve,
)
from qregparam import hhl, linalg, search
from qregparam.amplitude import ae_bits_for_accuracy, ae_query_count
from qregparam.search import durr_hoyer_budget, principal_singular_values
from qregparam.statevector import MAX_QUBITS, StateVector, qpe_forward

from conftest import random_problem
from reference import register_distribution, top_magnitude_cells


def statevector_register_distribution(ext, n_bits):
    """Reference: the phase-register distribution of principal_singular_values
    from the full 2^(n_bits + 2k)-amplitude QPE state on the vectorized dilation."""
    Hd = ext.dilation
    k = Hd.shape[0].bit_length() - 1
    t = math.pi / (2.0 * np.max(np.abs(np.linalg.eigvalsh(Hd))))
    eig, _ = hhl._phase_cells(np.linalg.eigh(Hd), t, n_bits)
    amps = np.zeros((2**k, 2**n_bits, 2**k), dtype=complex)
    # QPE couples the phase register to the row register, which is the system
    # (the last k qubits); the column register leads
    amps[:, 0, :] = (Hd / np.linalg.norm(Hd)).T
    out = qpe_forward(StateVector(amps), eig)
    probs = register_distribution(out, list(range(k, k + n_bits)))
    return probs / probs.sum()


class RecordingRng:
    """A Generator stand-in that keeps the distribution of its last choice call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.p = None

    def choice(self, a, size=None, p=None):
        self.p = p
        return self.rng.choice(a, size=size, p=p)


class TestParameterGrid:
    def test_geometric_law(self):
        grid = ParameterGrid.geometric(1.0, 0.9, 16)
        ratios = grid.mus[1:] / grid.mus[:-1]
        assert np.allclose(ratios, 0.9, atol=1e-12)
        assert grid.mus[0] == pytest.approx(0.9, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterGrid(mus=np.array([0.1, 0.2]))  # increasing
        with pytest.raises(ValueError):
            ParameterGrid(mus=np.array([]))
        with pytest.raises(ValueError):
            ParameterGrid.geometric(1.0, 1.5, 4)


class TestDurrHoyer:
    def test_single_item(self):
        res = durr_hoyer_min(np.array([3.0]), np.random.default_rng(0))
        assert res.chosen_index == 0
        assert res.queries_used == 0

    def test_three_items(self):
        vals = np.array([3.0, 1.0, 2.0])
        wins = sum(
            durr_hoyer_min(vals, np.random.default_rng(s)).chosen_index == 1
            for s in range(200)
        )
        assert wins >= 100

    def test_all_equal_tie(self):
        vals = np.array([2.0, 2.0, 2.0, 2.0])
        res = durr_hoyer_min(vals, np.random.default_rng(1))
        assert vals[res.chosen_index] == 2.0

    def test_budget_never_exceeded(self):
        for p in (4, 16, 64):
            budget = durr_hoyer_budget(p)
            for s in range(50):
                rng = np.random.default_rng(s)
                vals = rng.permutation(np.arange(p, dtype=float))
                res = durr_hoyer_min(vals, rng)
                assert res.queries_used <= budget

    def test_success_rate(self):
        for p in (4, 16, 64):
            wins = 0
            for s in range(200):
                rng = np.random.default_rng(1000 * p + s)
                vals = rng.permutation(np.arange(p, dtype=float))
                res = durr_hoyer_min(vals, rng)
                wins += vals[res.chosen_index] == 0.0
            assert wins / 200 >= 0.5

    def test_threshold_history_improves(self):
        vals = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 6.0, 7.0])
        res = durr_hoyer_min(vals, np.random.default_rng(3))
        seen = [vals[j] for j in res.threshold_history]
        assert all(b < a for a, b in zip(seen, seen[1:]))


class TestLCurvePipeline:
    def test_single_mu_reduces_to_estimators(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.05, seed=0)
        grid = ParameterGrid(mus=np.array([0.5]))
        res = lcurve_pipeline(prob, grid, 6, 0.05,
                              np.random.default_rng(1), repeats=3)
        assert res.chosen_index == 0
        ext = build_extended(prob.A, 0.5)
        solution = hhl_solution_state(ext, prob.b, 6)
        ax = apply_A_state(solution, build_extended(ext.A, 0.0))
        residual = residual_state(ax, ext, prob.b)
        rng = np.random.default_rng(1)
        sol = estimate_solution_norm(solution, ext, prob.b, 0.05, rng, repeats=3).norm
        res_norm = estimate_residual_norm(residual, ext, prob.b, 0.05, rng, repeats=3).norm
        pt = res.rows[0]
        assert pt.solution_norm == pytest.approx(sol, abs=1e-12)
        assert pt.residual_norm == pytest.approx(res_norm, abs=1e-12)

    def test_noiseless_system_prefers_small_mu(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.0, seed=4)
        grid = ParameterGrid.geometric(0.8, 0.5, 4)
        res = lcurve_pipeline(prob, grid, 6, 0.02,
                              np.random.default_rng(2), repeats=3)
        cl = classical_select(prob, grid, "lcurve-sum")
        assert abs(res.chosen_index - cl.chosen_index) <= 1

    def test_failure_names_offending_mu(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.01, seed=0)
        grid = ParameterGrid(mus=np.array([0.5]))
        with pytest.raises(Exception, match="at mu"):
            lcurve_pipeline(prob, grid, 2, 0.05,
                            np.random.default_rng(0))
        # the GCV singular-value sampling step runs at mu_1 too
        with pytest.raises(SpectrumResolutionError, match=r"\(at mu = 0\.5\)$"):
            gcv_pipeline(prob, grid, 2, 2, 0.05, np.random.default_rng(0))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_matrix_refused_before_the_grid(self, value):
        # A's own extended matrix is decomposed before the first grid value;
        # the SVD ahead of it refuses what eigh could not decompose (numpy's
        # SVD returns nan singular values for inf entries without raising)
        prob = RegularizedProblem(np.array([[1.0, value], [0.0, 1.0]]), np.array([1.0, 1.0]))
        grid = ParameterGrid.geometric(1.0, 0.9, 3)
        for select in (lambda: lcurve_pipeline(prob, grid, 6, 0.05, np.random.default_rng(0)),
                       lambda: gcv_pipeline(prob, grid, 1, 6, 0.05, np.random.default_rng(0)),
                       lambda: classical_select(prob, grid, "gcv")):
            with pytest.raises(ValueError, match=r"^cannot factor an empty or non-finite "
                                                 r"2x2 matrix$"):
                select()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_b_refused(self, value):
        with pytest.raises(ValueError, match=r"^b has a non-finite entry$"):
            RegularizedProblem(np.eye(2), np.array([1.0, value]))

    def test_non_message_errors_pass_through(self, monkeypatch):
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy < 2
            from numpy.core._exceptions import _ArrayMemoryError

        def out_of_memory(*args, **kwargs):
            raise _ArrayMemoryError((2**40,), np.dtype(complex))

        monkeypatch.setattr(search, "hhl_solution_state", out_of_memory)
        prob = generate_problem("geometric-spectrum", 2, 2, 0.01, seed=0)
        grid = ParameterGrid(mus=np.array([0.5]))
        with pytest.raises(MemoryError):
            lcurve_pipeline(prob, grid, 6, 0.05, np.random.default_rng(0))
        with pytest.raises(MemoryError):
            gcv_pipeline(prob, grid, 2, 6, 0.05, np.random.default_rng(0))


class TestPrincipalSingularValues:
    def test_rank_one_exact(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        ext = build_extended(np.outer(u, v), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sig = principal_singular_values(ext, 1, 4, 50, np.random.default_rng(0))
        assert sig == pytest.approx([1.0], abs=1e-10)

    def test_worked_spectrum_within_grid(self):
        ext = build_extended(np.diag([1.0, 0.5]), 0.5)
        n_bits = 6
        sig = principal_singular_values(ext, 2, n_bits, 100, np.random.default_rng(1))
        t = math.pi / (2 * math.sqrt(1.25))
        cell = 2 * math.pi / (2**n_bits * t)
        assert np.all(np.abs(sig - [1.0, 0.5]) <= cell)

    def test_coupon_collector_recovery(self):
        ext = build_extended(np.diag([1.0, 0.5]), 0.5)
        shots = 10 * 2
        hits = 0
        for s in range(30):
            sig = principal_singular_values(ext, 2, 6, shots,
                                            np.random.default_rng(s))
            hits += len(sig) == 2
        assert hits == 30

    def test_low_rank_premise_warning(self):
        prob = generate_problem("geometric-spectrum", 4, 4, 0.0, seed=0)
        ext = build_extended(prob.A, 0.1)
        with pytest.warns(RuntimeWarning, match="low-rank"):
            principal_singular_values(ext, 1, 8, 50, np.random.default_rng(0))

    @pytest.mark.parametrize("m,n", [(4, 4), (6, 4), (8, 6)])
    def test_exact_low_rank_does_not_warn(self, m, n):
        # the dilation's sigma = 0 modes carry +-mu, which is no mass of A
        prob = generate_problem("low-rank", m, n, 0.0, seed=0)
        ext = build_extended(prob.A, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sig = principal_singular_values(ext, min(m, n) // 2, 10, 100,
                                            np.random.default_rng(0))
        assert sig.size == min(m, n) // 2

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_zero_matrix_rejected(self, mu):
        ext = build_extended(np.zeros((3, 2)), mu)
        with pytest.raises(ValueError, match="zero matrix"):
            principal_singular_values(ext, 1, 6, 50, np.random.default_rng(0))

    def test_too_few_clusters_reported(self):
        ext = build_extended(np.diag([1.0, 0.5]), 0.5)
        with pytest.raises(RuntimeError, match="distinct"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                principal_singular_values(ext, 3, 6, 200, np.random.default_rng(0))


class TestClosedFormSampling:
    """principal_singular_values samples the statevector QPE distribution."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
           rank_deficient=st.booleans(), real=st.booleans(), n_bits=st.integers(2, 10))
    def test_matches_statevector(self, seed, m, n, rank_deficient, real, n_bits):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, m, n, rank_deficient=rank_deficient and min(m, n) > 1)
        ext = build_extended(prob.A.real if real else prob.A, float(rng.uniform(0.2, 1.5)))
        recorder = RecordingRng(seed)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                principal_singular_values(ext, 1, n_bits, 20, recorder)
        except SpectrumResolutionError:
            with pytest.raises(SpectrumResolutionError):
                statevector_register_distribution(ext, n_bits)
            return
        ref = statevector_register_distribution(ext, n_bits)
        assert np.max(np.abs(recorder.p - ref)) <= 1e-12

    def test_register_past_capacity_raises(self):
        ext = build_extended(np.diag([1.0, 0.5]), 0.5)  # padded dilation on 2k = 6 qubits
        sig = principal_singular_values(ext, 2, MAX_QUBITS - 6, 100,
                                        np.random.default_rng(0))
        assert sig == pytest.approx([1.0, 0.5], abs=1e-4)
        with pytest.raises(CapacityError, match=f"{MAX_QUBITS + 1} qubits"):
            principal_singular_values(ext, 2, MAX_QUBITS - 5, 100, np.random.default_rng(0))


class TestShotTally:
    """The vectorized shot tally picks the cells the per-shot loop picks."""

    class FixedDraws:
        def __init__(self, outcomes):
            self.outcomes = outcomes

        def choice(self, a, size=None, p=None):
            return np.array(self.outcomes, dtype=np.int64)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n_bits=st.integers(4, 8), r=st.integers(1, 3), data=st.data())
    def test_matches_per_shot_loop(self, n_bits, r, data):
        ext = build_extended(np.diag([1.0, 0.5]), 0.5)
        N = 2**n_bits
        # a few register values, drawn repeatedly, so that counts tie often
        alphabet = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=6))
        outcomes = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40))
        try:
            cells = top_magnitude_cells(outcomes, n_bits, r)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{exc}$"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    principal_singular_values(ext, r, n_bits, len(outcomes),
                                              self.FixedDraws(outcomes))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = principal_singular_values(ext, r, n_bits, len(outcomes),
                                            self.FixedDraws(outcomes))
        t = math.pi / (2.0 * math.sqrt(1.25))
        sigma_tilde = np.array([2 * math.pi * c / (N * t) for c in cells])
        expect = np.sort(np.sqrt(np.maximum(sigma_tilde**2 - 0.25, 0.0)))[::-1]
        assert np.allclose(got, expect, rtol=0, atol=1e-12)


class TestExtendedSpectrum:
    """C~, kappa_mu and the GCV shot rule all read (lambda_max, lambda_min) of (A; mu I)."""

    class Shots(Exception):
        """Stops gcv_pipeline at its sampler, carrying the shot count asked for."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
           rank_deficient=st.booleans(), real=st.booleans(), mu=st.floats(0.05, 2.0),
           r=st.integers(1, 3))
    def test_constants_read_one_spectrum(self, seed, m, n, rank_deficient, real, mu, r):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n)) + (0 if real else 1j * rng.standard_normal((m, n)))
        if rank_deficient and min(m, n) > 1:
            U, s, Vh = np.linalg.svd(A, full_matrices=False)
            s[-1] = 0.0
            A = (U * s) @ Vh
        ext = build_extended(A, mu)
        lam_max, lam_min = linalg.extended_spectrum(ext.svd, mu)
        # (A; mu I) has n singular values, each at least mu
        stacked = np.linalg.svd(np.vstack([A, mu * np.eye(n)]), compute_uv=False)
        assert lam_max == pytest.approx(stacked[0], rel=1e-12)
        assert lam_min == pytest.approx(stacked[-1], rel=1e-12)
        assert rotation_constant(ext) == lam_min
        sigma = ext.svd.sigma
        kept = sigma[sigma > linalg.RANK_TOLERANCE * sigma[0]]
        tail = kept[-1] if kept.size == n else 0.0
        closed_form = math.sqrt((sigma[0]**2 + mu**2) / (tail**2 + mu**2))
        assert condition_number_mu(ext.svd, mu) == pytest.approx(closed_form, rel=1e-15)
        assert condition_number_mu(ext.svd, mu) == lam_max / lam_min
        # at mu = 0, C~ is the smallest sigma above the rank tolerance
        assert rotation_constant(build_extended(A, 0.0, ext.svd)) == kept[-1]

        def stop(_ext, _r, _n_bits, shots, _rng):
            raise self.Shots(shots)

        problem = RegularizedProblem(A, rng.standard_normal(m))
        with mock.patch.object(search, "principal_singular_values", stop):
            with pytest.raises(self.Shots) as asked:
                gcv_pipeline(problem, ParameterGrid(mus=np.array([mu])), r, 6, 0.05,
                             np.random.default_rng(0))
        kappa = condition_number_mu(ext.svd, mu)
        assert asked.value.args[0] == max(10 * r, math.ceil(10 * r * kappa**2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_noise_sigma_counts_as_zero(self, seed):
        # low-rank 4x4 plants rank 2: sigma_4 is rounding noise that would
        # dwarf mu = 1e-33 in sqrt(sigma_4^2 + mu^2), but beyond the numerical
        # rank it counts as 0
        ext = build_extended(generate_problem("low-rank", 4, 4, 0.01, seed).A, 1e-33)
        assert rotation_constant(ext) == 1e-33


class TestGcvPipeline:
    def test_single_mu_matches_lowrank_oracle(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.05, seed=2)
        grid = ParameterGrid(mus=np.array([0.5]))
        res = gcv_pipeline(prob, grid, 2, 6, 0.02,
                           np.random.default_rng(0), repeats=3)
        assert res.chosen_index == 0
        # recompute the criterion classically from exact quantities
        svd = compute_svd(prob.A)
        sol = tikhonov_solve(svd, prob.b, 0.5)
        oracle = gcv_lowrank(svd.sigma, sol.residual_norm**2, 2, 2, 0.5)
        assert res.criterion_values[0] == pytest.approx(oracle, rel=0.15)

    def test_full_rank_matches_gcv_value(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.05, seed=3)
        grid = ParameterGrid.geometric(0.8, 0.5, 3)
        res = gcv_pipeline(prob, grid, 2, 8, 0.005,
                           np.random.default_rng(1), repeats=3)
        svd = compute_svd(prob.A)
        for j, mu in enumerate(grid.mus):
            assert res.criterion_values[j] == pytest.approx(
                gcv_value(svd, prob.b, float(mu)), rel=0.15)

    def test_shot_count_past_capacity_refused_before_sampling(self):
        # at mu_1 ~ 1e-4 the shot rule asks for about 2e9 draws (~16 GB)
        class NoDraw:
            def choice(self, *args, **kwargs):
                raise AssertionError("rng.choice called")

        prob = generate_problem("low-rank", 3, 2, 0.01, seed=0)
        grid = ParameterGrid.geometric(1.1e-4, 0.9, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(CapacityError, match=r"^2040608122 shots exceed"):
                gcv_pipeline(prob, grid, 2, 15, 0.05, NoDraw())

    def test_kappa_past_capacity_refused_before_squaring(self):
        # low-rank 6x4 at mu_1 = 9e-161: kappa_mu ~ 1e160, whose square overflows
        prob = generate_problem("low-rank", 6, 4, 0.01, seed=0)
        grid = ParameterGrid.geometric(1e-160, 0.9, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(CapacityError, match=r"^kappa_mu = 1\.11127e\+160 asks for "
                                                    r"over 2\^48 shots"):
                gcv_pipeline(prob, grid, 2, 6, 0.05, np.random.default_rng(0))


class TestStateLifetimes:
    def test_solver_state_freed_before_residual_stage(self, monkeypatch):
        """Both pipelines drop each solver state before building its residual state."""
        build_solution, build_residual = search.hhl_solution_state, search.residual_state
        solver_states, freed = {}, []

        def tracked_solution_state(ext, b, n_bits):
            state = build_solution(ext, b, n_bits)
            solver_states[ext.mu] = weakref.ref(state)
            return state

        def checked_residual_state(ax, ext, b):
            freed.append(solver_states[ext.mu]() is None)
            return build_residual(ax, ext, b)

        monkeypatch.setattr(search, "hhl_solution_state", tracked_solution_state)
        monkeypatch.setattr(search, "residual_state", checked_residual_state)
        prob = generate_problem("geometric-spectrum", 3, 2, 0.01, seed=0)
        grid = ParameterGrid.geometric(0.8, 0.5, 3)
        lcurve_pipeline(prob, grid, 6, 0.05, np.random.default_rng(0), repeats=1)
        gcv_pipeline(prob, grid, 2, 6, 0.05, np.random.default_rng(0), repeats=1)
        assert freed == [True] * (2 * grid.p)


class TestRows:
    """Every selector returns one row per grid value; a pipeline's rows carry the
    estimates behind their norms, and those account for every query."""

    @pytest.mark.parametrize("kind,m,n", [("geometric-spectrum", 4, 4), ("low-rank", 6, 4)])
    def test_pipeline_rows_match_oracle_angles(self, kind, m, n, monkeypatch):
        prob = generate_problem(kind, m, n, 0.01, seed=0)
        grid = ParameterGrid.geometric(1.0, 0.8, 4)
        epsilon, repeats = 0.05, 3
        # what minimum finding found, with a copy taken as it returned, and the
        # GCV sampling shots
        found, shots = [], []

        def recorded_dh(values, rng):
            result = durr_hoyer_min(values, rng)
            found.append((result, copy.deepcopy(result)))
            return result

        def recorded_sampling(ext, r, n_bits, k, rng):
            shots.append(k)
            return principal_singular_values(ext, r, n_bits, k, rng)

        monkeypatch.setattr(search, "durr_hoyer_min", recorded_dh)
        monkeypatch.setattr(search, "principal_singular_values", recorded_sampling)
        lcurve = lcurve_pipeline(prob, grid, 10, epsilon, np.random.default_rng(0), repeats)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gcv = gcv_pipeline(prob, grid, min(m, n) // 2, 10, epsilon,
                               np.random.default_rng(0), repeats)
        svd = compute_svd(prob.A)
        b_norm = np.linalg.norm(prob.b)
        # the pipeline leaves what minimum finding returned as it was
        assert all(got == kept for got, kept in found)
        spent_by = [found[0][0].queries_used, found[1][0].queries_used + shots[0]]
        for result, spent in zip((lcurve, gcv), spent_by):
            assert [row.mu for row in result.rows] == list(grid.mus)
            assert [row.criterion for row in result.rows] == list(result.criterion_values)
            for row in result.rows:
                ext = build_extended(prob.A, row.mu, svd)
                oracle = tikhonov_solve(svd, prob.b, row.mu)
                c_tilde = rotation_constant(ext)
                t = min(1.0, c_tilde / svd.sigma_max)
                # (scale, oracle norm) of the solution and residual estimates
                scaled = [(c_tilde, oracle.solution_norm), (t / 2, oracle.residual_norm)]
                if result is gcv:
                    assert row.solution_norm is None
                    scaled = scaled[1:]
                else:
                    assert row.solution_norm == row.estimates[0].norm
                    assert row.criterion == row.solution_norm**2 + row.residual_norm**2
                assert row.residual_norm == row.estimates[-1].norm
                assert len(row.estimates) == len(scaled)
                for est, (scale, norm) in zip(row.estimates, scaled):
                    assert est.theta == pytest.approx(
                        math.acos(min(1.0, scale * norm / b_norm)), abs=1e-10)
                    assert est.ae_bits == ae_bits_for_accuracy(scale * epsilon)
                    assert est.queries == ae_query_count(est.ae_bits, repeats)
                    spent += est.queries
            assert spent == result.queries_used

    @pytest.mark.parametrize("kind,m,n", [("geometric-spectrum", 4, 4), ("low-rank", 6, 4)])
    def test_one_eigendecomposition_per_matrix(self, kind, m, n, monkeypatch):
        # one eigh per grid value's (A; mu I) and one for A's own extended
        # matrix; GCV decomposes its sampling matrix too, and takes t from the
        # SVD, as the solver does
        prob = generate_problem(kind, m, n, 0.01, seed=0)
        grid = ParameterGrid.geometric(1.0, 0.8, 4)
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        lcurve_pipeline(prob, grid, 10, 0.05, np.random.default_rng(0), 3)
        assert calls == {"eigh": grid.p + 1, "eigvalsh": 0}
        calls.update(eigh=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gcv_pipeline(prob, grid, min(m, n) // 2, 10, 0.05, np.random.default_rng(0), 3)
        assert calls == {"eigh": grid.p + 2, "eigvalsh": 0}

    @pytest.mark.parametrize("criterion", ["lcurve-sum", "gcv"])
    def test_classical_rows_are_exact_norms(self, criterion):
        prob = random_problem(np.random.default_rng(6), 4, 3)
        grid = ParameterGrid.geometric(1.0, 0.7, 5)
        svd = compute_svd(prob.A)
        res = classical_select(prob, grid, criterion)
        assert len(res.rows) == grid.p
        for row, mu, value in zip(res.rows, grid.mus, res.criterion_values):
            sol = tikhonov_solve(svd, prob.b, float(mu))
            assert (row.mu, row.solution_norm, row.residual_norm, row.criterion,
                    row.estimates) == (mu, sol.solution_norm, sol.residual_norm, value, ())


class TestClassicalSelect:
    def test_single_mu(self):
        prob = generate_problem("geometric-spectrum", 3, 3, 0.01, seed=0)
        grid = ParameterGrid(mus=np.array([0.3]))
        res = classical_select(prob, grid, "lcurve-sum")
        assert res.chosen_index == 0 and res.chosen_mu == 0.3

    def test_decreasing_criterion_picks_last(self):
        # 1x1 system: ||x||^2 + ||r||^2 = (1 + mu^4)/(1 + mu^2)^2 decreases
        # strictly on the grid mu = 4, 2, 1
        from qregparam import RegularizedProblem

        prob = RegularizedProblem(A=np.array([[1.0]]), b=np.array([1.0]))
        grid = ParameterGrid.geometric(8.0, 0.5, 3)
        res = classical_select(prob, grid, "lcurve-sum")
        assert np.all(np.diff(res.criterion_values) < 0)
        assert res.chosen_index == 2

    def test_values_match_direct_evaluation(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, 4, 3)
        grid = ParameterGrid.geometric(1.0, 0.7, 5)
        svd = compute_svd(prob.A)
        for criterion, direct in (
            ("lcurve-sum", lambda mu: tikhonov_solve(svd, prob.b, mu).solution_norm ** 2
             + tikhonov_solve(svd, prob.b, mu).residual_norm ** 2),
            ("gcv", lambda mu: gcv_value(svd, prob.b, mu)),
        ):
            res = classical_select(prob, grid, criterion)
            for j, mu in enumerate(grid.mus):
                assert res.criterion_values[j] == pytest.approx(
                    direct(float(mu)), rel=1e-12)
            assert res.queries_used == grid.p

    def test_gcv_solves_each_mu_once(self):
        prob = random_problem(np.random.default_rng(6), 4, 3)
        grid = ParameterGrid.geometric(1.0, 0.7, 5)
        svd = compute_svd(prob.A)
        with mock.patch.object(search, "tikhonov_solve", wraps=tikhonov_solve) as outer, \
                mock.patch.object(linalg, "tikhonov_solve", wraps=tikhonov_solve) as inner:
            res = classical_select(prob, grid, "gcv")
        assert outer.call_count + inner.call_count == grid.p
        expect = [gcv_value(svd, prob.b, float(mu)) for mu in grid.mus]
        assert np.array_equal(res.criterion_values, expect)

    def test_result_is_frozen(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.0, seed=0)
        res = classical_select(prob, ParameterGrid.geometric(1.0, 0.5, 2), "lcurve-sum")
        for field in dataclasses.fields(res):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, field.name, getattr(res, field.name))
        with pytest.raises(AttributeError):
            res.chosen_mu = 0.5

    def test_unknown_criterion(self):
        prob = generate_problem("geometric-spectrum", 2, 2, 0.0, seed=0)
        grid = ParameterGrid.geometric(1.0, 0.5, 2)
        with pytest.raises(ValueError):
            classical_select(prob, grid, "corner")

    def test_lowest_index_tie_break(self):
        # duplicated criterion values: argmin must take the first
        prob = generate_problem("geometric-spectrum", 2, 2, 0.0, seed=0)
        grid = ParameterGrid.geometric(1.0, 0.9, 3)
        res = classical_select(prob, grid, "lcurve-sum")
        mins = np.flatnonzero(res.criterion_values == res.criterion_values.min())
        assert res.chosen_index == mins[0]
