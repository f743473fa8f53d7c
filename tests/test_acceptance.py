"""Acceptance suite: ten oracle-backed criteria, one pass/fail line each.

Each test prints a single `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible
with pytest -s) and asserts the same condition.
"""
import math
import warnings

import numpy as np
import pytest

from qregparam import (
    ParameterGrid,
    apply_A_state,
    build_extended,
    classical_select,
    compute_svd,
    condition_number_mu,
    durr_hoyer_min,
    estimate_residual_norm,
    estimate_solution_norm,
    gcv_pipeline,
    generate_problem,
    hhl_solution_state,
    lcurve_pipeline,
    residual_state,
    rotation_constant,
    tikhonov_solve,
    tsvd_solve,
)
from qregparam.amplitude import fold_register, qpe_on_grover_distribution
from qregparam.cli import RunConfig, run
from qregparam.linalg import _solve_with_filters
from qregparam.search import durr_hoyer_budget, principal_singular_values
from qregparam.statevector import UnitaryOp, phase_estimation

from conftest import random_problem
from reference import basis_state


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_condition_number_identities():
    ok = True
    rng = np.random.default_rng(2024)
    for rank_deficient in (False, True):
        for _ in range(100):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m + 1))
            prob = random_problem(rng, m, n, rank_deficient=rank_deficient and n > 1)
            mu = float(rng.uniform(0.05, 2.0))
            svd = compute_svd(prob.A)
            stacked = np.vstack([prob.A, mu * np.eye(n)])
            s = np.linalg.svd(stacked, compute_uv=False)
            expect = s[0] / s[-1]
            ok &= abs(condition_number_mu(svd, mu) - expect) <= 1e-8 * expect
    # closed-form checkpoints
    ok &= condition_number_mu(
        compute_svd(np.diag([1.0, 0.5, 0.1, 0.01])), 0.1) == pytest.approx(
        10.0, abs=1e-12)
    ok &= condition_number_mu(
        compute_svd(np.diag([1.0, 0.0])), 0.5) == pytest.approx(
        math.sqrt(5), rel=1e-12)
    report(1, "condition-number identities", ok)


def test_02_tikhonov_tsvd_bridge():
    ok = True
    rng = np.random.default_rng(77)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, m + 1))
        prob = random_problem(rng, m, n)
        svd = compute_svd(prob.A)
        k = int(rng.integers(1, svd.numerical_rank + 1))
        filters = np.zeros_like(svd.sigma)
        filters[:k] = 1.0
        expect = _solve_with_filters(svd, prob.b, filters, 0.0)
        got = tsvd_solve(svd, prob.b, k)
        ok &= np.array_equal(got.x, expect.x)
        ok &= got.solution_norm == expect.solution_norm
        ok &= got.residual_norm == expect.residual_norm
    report(2, "Tikhonov/TSVD bridge", ok)


def test_03_qpe_exactness():
    ok = True
    for n in range(1, 6):
        for y in range(2**n):
            U = UnitaryOp(np.diag([1.0, np.exp(2j * math.pi * y / 2**n)]))
            out = phase_estimation(U, basis_state(1, 1), n)
            prob = abs(out.amplitudes[2 * y + 1]) ** 2
            ok &= abs(prob - 1.0) <= 1e-10
    report(3, "QPE exactness on dyadic phases", ok)


def test_04_amplitude_estimation_bound():
    ok = True
    rng = np.random.default_rng(42)
    n = 8
    edges = [0.0, math.pi / 2, *(k * math.pi / 2**n + d for k in (1, 77, 127)
                                 for d in (0.0, 1e-12, -1e-12))]
    for theta in edges + [float(rng.uniform(0, math.pi / 2)) for _ in range(100)]:
        probs = qpe_on_grover_distribution(theta, n)
        folded = {}
        for y, pr in enumerate(probs):
            key = fold_register(y, n)
            folded[key] = folded.get(key, 0.0) + pr
        theta_tilde, top = max(folded.items(), key=lambda kv: kv[1])
        ok &= abs(theta - theta_tilde) <= math.pi / 256
        ok &= top >= 4 / math.pi**2 - 1e-6
    report(4, "amplitude-estimation bound", ok)


def flag_zero_mass(state):
    flags = (0,)  # the solver state's ancilla
    probs = np.abs(state.amplitudes.ravel()) ** 2
    idx = np.arange(probs.size)
    mask = np.ones(probs.size, dtype=bool)
    for f in flags:
        mask &= (idx >> (state.num_qubits - 1 - f)) & 1 == 0
    return float(probs[mask].sum())


def test_05_hhl_good_branch_identity():
    ok = True
    rng = np.random.default_rng(5)
    # n <= 3 problems with assorted spectra
    cases = [
        (np.diag([1.0, 0.5]), 0.5, np.array([1.0, 0.0])),          # worked value
        (np.diag([1.0]), 0.25, np.array([1.0])),
        (np.diag([1.0, 0.5, 0.25]), 0.4, np.array([1.0, 1.0, -1.0])),
        (rng.standard_normal((3, 2)), 0.6, rng.standard_normal(3)),
    ]
    for A, mu, b in cases:
        ext = build_extended(A, mu)
        st = hhl_solution_state(ext, b, 6)
        oracle = tikhonov_solve(ext.svd, b, mu)
        expect = rotation_constant(ext)**2 * oracle.solution_norm**2 / np.linalg.norm(b) ** 2
        ok &= abs(flag_zero_mass(st) - expect) <= 1e-8
    # the worked value itself
    ext = build_extended(np.diag([1.0, 0.5]), 0.5)
    sol = tikhonov_solve(ext.svd, np.array([1.0, 0.0]), 0.5)
    ok &= sol.solution_norm == pytest.approx(0.8, abs=1e-12)
    report(5, "solver good-branch identity", ok)


def test_06_norm_estimators():
    ext = build_extended(np.diag([1.0, 0.5]), 0.5)
    b = np.array([1.0, 0.0])
    solution = hhl_solution_state(ext, b, 5)
    residual = residual_state(apply_A_state(solution, build_extended(ext.A, 0.0)), ext, b)
    eps = 0.05
    sol_hits = sum(
        abs(estimate_solution_norm(solution, ext, b, eps, np.random.default_rng(s)).norm
            - 0.8) <= eps
        for s in range(100)
    )
    res_hits = sum(
        abs(estimate_residual_norm(residual, ext, b, eps, np.random.default_rng(s)).norm
            - 0.2) <= eps
        for s in range(100)
    )
    ok = sol_hits >= 80 and res_hits >= 80
    report(6, "norm estimators within epsilon", ok)


def test_07_minimum_finding():
    ok = True
    for p in (4, 16, 64):
        budget = durr_hoyer_budget(p)
        wins = 0
        for s in range(200):
            rng = np.random.default_rng(1000 * p + s)
            values = rng.permutation(np.arange(p, dtype=float))
            res = durr_hoyer_min(values, rng)
            ok &= res.queries_used <= budget
            wins += values[res.chosen_index] == 0.0
        ok &= wins / 200 >= 0.5
    report(7, "threshold minimum finding", ok)


def test_08_pipeline_oracle_agreement():
    ok = True
    grid = ParameterGrid.geometric(0.8, 0.5, 4)
    in_regime = exact_in = outside = within_one = 0
    for s in range(20):
        prob = generate_problem("geometric-spectrum", 3, 2, 0.05, seed=s)
        for criterion, quantum in (
            ("lcurve-sum",
             lambda eps: lcurve_pipeline(
                 prob, grid, 7, eps,
                 np.random.default_rng(s), repeats=3)),
            ("gcv",
             lambda eps: gcv_pipeline(
                 prob, grid, 2, 9, eps,
                 np.random.default_rng(s), repeats=1)),
        ):
            cl = classical_select(prob, grid, criterion)
            c = np.sort(cl.criterion_values)
            gap = float(c[1] - c[0])
            eps = float(np.clip(gap / 4, 1e-3, 0.02))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = quantum(eps)
            if eps < gap / 2:  # separation regime
                in_regime += 1
                exact_in += res.chosen_index == cl.chosen_index
            else:
                outside += 1
                within_one += abs(res.chosen_index - cl.chosen_index) <= 1
    ok &= exact_in == in_regime
    ok &= outside == 0 or within_one / outside >= 0.7
    report(8, "pipeline/oracle agreement", ok)


def test_09_singular_value_sampling():
    ext = build_extended(np.diag([1.0, 0.5]), 0.5)
    n_bits = 6
    t = math.pi / (2 * math.sqrt(1.25))
    cell = 2 * math.pi / (2**n_bits * t)
    # sampling weights are proportional to sigma~^2: ratio 1.25 / 0.5
    shots = math.ceil(10 * 2 * (1.25 / 0.5))
    hits = 0
    for s in range(50):
        sig = principal_singular_values(ext, 2, n_bits, shots,
                                        np.random.default_rng(s))
        hits += bool(np.all(np.abs(sig - [1.0, 0.5]) <= cell))
    ok = hits / 50 >= 0.9
    report(9, "singular-value sampling", ok)


def test_10_determinism(tmp_path):
    base = dict(method="lcurve", problem="geometric-spectrum", m=2, n=2,
                noise=0.02, mu0=0.8, rho=0.5, p=3, epsilon=0.05,
                n_phase_bits=6, seed=11, repeats=3)
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    run(RunConfig(out=str(out1), **base))
    run(RunConfig(out=str(out2), **base))
    ok = out1.read_bytes() == out2.read_bytes()
    report(10, "byte-identical reports", ok)
