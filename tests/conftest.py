"""Shared fixtures: worked micro-problems used across the test modules."""
import numpy as np
import pytest

from qregparam import HhlConfig, RegularizedProblem, build_extended
from qregparam.statevector import UnitaryOp, _ladder_forward

from reference import _ladder_inverse


@pytest.fixture
def worked_problem():
    """diag(1, 0.5), mu = 0.5, b = (1, 0): ||x_mu|| = 0.8, ||A x_mu - b|| = 0.2."""
    A = np.diag([1.0, 0.5])
    b = np.array([1.0, 0.0])
    ext = build_extended(A, 0.5)
    cfg = HhlConfig.for_extended(ext, n_phase_bits=5)
    return ext, b, cfg


def random_problem(rng, m, n, rank_deficient=False):
    """A random dense problem with controlled rank, plus a random b."""
    A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if rank_deficient:
        q = min(m, n)
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        s[q - 1:] = 0.0
        A = (U * s) @ Vh
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return RegularizedProblem(A=A, b=b)


def gate_level_qpe(state, eig, phase_targets, system_targets, inverse=False):
    """Reference for qpe_forward/qpe_inverse: the gate-by-gate controlled-power
    ladder on the dense op = V diag(e^{2 pi i phases}) V^dag."""
    V, phases = eig
    op = UnitaryOp((V * np.exp(2j * np.pi * phases)) @ V.conj().T)
    ladder = _ladder_inverse if inverse else _ladder_forward
    return ladder(state, op, phase_targets, system_targets)
