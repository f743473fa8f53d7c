"""Seeded test-problem generators."""
from __future__ import annotations

import numpy as np

from .linalg import RegularizedProblem

KINDS = ("geometric-spectrum", "low-rank", "hilbert-like")


def _random_orthonormal(dim: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    # fix the QR sign ambiguity so the factor is a deterministic function of the draw
    return Q * np.sign(np.diag(R))


def generate_problem(kind: str, m: int, n: int, noise: float,
                     seed: int) -> RegularizedProblem:
    """Build a seeded problem with known x_true and b = A x_true + noise * g.

    The low-rank kind plants rank max(1, min(m, n) // 2).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}; choose from {KINDS}")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    rng = np.random.default_rng(seed)
    q = min(m, n)
    if kind == "hilbert-like":
        i, j = np.indices((m, n))
        A = 1.0 / (i + j + 1.0)
    else:
        sigma = 0.5 ** np.arange(q, dtype=float)
        if kind == "low-rank":
            sigma[max(1, q // 2):] = 0.0
        U = _random_orthonormal(m, rng)
        V = _random_orthonormal(n, rng)
        A = (U[:, :q] * sigma) @ V[:, :q].T
    x_true = rng.standard_normal(n)
    b = A @ x_true
    if noise > 0:
        b = b + noise * rng.standard_normal(m)
    return RegularizedProblem(A=A, b=b, x_true=x_true)
