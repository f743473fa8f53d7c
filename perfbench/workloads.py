"""Workload definitions, input generation and the report check.

Every selection in a workload is one call to ``qregparam.cli.run`` with a
``RunConfig`` whose ``out`` is a file.  A pass is a fixed list of selections
that cycles over the workload's generators and sizes; pass ``j`` of seed ``s``
draws its problem seeds from ``(s, j)``, so the same seed gives the same
inputs.  Importing this module does not import ``qregparam``, so the set-up
probe can time that import.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

NOISE = 0.01
MU0 = 1.0
GENERATORS = ("geometric-spectrum", "low-rank", "hilbert-like")


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    generators: tuple[str, ...]
    sizes: tuple[tuple[int, int], ...]
    p: int
    rho: float
    n_phase_bits: int
    epsilon: float
    file_input: bool = False
    cycles: int = 1   # times a pass goes round the generators and sizes

    @property
    def criterion(self) -> str:
        return "gcv" if self.method == "gcv" else "lcurve-sum"

    @property
    def cycle_size(self) -> int:
        return len(self.generators) * len(self.sizes)

    @property
    def pass_size(self) -> int:
        return self.cycle_size * self.cycles


WORKLOADS = {
    w.name: w
    for w in (
        # Wide phase register and loose epsilon: the time sits in the QPE
        # ladders and HHL state building, with amplitude estimation small.
        Workload("lcurve-qpe", "lcurve", GENERATORS, ((4, 4), (6, 4)), p=16,
                 rho=0.9, n_phase_bits=10, epsilon=0.05),
        # Tight epsilon (17-18 AE bits) moves the time into the AE readout
        # while the HHL statevector stays small.
        Workload("lcurve-ae", "lcurve", GENERATORS, ((3, 2), (4, 4)), p=8,
                 rho=0.8, n_phase_bits=8, epsilon=5e-4),
        # GCV on its low-rank premise, read from Matrix Market files: QPE on
        # the 2k-qubit vectorized register and residual-only branches.  Four
        # cycles per pass, so that pick agreement rests on twelve problems.
        Workload("gcv-spectrum", "gcv", ("low-rank",), ((4, 4), (6, 4), (8, 6)),
                 p=16, rho=0.9, n_phase_bits=10, epsilon=0.05, file_input=True,
                 cycles=4),
    )
}


@dataclass
class Case:
    """One selection: the RunConfig arguments plus the problem for the check."""

    label: str
    config: dict
    problem: object = field(repr=False)
    b_norm: float = 0.0


def planted_rank(m: int, n: int) -> int:
    """Rank that ``generate_problem`` plants for the low-rank generator."""
    return max(1, min(m, n) // 2)


def problem_seeds(seed: int, pass_index: int, count: int) -> list[int]:
    import numpy as np

    rng = np.random.default_rng([seed, pass_index])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def build_pass(workload: Workload, seed: int, pass_index: int,
               workdir: str) -> list[Case]:
    """Generate (and, for file input, write) the inputs of one pass.

    ``workdir`` is a path relative to the checkout root; it ends up in the
    report's config record, so it must not depend on where the checkout is.
    """
    import numpy as np
    from qregparam import generate_problem, save_matrix, save_vector

    seeds = problem_seeds(seed, pass_index, workload.pass_size)
    cases = []
    for i, pseed in enumerate(seeds):
        kind = workload.generators[i % len(workload.generators)]
        m, n = workload.sizes[i % workload.cycle_size // len(workload.generators)]
        problem = generate_problem(kind, m, n, NOISE, pseed)
        config = dict(method=workload.method, mu0=MU0, rho=workload.rho,
                      p=workload.p, epsilon=workload.epsilon,
                      n_phase_bits=workload.n_phase_bits, seed=pseed)
        if workload.file_input:
            stem = os.path.join(workdir, f"pass{pass_index}-{i}")
            save_matrix(stem + "-A.mtx", problem.A.real)
            save_vector(stem + "-b.mtx", problem.b.real)
            config.update(matrix_file=stem + "-A.mtx", rhs_file=stem + "-b.mtx",
                          rank=planted_rank(m, n))
        else:
            config.update(problem=kind, m=m, n=n, noise=NOISE)
        cases.append(Case(label=f"{kind} {m}x{n}", config=config, problem=problem,
                          b_norm=float(np.linalg.norm(problem.b))))
    return cases


@dataclass
class Check:
    """Outcome of checking one report."""

    malformed: str | None = None   # the report breaks its format or the grid
    misses: list[str] = field(default_factory=list)  # estimates outside tolerance
    estimates: int = 0
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.malformed is None and not self.misses


def check_report(text: str, case: Case, workload: Workload) -> Check:
    """Check a report against the grid and its own oracle columns.

    Every ``*_norm_est`` must lie within epsilon * ||b|| of its ``*_oracle``
    column, the rows must follow the grid, and ``chosen_mu`` must be the grid
    value at ``chosen_index``.
    """
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except ValueError as exc:
        return Check(f"not line-delimited JSON: {exc}")
    if not records or records[0].get("record") != "config":
        return Check("missing config record")
    rows, summary = records[1:-1], records[-1]
    if summary.get("record") != "summary":
        return Check("missing summary record")
    if len(rows) != workload.p:
        return Check(f"{len(rows)} mu rows, expected {workload.p}")
    mus = [MU0 * workload.rho**j for j in range(1, workload.p + 1)]
    tol = workload.epsilon * case.b_norm
    check = Check(summary=summary)
    for row, mu in zip(rows, mus):
        if row.get("record") != "mu" or not math.isclose(row["mu"], mu, rel_tol=1e-12):
            return Check(f"row for mu={row.get('mu')} is off the grid")
        for key, est in row.items():
            if key.endswith("_norm_est"):
                check.estimates += 1
                oracle = row[key[: -len("_est")] + "_oracle"]
                if not abs(est - oracle) <= tol:
                    check.misses.append(f"{case.label}: {key} {est:.6g} vs oracle "
                                        f"{oracle:.6g} at mu={mu:.6g} (tolerance {tol:.3g})")
    j = summary.get("chosen_index")
    if not isinstance(j, int) or not 0 <= j < workload.p:
        check.malformed = f"chosen_index {j!r} outside the grid"
    elif summary.get("chosen_mu") != rows[j]["mu"]:
        check.malformed = f"chosen_mu {summary.get('chosen_mu')!r} is not grid value {j}"
    elif not isinstance(summary.get("queries_used"), int) or summary["queries_used"] < 1:
        check.malformed = "queries_used missing"
    return check
