"""Command-line driver: problem setup, pipeline dispatch, line-delimited reports.

Reports are UTF-8 line-delimited JSON: one `config` record, one `mu` record per
grid value (quantum estimate paired with its classical oracle value), and one
`summary` record.  Wall time is logged but deliberately kept out of the file so
identical configurations produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .linalg import RegularizedProblem, compute_svd, tikhonov_solve, tsvd_solve
from .mmio import load_matrix, load_vector
from .problems import KINDS, generate_problem
from .search import ParameterGrid, classical_select, gcv_pipeline, lcurve_pipeline

log = logging.getLogger("qregparam")

METHODS = ("lcurve", "gcv", "classical-lcurve", "classical-gcv", "tikhonov", "tsvd")


@dataclass
class RunConfig:
    method: str
    problem: str | None = None          # generator kind, or None with matrix_file
    m: int = 4
    n: int = 4
    noise: float = 0.01
    matrix_file: str | None = None
    rhs_file: str | None = None
    mu0: float = 1.0
    rho: float = 0.9
    p: int = 16
    epsilon: float = 0.05
    n_phase_bits: int = 6
    rank: int = 2
    seed: int = 0
    out: str | None = None
    repeats: int = 5

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        for flag, value in (("--epsilon", self.epsilon), ("--mu0", self.mu0)):
            if not 0 < value < math.inf:
                raise ValueError(f"{flag} must be finite and > 0, got {value}")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"--noise must be finite and >= 0, got {self.noise}")
        if self.n_phase_bits < 1:
            raise ValueError(f"--phase-bits must be >= 1, got {self.n_phase_bits}")
        if self.repeats < 1 or self.repeats % 2 == 0:
            raise ValueError(f"--repeats must be odd and >= 1, got {self.repeats}")
        if self.method == "gcv" and self.rank < 1:
            raise ValueError(f"--rank must be >= 1 for gcv, got {self.rank}")
        if self.matrix_file is None and self.problem is None:
            raise ValueError("need either a generator kind or a matrix file")


@dataclass
class RunReport:
    config: dict
    rows: list[dict]
    selection: dict
    queries_used: int

    def to_lines(self) -> list[str]:
        dump = lambda obj: json.dumps(obj, sort_keys=True)
        lines = [dump({"record": "config", **self.config})]
        lines += [dump({"record": "mu", **row}) for row in self.rows]
        lines.append(dump({"record": "summary", "queries_used": self.queries_used,
                           **self.selection}))
        return lines

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")


def _load_problem(config: RunConfig) -> RegularizedProblem:
    if config.matrix_file is not None:
        A = load_matrix(config.matrix_file)
        if config.rhs_file is None:
            raise ValueError("--matrix-file requires --rhs-file")
        b = load_vector(config.rhs_file)
        return RegularizedProblem(A=A, b=b)
    return generate_problem(config.problem, config.m, config.n, config.noise,
                            config.seed)


def run(config: RunConfig) -> RunReport:
    """Dispatch to the requested pipeline and assemble the report."""
    config.validate()
    t0 = time.perf_counter()
    problem = _load_problem(config)
    grid = ParameterGrid.geometric(config.mu0, config.rho, config.p)
    rng = np.random.default_rng(config.seed)

    if config.method in ("tikhonov", "tsvd"):
        # a single solve: its norms are the one row and the selection
        svd = compute_svd(problem.A)
        if config.method == "tikhonov":
            key, value, sol = "mu", config.mu0, tikhonov_solve(svd, problem.b, config.mu0)
        else:
            key, value, sol = "k", config.rank, tsvd_solve(svd, problem.b, config.rank)
        norms = {"solution_norm": sol.solution_norm, "residual_norm": sol.residual_norm}
        rows = [{key: value, **{f"{name}_oracle": v for name, v in norms.items()}}]
        selection = {f"chosen_{key}": value, **norms}
        queries = 1
    else:
        # one oracle table: every grid row carries the exact norms, and the
        # GCV methods also carry the exact G(mu)
        with_gcv = config.method in ("gcv", "classical-gcv")
        oracle = classical_select(problem, grid, "gcv" if with_gcv else "lcurve-sum")
        if config.method == "lcurve":
            result = lcurve_pipeline(problem, grid, config.n_phase_bits, config.epsilon,
                                     rng, repeats=config.repeats)
        elif config.method == "gcv":
            result = gcv_pipeline(problem, grid, config.rank, config.n_phase_bits,
                                  config.epsilon, rng, repeats=config.repeats)
        else:  # classical-lcurve, classical-gcv
            result = oracle
        rows = []
        for exact, got in zip(oracle.rows, result.rows):
            row = {"mu": exact.mu, "solution_norm_oracle": exact.solution_norm,
                   "residual_norm_oracle": exact.residual_norm}
            if with_gcv:
                row["gcv_oracle"] = exact.criterion
            if config.method == "lcurve":
                row["solution_norm_est"] = got.solution_norm
                row["residual_norm_est"] = got.residual_norm
            row["gcv_est" if config.method == "gcv" else "criterion"] = got.criterion
            rows.append(row)
        selection = {"chosen_index": result.chosen_index, "chosen_mu": result.chosen_mu}
        queries = result.queries_used

    # a file input is named by the SHA-256 of its bytes, not by its path, and has
    # no generator size or noise to record
    files = {} if config.matrix_file is None else {"matrix": config.matrix_file,
                                                    "rhs": config.rhs_file}
    unrecorded = ("out", "m", "n", "noise", "matrix_file", "rhs_file") if files else ("out",)
    report = RunReport(
        config={**{k: v for k, v in asdict(config).items() if k not in unrecorded},
                **{f"{key}_sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()
                   for key, path in files.items()}},
        rows=rows,
        selection=selection,
        queries_used=int(queries),
    )
    wall_time_s = time.perf_counter() - t0
    if config.out:
        report.write(config.out)
    log.info("method=%s chosen=%s wall=%.3fs", config.method, selection, wall_time_s)
    return report


def build_parser() -> argparse.ArgumentParser:
    """Flags named after RunConfig's fields; an omitted flag keeps its field default."""
    ap = argparse.ArgumentParser(
        prog="qregparam",
        description="Choose a Tikhonov regularization parameter by simulated "
                    "quantum L-curve/GCV search or by the classical oracles.",
        argument_default=argparse.SUPPRESS,
    )
    ap.add_argument("--problem", choices=KINDS,
                    help="generator kind (alternative to --matrix-file)")
    ap.add_argument("--m", type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--noise", type=float)
    ap.add_argument("--matrix-file", help="Matrix Market matrix")
    ap.add_argument("--rhs-file", help="Matrix Market right-hand side")
    ap.add_argument("--mu0", type=float)
    ap.add_argument("--rho", type=float)
    ap.add_argument("--p", type=int)
    ap.add_argument("--method", required=True, choices=METHODS)
    ap.add_argument("--epsilon", type=float)
    ap.add_argument("--phase-bits", type=int, dest="n_phase_bits")
    ap.add_argument("--rank", type=int, help="GCV low-rank truncation")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--repeats", type=int,
                    help="odd amplitude-estimation repetitions (median taken)")
    ap.add_argument("--out", help="report path (stdout if omitted)")
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("QREGPARAM_LOG", "WARNING").upper())
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        report = run(config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    if not config.out:
        print("\n".join(report.to_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
