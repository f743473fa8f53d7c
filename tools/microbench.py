"""Per-stage timings of the per-mu chain, with spread and peak traced memory.

Times each hhl stage (solver, A x, residual), each norm estimator and the
GCV singular-value sampler on three cases: low-rank 4x4 and 8x6 at 10 phase
bits and low-rank 4x4 at 8 bits (seed 0, noise 0.01, mu = 0.5, epsilon
0.05).  Each stage is called with the state its predecessor built; after
--warmup untimed calls, --repeats calls are timed one by one, and one more
call runs under tracemalloc for its peak.  Per case and stage it prints the
median and quartiles of the call time and the peak traced memory.  The
BLAS, OpenMP and MKL thread counts are pinned to 1 before numpy loads.
Each tree is measured in a subprocess that imports qregparam from that
tree's ``src``.

Layer costs do not depend on how many passes a benchmark run reaches, so
this compares two trees where the end-to-end benchmark cannot: with
``--against REV`` the revision's ``src`` is exported with ``git archive``
into a temporary directory, and --rounds subprocess runs of each tree
alternate (the revision first in even rounds); every call time of a side
is pooled across its rounds, and its peak is the largest.  ``--json PATH``
writes the result.  From the checkout root:

    python tools/microbench.py [--repeats 200] [--warmup 20]
        [--against REV] [--rounds 4] [--json PATH]
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = Path(__file__).resolve().parent.parent
CASES = (("low-rank 4x4, 10 bits", 4, 4, 10),
         ("low-rank 8x6, 10 bits", 8, 6, 10),
         ("low-rank 4x4, 8 bits", 4, 4, 8))
MU, EPSILON, NOISE, SHOTS = 0.5, 0.05, 0.01, 1000


def stages(m: int, n: int, n_bits: int) -> list[tuple[str, object]]:
    """(name, call) for each stage, in chain order; each call returns what it builds."""
    import numpy as np
    from qregparam import (apply_A_state, build_extended, estimate_residual_norm,
                           estimate_solution_norm, generate_problem, hhl_solution_state,
                           principal_singular_values, residual_state)

    prob = generate_problem("low-rank", m, n, NOISE, 0)
    ext, ext_A = build_extended(prob.A, MU), build_extended(prob.A, 0.0)
    b, rng = prob.b, np.random.default_rng(0)
    sol = hhl_solution_state(ext, b, n_bits)
    ax = apply_A_state(sol, ext_A)
    res = residual_state(ax, ext, b)
    return [
        ("hhl_solution_state", lambda: hhl_solution_state(ext, b, n_bits)),
        ("apply_A_state", lambda: apply_A_state(sol, ext_A)),
        ("residual_state", lambda: residual_state(ax, ext, b)),
        ("estimate_solution_norm",
         lambda: estimate_solution_norm(sol, ext, b, EPSILON, rng)),
        ("estimate_residual_norm",
         lambda: estimate_residual_norm(res, ext, b, EPSILON, rng)),
        ("principal_singular_values",
         lambda: principal_singular_values(ext, max(1, min(m, n) // 2), n_bits, SHOTS,
                                           rng)),
    ]


def measure(repeats: int, warmup: int) -> dict:
    """{case: {stage: {"times_s": [...], "peak_bytes": int}}} for the imported tree."""
    warnings.simplefilter("ignore", RuntimeWarning)  # the sampler's low-rank premise
    result = {}
    for label, m, n, n_bits in CASES:
        result[label] = {}
        for name, call in stages(m, n, n_bits):
            for _ in range(warmup):
                call()
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            result[label][name] = {"times_s": times, "peak_bytes": peak}
    return result


def summary(times: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_s": med, "quartiles_s": [q1, q3], "n": len(times)}


def run_tree(src: Path, repeats: int, warmup: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", "--repeats", str(repeats),
         "--warmup", str(warmup)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout)


def against(rev: str, rounds: int, repeats: int, warmup: int) -> dict:
    """Alternate subprocess runs of rev's src and this checkout's, pooling call times."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {rev: Path(tmp) / "src", "this tree": ROOT / "src"}
        pooled: dict = {side: {} for side in trees}
        for i in range(rounds):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in order:
                for label, by_stage in run_tree(trees[side], repeats, warmup).items():
                    for name, got in by_stage.items():
                        slot = pooled[side].setdefault(label, {}).setdefault(
                            name, {"times_s": [], "peak_bytes": 0})
                        slot["times_s"] += got["times_s"]
                        slot["peak_bytes"] = max(slot["peak_bytes"], got["peak_bytes"])
    return pooled


def table(pooled: dict) -> dict:
    """{side: {case: {stage: summary + peak}}} from the pooled call times."""
    return {side: {label: {name: {**summary(got["times_s"]), "peak_bytes": got["peak_bytes"]}
                           for name, got in by_stage.items()}
                   for label, by_stage in cases.items()}
            for side, cases in pooled.items()}


def show(result: dict) -> None:
    sides = list(result)
    head = "".join(f" | {side[:12]:>12} ms [q1-q3]      peak kB" for side in sides)
    print(f"{'case':<22} {'stage':<26}{head}")
    for label in result[sides[0]]:
        for name in result[sides[0]][label]:
            cells = ""
            for side in sides:
                s = result[side][label][name]
                q1, q3 = (1e3 * q for q in s["quartiles_s"])
                cells += (f" | {1e3 * s['median_s']:9.4f} [{q1:.4f}-{q3:.4f}]"
                          f" {s['peak_bytes'] / 1024:8.1f}")
            print(f"{label:<22} {name:<26}{cells}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--warmup", type=int, default=20)
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--json", metavar="PATH")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)
    if opts.repeats < 1 or opts.warmup < 0 or opts.rounds < 1:
        ap.error("--repeats and --rounds must be >= 1 and --warmup >= 0")
    if opts.child:
        print(json.dumps(measure(opts.repeats, opts.warmup)))
        return 0
    if opts.against:
        pooled = against(opts.against, opts.rounds, opts.repeats, opts.warmup)
    else:
        pooled = {"this tree": run_tree(ROOT / "src", opts.repeats, opts.warmup)}
    result = table(pooled)
    show(result)
    if opts.json:
        meta = {"repeats": opts.repeats, "warmup": opts.warmup, "mu": MU,
                "epsilon": EPSILON, "shots": SHOTS}
        if opts.against:
            meta.update(against=opts.against, rounds=opts.rounds)
        Path(opts.json).write_text(json.dumps({"settings": meta, "result": result},
                                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
