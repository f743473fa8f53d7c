"""qregparam benchmark: warm selection time, failure share and simulated cost.

A closed loop with one caller: each selection is one call to
``qregparam.cli.run(RunConfig(..., out=FILE))``, which is what the CLI does
after parsing its arguments, and the next selection starts only when the
previous one has returned.  Run from the checkout root:

    python3 perfbench/run.py --workload lcurve-qpe --seed 1 --seconds 15 --trace 0

The run imports ``qregparam`` from ``src/`` of the checkout and pins the
BLAS/OpenMP thread count to one.  It generates pass 0 of the workload from
``--seed`` and then runs passes (pass ``j`` draws fresh problems from
``(seed, j)``) until ``--seconds`` have elapsed, always finishing the pass it is
in.  Every report is checked (see ``workloads.check_report``) and compared with
``classical_select`` on the same grid and criterion.  The first cycle of pass 0
(every generator and size once) runs untimed first, so that timed selections
find the allocator and library caches warm, and its reports must equal those
of the timed run.

``--trace 0`` prints the end-to-end metrics:

- ``selection_s``: median wall time of one warm selection over every pass.  A
  selection that raises or fails the check ranks as slower than every
  completed one; should the median land on such a selection, the summed wall
  time of all selections is reported in its place.
- ``setup_s``: median over five fresh interpreters of the time to import
  ``qregparam`` and generate (or write) the inputs of pass 0.
- ``peak_rss_mb``: peak resident memory of this process.
- ``completed_frac``: share of pass-0 selections that returned a report that
  passes the check (one minus the failure share, which is printed as
  ``failed_frac`` on the detail line).
- ``queries``: mean ``queries_used`` per completed pass-0 selection.
- ``pick_agree_frac``: share of completed pass-0 selections whose
  ``chosen_index`` equals the classical oracle's.

``--trace 1`` runs every pass twice on the same inputs, once untraced and once
under ``tracer.Tracer`` (alternating which goes first), and prints the
per-layer metrics of the traced copy of pass 0 together with the traced
median selection time and its overhead against the untraced copies.

The line before the result is a detail record with the SHA-256 digest of the
pass-0 report bytes, exception counts by type, the selection-time percentiles
and sample count, layer shares (traced runs) and the machine facts.  Exit code
2 means the checkout holds no ``src/qregparam``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import MU0, WORKLOADS, Check, build_pass, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1
SETUP_PROBES = 5
# Amplitude estimation succeeds with high probability, not always: the
# program's acceptance criterion 6 asks for estimates within epsilon on at
# least 80% of seeds.  A report with an estimate outside epsilon * ||b|| counts
# as a failed selection; the run is incorrect only if such misses exceed this
# share of all estimates checked.
MAX_MISS_RATE = 0.2


@dataclass
class Selection:
    wall: float
    error: str | None = None   # exception type name
    typed: bool = True         # an error the CLI reports as a message (exit 1)
    check: Check | None = None
    queries: int = 0
    agree: bool = False
    report: bytes = b""

    @property
    def completed(self) -> bool:
        return self.error is None and self.check.passed


def references(cases, workload) -> list[int]:
    from qregparam.search import ParameterGrid, classical_select

    grid = ParameterGrid.geometric(MU0, workload.rho, workload.p)
    return [classical_select(c.problem, grid, workload.criterion).chosen_index
            for c in cases]


def sweep(cases, refs, workload, out: Path, tracer=None, first_id: int = 0):
    """Run each case once, in order; time only the ``cli.run`` call.

    ``refs`` are the oracle's picks, computed before any tracer is installed
    so that the check's own work stays out of the per-layer metrics.
    """
    import qregparam.cli as cli  # looked up per call so a tracer's wrapper is used

    done = []
    for i, (case, ref) in enumerate(zip(cases, refs)):
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.selection = first_id + i
        start = time.perf_counter()
        try:
            cli.run(cli.RunConfig(**case.config, out=str(out)))
        except (ValueError, RuntimeError, OSError) as exc:
            done.append(Selection(time.perf_counter() - start, error=type(exc).__name__))
            continue
        except Exception as exc:  # a traceback from the CLI: a defect, not a result
            wall = time.perf_counter() - start
            traceback.print_exc()
            done.append(Selection(wall, error=type(exc).__name__, typed=False))
            continue
        wall = time.perf_counter() - start
        report = out.read_bytes()
        check = check_report(report.decode("utf-8", "replace"), case, workload)
        done.append(Selection(wall, check=check, report=report,
                              queries=check.summary.get("queries_used", 0),
                              agree=check.summary.get("chosen_index") == ref))
    if tracer is not None:
        tracer.selection = None
    return done


def digest(selections) -> str:
    h = hashlib.sha256()
    for s in selections:
        h.update(s.report if s.error is None else f"error {s.error}\n".encode())
    return h.hexdigest()


def median_time(selections) -> float:
    times = [s.wall if s.completed else math.inf for s in selections]
    med = statistics.median(times)
    return med if math.isfinite(med) else sum(s.wall for s in selections)


def tail_percentile(selections) -> dict:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    times = sorted(s.wall if s.completed else math.inf for s in selections)
    n = len(times)
    for q in (99, 95, 90, 75, 50):
        k = math.ceil(q / 100 * n)
        if n - k >= 10:
            value = times[k - 1]
            return {"percentile": q, "value_s": value if math.isfinite(value) else None}
    return {"percentile": None, "value_s": None}


def probe_setup(workload, seed: int, workdir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(probe_dir)
    return samples


def pass_inputs(workload, seed: int, j: int, workdir: Path, first):
    cases = first if j == 0 else build_pass(workload, seed, j, str(workdir))
    return cases, references(cases, workload)


def deterministic(selections) -> dict:
    completed = [s for s in selections if s.completed]
    return {
        "completed_frac": len(completed) / len(selections),
        "queries": statistics.fmean(s.queries for s in completed) if completed else 0.0,
        "pick_agree_frac": (statistics.fmean(s.agree for s in completed)
                            if completed else 0.0),
    }


def failure_counts(selections) -> dict:
    """Failed selections by reason: exception type, or the check that failed."""
    counts: dict[str, int] = {}
    for s in selections:
        if not s.completed:
            key = s.error or ("MalformedReport" if s.check.malformed
                              else "EstimateOutsideTolerance")
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def estimate_misses(selections) -> dict:
    checks = [s.check for s in selections if s.check is not None]
    return {"outside": sum(len(c.misses) for c in checks),
            "checked": sum(c.estimates for c in checks),
            "first": next((c.misses[0] for c in checks if c.misses), None)}


def verdict(selections) -> tuple[bool, list[str]]:
    """Whether the run's outputs are correct, and what is wrong if not."""
    problems = [f"malformed report: {s.check.malformed}" for s in selections
                if s.check is not None and s.check.malformed]
    problems += [f"untyped {s.error}" for s in selections if not s.typed]
    misses = estimate_misses(selections)
    if misses["outside"] > MAX_MISS_RATE * misses["checked"]:
        problems.append(f"{misses['outside']} of {misses['checked']} estimates "
                        "outside epsilon * ||b||")
    return not problems, problems[:5]


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    setup = probe_setup(workload, seed, workdir)
    out = workdir / "report.jsonl"
    first = build_pass(workload, seed, 0, str(workdir))
    cases, refs = pass_inputs(workload, seed, 0, workdir, first)
    warm = sweep(cases[:workload.cycle_size], refs, workload, out)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        cases, refs = pass_inputs(workload, seed, len(passes), workdir, first)
        passes.append(sweep(cases, refs, workload, out))
    every = [s for p in passes for s in p]
    det = deterministic(passes[0])
    metrics = {
        "selection_s": (median_time(every), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "completed_frac": (det["completed_frac"], "frac"),
        "queries": (det["queries"], "queries"),
        "pick_agree_frac": (det["pick_agree_frac"], "frac"),
    }
    correct, problems = verdict(every)
    if digest(warm) != digest(passes[0][:len(warm)]):
        correct = False
        problems.append("pass 0 gave other reports than its warm-up run")
    detail = {
        "report_sha256": digest(passes[0]),
        "passes": len(passes),
        "selection_s": {"median": metrics["selection_s"][0], "n": len(every),
                        "tail": tail_percentile(every)},
        "failed_frac": 1.0 - det["completed_frac"],
        "failures_by_type": failure_counts(every),
        "estimates_outside_tolerance": estimate_misses(every),
        "setup_samples_s": setup,
        "warmup_s": sum(s.wall for s in warm),
        "problems": problems,
    }
    return correct, every, metrics, detail


def run_traced(workload, seed: int, seconds: float, workdir: Path):
    from tracer import Tracer

    out = workdir / "report.jsonl"
    tracer0 = Tracer()
    with tracer0:
        first = build_pass(workload, seed, 0, str(workdir))
    cases, refs = pass_inputs(workload, seed, 0, workdir, first)
    warm = sweep(cases[:workload.cycle_size], refs, workload, out)
    pairs, tracers, next_id = [], [], 0
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        j = len(pairs)
        cases, refs = pass_inputs(workload, seed, j, workdir, first)
        pair = {}
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if not traced:
                pair[traced] = sweep(cases, refs, workload, out)
                continue
            tracer = tracer0 if j == 0 else Tracer()
            with tracer:
                pair[traced] = sweep(cases, refs, workload, out, tracer, next_id)
            tracers.append((j, tracer))
            if j == 0:
                walls0 = {next_id + i: s.wall for i, s in enumerate(pair[traced])}
            next_id += len(cases)
        pairs.append(pair)
    traced_all = [s for p in pairs for s in p[True]]
    untraced_all = [s for p in pairs for s in p[False]]
    layer, shares, attribution = tracer0.summary(walls0)
    layer["cli.report_bytes"] = sum(len(s.report) for s in pairs[0][True])
    traced_s, untraced_s = median_time(traced_all), median_time(untraced_all)
    layer["trace.selection_s"] = traced_s
    layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    _, problems = verdict(traced_all + untraced_all)
    mismatched = [j for j, p in enumerate(pairs) if digest(p[True]) != digest(p[False])]
    if mismatched:
        problems.append(f"tracing changed the reports of passes {mismatched}")
    if digest(warm) != digest(pairs[0][False][:len(warm)]):
        problems.append("pass 0 gave other reports than its warm-up run")
    problems += attribution[:5]
    trace_file = workdir / "trace.jsonl"
    with open(trace_file, "w", encoding="utf-8") as fh:
        for j, tracer in tracers:
            fh.write(json.dumps({"pass": j, "counters": dict(tracer.counters)}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps([j, *span]) + "\n")
    detail = {
        "report_sha256": digest(pairs[0][False]),
        "passes": len(pairs),
        "selection_s": {"traced": traced_s, "untraced": untraced_s,
                        "n": len(traced_all), "tail": tail_percentile(traced_all)},
        "failures_by_type": failure_counts(traced_all + untraced_all),
        "estimates_outside_tolerance": estimate_misses(traced_all + untraced_all),
        "pass0_layer_shares": shares,
        "trace_file": str(trace_file),
        "problems": problems,
    }
    return not problems, traced_all + untraced_all, metrics, detail


UNITS = {
    "statevector.apply.amps": "amps",
    "statevector.apply.amps_per_s": "amps/s",
    "statevector.peak_qubits": "qubits",
    "amplitude.ae_bits.max": "bits",
    "amplitude.ae_bits.sum": "bits",
    "search.durr_hoyer_min.queries": "queries",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def machine() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "threads": THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}", "numpy": np.__version__,
            "loop": "closed, one caller"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qregparam" / "__init__.py").is_file():
        print(f"error: no qregparam package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import qregparam.cli  # noqa: F401  (the tracer patches loaded modules)

    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    runner = run_traced if args.trace else run_untraced
    correct, selections, metrics, detail = runner(workload, args.seed, args.seconds,
                                                  workdir)
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              **detail, "machine": machine()}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": len(selections),
        "failed": sum(not s.completed for s in selections),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
