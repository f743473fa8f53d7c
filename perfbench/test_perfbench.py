"""Checks of the benchmark itself.

Run from the checkout root (a few minutes; not part of the tier-1 suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload, trace, cwd=ROOT):
    """One run with a single pass; returns (detail record, result record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=True)
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return detail, result


def deterministic(name):
    return (name.endswith(".calls") or name.startswith("amplitude.ae_bits.")
            or name in ("statevector.apply.amps", "statevector.peak_qubits",
                        "search.durr_hoyer_min.queries", "cli.report_bytes"))


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def traced_pair(request):
    return request.param, bench(request.param, 1), bench(request.param, 1)


def test_traced_runs_repeat_digest_and_counters(traced_pair):
    _, (d1, r1), (d2, r2) = traced_pair
    assert r1["correct"] and r2["correct"], (d1["problems"], d2["problems"])
    assert d1["report_sha256"] == d2["report_sha256"]
    counters = [{k: v["value"] for k, v in r["metrics"].items() if deterministic(k)}
                for r in (r1, r2)]
    assert len(counters[0]) >= 20
    assert counters[0] == counters[1]


def test_traced_run_reports_every_per_layer_metric(traced_pair):
    _, _, (_, result) = traced_pair
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_untraced_run_matches_traced_digest(traced_pair):
    workload, (traced, _), _ = traced_pair
    detail, result = bench(workload, 0)
    assert result["correct"], detail["problems"]
    assert detail["report_sha256"] == traced["report_sha256"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*SPEC["command"], "--workload", "lcurve-qpe", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_flags_estimate_outside_tolerance_and_off_grid_pick(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from qregparam.cli import RunConfig, run
    from workloads import WORKLOADS, build_pass, check_report

    workload = WORKLOADS["lcurve-ae"]
    case = build_pass(workload, SEED, 0, str(tmp_path))[0]
    out = tmp_path / "report.jsonl"
    run(RunConfig(**case.config, out=str(out)))
    lines = out.read_text().splitlines()
    check = check_report("\n".join(lines), case, workload)
    assert check.passed and check.estimates == 2 * workload.p

    row = json.loads(lines[3])
    row["residual_norm_est"] = row["residual_norm_oracle"] + 1.01 * workload.epsilon * case.b_norm
    off_estimate = lines[:3] + [json.dumps(row)] + lines[4:]
    check = check_report("\n".join(off_estimate), case, workload)
    assert check.malformed is None and "residual_norm_est" in check.misses[0]

    summary = json.loads(lines[-1])
    summary["chosen_mu"] *= 1.001
    off_grid = lines[:-1] + [json.dumps(summary)]
    assert "chosen_mu" in check_report("\n".join(off_grid), case, workload).malformed
