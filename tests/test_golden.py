"""Cross-commit regression: fixed-seed selections against recorded values.

Each case is cli.run on a 3x2 generated problem with p = 8, rho = 0.8,
8 phase bits and seed 7.  chosen_index and queries_used must match exactly
and every *_est column within 1e-12 relative.  The values were recorded
before the register layout was unified, which left them bit for bit equal.
Report SHA-256s are not pinned: another BLAS build may move the last bits of
an estimate.
"""
import math

import pytest

from qregparam.cli import RunConfig, run

GOLDEN = {
    ("lcurve", "geometric-spectrum"): {
        "chosen_index": 0, "queries_used": 61436,
        "residual_norm_est": [
            0.36459686317173845, 0.27924688369183687, 0.20923031093455616,
            0.15189156034868262, 0.11239898385129082, 0.0732550967084582,
            0.04767486808167641, 0.03921094205054556,
        ],
        "solution_norm_est": [
            0.5097886523382303, 0.6025770320356694, 0.6838437041368667,
            0.7506265883989327, 0.8044954273598843, 0.8443493053192683,
            0.879158574036264, 0.9038344147367439,
        ],
    },
    ("lcurve", "low-rank"): {
        "chosen_index": 0, "queries_used": 130556,
        "residual_norm_est": [
            0.3136596594423144, 0.23124902479705414, 0.15432190003197457,
            0.11456557356580988, 0.07537980361209051, 0.05653627174996716,
            0.035335544008910244, 0.022084773469110804,
        ],
        "solution_norm_est": [
            0.49068340397267274, 0.5725102304224038, 0.6372587493285696,
            0.6905280096531516, 0.7276711513162785, 0.7554189509245635,
            0.7720834156031324, 0.7841588977303091,
        ],
    },
    ("lcurve", "hilbert-like"): {
        "chosen_index": 0, "queries_used": 151036,
        "residual_norm_est": [
            0.053293359157848906, 0.03915334135149025, 0.02803730507341957,
            0.023785569553715993, 0.018069539512057226, 0.01662208269707937,
            0.015148957940861064, 0.014133749562597433,
        ],
        "solution_norm_est": [
            0.10347917499003072, 0.1143560203044182, 0.1215803201168773,
            0.12856937916950964, 0.13256104127953858, 0.13623653734866253,
            0.13949132892394914, 0.1433929842795106,
        ],
    },
    ("gcv", "geometric-spectrum"): {
        "chosen_index": 7, "queries_used": 41033,
        "gcv_est": [
            0.029749440096624846, 0.021223389720171876, 0.014709453341193765,
            0.009594879282795026, 0.00547581956291298, 0.003256359895665047,
            0.001592692280034935, 0.001202747827700004,
        ],
    },
    ("gcv", "low-rank"): {
        "chosen_index": 7, "queries_used": 87128,
        "gcv_est": [
            0.01723405575800525, 0.010205804335535579, 0.005527455355074579,
            0.0028661448134452796, 0.001572197619143016, 0.0007566744125676604,
            0.00030355543233914176, 0.00012124770714506675,
        ],
    },
    ("gcv", "hilbert-like"): {
        "chosen_index": 7, "queries_used": 107631,
        "gcv_est": [
            0.0005556556282457335, 0.0003222307506562188, 0.0001939900240578629,
            0.0001123639887645842, 9.990513082189515e-05, 6.897451701768738e-05,
            5.917442714386259e-05, 5.349176237686393e-05,
        ],
    },
}


@pytest.mark.parametrize("method, kind", sorted(GOLDEN))
def test_selection_matches_recorded_values(method, kind):
    expect = GOLDEN[(method, kind)]
    report = run(RunConfig(method=method, problem=kind, m=3, n=2, p=8, rho=0.8,
                           n_phase_bits=8, seed=7))
    assert report.selection["chosen_index"] == expect["chosen_index"]
    assert report.queries_used == expect["queries_used"]
    for key in ("solution_norm_est", "residual_norm_est", "gcv_est"):
        if key in expect:
            got = [row[key] for row in report.rows]
            assert len(got) == len(expect[key])
            for g, e in zip(got, expect[key]):
                assert math.isclose(g, e, rel_tol=1e-12, abs_tol=0.0), (key, g, e)
