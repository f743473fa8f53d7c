"""Digests of a fixed sweep of CLI selections, for checking that a change keeps every report.

Runs ``qregparam.cli.run`` over the three generators x {3x2, 4x4, 6x4} x
{6, 8, 10} phase bits x seeds {0, 7} (p=8, rho=0.8, every other setting at
its default), in that loop order, once per method.  Each selection
contributes its report's bytes, or ``error <Type>: <message>\n`` when it
raises ValueError or RuntimeError, to one SHA-256.  Prints four lines, each a
digest with its counts:

1. the 108 quantum selections, ``lcurve`` then ``gcv``;
2. the 216 classical ones, ``classical-lcurve``, ``classical-gcv``,
   ``tikhonov`` and ``tsvd``, in that order;
3. the bits of every theta the quantum selections hand to
   ``hhl.estimate_theta``, as little-endian float64, in call order;
4. 12 tight-epsilon ``lcurve`` selections: epsilon=5e-4 and 8 phase bits
   over the three generators x {3x2, 4x4} x seeds {0, 7}.  Their norms are
   read at 15-19 amplitude-estimation bits, the widths of the benchmark's
   lcurve-ae workload, where the readout's 2^n register values lie almost
   all in the gaps between its tabulated windows; the selections of line 1
   read at 9-12 bits.

``--theta-out PATH`` also writes the thetas behind line 3 to PATH, as
little-endian float64 in call order, so that two checkouts can be compared
theta by theta where line 3 differs; the printed lines stay the same.
``--reports-out PATH`` writes one JSON line per selection, in sweep order:
its config key (method, problem, m, n, n_phase_bits, seed, epsilon) with
``chosen_index``, ``queries_used``, the report's ``*_est`` columns and the
SHA-256 of its report text, or with ``error`` holding the error line.  Two
checkouts whose line 1 differs can then be compared selection by selection.

The first two lines are the digests this tool printed before the theta line
was added, and the first three those it printed before the fourth, so they
stay comparable with older checkouts.  Any other exception propagates and the
exit status is non-zero.

Two checkouts that give the same digests produced the same reports, byte for
byte, from the same theta bits.  A report holds sampled estimates, not theta,
so the third line sees a change in the simulated states that the first may
miss.  The BLAS, OpenMP and MKL thread counts are pinned to 1 before numpy
loads: with two OpenBLAS threads the last bits of theta change while both
report digests stay equal.  The digests are not pinned anywhere: a different
BLAS build can change the last bits of a report (see tests/test_golden.py).

    PYTHONPATH=src python tools/sweep_digest.py [--theta-out PATH] [--reports-out PATH]
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import struct
import sys
from unittest import mock

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from qregparam import hhl  # noqa: E402  (numpy must load after the pins)
from qregparam.cli import RunConfig, run  # noqa: E402
from qregparam.problems import KINDS  # noqa: E402

QUANTUM = ("lcurve", "gcv")
CLASSICAL = ("classical-lcurve", "classical-gcv", "tikhonov", "tsvd")
SIZES = ((3, 2), (4, 4), (6, 4))
PHASE_BITS = (6, 8, 10)
SEEDS = (0, 7)
KEY = ("method", "problem", "m", "n", "n_phase_bits", "seed", "epsilon")


def configs(methods, sizes=SIZES, phase_bits=PHASE_BITS, **settings):
    """The sweep's RunConfigs over methods, in loop order."""
    for method, kind, (m, n), bits, seed in itertools.product(
            methods, KINDS, sizes, phase_bits, SEEDS):
        yield RunConfig(method=method, problem=kind, m=m, n=n, n_phase_bits=bits,
                        seed=seed, p=8, rho=0.8, **settings)


def sweep(selections, records: list) -> str:
    """The digest line of every selection of the sweep; appends one record per selection."""
    digest = hashlib.sha256()
    done = errors = 0
    for config in selections:
        record = {key: getattr(config, key) for key in KEY}
        try:
            report = run(config)
            text = "\n".join(report.to_lines()) + "\n"
            done += 1
            record.update(chosen_index=report.selection.get("chosen_index"),
                          queries_used=report.queries_used,
                          sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
            for column in sorted({c for row in report.rows for c in row if c.endswith("_est")}):
                record[column] = [row[column] for row in report.rows]
        except (ValueError, RuntimeError) as exc:
            text = f"error {type(exc).__name__}: {exc}\n"
            errors += 1
            record["error"] = text.rstrip("\n")
        digest.update(text.encode("utf-8"))
        records.append(record)
    return f"{digest.hexdigest()}  {done} completed, {errors} errors"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Digests of a fixed sweep of CLI selections.")
    ap.add_argument("--theta-out", metavar="PATH",
                    help="also write line 3's thetas here, little-endian float64")
    ap.add_argument("--reports-out", metavar="PATH",
                    help="also write one JSON line per selection here")
    opts = ap.parse_args(argv)
    thetas, records = bytearray(), []
    estimate_theta = hhl.estimate_theta

    def recording(theta, *args, **kwargs):
        thetas.extend(struct.pack("<d", theta))
        return estimate_theta(theta, *args, **kwargs)

    with mock.patch.object(hhl, "estimate_theta", recording):
        print(sweep(configs(QUANTUM), records))
    print(sweep(configs(CLASSICAL), records))
    print(f"{hashlib.sha256(thetas).hexdigest()}  {len(thetas) // 8} theta")
    if opts.theta_out:
        with open(opts.theta_out, "wb") as fh:
            fh.write(thetas)
    print(sweep(configs(("lcurve",), sizes=SIZES[:2], phase_bits=(8,), epsilon=5e-4),
                records))
    if opts.reports_out:
        with open(opts.reports_out, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
