"""Digests of a fixed sweep of CLI selections, for checking that a change keeps every report.

Runs ``qregparam.cli.run`` over the three generators x {3x2, 4x4, 6x4} x
{6, 8, 10} phase bits x seeds {0, 7} (p=8, rho=0.8, every other setting at
its default), in that loop order, once per method.  Each selection
contributes its report's bytes, or ``error <Type>: <message>\\n`` when it
raises ValueError or RuntimeError, to one SHA-256.  Prints two lines, each a
digest with its counts of completions and errors:

1. the 108 quantum selections, ``lcurve`` then ``gcv``;
2. the 216 classical ones, ``classical-lcurve``, ``classical-gcv``,
   ``tikhonov`` and ``tsvd``, in that order.

The first line is the digest this tool has always printed, so it stays
comparable with older checkouts.  Any other exception propagates and the
exit status is non-zero.

Two checkouts that give the same digests produced the same reports, byte for
byte.  The digests are not pinned anywhere: a different BLAS build can change
the last bits of a report (see tests/test_golden.py).

    PYTHONPATH=src python tools/sweep_digest.py
"""
from __future__ import annotations

import hashlib
import itertools
import sys

from qregparam.cli import RunConfig, run
from qregparam.problems import KINDS

QUANTUM = ("lcurve", "gcv")
CLASSICAL = ("classical-lcurve", "classical-gcv", "tikhonov", "tsvd")
SIZES = ((3, 2), (4, 4), (6, 4))
PHASE_BITS = (6, 8, 10)
SEEDS = (0, 7)


def sweep(methods) -> str:
    """The digest line of every selection of the sweep over methods."""
    digest = hashlib.sha256()
    done = errors = 0
    for method, kind, (m, n), bits, seed in itertools.product(
            methods, KINDS, SIZES, PHASE_BITS, SEEDS):
        config = RunConfig(method=method, problem=kind, m=m, n=n, n_phase_bits=bits,
                           seed=seed, p=8, rho=0.8)
        try:
            text = "\n".join(run(config).to_lines()) + "\n"
            done += 1
        except (ValueError, RuntimeError) as exc:
            text = f"error {type(exc).__name__}: {exc}\n"
            errors += 1
        digest.update(text.encode("utf-8"))
    return f"{digest.hexdigest()}  {done} completed, {errors} errors"


def main() -> int:
    print(sweep(QUANTUM))
    print(sweep(CLASSICAL))
    return 0


if __name__ == "__main__":
    sys.exit(main())
