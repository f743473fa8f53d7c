"""Digest of a fixed sweep of CLI selections, for checking that a change keeps every report.

Runs ``qregparam.cli.run`` over lcurve/gcv x the three generators x
{3x2, 4x4, 6x4} x {6, 8, 10} phase bits x seeds {0, 7} (108 selections, p=8,
rho=0.8, every other setting at its default), in that loop order.  Each
selection contributes its report's bytes, or ``error <Type>: <message>\\n``
when it raises ValueError or RuntimeError, to one SHA-256.  Prints the digest
and the counts of completions and errors; any other exception propagates and
the exit status is non-zero.

Two checkouts that give the same digest produced the same reports, byte for
byte.  The digest is not pinned anywhere: a different BLAS build can change
the last bits of a report (see tests/test_golden.py).

    PYTHONPATH=src python tools/sweep_digest.py
"""
from __future__ import annotations

import hashlib
import itertools
import sys

from qregparam.cli import RunConfig, run
from qregparam.problems import KINDS

METHODS = ("lcurve", "gcv")
SIZES = ((3, 2), (4, 4), (6, 4))
PHASE_BITS = (6, 8, 10)
SEEDS = (0, 7)


def main() -> int:
    digest = hashlib.sha256()
    done = errors = 0
    for method, kind, (m, n), bits, seed in itertools.product(
            METHODS, KINDS, SIZES, PHASE_BITS, SEEDS):
        config = RunConfig(method=method, problem=kind, m=m, n=n, n_phase_bits=bits,
                           seed=seed, p=8, rho=0.8)
        try:
            text = "\n".join(run(config).to_lines()) + "\n"
            done += 1
        except (ValueError, RuntimeError) as exc:
            text = f"error {type(exc).__name__}: {exc}\n"
            errors += 1
        digest.update(text.encode("utf-8"))
    print(f"{digest.hexdigest()}  {done} completed, {errors} errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
