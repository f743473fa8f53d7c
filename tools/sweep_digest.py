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

    PYTHONPATH=src python tools/sweep_digest.py
"""
from __future__ import annotations

import hashlib
import itertools
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


def configs(methods, sizes=SIZES, phase_bits=PHASE_BITS, **settings):
    """The sweep's RunConfigs over methods, in loop order."""
    for method, kind, (m, n), bits, seed in itertools.product(
            methods, KINDS, sizes, phase_bits, SEEDS):
        yield RunConfig(method=method, problem=kind, m=m, n=n, n_phase_bits=bits,
                        seed=seed, p=8, rho=0.8, **settings)


def sweep(selections) -> str:
    """The digest line of every selection of the sweep."""
    digest = hashlib.sha256()
    done = errors = 0
    for config in selections:
        try:
            text = "\n".join(run(config).to_lines()) + "\n"
            done += 1
        except (ValueError, RuntimeError) as exc:
            text = f"error {type(exc).__name__}: {exc}\n"
            errors += 1
        digest.update(text.encode("utf-8"))
    return f"{digest.hexdigest()}  {done} completed, {errors} errors"


def main() -> int:
    thetas = hashlib.sha256()
    count = 0
    estimate_theta = hhl.estimate_theta

    def recording(theta, *args, **kwargs):
        nonlocal count
        thetas.update(struct.pack("<d", theta))
        count += 1
        return estimate_theta(theta, *args, **kwargs)

    with mock.patch.object(hhl, "estimate_theta", recording):
        print(sweep(configs(QUANTUM)))
    print(sweep(configs(CLASSICAL)))
    print(f"{thetas.hexdigest()}  {count} theta")
    print(sweep(configs(("lcurve",), sizes=SIZES[:2], phase_bits=(8,), epsilon=5e-4)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
