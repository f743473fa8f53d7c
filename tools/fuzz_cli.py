"""Fuzz the command line: every drawn flag set runs, or fails with a typed error.

Each example is one ``qregparam.cli.main(argv)`` call on a generator problem
with m, n <= 4, p <= 8 and at most 10 phase bits, and with --mu0, --epsilon,
--rho and --noise drawn from lists of extreme values (subnormal, underflowing,
overflowing, non-finite, out of range) and ordinary ones.  A run passes if it
exits 0, or exits 1 with stderr starting ``error [`` (main's one-line typed
error); an exception that escapes main is a traceback and fails it.  Warnings
are recorded, not printed, so that stderr holds only what main writes.

Every allocation stays small: a state has at most 16 x 2^10 x 16 amplitudes,
and the gcv shot count, 10 r kappa^2 at the first grid value, stays below
about 1e5 or is refused by CapacityError before any draw (see the one shape
rule in argv_strategy).  tests/test_io_cli.py runs this strategy for 60
derandomized examples; from the checkout root,

    PYTHONPATH=src python tools/fuzz_cli.py 2000 --seed 0

runs N examples from a fixed seed and exits non-zero, with hypothesis's
shrunk counterexample, on the first run that fails.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
import warnings

from hypothesis import HealthCheck, assume, given, seed, settings, strategies as st

from qregparam import cli
from qregparam.problems import KINDS

TINY = 5e-324            # the smallest subnormal
HUGE = sys.float_info.max
MU0 = (TINY, 1e-300, 1e-200, 1e-160, 1e-100, 1e-20, 1e-8, 0.5, 0.9, 1.0, 2.0, 1e3,
       1e100, 1e154, 1e155, 1e300, HUGE, math.inf, math.nan, 0.0, -1.0)
EPSILON = (TINY, 1e-300, 1e-160, 1e-12, 5e-4, 0.05, 0.5, 1.0, 10.0, 1e300, HUGE,
           math.inf, math.nan, 0.0, -0.05)
RHO = (TINY, 1e-300, 0.1, 0.5, 0.9, 0.999999, 1 - 2**-53, 1.0, 0.0, 2.0, math.nan)
NOISE = (0.0, TINY, 1e-300, 1e-8, 0.01, 1.0, 1e10, 1e150, 1e300, HUGE, math.inf,
         math.nan, -0.01)


def _flag(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# Every list ends in the values that the command refuses (0 sizes, even repeats),
# so that they are drawn but do not dominate.  A draw may leave any of these
# flags out, which then keep their defaults; --p is always given, since its
# default of 16 is above the fuzz's p <= 8.
SIZE = (1, 2, 3, 4, 0)
OPTIONAL = {
    "--m": st.sampled_from(SIZE),
    "--n": st.sampled_from(SIZE),
    "--noise": st.sampled_from(NOISE),
    "--mu0": st.sampled_from(MU0),
    "--rho": st.sampled_from(RHO),
    "--epsilon": st.sampled_from(EPSILON),
    "--phase-bits": st.sampled_from((*range(1, 11), 0)),
    "--rank": st.sampled_from(SIZE),
    "--seed": st.sampled_from(range(4)),
    "--repeats": st.sampled_from((1, 3, 5, 2)),
}


@st.composite
def argv_strategy(draw) -> list[str]:
    """One command line: a method, a generator, --p in 0..8 and any optional flags."""
    flags = draw(st.fixed_dictionaries(
        {"--method": st.sampled_from(cli.METHODS), "--problem": st.sampled_from(KINDS),
         "--p": st.sampled_from((*range(1, 9), 0))},
        optional=OPTIONAL))
    # the gcv sampling stage asks for 10 r kappa^2 shots at the first grid value; a
    # hilbert-like matrix with min(m, n) = 3 has kappa^2 ~ 1e5, so at a tiny mu that
    # is 1e6-1e7 shots (up to 90 MB), which the fuzz does not draw
    assume(not (flags["--method"] == "gcv" and flags["--problem"] == "hilbert-like"
                and min(flags.get("--m", 4), flags.get("--n", 4)) == 3))
    return [part for flag, value in flags.items() for part in (flag, _flag(value))]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of cli.main(argv); stdout is dropped and warnings recorded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue()


def check(argv: list[str]) -> None:
    """Exit 0, or exit 1 with a one-line typed error; anything else raises AssertionError."""
    code, err = run_cli(argv)
    assert code == 0 or (code == 1 and err.startswith("error [")), (code, err)
    assert "Traceback" not in err, err


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("examples", type=int, help="number of drawn command lines")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    @seed(args.seed)
    @settings(max_examples=args.examples, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(argv_strategy())
    def fuzz(argv):
        check(argv)

    fuzz()
    print(f"{args.examples} command lines from seed {args.seed}: every one ran or "
          "failed with a typed error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
