"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing ``qregparam`` (with its CLI module) and generating, or for
file-input workloads writing, the inputs of the first pass.  Run from the
checkout root:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

It prints the elapsed seconds on one line.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, build_pass  # noqa: E402  (imports no qregparam)


def main(argv: list[str]) -> None:
    name, seed, workdir = argv
    start = time.perf_counter()
    import qregparam.cli  # noqa: F401

    build_pass(WORKLOADS[name], int(seed), 0, workdir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1:])
