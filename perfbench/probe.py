"""Set-up probe, run in a fresh interpreter by ``run.py``.

``python3 perfbench/probe.py <grid|claims> <seed>`` times importing
the workload's entry modules and building its permuted inputs -- no
simulation -- and prints that time with the calibration kernel's,
timed just before and just after, as one JSON line.  Under
``-X importtime`` the interpreter also reports every import's self
time on stderr.
"""

import os
import sys
import time

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.kernel import kernel_seconds  # noqa: E402

KERNEL_BEFORE = kernel_seconds()
START = time.perf_counter()

import perfbench  # noqa: E402
from perfbench.workloads import build_inputs  # noqa: E402


def main() -> None:
    kind, seed = sys.argv[1], int(sys.argv[2])
    perfbench.add_source_tree()
    build_inputs(kind, seed)
    setup_s = time.perf_counter() - START
    kernel_s = (KERNEL_BEFORE + kernel_seconds()) / 2
    print('{"setup_s": %r, "kernel_s": %r}' % (setup_s, kernel_s))


if __name__ == "__main__":
    main()
