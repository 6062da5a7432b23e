"""End-to-end and per-layer benchmark of the ``repro`` simulator.

Run one workload with ``python3 perfbench/run.py --workload grid``; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

import os
import sys

#: The checkout root and the program's source tree inside it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def add_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, ahead of any
    installed copy."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
