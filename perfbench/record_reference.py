"""Record ``perfbench/reference.json``, the output check's reference.

    python3 perfbench/record_reference.py

Simulates the grid and the claims suite once, uncached, and stores the
headline numbers of every cell (see ``workloads.headline``) under its
cell name.  The grid's 96 cells are also claims cells; the script
refuses to write unless both runs agree on them within the golden
tolerance.  Re-record only with a change that is meant to move results,
and say so in that change.
"""

import json
import os
import sys

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import perfbench  # noqa: E402
from perfbench import workloads  # noqa: E402


def cell_headlines(outcomes) -> dict:
    out = {}
    for outcome in outcomes:
        if not outcome.ok:
            raise SystemExit(f"{workloads.cell_name(outcome.point)}: "
                             f"{outcome.error}")
        out[workloads.cell_name(outcome.point)] = workloads.headline(
            outcome.result)
    return out


def main() -> None:
    perfbench.add_source_tree()
    from repro.campaign.runner import run_campaign
    from repro.scenarios.runner import run_suite

    grid = []
    run_campaign(workloads.build_inputs("grid", workloads.DEFAULT_SEED),
                 progress=lambda outcome, done, total: grid.append(outcome))
    claims = []
    report = run_suite(
        workloads.build_inputs("claims", workloads.DEFAULT_SEED),
        progress=lambda outcome, done, total: claims.append(outcome))
    if not report.ok:
        raise SystemExit(f"claims do not all pass: {report.summary()}")
    cells = cell_headlines(claims)
    for name, values in cell_headlines(grid).items():
        bad = workloads.mismatches(cells[name], values)
        if bad:
            raise SystemExit(f"{name}: grid and claims runs disagree on "
                             f"{', '.join(bad)}")
    path = os.path.join(perfbench.ROOT, "perfbench", "reference.json")
    with open(path, "w") as handle:
        json.dump({"cells": cells}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cells)} cells to {os.path.relpath(path)}")


if __name__ == "__main__":
    main()
