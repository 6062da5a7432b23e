"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so nothing the
package imports -- at start-up, over a claims run covering
data-parallel, pipeline, serving and fleet cells, or while writing a
run manifest -- may load a module from outside the standard library.
The checks run in a fresh interpreter, so modules the test runner has
already imported cannot hide an import.  The same way, lowering one
scenario in process (what ``repro trace`` does) must not load the
campaign runner's process pool or the cluster scheduler.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports perfbench's entry modules, runs the quick claims suite and
#: builds a manifest, then prints every newly loaded top-level module
#: that is neither ``repro``, in the standard library, nor a dunder
#: alias such as ``__mp_main__``.
PROBE = """
import importlib
import json
import sys

before = set(sys.modules)
for module in ("repro.__main__", "repro.experiments.matrix",
               "repro.campaign.runner", "repro.scenarios.paper",
               "repro.scenarios.runner", "repro.scenarios.verdict",
               "repro.campaign.cache", "repro.serving.server",
               "repro.cluster.simulator", "repro.pipeline.lowering"):
    importlib.import_module(module)

from repro.scenarios.paper import paper_suite
from repro.scenarios.runner import run_suite
from repro.telemetry.manifest import build_manifest

report = run_suite(paper_suite(quick=True))
build_manifest(tool="packaging", argv=[], config={"quick": True})
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(name for name in loaded
                 if name != "repro"
                 and name not in sys.stdlib_module_names
                 and not (name.startswith("__") and name.endswith("__")))
print(json.dumps({"cells": report.n_cells, "ok": report.ok,
                  "foreign": foreign}))
"""


def test_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["cells"] == 32 and probe["ok"]
    assert probe["foreign"] == []


#: Imports what ``repro trace`` needs to lower one scenario and prints
#: which process-pool modules came with it.
TRACE_PROBE = """
import json
import sys

import repro.campaign.points
import repro.scenarios.lowering

print(json.dumps([name for name in ("multiprocessing",
                                    "concurrent.futures.process")
                  if name in sys.modules]))
"""


def test_lowering_a_scenario_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", TRACE_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


#: Imports what ``repro trace`` needs to lower one scenario and prints
#: which cluster scheduler modules came with it.
CLUSTER_PROBE = """
import json
import sys

import repro.scenarios.lowering

print(json.dumps([name for name in ("repro.cluster.simulator",
                                    "repro.cluster.policies",
                                    "repro.cluster.oracle",
                                    "repro.cluster.pool")
                  if name in sys.modules]))
"""


def test_lowering_a_scenario_loads_no_cluster_scheduler():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CLUSTER_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []
