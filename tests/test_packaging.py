"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so nothing the
package imports -- at start-up, over a claims run covering
data-parallel, pipeline, serving and fleet cells, or while writing a
run manifest -- may load a module from outside the standard library.
The checks run in a fresh interpreter, so modules the test runner has
already imported cannot hide an import.  The same way, lowering one
scenario in process (what ``repro trace`` does) must not load the
campaign runner's process pool or the cluster scheduler, ``repro
list`` must load no simulator, and the simulator must not load the
studies' own models.  No package ``__init__`` imports anything, so
each name has one import path; the root's public names load on first
use.
"""

from __future__ import annotations

import ast
import enum
import importlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.simulator import simulate
from repro.enums import Enum

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


def loaded(statement: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after
    running ``statement``."""
    probe = (f"{statement}\n"
             "import json, sys\n"
             f"print(json.dumps([name for name in {list(modules)!r}\n"
             "                  if name in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


#: What ``repro trace`` imports to lower one scenario.
LOWERING = "import repro.campaign.points\nimport repro.scenarios.lowering"

#: Every module of the package, by dotted name.
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    .removesuffix(".__init__")
    for path in (SRC / "repro").rglob("*.py"))


def test_lowering_a_scenario_loads_no_process_pool():
    assert loaded(LOWERING, ("multiprocessing",
                             "concurrent.futures.process")) == []


def test_lowering_a_scenario_loads_no_cluster_scheduler():
    assert loaded(LOWERING, ("repro.cluster.simulator",
                             "repro.cluster.policies",
                             "repro.cluster.oracle",
                             "repro.cluster.pool")) == []


def test_package_inits_import_nothing():
    """Each name has one import path, its defining module: no package
    ``__init__`` imports anything, except that ``repro.telemetry``
    imports what its own switches call and the root imports only
    inside its PEP 562 ``__getattr__``."""
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        package = path.parent.relative_to(SRC).as_posix()
        if package == "repro/telemetry":
            continue
        body = ast.parse(path.read_text()).body
        if package == "repro":
            assert [node.name for node in body
                    if isinstance(node, ast.FunctionDef)] == ["__getattr__"]
            body = [node for node in body
                    if not isinstance(node, ast.FunctionDef)]
        imports = [node.lineno for top in body for node in ast.walk(top)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert imports == [], f"{path} imports on lines {imports}"


def test_repro_list_loads_only_the_entry_point():
    """``python -m repro list`` (and the installed ``repro list``)
    loads no simulator module."""
    statement = "from repro.__main__ import main\nmain(['list'])"
    assert loaded(statement, MODULES) == ["repro", "repro.__main__"]


def test_simulator_loads_no_runtime_api_or_power_model():
    """Table I's runtime API, the Table IV power model and the device
    generations are for their own studies, not for ``simulate()``."""
    assert loaded("import repro.core.simulator", (
        "repro.vmem.allocator", "repro.vmem.driver", "repro.vmem.manager",
        "repro.vmem.runtime_api", "repro.memnode.power",
        "repro.accelerator.generations")) == []


class TestRootNames:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        assert repro.simulate is simulate
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_quickstart_runs(self):
        """The quickstart in the root docstring runs as written."""
        lines = []
        block = repro.__doc__.split("quickstart::\n", 1)[1]
        for line in block.splitlines():
            if line and not line.startswith("    "):
                break
            lines.append(line)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent("\n".join(lines))],
            env=env, capture_output=True, text=True, check=True)
        assert done.stdout.startswith("speedup: ")

    def test_root_submodules_still_import(self):
        assert loaded("from repro import bench, telemetry",
                      ("repro.bench", "repro.telemetry")) \
            == ["repro.bench", "repro.telemetry"]


class TestEnumerations:
    """Every enumeration derives from :class:`repro.enums.Enum`, whose
    members hash by identity (in C) instead of through the Python-level
    ``enum.Enum.__hash__``."""

    @staticmethod
    def _enumerations() -> list[type]:
        found = []
        for name in MODULES:
            for value in vars(importlib.import_module(name)).values():
                if (isinstance(value, type)
                        and issubclass(value, enum.Enum)
                        and value.__module__ == name
                        and value is not Enum):
                    found.append(value)
        return found

    def test_every_enumeration_hashes_by_identity(self):
        enumerations = self._enumerations()
        assert len(enumerations) == 15
        for cls in enumerations:
            assert issubclass(cls, Enum), cls
            for member in cls:
                assert hash(member) == object.__hash__(member)
                assert cls(member.value) is member
                assert pickle.loads(pickle.dumps(member)) is member

    def test_enum_base_imports_only_the_standard_library(self):
        assert loaded("import repro.enums", MODULES) \
            == ["repro", "repro.enums"]
