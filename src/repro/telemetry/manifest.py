"""Run manifests: who ran what, with which code, on which interpreter.

A manifest is the provenance record written next to campaign output:
a canonicalized fingerprint of the resolved configuration (so two
runs are comparable iff their fingerprints match), the code
fingerprint the campaign cache keys on, seed, interpreter and
platform versions, and the per-phase host wall-clock aggregated from
spans.

Wall-clock fields (``wall_seconds``, ``phases``) are the only
non-deterministic content; everything else is a pure function of the
configuration and environment.  :func:`manifest_fingerprint_fields`
lists the deterministic subset for differential tests.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Any

__all__ = [
    "build_manifest", "config_fingerprint", "write_manifest",
    "WALL_CLOCK_FIELDS",
]

#: Manifest keys that carry host wall-clock (excluded when diffing
#: two runs of the same configuration for determinism).
WALL_CLOCK_FIELDS = ("wall_seconds", "phases")


def config_fingerprint(config: Any) -> str:
    """SHA-256 over the canonical JSON image of ``config``.

    ``config`` may be anything :func:`repro.campaign.points.canonicalize`
    handles -- argparse namespaces should be passed as ``vars(args)``.
    """
    from repro.campaign.points import canonicalize
    text = json.dumps(canonicalize(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def build_manifest(*, tool: str, argv, config: Any,
                   seed: int | None = None,
                   phases: dict[str, dict[str, float]] | None = None,
                   wall_seconds: float | None = None,
                   cells: dict[str, int] | None = None) -> dict:
    """Assemble the manifest dict (see the module docstring)."""
    from repro.campaign.cache import code_fingerprint
    manifest: dict[str, Any] = {
        "tool": tool,
        "argv": list(argv),
        "config_fingerprint": config_fingerprint(config),
        "code_fingerprint": code_fingerprint(),
        "seed": seed,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "wall_seconds": wall_seconds,
        "phases": phases or {},
    }
    if cells is not None:
        manifest["cells"] = dict(cells)
    return manifest


def write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                    + "\n")
