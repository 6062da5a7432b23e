"""Content-addressed on-disk cache for simulation results.

Each cell of a campaign is stored as one JSON file whose name is the
SHA-256 of everything that determines the result:

* the point's axes (design, workload, overrides, ...), canonicalized;
* a SHA-256 digest of the point's *built* config (its canonical
  image, with each nested spec standing as its own SHA-256), computed
  once per config in a run, so the key costs the size of the axes
  rather than the size of the config;
* the factory used to build the design point;
* a fingerprint of the ``repro`` package's source code, so any code
  change invalidates every cached cell at once — stale physics can
  never leak into a fresh figure.

Layout: ``<root>/<generation>/<key[:2]>/<key>.json``, where the
generation directory is the code fingerprint (the fan-out keeps
directories small on big sweeps).  A cache stamps its generation
directory's modification time on its first write and on its first hit,
and its first write prunes every other generation not stamped for
:data:`STALE_GENERATION_SECONDS` (a week).  Two checkouts sharing one
cache directory therefore keep each other's entries, while a
generation no checkout uses any more is removed and edits never
accumulate orphaned entries for long.  Writes are atomic (tmp +
rename) so concurrent campaigns sharing a cache directory never read
torn files.  Corrupt or unreadable entries read as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.metrics import SimulationResult
from repro.telemetry.registry import NOOP, on_activation

#: Environment variable naming a cache directory shared across runs.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: A generation last stamped longer ago than this is pruned.
STALE_GENERATION_SECONDS = 7 * 24 * 3600

#: Encodes a cell's key payload; built once, as ``json.dumps`` with
#: these arguments would build one per cell.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Telemetry probes (rebound by the registry activation hook).  The
#: per-instance ``hits``/``misses``/``bytes_read``/``bytes_written``
#: tallies on :class:`ResultCache` are always on -- the campaign CLI
#: summary reports them with or without ``--telemetry``.
_HIT = NOOP
_MISS = NOOP
_READ = NOOP
_WRITTEN = NOOP


def _bind_probes(registry) -> None:
    global _HIT, _MISS, _READ, _WRITTEN
    if registry is None:
        _HIT = _MISS = _READ = _WRITTEN = NOOP
    else:
        _HIT = registry.counter(
            "repro_campaign_cache_hits_total",
            "campaign cells replayed from the on-disk cache")
        _MISS = registry.counter(
            "repro_campaign_cache_misses_total",
            "campaign cell cache lookups that missed")
        _READ = registry.counter(
            "repro_campaign_cache_read_bytes_total",
            "bytes of cached results read")
        _WRITTEN = registry.counter(
            "repro_campaign_cache_written_bytes_total",
            "bytes of results written to the cache")


on_activation(_bind_probes)

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (cached per process)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/campaign``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "campaign"


class ResultCache:
    """A directory of content-addressed ``SimulationResult`` snapshots."""

    def __init__(self, root: Path | str,
                 code_version: str | None = None) -> None:
        self.root = Path(root)
        self.code_version = (code_version if code_version is not None
                             else code_fingerprint())
        #: This generation's directory, joined once: every cell looks
        #: its entry up, and building a pathlib path per lookup cost
        #: about a third of a warm ``get``.
        self._generation_dir = os.path.join(self.root,
                                             self.code_version[:16])
        self._stamped = False
        self._pruned = False
        #: Lifetime lookup tallies (always on; see module docstring).
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @classmethod
    def from_env(cls) -> "ResultCache | None":
        """A cache at ``$REPRO_CACHE_DIR``, or ``None`` when unset."""
        if os.environ.get(CACHE_DIR_ENV):
            return cls(default_cache_dir())
        return None

    def key(self, description: dict, factory_id: str) -> str:
        """The content address of one campaign cell."""
        payload = _KEY_ENCODER.encode(
            {"point": description, "factory": factory_id,
             "code_version": self.code_version})
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def generation_root(self) -> Path:
        """Where this code generation's entries live."""
        return Path(self._generation_dir)

    def path(self, key: str) -> str:
        return os.path.join(self._generation_dir, key[:2], f"{key}.json")

    def _stamp_generation(self) -> None:
        """Mark this generation as in use now (once per instance, best
        effort)."""
        if self._stamped:
            return
        self._stamped = True
        try:
            os.utime(self._generation_dir)
        except OSError:
            pass

    def _prune_stale_generations(self) -> None:
        """Drop other code versions' generations that no cache has
        stamped for :data:`STALE_GENERATION_SECONDS` (best effort)."""
        if self._pruned:
            return
        self._pruned = True
        current = self.generation_root.name
        cutoff = time.time() - STALE_GENERATION_SECONDS
        try:
            others = [d for d in self.root.iterdir()
                      if d.is_dir() and d.name != current]
        except OSError:
            return
        for directory in others:
            try:
                stale = directory.stat().st_mtime < cutoff
            except OSError:
                continue
            if stale:
                shutil.rmtree(directory, ignore_errors=True)

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on any miss."""
        try:
            with open(self.path(key)) as handle:
                text = handle.read()
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("cache entry is not a JSON object")
            result = SimulationResult.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            _MISS.inc()
            return None
        self.hits += 1
        self.bytes_read += len(text)
        _HIT.inc()
        _READ.inc(len(text))
        self._stamp_generation()
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Atomically persist ``result`` under ``key``."""
        self._prune_stale_generations()
        path = self.path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        self._stamp_generation()
        payload = json.dumps(result.to_dict(), sort_keys=True)
        self.bytes_written += len(payload)
        _WRITTEN.inc(len(payload))
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.generation_root.is_dir():
            return 0
        return sum(1 for _ in self.generation_root.glob("*/*.json"))
