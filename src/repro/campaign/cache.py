"""Content-addressed on-disk cache for simulation results.

Each cell of a campaign is stored as one log line keyed by the SHA-256
of everything that determines the result:

* the point's axes (design, workload, overrides, ...), canonicalized;
* a SHA-256 digest of the point's *built* config (its canonical
  image, with each nested spec standing as its own SHA-256), computed
  once per config in a run, so the key costs the size of the axes
  rather than the size of the config;
* the factory used to build the design point;
* a fingerprint of the ``repro`` package's source code, so any code
  change invalidates every cached cell at once — stale physics can
  never leak into a fresh figure.

Layout: ``<root>/<generation>/<name>.log``, where the generation
directory is the code fingerprint and each :class:`ResultCache` that
writes appends to its own log, created under a unique name on its
first write.  A log holds one ``<key> <result JSON>`` line per write.
An instance reads every complete line of its generation's logs into
memory on its first lookup and adds its own writes to that index; a
cold run therefore creates one directory and one file, and a warm run
opens one file per writer that filled the cache.

A cache stamps its generation directory's modification time on its
first write and on its first hit, and its first write prunes every
other generation not stamped for :data:`STALE_GENERATION_SECONDS` (a
week).  Two checkouts sharing one cache directory therefore keep each
other's entries, while a generation no checkout uses any more is
removed and edits never accumulate orphaned entries for long.

An entry is all or nothing: it is written with one ``os.write`` of
the whole line to an append-only descriptor (a short write raises),
and a reader keeps only lines that end in a newline, so a writer cut
off mid-entry leaves a torn tail that reads as a miss.  Writers never
share a file, so concurrent campaigns may share a cache directory.
A line whose JSON does not decode to a result reads as a miss, and
every candidate line of a key is kept, so a cell re-simulated after a
corrupt entry replays from its new line.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

from repro.core.metrics import SimulationResult
from repro.telemetry.registry import NOOP, on_activation

#: Environment variable naming a cache directory shared across runs.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: A generation last stamped longer ago than this is pruned.
STALE_GENERATION_SECONDS = 7 * 24 * 3600

#: File name suffix of a writer's log in a generation directory.
LOG_SUFFIX = ".log"

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
        self._generation_dir = os.path.join(self.root,
                                             self.code_version[:16])
        self._stamped = False
        self._pruned = False
        #: Key -> every candidate JSON text of it, in log order; read
        #: from the generation's logs on the first lookup.
        self._index: dict[str, list[bytes]] | None = None
        #: This instance's own log, created by its first write.
        self._log: str | None = None
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

    def _read_generation(self) -> dict[str, list[bytes]]:
        """Every complete line of this generation's logs, by key.

        A line counts only once its newline is on disk: a writer cut
        off mid-entry leaves a torn last line, which is dropped.
        """
        index: dict[str, list[bytes]] = {}
        try:
            names = sorted(os.listdir(self._generation_dir))
        except OSError:
            return index
        for name in names:
            if not name.endswith(LOG_SUFFIX):
                continue
            try:
                with open(os.path.join(self._generation_dir, name),
                          "rb") as handle:
                    lines = handle.read().split(b"\n")
            except OSError:
                continue
            for line in lines[:-1]:
                key, sep, payload = line.partition(b" ")
                if sep:
                    index.setdefault(key.decode("ascii", "replace"),
                                     []).append(payload)
        return index

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on any miss."""
        if self._index is None:
            self._index = self._read_generation()
        for payload in self._index.get(key, ()):
            try:
                data = json.loads(payload)
                if not isinstance(data, dict):
                    raise ValueError("cache entry is not a JSON object")
                result = SimulationResult.from_dict(data)
            except (ValueError, KeyError, TypeError):
                continue
            self.hits += 1
            self.bytes_read += len(payload)
            _HIT.inc()
            _READ.inc(len(payload))
            self._stamp_generation()
            return result
        self.misses += 1
        _MISS.inc()
        return None

    def put(self, key: str, result: SimulationResult) -> None:
        """Append ``result`` under ``key`` to this instance's log."""
        self._prune_stale_generations()
        payload = json.dumps(result.to_dict(), sort_keys=True).encode()
        self._append(b"%s %s\n" % (key.encode(), payload))
        self.bytes_written += len(payload)
        _WRITTEN.inc(len(payload))
        if self._index is not None:
            self._index.setdefault(key, []).append(payload)

    def _append(self, line: bytes) -> None:
        """Write one whole entry with a single ``os.write`` to this
        instance's log, creating the log (``O_EXCL``, a fresh random
        name) on the first call."""
        log = self._log
        flags = os.O_WRONLY | os.O_APPEND
        if log is None:
            os.makedirs(self._generation_dir, exist_ok=True)
            log = os.path.join(self._generation_dir,
                               os.urandom(8).hex() + LOG_SUFFIX)
            flags |= os.O_CREAT | os.O_EXCL
        fd = os.open(log, flags, 0o666)
        self._log = log
        self._stamp_generation()
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            # The log now ends in a torn entry; never append after it.
            self._log = None
            raise OSError(f"short write to cache log {log}: {written} "
                          f"of {len(line)} bytes")

    def __len__(self) -> int:
        """Distinct keys on disk in this generation."""
        return len(self._read_generation())
