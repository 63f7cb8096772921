"""Content-addressed on-disk artifact cache.

Simulated traces dominate every experiment's cost, yet they are pure
functions of (scenario configuration, attack composition, simulator code).
This module persists them across processes: each artifact is stored under a
key derived from a **stable hash** of its inputs plus a **code version**
digest of the simulation-relevant sources, so editing the simulator,
routing, traffic or attack code silently invalidates every stale entry.

Design points (see DESIGN.md §"Runtime layer"):

* **Keying** — :func:`stable_key` canonicalises dataclasses, enums and
  containers into JSON (floats via ``repr`` round-trip format) and hashes
  with SHA-256; :func:`code_version` hashes the source bytes of
  ``repro.simulation`` / ``repro.routing`` / ``repro.traffic`` /
  ``repro.attacks`` so detector-side edits do *not* invalidate traces.
* **Atomic writes** — artifacts are pickled to a temp file in the cache
  directory and ``os.replace``-d into place, so a crashed or concurrent
  writer can never leave a half-written entry under a live key.
* **Corruption tolerance** — an unreadable or unpicklable entry is treated
  as a miss and deleted; callers fall back to re-simulation.
* **Write degradation** — a full or read-only disk never crashes a run:
  each refused write is counted, and after a few consecutive failures the
  cache flips to read-only for the rest of the process (cache-off, not
  crash).
* **Eviction** — least-recently-used by file mtime (touched on every hit),
  bounded by ``max_entries`` and ``max_bytes``.

The module also hosts :class:`ResumeJournal` — the append-only record of
completed trace keys that :class:`~repro.runtime.session.Session` writes
next to the cache so an interrupted sweep resumes instead of restarting.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import pickle
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.runtime.metrics import RuntimeMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.faults import FaultPlan

#: Packages whose source participates in the artifact code version — the
#: ones whose behaviour determines a simulated trace.  Detection-side code
#: (core/ml/features/eval) deliberately excluded: it consumes traces.
_VERSIONED_PACKAGES = ("simulation", "routing", "traffic", "attacks")

_KEY_SCHEMA = "v1"  #: bump to invalidate every existing cache entry


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serialisable form.

    Dataclasses become name-tagged field dicts, enums their values, floats
    a ``repr``-round-trip string (so ``0.1`` keys identically on every
    platform), and containers recurse.  Raises :class:`TypeError` for
    anything without a canonical form — cache keys must never silently
    depend on ``repr`` of arbitrary objects.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            **{
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Enum):
        return canonicalize(obj.value)
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonicalize(x) for x in obj), key=json.dumps)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache keying")


def attack_signature(attack: Any) -> dict:
    """Canonical description of an (uninstalled) attack's composition.

    Captures the class identity and every constructor-derived attribute;
    runtime wiring (``sim``, ``nodes``, ``active``) is excluded so the
    signature is stable whether or not the instance was ever installed.
    """
    state = {
        k: v
        for k, v in vars(attack).items()
        if k not in ("sim", "nodes", "active")
    }
    return {
        "__attack__": f"{type(attack).__module__}.{type(attack).__qualname__}",
        **{k: canonicalize(v) for k, v in sorted(state.items())},
    }


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the simulation-relevant package sources.

    Content-based (not mtime-based): reinstalling identical code keeps the
    cache warm, while any behavioural edit to the simulator, protocols,
    traffic agents or attacks produces fresh keys.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for package in _VERSIONED_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stable_key(payload: Any, version: str | None = None) -> str:
    """SHA-256 content address for ``payload`` + the code version."""
    version = code_version() if version is None else version
    blob = json.dumps(
        {"schema": _KEY_SCHEMA, "code": version, "payload": canonicalize(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    Bytes land in a temp file in the *same directory* (same filesystem,
    so the rename is atomic), are fsync-ed, then ``os.replace``-d into
    place: a reader never observes a half-written file, and a crash
    between write and rename leaves the old content intact.  The cache
    and the stream checkpoint writer share this path.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - read-only dir refuses unlink too
            pass
        raise


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


class ArtifactCache:
    """A directory of pickled artifacts addressed by content hash.

    Parameters
    ----------
    cache_dir:
        Storage directory; ``None`` resolves via :func:`default_cache_dir`.
    max_entries, max_bytes:
        Eviction bounds, each at least 1 — oldest (by mtime, i.e. least
        recently used) entries are removed after every write until both
        hold.
    metrics:
        The :class:`~repro.runtime.metrics.RuntimeMetrics` that receives
        eviction and write-failure events (one is created otherwise).
        Hit/miss accounting stays with the caller, which knows what the
        artifact *is*.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`; cache-kind
        specs are matched against this instance's put ordinal
        (deterministic fault injection for tests).
    """

    _SUFFIX = ".pkl"
    #: Consecutive refused writes before the cache degrades to read-only.
    _DISABLE_WRITES_AFTER = 3

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        max_entries: int = 512,
        max_bytes: int = 4 << 30,
        metrics: RuntimeMetrics | None = None,
        faults: "FaultPlan | None" = None,
    ):
        # Negated comparisons, so NaN fails them too.
        for name, value in (("max_entries", max_entries), ("max_bytes", max_bytes)):
            if not value >= 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        self.dir = Path(cache_dir).expanduser() if cache_dir is not None else default_cache_dir()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.faults = faults
        self.writes_disabled = False
        self._put_ordinal = 0
        self._consecutive_write_failures = 0
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # Unwritable cache location: degrade to cache-off, never crash.
            self.writes_disabled = True
            self.metrics.record("cache_off", f"cannot create cache dir {self.dir}: {exc}")

    # ------------------------------------------------------------------
    def key(self, payload: Any) -> str:
        """Content address for an artifact description (see :func:`stable_key`)."""
        return stable_key(payload)

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}{self._SUFFIX}"

    def get(self, key: str) -> Any | None:
        """Load an artifact, or ``None`` on miss *or* corruption.

        A corrupt entry (truncated write from a killed process, disk
        damage, pickle from an incompatible interpreter) is deleted so the
        slot heals; the caller re-simulates exactly as for a plain miss.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            artifact = pickle.loads(data)
        except Exception:
            path.unlink(missing_ok=True)
            return None
        try:
            os.utime(path)  # refresh LRU position
        except OSError:
            pass
        return artifact

    def put(self, key: str, artifact: Any) -> bool:
        """Atomically store an artifact; returns False if the disk refused.

        Write failures (full/read-only filesystem) are non-fatal: the
        session simply keeps its in-memory copy.  After
        ``_DISABLE_WRITES_AFTER`` *consecutive* failures the cache stops
        attempting writes for the rest of the process — a dead disk is
        not hammered once per trace — while reads stay live.
        """
        fault = (
            self.faults.cache_fault(self._put_ordinal)
            if self.faults is not None else None
        )
        self._put_ordinal += 1
        if self.writes_disabled:
            return False
        path = self._path(key)
        try:
            if fault is not None and fault.kind == "cache-enospc":
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            if fault is not None and fault.kind == "cache-corrupt":
                # A torn write: bytes land on disk but are not a pickle.
                atomic_write_bytes(path, b"\x00injected corrupt artifact")
            else:
                atomic_write_bytes(
                    path, pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
                )
        except (OSError, pickle.PicklingError) as exc:
            self._consecutive_write_failures += 1
            self.metrics.record("cache_write_failed", f"{type(exc).__name__}: {exc}")
            if (not self.writes_disabled
                    and self._consecutive_write_failures >= self._DISABLE_WRITES_AFTER):
                self.writes_disabled = True
                self.metrics.record(
                    "cache_off",
                    f"{self._consecutive_write_failures} consecutive "
                    f"write failures; cache is now read-only",
                )
            return False
        self._consecutive_write_failures = 0
        self._evict()
        return True

    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) per live entry, oldest first."""
        entries = []
        for path in self.dir.glob(f"*{self._SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def _evict(self) -> None:
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        while entries and (len(entries) > self.max_entries or total > self.max_bytes):
            _, size, path = entries.pop(0)
            path.unlink(missing_ok=True)
            total -= size
            self.metrics.record("evicted", path.stem)

    # ------------------------------------------------------------------
    def stats(self) -> tuple[int, int]:
        """(entry count, total bytes) currently on disk."""
        entries = self._entries()
        return len(entries), sum(size for _, size, _ in entries)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        entries = self._entries()
        for _, _, path in entries:
            path.unlink(missing_ok=True)
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover
        n, size = self.stats()
        return f"ArtifactCache({str(self.dir)!r}, {n} entries, {size / 1e6:.1f} MB)"


class ResumeJournal:
    """Append-only, crash-tolerant record of completed trace keys.

    The session appends one line per trace the moment its artifact is
    safely in the cache, fsync-ing each append, so the journal is always
    a true lower bound on completed work: a run killed mid-sweep leaves
    a journal naming exactly the traces that need no re-simulation.  A
    torn final line (the process died mid-append) is ignored on load —
    losing one key costs one redundant simulation, never correctness.

    Format: one 64-hex content-address per line; ``#`` lines are
    comments.  Keys are content-addressed (they embed the code version),
    so a stale journal from an older simulator simply never matches.
    """

    _HEADER = "# repro sweep journal v1\n"

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def load(self) -> frozenset[str]:
        """Every intact journaled key (unreadable journal = empty)."""
        try:
            text = self.path.read_text()
        except OSError:
            return frozenset()
        keys = set()
        for line in text.splitlines():
            line = line.strip()
            if len(line) == 64 and not line.startswith("#"):
                try:
                    int(line, 16)
                except ValueError:
                    continue
                keys.add(line)
        return frozenset(keys)

    def record(self, key: str) -> None:
        """Durably append one completed key (best-effort: an unwritable
        journal degrades resumability, never the run)."""
        try:
            new = not self.path.exists()
            with open(self.path, "a", encoding="utf-8") as fh:
                if new:
                    fh.write(self._HEADER)
                fh.write(key + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass

    def clear(self) -> None:
        """Forget every journaled key (start the next sweep cold)."""
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResumeJournal({str(self.path)!r}, {len(self.load())} keys)"
