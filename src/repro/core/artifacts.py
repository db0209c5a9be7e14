"""Content-addressed artifact cache for the staged pipeline.

Every expensive product of the flow — characterized libraries,
optimized AIGs, match-table views, mapped netlists — is addressed by a
digest of everything that determines it: the input network's
:meth:`repro.synth.aig.AIG.structural_hash`, the library's
:meth:`repro.charlib.nldm.Library.fingerprint`, and a
:func:`config_digest` of the knobs (cost policy, signoff config, stage
parameters).  Identical inputs therefore share one computation across
scenarios, temperatures, figure harnesses, and — with the optional
on-disk backend — across process restarts.

Layers:

* :func:`config_digest` / :func:`cache_key` — canonical hashing of
  plain values, dataclasses, and content-addressed objects;
* :class:`ArtifactCache` — a thread-safe LRU memory store with an
  optional pickle-backed disk tier (``--cache-dir`` on the CLI, or
  ``REPRO_CACHE_DIR`` in the environment, conventionally
  ``~/.cache/repro``);
* a process-global default cache (:func:`default_cache`,
  :func:`set_default_cache`, :func:`using_cache`) that
  :class:`repro.core.context.DesignContext` picks up when none is
  given explicitly.

Disk entries use the sha256-framed entry format of
:mod:`repro.cache.framing`; every read re-verifies it.

Hits and misses are reported to :mod:`repro.obs` as the ``cache.hit``
/ ``cache.miss`` counters (plus per-kind ``cache.hit.<kind>``
breakdowns), so a
``--profile`` run shows exactly which stages were skipped; see
``docs/ARCHITECTURE.md`` for the key scheme.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from .. import obs
from ..cache.framing import decode_entry as _decode_entry
from ..cache.framing import encode_entry as _encode_entry
from ..resilience import faults
from ..resilience.errors import CacheCorruptionError

_MISSING = object()


def _env_float(name: str) -> float | None:
    """Parse an optional numeric environment knob (invalid -> None)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Canonical digests
# ----------------------------------------------------------------------
def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one value into a hash in a canonical, type-tagged form."""
    if obj is None or isinstance(obj, (bool, int, str, bytes, float)):
        h.update(f"{type(obj).__name__}:{obj!r}\0".encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"seq{len(obj)}[\0".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]\0")
    elif isinstance(obj, (dict,)):
        h.update(f"map{len(obj)}{{\0".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}\0")
    elif isinstance(obj, (set, frozenset)):
        _feed(h, sorted(obj, key=repr))
    elif hasattr(obj, "structural_hash") and callable(obj.structural_hash):
        # AIGs and other content-addressed networks.
        h.update(f"sh:{obj.structural_hash()}\0".encode())
    elif hasattr(obj, "fingerprint") and callable(obj.fingerprint):
        # Characterized libraries.
        h.update(f"fp:{obj.fingerprint()}\0".encode())
    elif is_dataclass(obj):
        h.update(f"dc:{type(obj).__qualname__}(\0".encode())
        for f in fields(obj):
            h.update(f.name.encode() + b"=")
            _feed(h, getattr(obj, f.name))
        h.update(b")\0")
    else:
        raise TypeError(
            f"cannot digest {type(obj).__name__!r}: give it a structural_hash()/"
            f"fingerprint() method or pass a dataclass/plain value"
        )


def config_digest(obj: Any) -> str:
    """Stable hex digest of a configuration value.

    Accepts plain values, tuples/lists/dicts/sets, dataclasses (walked
    field by field), and content-addressed objects (anything exposing
    ``structural_hash()`` or ``fingerprint()``).  The digest is stable
    across processes and platforms.
    """
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:32]


def cache_key(kind: str, *parts: Any) -> str:
    """Build a cache key: a human-readable kind plus a content digest."""
    return f"{kind}:{config_digest(parts)}"


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ArtifactCache:
    """Thread-safe content-addressed store with an optional disk tier.

    The memory tier is a bounded LRU keyed by full cache keys.  When
    ``cache_dir`` is set, values whose ``put``/``get_or_compute`` call
    allows persistence are also pickled (with a sha256 integrity
    checksum) to ``<cache_dir>/<sha256(key)>.pkl`` and survive process
    restarts.  Unreadable, truncated, or checksum-failing entries
    never crash a lookup: the file is quarantined (renamed to
    ``*.corrupt``), the ``cache.corrupt`` counter fires, and the
    lookup degrades to a miss.

    The disk tier is bounded: ``max_disk_mb`` (default from
    ``REPRO_CACHE_MAX_MB``; unset = unbounded) caps the total size of
    ``*.pkl`` entries — after every write, least-recently-used entries
    (by mtime, refreshed on disk hits) are evicted until the tier
    fits, counting ``cache.evict``.  Quarantined ``*.corrupt`` files
    are likewise capped at ``max_corrupt_entries`` newest files
    (``REPRO_CACHE_MAX_CORRUPT``, default 16) so a flaky disk cannot
    fill the cache directory with forensic copies; drops count
    ``cache.corrupt_evicted``.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        max_memory_entries: int = 256,
        max_disk_mb: float | None = None,
        max_corrupt_entries: int | None = None,
    ):
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.max_memory_entries = max_memory_entries
        self.max_disk_mb = (
            _env_float("REPRO_CACHE_MAX_MB") if max_disk_mb is None else max_disk_mb
        )
        if max_corrupt_entries is None:
            env = _env_float("REPRO_CACHE_MAX_CORRUPT")
            max_corrupt_entries = 16 if env is None else int(env)
        self.max_corrupt_entries = max_corrupt_entries
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._disk_lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt = 0
        self.evicted = 0
        self.corrupt_evicted = 0
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- internals ------------------------------------------------------
    @staticmethod
    def _kind(key: str) -> str:
        return key.split(":", 1)[0]

    @staticmethod
    def _key_digest(key: str) -> str:
        """Filesystem name for a key."""
        return hashlib.sha256(key.encode()).hexdigest()[:40]

    def _disk_path(self, key: str) -> Path:
        return self.cache_dir / f"{self._key_digest(key)}.pkl"

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt disk entry aside so it is never re-read."""
        with self._lock:
            self.corrupt += 1
        obs.count("cache.corrupt")
        with contextlib.suppress(OSError):
            os.replace(path, path.with_suffix(".corrupt"))
        self._trim_corrupt()

    def _trim_corrupt(self) -> None:
        """Keep only the newest ``max_corrupt_entries`` quarantined files."""
        if self.cache_dir is None or self.max_corrupt_entries is None:
            return
        with self._disk_lock:
            entries = []
            for path in self.cache_dir.glob("*.corrupt"):
                with contextlib.suppress(OSError):
                    entries.append((path.stat().st_mtime, path))
            entries.sort(reverse=True)  # newest first
            for _, path in entries[self.max_corrupt_entries:]:
                with contextlib.suppress(OSError):
                    path.unlink()
                    with self._lock:
                        self.corrupt_evicted += 1
                    obs.count("cache.corrupt_evicted")

    def _enforce_disk_cap(self, keep: Path | None = None) -> None:
        """Evict least-recently-used ``*.pkl`` entries over the size cap.

        Recency is mtime: refreshed by :meth:`_lookup` on every disk
        hit, so hot entries survive.  ``keep`` (the entry just
        written) is never evicted even when it alone exceeds the cap —
        evicting the value the caller is about to rely on would turn
        every oversized artifact into a permanent miss.
        """
        if self.cache_dir is None or self.max_disk_mb is None:
            return
        budget = self.max_disk_mb * 1024 * 1024
        with self._disk_lock:
            entries = []
            total = 0
            for path in self.cache_dir.glob("*.pkl"):
                with contextlib.suppress(OSError):
                    st = path.stat()
                    entries.append((st.st_mtime, st.st_size, path))
                    total += st.st_size
            entries.sort()  # oldest (least recently used) first
            for _, size, path in entries:
                if total <= budget:
                    break
                if keep is not None and path == keep:
                    continue
                with contextlib.suppress(OSError):
                    path.unlink()
                    total -= size
                    with self._lock:
                        self.evicted += 1
                    obs.count("cache.evict")

    def _lookup(self, key: str, persist: bool) -> Any:
        """Return the cached value or ``_MISSING`` (no counters)."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                return self._memory[key]
        if persist and self.cache_dir is not None:
            path = self._disk_path(key)
            if path.exists():
                try:
                    value = _decode_entry(path.read_bytes())
                except (OSError, CacheCorruptionError):
                    # Truncated write, bit rot, stale format, or an
                    # unpicklable payload: quarantine and miss.
                    self._quarantine(path)
                    return _MISSING
                # Refresh mtime so LRU disk eviction sees this entry as hot.
                with contextlib.suppress(OSError):
                    os.utime(path)
                with self._lock:
                    self._remember(key, value)
                    self.disk_hits += 1
                return value
        return _MISSING

    # -- public API -----------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        value = self._lookup(key, persist=True)
        return default if value is _MISSING else value

    def __contains__(self, key: str) -> bool:
        return self._lookup(key, persist=True) is not _MISSING

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        with self._lock:
            self._remember(key, value)
        if not persist or self.cache_dir is None:
            return
        try:
            frame = _encode_entry(value)
        except Exception:
            return  # unpicklable value stays memory-only
        path = self._disk_path(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            data = faults.corrupt_bytes("cache.disk", frame)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except Exception:
            with contextlib.suppress(OSError):
                tmp.unlink()
        else:
            self._enforce_disk_cap(keep=path)

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Any],
        persist: bool = True,
        cache_if: Callable[[Any], bool] | None = None,
    ) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        Concurrent callers of the same key are serialized so the value
        is computed exactly once; counters ``cache.hit``/``cache.miss``
        (and per-kind variants) record the outcome.  ``cache_if``
        vetoes storing a freshly computed value (used to keep
        degraded-mode results out of the cache — see
        ``docs/ROBUSTNESS.md``).
        """
        value, _ = self.get_or_compute_flagged(
            key, compute, persist=persist, cache_if=cache_if
        )
        return value

    def get_or_compute_flagged(
        self,
        key: str,
        compute: Callable[[], Any],
        persist: bool = True,
        cache_if: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, bool]:
        """Like :meth:`get_or_compute` but also reports hit/miss."""
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            value = self._lookup(key, persist)
            if value is not _MISSING:
                self._note(key, hit=True)
                return value, True
            self._note(key, hit=False)
            value = compute()
            if cache_if is None or cache_if(value):
                self.put(key, value, persist=persist)
            else:
                obs.count("cache.uncacheable")
                obs.count(f"cache.uncacheable.{self._kind(key)}")
        with self._lock:
            self._key_locks.pop(key, None)
        return value, False

    def _note(self, key: str, hit: bool) -> None:
        kind = self._kind(key)
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        obs.count("cache.hit" if hit else "cache.miss")
        obs.count(f"cache.{'hit' if hit else 'miss'}.{kind}")

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and optionally the disk tier)."""
        with self._lock:
            self._memory.clear()
        if disk and self.cache_dir is not None:
            for pattern in ("*.pkl", "*.corrupt"):
                for path in self.cache_dir.glob(pattern):
                    with contextlib.suppress(OSError):
                        path.unlink()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "corrupt": self.corrupt,
                "evicted": self.evicted,
                "corrupt_evicted": self.corrupt_evicted,
                "memory_entries": len(self._memory),
            }

    def __repr__(self) -> str:
        tier = f", dir={str(self.cache_dir)!r}" if self.cache_dir else ""
        return f"ArtifactCache(entries={len(self._memory)}{tier})"


# ----------------------------------------------------------------------
# Process-global default
# ----------------------------------------------------------------------
def _initial_cache() -> ArtifactCache:
    return ArtifactCache(cache_dir=os.environ.get("REPRO_CACHE_DIR") or None)


_default_cache = _initial_cache()
_default_lock = threading.Lock()


def default_cache() -> ArtifactCache:
    """The process-global cache used when no explicit one is given."""
    return _default_cache


def set_default_cache(cache: ArtifactCache | None) -> ArtifactCache:
    """Install (or, with ``None``, reset) the process-global cache."""
    global _default_cache
    with _default_lock:
        _default_cache = cache if cache is not None else _initial_cache()
        return _default_cache


@contextlib.contextmanager
def using_cache(cache: ArtifactCache) -> Iterator[ArtifactCache]:
    """Temporarily make ``cache`` the process-global default."""
    previous = _default_cache
    set_default_cache(cache)
    try:
        yield cache
    finally:
        set_default_cache(previous)
