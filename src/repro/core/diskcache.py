"""Content-addressed on-disk cache for derived dataset artifacts.

Every experiment run regenerates the same synthetic traces and
simulated months from scratch; at paper scale that costs tens of
seconds per process. Because every builder is a pure function of
``(scale, seed, config)`` — the determinism the REP101/REP501 lint
rules guarantee — the results can be cached on disk under a key
derived from exactly those inputs plus a code/schema version, and a
warm cache is always safe to reuse.

Storage layout (one directory per entry, content-addressed)::

    <root>/<key[:2]>/<key>/
        skeleton.pkl   the object, pickled with each array replaced by its i
        a<i>.npy       array i as a bare .npy file (the shard column format)
        payload/       a put_path tree, in place of the two above
        meta.json      key, payload size and one sha256 per a<i>.npy

Entries are written into a temp directory and renamed into place, so
readers never observe a half-written entry; ``meta.json`` marks a
complete one. Reads refresh the entry's mtime; eviction drops the
least-recently-used entries once the cache exceeds its entry or byte
budget. An instance rescans the root only when its tally (entries and
bytes at its last scan, plus its own puts since) crosses a budget, so
entries other processes add are counted at its next scan. A corrupted
entry (truncated file, unpicklable skeleton, an array that fails its
digest) is moved into a ``.quarantine/`` directory — kept for
post-mortem inspection, never served again — and reported as a miss,
so the caller transparently rebuilds it; the ``quarantined`` counter
surfaces the event in the run's timing footer. An entry that simply
*vanishes* mid-read (a concurrent process evicted it between the
existence check and the open) is a plain miss, not corruption.

An object is pickled as it is, so it comes back with its own types
(``Table``, ``SimResult``, a ``NamedTuple``, an ``OrderedDict``) and
this layer-0 module needs to know none of them. Pickle's persistent-ID
hook takes every NumPy array out of the pickle, except object arrays,
and :func:`repro.core.fsutil.write_npy` (the shard column writer)
stores each one as its own digested file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .fsutil import file_sha256, publish_atomically, remove_durable, write_npy

__all__ = [
    "MISS",
    "CacheCorruptionError",
    "CacheStats",
    "DiskCache",
    "cache_key",
    "fingerprint",
]


class CacheCorruptionError(RuntimeError):
    """A cache entry failed to decode and could not be served.

    :meth:`DiskCache.get` normally self-heals (quarantine the entry,
    report a miss, let the caller rebuild), so this error is not raised
    on the ordinary read path. It exists as the typed marker for cache
    corruption: fault injection raises it to exercise the supervisor's
    ``cache-corruption`` failure class, and any code that detects
    corruption it cannot transparently heal should raise it too.
    """


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MISS"


MISS = _Miss()


# -- keys ---------------------------------------------------------------------


def _canonical(obj: object) -> object:
    """Reduce an object to a JSON-stable structure for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__qualname__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {
            "__dict__": [
                [_canonical(k), _canonical(v)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        # Canonicalize element-first, then sort the renderings: set
        # iteration order is per-process (hash randomization) and must
        # never reach key material.
        return {
            "__set__": sorted(
                (_canonical(v) for v in obj), key=lambda c: repr(c)
            )
        }
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        return {
            "__ndarray__": digest.hexdigest(),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, float):
        return repr(obj)  # full precision, unlike JSON's default
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"callable:{getattr(obj, '__module__', '?')}.{obj.__qualname__}"
    # Plain objects (e.g. non-dataclass Distributions): hash by type
    # plus attribute state — default reprs embed memory addresses.
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {
            name: getattr(obj, name)
            for name in type(obj).__slots__
            if hasattr(obj, name)
        }
    if isinstance(state, dict) and state:
        return {
            "__object__": type(obj).__qualname__,
            "state": {k: _canonical(v) for k, v in sorted(state.items())},
        }
    return repr(obj)


def fingerprint(obj: object) -> str:
    """Short stable digest of a configuration object.

    Dataclasses hash by field values (recursively), so any change to a
    model knob — including nested distribution parameters — changes the
    fingerprint and therefore misses the cache.
    """
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def cache_key(**components: object) -> str:
    """Content-addressed key from named components.

    Components typically include the dataset kind, scale, seed, config
    fingerprint and a code/schema version; any difference in any
    component yields a different key.
    """
    if not components:
        raise ValueError("cache_key requires at least one component")
    return hashlib.sha256(
        json.dumps(
            {k: _canonical(v) for k, v in components.items()},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    ).hexdigest()


# -- codec --------------------------------------------------------------------


class _Pickler(pickle.Pickler):
    """Pickles an object, setting each array aside as ``a<index>.npy``.

    Arrays that hold Python objects (object arrays, and structured
    arrays with an object field) stay in the pickle: the ``.npy`` files
    are read back with ``allow_pickle=False``.
    """

    def __init__(self, fh: BinaryIO) -> None:
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []

    def persistent_id(self, obj: object) -> int | None:
        if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
            self.arrays.append(obj)
            return len(self.arrays) - 1
        return None


class _Unpickler(pickle.Unpickler):
    """Inverse of :class:`_Pickler`, given the entry's loaded arrays."""

    def __init__(self, fh: BinaryIO, arrays: list[np.ndarray]) -> None:
        super().__init__(fh)
        self.arrays = arrays

    def persistent_load(self, pid: int) -> np.ndarray:
        return self.arrays[pid]


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/put counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


_SKELETON = "skeleton.pkl"
_PAYLOAD_DIR = "payload"
_META = "meta.json"
_QUARANTINE = ".quarantine"


def _dir_bytes(path: Path) -> int:
    """Total size of every regular file under ``path``, recursively.

    A ``payload/`` tree nests files arbitrarily deep; a subdirectory's
    own ``st_size`` would count its inode, not its contents.
    """
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())

#: How many corrupted entries the quarantine keeps for inspection.
_QUARANTINE_KEEP = 8


class DiskCache:
    """LRU-evicting, atomically-written object cache on the filesystem.

    Parameters
    ----------
    root:
        Cache directory (created on first use).
    max_bytes:
        Byte budget across all entries; least-recently-used entries are
        evicted once exceeded. ``None`` disables the byte limit.
    max_entries:
        Entry-count budget, enforced the same way.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = 4 * 1024**3,
        max_entries: int | None = 64,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = CacheStats()
        # (entries, bytes) at the last scan plus this instance's puts
        # since; None until the first put scans the root.
        self._tally: tuple[int, int] | None = None

    # -- public API -----------------------------------------------------------

    def get(self, key: str) -> object:
        """Return the cached object, or :data:`MISS`.

        Each array file is checked against its sha256 in ``meta.json``
        before it is decoded. Unreadable entries (truncated or altered
        array, bad pickle) are moved to the quarantine directory and
        reported as a miss so callers rebuild them. An entry evicted by
        a concurrent process between the existence check and the read
        is a plain miss.
        """
        entry = self._entry_dir(key)
        meta = entry / _META
        if not meta.exists():
            self.stats.misses += 1
            return MISS
        try:
            digests = json.loads(meta.read_text())["digests"]
            arrays: list[np.ndarray] = []
            for index, digest in enumerate(digests):
                path = entry / f"a{index}.npy"
                if file_sha256(path) != digest:
                    raise CacheCorruptionError(f"digest mismatch at {path}")
                arrays.append(np.load(path, allow_pickle=False))
            with open(entry / _SKELETON, "rb") as fh:
                obj = _Unpickler(fh, arrays).load()
        except FileNotFoundError:
            # Concurrent eviction won the race; nothing is wrong with
            # the (now absent) entry.
            self.stats.misses += 1
            return MISS
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine(entry)
            return MISS
        try:
            os.utime(entry)  # LRU touch
        except OSError:
            # Entry evicted concurrently after the read; data is intact.
            pass
        self.stats.hits += 1
        return obj

    def put(self, key: str, obj: object) -> None:
        """Store an object under ``key`` (atomic; last writer wins)."""
        # Pickled before the temp directory exists, so an object that
        # cannot be pickled raises without leaving one behind.
        skeleton = io.BytesIO()
        pickler = _Pickler(skeleton)
        pickler.dump(obj)

        def write(tmp: Path) -> list[str]:
            with open(tmp / _SKELETON, "wb") as fh:
                fh.write(skeleton.getbuffer())
            return [
                write_npy(tmp / f"a{index}.npy", arr)
                for index, arr in enumerate(pickler.arrays)
            ]

        self._publish(key, write)

    def put_path(self, key: str, src: str | Path) -> None:
        """Move a directory tree under ``key`` (atomic; last writer wins).

        ``src`` is renamed into the entry as its ``payload/`` directory,
        so it must sit on the cache's filesystem, and the caller's path
        is gone afterwards. The entry scans, touches and evicts exactly
        like an object entry, including byte accounting of every file
        in the tree. Retrieve with :meth:`get_path`, not :meth:`get`.
        """
        src = Path(src)
        if not src.is_dir():
            raise ValueError(f"source is not a directory: {src}")

        def write(tmp: Path) -> list[str]:
            os.rename(src, tmp / _PAYLOAD_DIR)
            return []

        self._publish(key, write)

    def get_path(self, key: str) -> Path | _Miss:
        """Path of a directory entry's payload, or :data:`MISS`.

        The returned path stays valid until the entry is evicted;
        callers holding open memory maps into it should finish one
        analysis pass before triggering further cache writes.
        """
        entry = self._entry_dir(key)
        payload = entry / _PAYLOAD_DIR
        if not (entry / _META).exists():
            self.stats.misses += 1
            return MISS
        if not payload.is_dir():
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine(entry)
            return MISS
        try:
            os.utime(entry)  # LRU touch
        except OSError:
            pass
        self.stats.hits += 1
        return payload

    def __contains__(self, key: str) -> bool:
        return (self._entry_dir(key) / _META).exists()

    def entries(self) -> list[str]:
        """Keys currently stored (unordered)."""
        if not self.root.is_dir():
            return []
        return [d.name for d, _, _ in self._scan()]

    def total_bytes(self) -> int:
        """Bytes used across all entries."""
        return sum(size for _, _, size in self._scan())

    def clear(self) -> None:
        """Delete every entry (removals fsynced so they cannot resurrect)."""
        for entry, _, _ in self._scan():
            try:
                remove_durable(entry)
            except OSError:
                pass

    # -- internals ------------------------------------------------------------

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def _publish(self, key: str, write: Callable[[Path], list[str]]) -> None:
        """The publish path both puts share.

        ``write(tmp)`` fills a fresh temp directory and returns the
        digests of the array files it wrote. An ``OSError`` discards the
        temp directory and makes the put a no-op.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=self.root, prefix=".write-"))
        entry = self._entry_dir(key)
        try:
            digests = write(tmp)
            nbytes = _dir_bytes(tmp)
            (tmp / _META).write_text(
                json.dumps({"key": key, "nbytes": nbytes, "digests": digests})
                + "\n"
            )
            entry.parent.mkdir(parents=True, exist_ok=True)
            if entry.exists():
                # If the publish below fails, a crash may resurrect the
                # removed entry — a complete, equivalent cache value, so
                # the un-fsync'd removal is an accepted risk here.
                shutil.rmtree(entry, ignore_errors=True)  # reprolint: disable=REP802
            publish_atomically(tmp, entry)
        except OSError:
            # A concurrent writer renamed first; its entry is equivalent.
            shutil.rmtree(tmp, ignore_errors=True)
            return
        self.stats.puts += 1
        if self._tally is not None:
            self._tally = (self._tally[0] + 1, self._tally[1] + nbytes)
        if self._tally is None or self._over_budget(*self._tally):
            self._evict(keep=entry)

    def _over_budget(self, count: int, total: int) -> bool:
        return (self.max_entries is not None and count > self.max_entries) or (
            self.max_bytes is not None and total > self.max_bytes
        )

    def quarantine_dir(self) -> Path:
        """Where corrupted entries are parked for inspection."""
        return self.root / _QUARANTINE

    def quarantined_entries(self) -> list[str]:
        """Keys currently held in quarantine (unordered)."""
        qdir = self.quarantine_dir()
        if not qdir.is_dir():
            return []
        return [d.name for d in qdir.iterdir() if d.is_dir()]

    def quarantine_entry(self, key: str) -> bool:
        """Park a corrupted entry by key; ``True`` if one was moved.

        Public hook for callers that discover corruption *inside* a
        payload the cache already served — e.g. a sharded table whose
        column digest no longer matches (:class:`ShardIntegrityError`
        from ``repro.core.shard``). The entry is moved into quarantine
        so the next ``get_path`` misses and the payload is re-derived.
        """
        entry = self._entry_dir(key)
        if not entry.is_dir():
            return False
        self.stats.errors += 1
        self._quarantine(entry)
        return True

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupted entry aside instead of serving it again.

        The moved entry keeps its files for post-mortem inspection; the
        quarantine is pruned to the most recent few so corruption storms
        cannot grow without bound. If the move itself fails (another
        process already moved or deleted the entry) the entry is simply
        removed.
        """
        qdir = self.quarantine_dir()
        dest = qdir / entry.name
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                # Quarantine slots are junk by definition; a resurrected
                # stale slot is re-pruned, so durability is not needed.
                shutil.rmtree(dest, ignore_errors=True)  # reprolint: disable=REP802
            # payload_synced: the entry is suspected-corrupt, do not walk
            # and fsync its content — only the move itself must be
            # durable (in both parent directories, so the bad entry
            # cannot resurrect in the live tree after a crash).
            publish_atomically(entry, dest, payload_synced=True)
        except OSError:
            try:
                remove_durable(entry)
            except OSError:
                pass
        self.stats.quarantined += 1
        try:
            parked = sorted(
                (d for d in qdir.iterdir() if d.is_dir()),
                key=lambda d: (d.stat().st_mtime, d.name),
            )
        except OSError:
            return
        for stale in parked[: max(0, len(parked) - _QUARANTINE_KEEP)]:
            try:
                remove_durable(stale)
            except OSError:
                pass

    def _scan(self) -> list[tuple[Path, float, int]]:
        """(entry dir, mtime, payload bytes) for every complete entry."""
        found: list[tuple[Path, float, int]] = []
        if not self.root.is_dir():
            return found
        for shard in self.root.iterdir():
            if not shard.is_dir() or shard.name.startswith("."):
                continue
            for entry in shard.iterdir():
                if not (entry / _META).exists():
                    continue
                try:
                    mtime = entry.stat().st_mtime
                    size = _dir_bytes(entry)
                except OSError:
                    continue
                found.append((entry, mtime, size))
        return found

    def _evict(self, keep: Path | None = None) -> None:
        """Scan the root, drop LRU entries beyond the budgets, reset the tally."""
        entries = sorted(self._scan(), key=lambda e: (e[1], e[0].name))
        total = sum(size for _, _, size in entries)
        count = len(entries)
        for entry, _, size in entries:
            if not self._over_budget(count, total):
                break
            if keep is not None and entry == keep:
                continue
            try:
                remove_durable(entry)
            except OSError:
                pass
            self.stats.evictions += 1
            total -= size
            count -= 1
        self._tally = (count, total)
