"""Partitioned, out-of-core columnar tables (memory-mapped shards).

A :class:`ShardedTable` is the out-of-core counterpart of
:class:`repro.core.table.Table`: one directory holding a JSON manifest
plus numbered shard directories, each shard storing one bare ``.npy``
file per column. Bare ``.npy`` (not ``.npz``) is load-bearing —
``np.load(..., mmap_mode="r")`` silently ignores the mmap request for
members of a zip archive, and the whole point of the format is that a
reader touches only the pages of the one shard it is scanning.

Construction goes through :class:`ShardWriter`, which follows the disk
cache's atomicity discipline (build under a temp sibling, publish with
one ``os.rename``) so a crashed spill never leaves a half-written table
where a reader could find it. Each column file is written by
:func:`repro.core.fsutil.write_npy`, the same writer the disk cache
uses for its arrays. Shard boundaries are a pure function of
the row stream and ``shard_rows`` — feeding the writer 1-row appends or
million-row appends produces byte-identical shards — so cache keys may
fingerprint ``shard_rows`` alone, not the producer's chunking.

Two partitioning modes:

* **row mode** (default): every shard holds exactly ``shard_rows`` rows
  except the last.
* **group-aligned mode** (``group_by=column``): boundaries never split a
  run of equal key values. Shards pack whole runs greedily up to
  ``shard_rows`` (a single oversized run gets a shard to itself). This
  keeps per-machine series contiguous within one shard so per-machine
  kernels need no cross-shard state.

Integrity and crash safety (format version 2):

* The manifest records a **sha256 digest per column file** alongside
  the per-shard row counts. :meth:`ShardedTable.open` validates
  structure (every shard directory and column file present, on-disk row
  counts matching the manifest), and every opened table checks each
  column file's digest on its first read;
  :meth:`ShardedTable.verify_all` checks them all at once. Any mismatch
  raises :class:`ShardIntegrityError` — a
  :class:`~repro.core.diskcache.CacheCorruptionError` subtype, so cache
  consumers classify it as transient corruption and quarantine/rebuild.
* A **resumable** writer (``resume=True``) builds under a deterministic
  ``.{name}.partial`` sibling and journals every completed shard
  (rows + digests, fsync'd) to ``journal.jsonl`` before moving on. A
  writer re-created after a crash adopts the journaled prefix whose
  digests still verify — a torn final shard is detected and dropped —
  and skips exactly that many rows of the re-fed stream, so the
  finished table is byte-identical to an uninterrupted spill.

Readers (:meth:`ShardedTable.shard`, :meth:`ShardedTable.iter_shards`,
:meth:`ShardedTable.map_columns`) materialize at most one shard of
mmap-backed columns at a time.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Callable, Iterator, Mapping, Sequence
from pathlib import Path

import numpy as np

from .diskcache import CacheCorruptionError
from .fsutil import (
    file_sha256,
    fsync_dir,
    fsync_file,
    publish_atomically,
    remove_durable,
    write_npy,
)
from .table import Table

__all__ = [
    "ShardIntegrityError",
    "ShardWriter",
    "ShardedTable",
    "write_table",
]

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_LOCK = ".lock"
_FORMAT_VERSION = 2


class ShardIntegrityError(CacheCorruptionError):
    """A shard file is missing, truncated, or fails its digest.

    Subclasses :class:`~repro.core.diskcache.CacheCorruptionError` so
    supervised executors classify it as transient data corruption: the
    owning table can be quarantined and re-derived from its upstream
    builder, exactly like a corrupt disk-cache entry.
    """

    def __init__(
        self,
        message: str,
        *,
        root: str | Path | None = None,
        shard: int | None = None,
        column: str | None = None,
    ) -> None:
        super().__init__(message)
        self.root = str(root) if root is not None else None
        self.shard = shard
        self.column = column


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}"


def _check_schema(schema: Mapping[str, np.dtype]) -> dict[str, np.dtype]:
    if not schema:
        raise ValueError("schema must name at least one column")
    checked: dict[str, np.dtype] = {}
    for name, dtype in schema.items():
        if not name or "/" in name or os.sep in name or name != name.strip():
            raise ValueError(f"column name {name!r} is not filesystem-safe")
        checked[name] = np.dtype(dtype)
    return checked


def _npy_rows(path: Path) -> int:
    """Row count from a bare ``.npy`` header without loading the data."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, _, _ = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, _, _ = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"unsupported .npy version {version}")
    if len(shape) != 1:
        raise ValueError(f"column array must be 1-D, got shape {shape}")
    return int(shape[0])


class ShardWriter:
    """Spill a stream of row chunks into a new sharded table.

    Use as a context manager; the table appears at ``dest`` only when
    the ``with`` block exits cleanly.

    With ``resume=False`` (the default) the build directory is private
    to this process and an error discards it — ``dest`` is never
    created. With ``resume=True`` the build directory is the
    deterministic sibling ``.{name}.partial``: a writer re-created
    after a crash (or an aborted attempt) adopts every journaled shard
    that still verifies and skips that many rows of the re-fed stream,
    so only the unfinished suffix is written again. ``on_event``
    (``fn(event, shard_index, resumed_shards)``) observes
    ``"column-written"`` (first column of a shard on disk) and
    ``"shard-committed"`` (shard journaled durable) — the hook points
    fault injection and crash tests key on.
    """

    def __init__(
        self,
        dest: str | Path,
        schema: Mapping[str, np.dtype],
        shard_rows: int,
        *,
        group_by: str | None = None,
        resume: bool = False,
        on_event: Callable[[str, int, int], None] | None = None,
    ) -> None:
        if shard_rows <= 0:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")
        self._dest = Path(dest)
        if self._dest.exists():
            raise FileExistsError(f"destination already exists: {self._dest}")
        self._schema = _check_schema(schema)
        if group_by is not None and group_by not in self._schema:
            raise ValueError(f"group_by column {group_by!r} not in schema")
        self._shard_rows = int(shard_rows)
        self._group_by = group_by
        self._on_event = on_event
        self._buffer: dict[str, list[np.ndarray]] = {
            name: [] for name in self._schema
        }
        self._buffered = 0
        self._shard_counts: list[int] = []
        self._digests: list[dict[str, str]] = []
        self._closed = False
        self._started = False
        self._skip_rows = 0
        self._resumed_shards = 0
        self._resumable = bool(resume)
        if self._resumable:
            self._tmp = self._dest.with_name(f".{self._dest.name}.partial")
            if not self._claim_partial():
                # Another live writer owns the partial dir; fall back to
                # a private non-resumable build so neither corrupts it.
                self._resumable = False
                self._tmp = self._dest.with_name(
                    f".{self._dest.name}.tmp-{os.getpid()}"
                )
        else:
            self._tmp = self._dest.with_name(
                f".{self._dest.name}.tmp-{os.getpid()}"
            )

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- resume bookkeeping ------------------------------------------------

    @property
    def resumed_shards(self) -> int:
        """Shards adopted from a prior interrupted spill (0 if fresh)."""
        return self._resumed_shards

    def _claim_partial(self) -> bool:
        """Take ownership of the deterministic partial dir (lock file).

        Returns False when another live process holds the lock. A lock
        left by a dead process is stale and is replaced.
        """
        self._tmp.mkdir(parents=True, exist_ok=True)
        lock = self._tmp / _LOCK
        for _ in range(2):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._lock_alive(lock):
                    return False
                try:
                    lock.unlink()
                except OSError:
                    return False
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            self._started = True
            self._adopt_partial()
            return True
        return False

    @staticmethod
    def _lock_alive(lock: Path) -> bool:
        try:
            pid = int(lock.read_text().strip())
        except (OSError, ValueError):
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    def _adopt_partial(self) -> None:
        """Keep the verified journaled prefix of an interrupted spill.

        Anything after the last shard whose journal digests still match
        the files on disk — a torn final shard, an unjournaled shard
        directory, a corrupted column — is dropped and rewritten.
        """
        journal = self._tmp / _JOURNAL
        entries = self._read_journal(journal)
        kept: list[tuple[int, dict[str, str]]] = []
        for index, (rows, digests) in enumerate(entries):
            if self._shard_verifies(index, rows, digests):
                kept.append((rows, digests))
            else:
                break
        # Drop every shard dir past the verified prefix (torn shards,
        # shards journaled but later corrupted, unjournaled leftovers).
        for path in self._tmp.iterdir():
            if not path.name.startswith("shard-"):
                continue
            try:
                index = int(path.name.split("-", 1)[1])
            except ValueError:
                index = -1
            if index < 0 or index >= len(kept):
                try:
                    remove_durable(path)
                except OSError:
                    # Durable removal failed; a resurrected torn shard
                    # fails verification and is dropped again on the
                    # next adoption, so best-effort is safe here.
                    shutil.rmtree(path, ignore_errors=True)  # reprolint: disable=REP802
        stale_manifest = self._tmp / _MANIFEST
        if stale_manifest.exists():
            stale_manifest.unlink()
        self._shard_counts = [rows for rows, _ in kept]
        self._digests = [digests for _, digests in kept]
        self._skip_rows = int(sum(self._shard_counts))
        self._resumed_shards = len(kept)
        self._write_journal_header(truncate_to=kept)

    def _read_journal(
        self, journal: Path
    ) -> list[tuple[int, dict[str, str]]]:
        """Journaled (rows, digests) per shard; [] on any mismatch."""
        if not journal.is_file():
            return []
        try:
            lines = journal.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        if not lines:
            return []
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return []
        if header != self._header():
            return []
        entries: list[tuple[int, dict[str, str]]] = []
        for index, line in enumerate(lines[1:]):
            try:
                entry = json.loads(line)
                rows = int(entry["rows"])
                digests = dict(entry["digests"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                break
            if entry.get("shard") != index or rows <= 0:
                break
            if set(digests) != set(self._schema):
                break
            # The journal is written sort_keys; restore schema order so an
            # adopted prefix serializes into the manifest byte-identically
            # to an uninterrupted spill.
            entries.append((rows, {n: digests[n] for n in self._schema}))
        return entries

    def _shard_verifies(
        self, index: int, rows: int, digests: dict[str, str]
    ) -> bool:
        shard_dir = self._tmp / _shard_name(index)
        for name in self._schema:
            path = shard_dir / f"{name}.npy"
            try:
                if _npy_rows(path) != rows:
                    return False
                if file_sha256(path) != digests[name]:
                    return False
            except (OSError, ValueError, KeyError):
                return False
        return True

    def _header(self) -> dict[str, object]:
        """The journal's first line: what a resumed spill must match."""
        return {
            "format": _FORMAT_VERSION,
            "schema": {n: d.str for n, d in self._schema.items()},
            "shard_rows": self._shard_rows,
            "group_by": self._group_by,
        }

    def _write_journal_header(
        self, truncate_to: list[tuple[int, dict[str, str]]] | None = None
    ) -> None:
        """(Re)write the journal: header line plus the kept entries."""
        journal = self._tmp / _JOURNAL
        lines = [json.dumps(self._header(), sort_keys=True)]
        for index, (rows, digests) in enumerate(truncate_to or []):
            lines.append(
                json.dumps(
                    {"shard": index, "rows": rows, "digests": digests},
                    sort_keys=True,
                )
            )
        tmp = journal.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        publish_atomically(tmp, journal, payload_synced=True)

    def _journal_shard(self, index: int, rows: int, digests: dict[str, str]) -> None:
        journal = self._tmp / _JOURNAL
        line = json.dumps(
            {"shard": index, "rows": rows, "digests": digests},
            sort_keys=True,
        )
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- writing -----------------------------------------------------------

    def append(self, chunk: Table | Mapping[str, np.ndarray]) -> None:
        """Append one chunk of rows (any size, including zero).

        A resumed writer silently discards the leading rows already
        covered by adopted shards; callers re-feed the identical stream
        from the start and only the unfinished suffix reaches disk.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        columns = chunk.columns() if isinstance(chunk, Table) else dict(chunk)
        if set(columns) != set(self._schema):
            raise ValueError(
                f"chunk columns {sorted(columns)} do not match schema "
                f"{sorted(self._schema)}"
            )
        arrays: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, dtype in self._schema.items():
            arr = np.asarray(columns[name]).astype(dtype, copy=False)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError("chunk columns have unequal lengths")
            arrays[name] = arr
        if not length:
            return
        if self._skip_rows:
            take = min(self._skip_rows, length)
            self._skip_rows -= take
            if take == length:
                return
            arrays = {name: arr[take:] for name, arr in arrays.items()}
            length -= take
        for name, arr in arrays.items():
            self._buffer[name].append(arr)
        self._buffered += length
        self._drain(final=False)

    def close(self) -> "ShardedTable":
        """Flush remaining rows, write the manifest, publish atomically."""
        if self._closed:
            return ShardedTable.open(self._dest)
        if self._skip_rows:
            # Adoption failed mid-validation: release ownership before
            # raising so a later writer (or a human) can claim the
            # partial dir; the journaled shards themselves stay durable.
            lock = self._tmp / _LOCK
            try:
                lock.unlink()
            except OSError:
                pass
            raise ShardIntegrityError(
                f"resumed spill ended {self._skip_rows} rows short of the "
                f"adopted shards at {self._tmp}: the re-fed stream does not "
                "match the interrupted one",
                root=self._tmp,
            )
        self._drain(final=True)
        if self._buffered:
            self._emit(self._buffered)
        self._ensure_tmp()
        manifest = {
            "version": _FORMAT_VERSION,
            "schema": {
                name: dtype.str for name, dtype in self._schema.items()
            },
            "shard_rows": self._shard_rows,
            "group_by": self._group_by,
            "shards": self._shard_counts,
            "total_rows": int(sum(self._shard_counts)),
            "digests": self._digests,
        }
        manifest_path = self._tmp / _MANIFEST
        manifest_path.write_text(json.dumps(manifest, indent=1))
        fsync_file(manifest_path)
        # The journal and lock are build-time state; the published tree
        # holds only the manifest and shards, identical whether or not
        # the spill was ever interrupted.
        for name in (_JOURNAL, _LOCK):
            path = self._tmp / name
            if path.exists():
                path.unlink()
        fsync_dir(self._tmp)
        # Shard payloads and directory entries are already fsync'd at
        # journal time, so the publish only needs the rename + parent
        # directory syncs.
        publish_atomically(self._tmp, self._dest, payload_synced=True)
        self._closed = True
        return ShardedTable.open(self._dest)

    def abort(self) -> None:
        """Stop writing; ``dest`` is untouched.

        A non-resumable writer discards its private build directory. A
        resumable writer keeps the partial directory — every journaled
        shard is durable, so a later ``resume=True`` writer continues
        from it — and only releases the ownership lock.
        """
        self._closed = True
        self._buffer = {name: [] for name in self._schema}
        self._buffered = 0
        if self._resumable:
            lock = self._tmp / _LOCK
            try:
                lock.unlink()
            except OSError:
                pass
            return
        if self._tmp.exists():
            shutil.rmtree(self._tmp, ignore_errors=True)

    # -- internals ---------------------------------------------------------

    def _ensure_tmp(self) -> None:
        if not self._started:
            self._tmp.mkdir(parents=True, exist_ok=False)
            self._started = True
            self._write_journal_header()
        journal = self._tmp / _JOURNAL
        if not journal.exists():
            self._write_journal_header(
                truncate_to=list(zip(self._shard_counts, self._digests))
            )

    def _drain(self, *, final: bool) -> None:
        """Emit every shard whose boundary is already determined.

        In row mode a shard is determined once ``shard_rows`` rows are
        buffered. In group-aligned mode the greedy cut at run boundary
        ``<= shard_rows`` is only final once more than ``shard_rows``
        rows are buffered (or at close): until then a later run could
        still join the shard.
        """
        if self._group_by is None:
            while self._buffered >= self._shard_rows:
                self._emit(self._shard_rows)
            return
        while self._buffered > self._shard_rows or (
            final and self._buffered > 0
        ):
            cut = self._group_cut(final=final)
            if cut == 0:
                break
            self._emit(cut)

    def _group_cut(self, *, final: bool) -> int:
        """Largest run boundary ``<= shard_rows`` from the buffer start.

        Falls back to the first run boundary when the leading run alone
        exceeds ``shard_rows``. Returns 0 when the boundary cannot be
        determined yet (everything buffered may share one run that is
        still growing).
        """
        keys = np.concatenate(self._buffer[self._group_by])
        change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        if change.size == 0:
            # One run so far. Only close() may cut inside a run's
            # potential continuation.
            return self._buffered if final else 0
        eligible = change[change <= self._shard_rows]
        if eligible.size:
            cut = int(eligible[-1])
            if final and self._buffered <= self._shard_rows:
                return self._buffered
            return cut
        # Leading run longer than shard_rows: it gets its own shard,
        # but only once we have seen its end (the first boundary).
        return int(change[0])

    def _emit(self, n_rows: int) -> None:
        self._ensure_tmp()
        index = len(self._shard_counts)
        shard_dir = self._tmp / _shard_name(index)
        shard_dir.mkdir()
        digests: dict[str, str] = {}
        first = True
        for name, dtype in self._schema.items():
            parts: list[np.ndarray] = []
            taken = 0
            chunks = self._buffer[name]
            while taken < n_rows:
                head = chunks[0]
                need = n_rows - taken
                if head.size <= need:
                    parts.append(chunks.pop(0))
                    taken += head.size
                else:
                    parts.append(head[:need])
                    chunks[0] = head[need:]
                    taken += need
            column = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
            # Fsynced before journaling, so a journaled shard is durable
            # by construction.
            digests[name] = write_npy(shard_dir / f"{name}.npy", column)
            if first and self._on_event is not None:
                self._on_event("column-written", index, self._resumed_shards)
            first = False
        # Pin the shard's directory entries before journaling so a
        # journaled shard is durable by construction, not just its
        # column bytes.
        fsync_dir(shard_dir)
        fsync_dir(self._tmp)
        self._buffered -= n_rows
        self._shard_counts.append(int(n_rows))
        self._digests.append(digests)
        self._journal_shard(index, int(n_rows), digests)
        if self._on_event is not None:
            self._on_event("shard-committed", index, self._resumed_shards)


class ShardedTable:
    """Read-only view over a published shard directory.

    Each column file's sha256 is checked the first time :meth:`shard`
    reads it; :meth:`verify_all` checks every file at once. Structural
    validation — every shard directory and column file present with the
    manifest's row counts — runs at :meth:`open`, so a truncated or
    hand-edited table fails fast with a :class:`ShardIntegrityError`
    instead of feeding partial data to a kernel.
    """

    __slots__ = (
        "_root",
        "_schema",
        "_counts",
        "_shard_rows",
        "_group_by",
        "_digests",
        "_verified",
    )

    def __init__(
        self,
        root: Path,
        schema: dict[str, np.dtype],
        counts: list[int],
        shard_rows: int,
        group_by: str | None,
        digests: list[dict[str, str]],
    ) -> None:
        self._root = root
        self._schema = schema
        self._counts = counts
        self._shard_rows = shard_rows
        self._group_by = group_by
        self._digests = digests
        self._verified: set[tuple[int, str]] = set()

    @classmethod
    def open(cls, root: str | Path) -> "ShardedTable":
        root = Path(root)
        if not root.is_dir():
            raise FileNotFoundError(f"no shard table at {root}")
        manifest_path = root / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            # An existing table without a readable manifest is damaged
            # bytes, like a missing shard: the heal path must see it.
            raise ShardIntegrityError(
                f"missing or unreadable shard manifest at {manifest_path}: "
                f"{exc}",
                root=root,
            ) from exc
        version = manifest.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard format version {version!r} at {root}"
            )
        schema = {
            name: np.dtype(spec) for name, spec in manifest["schema"].items()
        }
        # Manifest JSON, not a table column (one entry per shard).
        counts = [int(n) for n in manifest["shards"]]  # reprolint: disable=REP502
        raw_digests = manifest["digests"]
        if len(raw_digests) != len(counts):
            raise ShardIntegrityError(
                f"manifest at {root} lists {len(counts)} shards but "
                f"{len(raw_digests)} digest entries",
                root=root,
            )
        digests = [dict(entry) for entry in raw_digests]
        table = cls(
            root=root,
            schema=schema,
            counts=counts,
            shard_rows=int(manifest["shard_rows"]),
            group_by=manifest.get("group_by"),
            digests=digests,
        )
        table._validate_structure()
        return table

    # -- integrity ---------------------------------------------------------

    def _validate_structure(self) -> None:
        """Cheap open-time check: files present, header row counts match.

        Reads only ``.npy`` headers, never column data, so open stays
        O(shards x columns) tiny reads even for huge tables.
        """
        for index, rows in enumerate(self._counts):
            shard_dir = self._root / _shard_name(index)
            if not shard_dir.is_dir():
                raise ShardIntegrityError(
                    f"shard directory missing: {shard_dir} (manifest lists "
                    f"{len(self._counts)} shards)",
                    root=self._root,
                    shard=index,
                )
            for name in self._schema:
                path = shard_dir / f"{name}.npy"
                if not path.is_file():
                    raise ShardIntegrityError(
                        f"column file missing: {path}",
                        root=self._root,
                        shard=index,
                        column=name,
                    )
                try:
                    on_disk = _npy_rows(path)
                except (OSError, ValueError) as exc:
                    raise ShardIntegrityError(
                        f"unreadable column header at {path}: {exc}",
                        root=self._root,
                        shard=index,
                        column=name,
                    ) from exc
                if on_disk != rows:
                    raise ShardIntegrityError(
                        f"row-count mismatch at {path}: manifest says "
                        f"{rows}, file holds {on_disk}",
                        root=self._root,
                        shard=index,
                        column=name,
                    )

    def verify_shard(
        self, index: int, columns: Sequence[str] | None = None
    ) -> None:
        """Digest-check one shard's column files.

        Each (shard, column) pair is checked at most once per instance;
        repeated reads of a verified shard pay nothing.
        """
        expected = self._digests[index]
        shard_dir = self._root / _shard_name(index)
        for name in self._select(columns):
            if (index, name) in self._verified:
                continue
            path = shard_dir / f"{name}.npy"
            try:
                actual = file_sha256(path)
            except OSError as exc:
                raise ShardIntegrityError(
                    f"unreadable column file at {path}: {exc}",
                    root=self._root,
                    shard=index,
                    column=name,
                ) from exc
            recorded = expected.get(name)
            if recorded is None:
                raise ShardIntegrityError(
                    f"manifest at {self._root} has no digest for column "
                    f"{name!r} of shard {index}",
                    root=self._root,
                    shard=index,
                    column=name,
                )
            if actual != recorded:
                raise ShardIntegrityError(
                    f"digest mismatch at {path}: the shard is corrupt or "
                    "torn (quarantine and re-derive the table)",
                    root=self._root,
                    shard=index,
                    column=name,
                )
            self._verified.add((index, name))

    def verify_all(self) -> None:
        """Digest-check every column file of every shard."""
        for index in range(len(self._counts)):
            self.verify_shard(index)

    # -- metadata ----------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def schema(self) -> dict[str, np.dtype]:
        return dict(self._schema)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._schema)

    @property
    def num_shards(self) -> int:
        return len(self._counts)

    @property
    def num_rows(self) -> int:
        return sum(self._counts)

    @property
    def shard_rows(self) -> int:
        return self._shard_rows

    @property
    def group_by(self) -> str | None:
        return self._group_by

    @property
    def shard_counts(self) -> tuple[int, ...]:
        return tuple(self._counts)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        cols = ", ".join(f"{k}:{v}" for k, v in self._schema.items())
        return (
            f"ShardedTable(rows={self.num_rows}, shards={self.num_shards}, "
            f"columns=[{cols}])"
        )

    # -- shard access ------------------------------------------------------

    def shard(self, index: int, columns: Sequence[str] | None = None) -> Table:
        """One shard as a Table of memory-mapped columns.

        Column data is paged in lazily by the OS; slicing or reducing a
        column touches only that column's pages. The first read of each
        column file pays one digest pass first.
        """
        if not 0 <= index < len(self._counts):
            raise IndexError(
                f"shard index {index} out of range [0, {len(self._counts)})"
            )
        names = self._select(columns)
        self.verify_shard(index, names)
        shard_dir = self._root / _shard_name(index)
        return Table(
            {
                name: np.load(shard_dir / f"{name}.npy", mmap_mode="r")
                for name in names
            }
        )

    def iter_shards(
        self, columns: Sequence[str] | None = None
    ) -> Iterator[Table]:
        """Yield each shard in order; one shard live at a time."""
        for index in range(len(self._counts)):
            yield self.shard(index, columns)

    def map_columns(
        self,
        fn: Callable[[Table], object],
        columns: Sequence[str] | None = None,
    ) -> Iterator[object]:
        """Apply ``fn`` to each shard lazily, yielding the results."""
        for shard in self.iter_shards(columns):
            yield fn(shard)

    def to_table(self, columns: Sequence[str] | None = None) -> Table:
        """Materialize the whole table in memory (concat of all shards)."""
        names = self._select(columns)
        if not self._counts:
            return Table(
                {
                    name: np.empty(0, dtype=self._schema[name])
                    for name in names
                }
            )
        parts = [self.shard(i, names) for i in range(len(self._counts))]
        return Table(
            {
                name: np.concatenate([part[name] for part in parts])
                for name in names
            }
        )

    def _select(self, columns: Sequence[str] | None) -> tuple[str, ...]:
        if columns is None:
            return tuple(self._schema)
        unknown = set(columns) - set(self._schema)
        if unknown:
            raise KeyError(f"unknown columns: {sorted(unknown)}")
        return tuple(columns)


def write_table(
    table: Table,
    dest: str | Path,
    shard_rows: int,
    *,
    group_by: str | None = None,
    resume: bool = False,
    on_event: Callable[[str, int, int], None] | None = None,
) -> ShardedTable:
    """Spill an in-memory Table to a new sharded table in one call."""
    schema = {name: table[name].dtype for name in table.column_names}
    with ShardWriter(
        dest,
        schema,
        shard_rows,
        group_by=group_by,
        resume=resume,
        on_event=on_event,
    ) as writer:
        writer.append(table)
    return ShardedTable.open(dest)
