"""Crash-safe filesystem publication helpers.

Durable on-disk state in this project follows one protocol, borrowed
from the ALICE crash-consistency literature:

1. write the payload to a dot-prefixed temporary path in the same
   filesystem as the destination,
2. ``fsync`` every payload file (and, for directory payloads, every
   directory) so the *content* is durable,
3. ``os.rename`` the temporary path onto the destination so the switch
   is atomic,
4. ``fsync`` the destination's parent directory so the *name* is
   durable — without this the rename itself can vanish after a power
   cut even though the syscall succeeded.

:func:`publish_atomically` packages steps 2–4; callers only write the
temp payload.  The repro-lint flow rules REP801/REP802 statically
enforce that durable modules either follow the protocol inline or call
these helpers.

Arrays reach disk in one format: :func:`write_npy` writes a bare
``.npy`` file and returns the sha256 of exactly the bytes it wrote, and
:func:`file_sha256` recomputes that digest on read. Shard columns
(``core.shard``) and disk-cache arrays (``core.diskcache``) both go
through this pair, so one function decides how an array lives on disk.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
from pathlib import Path

import numpy as np

__all__ = [
    "file_sha256",
    "fsync_file",
    "fsync_dir",
    "fsync_tree",
    "publish_atomically",
    "remove_durable",
    "write_npy",
]


def fsync_file(path: str | os.PathLike) -> None:
    """Flush a file's content to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_npy(path: str | os.PathLike, array: np.ndarray) -> str:
    """Write ``array`` as a bare, fsynced ``.npy`` file; return its sha256.

    The file holds the bytes ``np.save`` writes for
    ``np.ascontiguousarray(array)``: the ``.npy`` header, then the
    array's own buffer, written and hashed in place without a serialized
    copy. The digest covers exactly those bytes. Object arrays raise
    :class:`TypeError` (their ``.npy`` form is a pickle), and a header
    that needs format 3.0 (structured field names outside latin-1)
    raises :class:`UnicodeEncodeError`.
    """
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise TypeError(f"cannot write an object array ({array.dtype}) as .npy")
    header = io.BytesIO()
    fields = np.lib.format.header_data_from_array_1_0(array)
    try:
        np.lib.format.write_array_header_1_0(header, fields)
    except ValueError:
        # Too long for format 1.0's 16-bit header length: np.save falls
        # back to format 2.0 the same way.
        np.lib.format.write_array_header_2_0(header, fields)
    # A byte view, not a memoryview: memoryview cannot export datetime64
    # or timedelta64 buffers.
    data = array.reshape(-1).view(np.uint8)
    digest = hashlib.sha256(header.getbuffer())
    digest.update(data)
    with open(path, "wb") as fh:
        fh.write(header.getbuffer())
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return digest.hexdigest()


def file_sha256(path: str | os.PathLike) -> str:
    """sha256 of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory's entry list to stable storage.

    Needed after any rename/unlink/create inside ``path``: file fsync
    makes content durable, but only a directory fsync makes the *name*
    referring to that content durable.
    """
    flags = os.O_RDONLY
    if hasattr(os, "O_DIRECTORY"):
        flags |= os.O_DIRECTORY
    fd = os.open(path, flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_tree(root: str | os.PathLike) -> None:
    """Flush a file, or every file and directory under a directory."""
    root = Path(root)
    if not root.is_dir():
        fsync_file(root)
        return
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            fsync_file(os.path.join(dirpath, name))
        fsync_dir(dirpath)


def publish_atomically(
    src: str | os.PathLike,
    dst: str | os.PathLike,
    *,
    payload_synced: bool = False,
) -> None:
    """Atomically publish ``src`` at ``dst`` with full crash durability.

    Fsyncs the payload (unless the caller already did and passes
    ``payload_synced=True``), renames ``src`` onto ``dst``, then fsyncs
    ``dst``'s parent directory — and ``src``'s parent too when it
    differs, so the disappearance of the old name is equally durable.

    Raises whatever ``os.rename`` raises (notably ``OSError`` when a
    concurrent publisher won the race on a non-empty directory target);
    in that case nothing has been renamed and ``src`` is untouched.
    """
    if not payload_synced:
        fsync_tree(src)
    src = os.fspath(src)
    dst = os.fspath(dst)
    os.rename(src, dst)
    dst_parent = os.path.dirname(dst) or "."
    src_parent = os.path.dirname(src) or "."
    fsync_dir(dst_parent)
    if not os.path.samestat(os.stat(dst_parent), os.stat(src_parent)):
        fsync_dir(src_parent)


def remove_durable(path: str | os.PathLike) -> None:
    """Remove a durable file or directory tree, then fsync its parent.

    The parent-directory fsync makes the removal itself crash-durable;
    without it a "deleted" entry (an evicted cache slot, a quarantined
    shard) can resurrect after a power cut.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        shutil.rmtree(path)
    else:
        os.unlink(path)
    fsync_dir(os.path.dirname(path) or ".")
