"""Crash-safe file writes shared across the repo.

Every artefact the repo persists — datasets, manifests, traces,
benchmark reports, checkpoint segments — goes through the same
pattern: serialise into ``<path>.tmp`` in the target directory, flush
and ``fsync`` the file, then ``os.replace`` it over the destination.
POSIX guarantees the rename is atomic, so a reader (or a process
killed mid-save) only ever sees the old complete file or the new
complete file, never a truncated hybrid.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = ["atomic_write_bytes", "atomic_write_json", "atomic_write_text",
           "fsync_directory"]


def fsync_directory(path: str) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best effort: some platforms/filesystems refuse O_RDONLY directory
    fsync; losing it only weakens durability, never atomicity.
    """
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Atomically replace *path* with *data*; returns *path*."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(path))
    return path


def atomic_write_text(path: str, text: str) -> str:
    """Atomically replace *path* with UTF-8 *text*; returns *path*."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(
    path: str,
    obj: Any,
    *,
    indent: int = None,
    sort_keys: bool = False,
    trailing_newline: bool = False,
) -> str:
    """Atomically write *obj* as JSON to *path*; returns *path*.

    The keyword knobs exist so existing artefacts keep their exact
    historical byte format (datasets are compact, manifests are
    indented + sorted + newline-terminated).
    """
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text)
