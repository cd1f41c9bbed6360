"""Sample the summed resident set of a process and its descendants.

Linux only: reads ``/proc``.  A background thread polls every
:data:`INTERVAL_S` seconds and keeps the peak of the summed ``VmRSS``
of the watched process and every process descended from it (the warm
pool's workers and the resource tracker).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, Optional, Set

__all__ = ["TreeRssSampler", "status_kb"]

INTERVAL_S = 0.05
#: Rescan ``/proc`` for new descendants every this many samples.
RESCAN_EVERY = 4


def status_kb(pid: int, field: str) -> Optional[int]:
    """A ``kB`` field (``VmRSS``, ``VmHWM``) of /proc/<pid>/status."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def _parents() -> Dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    return parents


def descendants(root: int, parents: Dict[int, int]) -> Set[int]:
    """*root* and every process below it in *parents*."""
    tree = {root}
    grown = True
    while grown:
        grown = False
        for pid, ppid in parents.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grown = True
    return tree


class TreeRssSampler:
    """Peak summed RSS (kB) of a process tree, sampled in a thread."""

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self, pids: Iterable[int]) -> None:
        total = 0
        for pid in pids:
            total += status_kb(pid, "VmRSS") or 0
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        pids: Set[int] = {self.root}
        count = 0
        while not self._stop.is_set():
            if count % RESCAN_EVERY == 0:
                pids = descendants(self.root, _parents())
            self._sample(pids)
            count += 1
            self._stop.wait(INTERVAL_S)
