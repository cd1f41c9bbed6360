"""Bucket a cProfile table's self time by program package.

Self time of a function in ``repro/<package>/`` counts for that
package (``repro/cli.py`` counts as ``cli``).  Self time of anything
outside the program — C built-ins and the standard library — is charged
to the program package that called it: it is split over its callers in
proportion to the time each caller accounts for, following callers
that are themselves outside the program until a package is reached.
Time no program function called lands in ``other``.

cProfile inflates the cost of Python calls but not of the C work under
them, so the buckets are reported only as shares of the profiled total.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "bucket_self_time", "package_of", "shares"]

#: The packages a profile pass reports a share for: the simulation
#: stack first, then the layers around it.  Every other package (and
#: time no package called) is summed into ``other``.
LAYERS = ("netsim", "dns", "tls", "http", "proxy", "doh", "geo", "core",
          "faults", "atlas", "dataset", "obs", "parallel", "ckpt",
          "service", "analysis")

Func = Tuple[str, int, str]

#: How many non-program callers a charge may climb through.
_MAX_DEPTH = 8


def package_of(filename: str, package: str = "repro") -> Optional[str]:
    """The program package a source file belongs to, or None."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] != package:
            continue
        rest = parts[index + 1:]
        if len(rest) == 1:
            return os.path.splitext(rest[0])[0]
        return rest[0]
    return None


def bucket_self_time(stats: Dict[Func, tuple],
                     package: str = "repro") -> Dict[str, float]:
    """Seconds of self time per package for a ``pstats`` stats table.

    *stats* maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping each caller to ``(nc, cc, tt,
    ct)`` — the layout of ``pstats.Stats(profile).stats``.
    """
    owner = {func: package_of(func[0], package) for func in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def charge(func: Func, path: frozenset) -> Dict[str, float]:
        """Fractions of *func*'s time owed to each package."""
        if owner.get(func):
            return {owner[func]: 1.0}
        if func in memo:
            return memo[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {caller: max(0.0, timing[3])
                   for caller, timing in callers.items()
                   if caller not in path and caller != func}
        total = sum(weights.values())
        if len(path) >= _MAX_DEPTH or total <= 0:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in charge(caller, path | {func}).items():
                out[name] = out.get(name, 0.0) + share * weight / total
        memo[func] = out
        return out

    buckets: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if owner[func]:
            buckets[owner[func]] = buckets.get(owner[func], 0.0) + tt
            continue
        # The first hop splits by the self time each caller accounts
        # for; deeper hops split by cumulative time.
        per_caller = {caller: max(0.0, timing[2])
                      for caller, timing in callers.items()
                      if caller != func}
        total = sum(per_caller.values())
        if total <= 0:
            buckets["other"] = buckets.get("other", 0.0) + tt
            continue
        for caller, part in per_caller.items():
            for name, share in charge(caller, frozenset({func})).items():
                buckets[name] = (buckets.get(name, 0.0)
                                 + tt * share * part / total)
    return buckets


def shares(buckets: Dict[str, float]) -> Dict[str, float]:
    """Per-layer shares of the total: :data:`LAYERS` plus ``other``."""
    total = sum(buckets.values())
    out = {layer: (buckets.get(layer, 0.0) / total if total else 0.0)
           for layer in LAYERS}
    out["other"] = 1.0 - sum(out.values()) if total else 0.0
    return out
