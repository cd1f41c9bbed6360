"""Campaign fingerprinting: what makes a checkpoint resumable.

A checkpoint may only ever be resumed by a campaign that would have
produced byte-identical results from scratch.  The fingerprint hashes
every code-relevant input:

* the full :class:`~repro.core.config.ReproConfig` ``repr`` — world
  seed, population scale, latency parameters, provider set, TLS
  version, runs per client, batch size, and the complete fault plan
  (fault seed included),
* the derived :class:`~repro.core.plan.WorldPlan` — so drift in the
  plan-fitting code itself (which would build a different fleet from
  the same config) also invalidates old checkpoints,
* the execution shape — sharded campaign or extension delta, shard
  count, node cap, client-stream seeds/name tags, Atlas parameters —
  because those choose which RNG streams measure which node.

Two campaigns share a fingerprint exactly when their uninterrupted
datasets would be identical; anything else raises
:class:`~repro.ckpt.checkpoint.CheckpointMismatchError` at resume.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from repro.core.plan import WorldPlan

__all__ = ["campaign_fingerprint"]

#: Bump when the checkpoint format changes incompatibly.  Format 3: one
#: sealed ``.state`` per unfinished unit holds its committed batches
#: (wirepack) and world state; sealed ``.result``/config as before.
FORMAT_VERSION = 3


def campaign_fingerprint(
    config,
    execution: Optional[Dict] = None,
    plan: Optional[WorldPlan] = None,
) -> str:
    """Stable hex digest identifying one resumable campaign.

    *execution* is a plain JSON-able dict describing the execution
    shape (mode, shard count, Atlas parameters...); ``None`` is an
    empty one.  *plan* is the config's
    :class:`WorldPlan` when the caller already derived it; ``None``
    fits it here.
    """
    if plan is None:
        plan = WorldPlan.for_config(config)
    material = "\n".join(
        [
            "format:{}".format(FORMAT_VERSION),
            "config:{!r}".format(config),
            "plan:{!r}".format(plan),
            "execution:{}".format(
                json.dumps(execution or {}, sort_keys=True,
                           separators=(",", ":"))
            ),
        ]
    )
    return hashlib.blake2b(
        material.encode("utf-8"), digest_size=20
    ).hexdigest()
