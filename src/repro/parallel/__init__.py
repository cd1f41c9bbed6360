"""Sharded parallel campaign execution (``repro.parallel``).

Splits the exit-node fleet into deterministic shards, runs each
shard's campaign in a worker process, and merges the results into a
single dataset that is byte-identical for any worker count.
Every run dispatches through a pool: a persistent
:class:`~repro.parallel.pool.WarmWorkerPool` of worker processes
(config/plan pickled once per campaign and carried with each task,
each shard's result returned as one wirepack blob — see
:mod:`repro.parallel.wirepack`), or the
zero-process :class:`~repro.parallel.pool.InlinePool` for one worker
and for campaigns below the break-even size.  Each worker builds its
world once and restores it per task.  See ``docs/performance.md`` for
the architecture and the seed-derivation rules.
"""

from repro.parallel.executor import (
    ShardExecutionError,
    default_worker_count,
    run_parallel_campaign,
)
from repro.parallel.pool import InlinePool, WarmWorkerPool
from repro.parallel.sharding import (
    DEFAULT_NUM_SHARDS,
    ShardSpec,
    make_shards,
    shard_items,
)
from repro.parallel.wirepack import pack_shard_result, unpack_shard_result
from repro.parallel.worker import (
    AtlasTask,
    ShardResult,
    ShardTask,
    WarmWorld,
    run_atlas_task,
    run_measurement_shard,
)

__all__ = [
    "AtlasTask",
    "DEFAULT_NUM_SHARDS",
    "InlinePool",
    "ShardExecutionError",
    "ShardResult",
    "ShardSpec",
    "ShardTask",
    "WarmWorkerPool",
    "WarmWorld",
    "default_worker_count",
    "make_shards",
    "pack_shard_result",
    "run_atlas_task",
    "run_measurement_shard",
    "run_parallel_campaign",
    "shard_items",
    "unpack_shard_result",
]
