"""The persistent warm worker pool (``repro.parallel.pool``).

Covers the properties the executor's speedup rests on — and the ones
byte-identity depends on:

* one pool serves many campaigns back-to-back (the service reuses it
  across epochs), re-priming instead of respawning;
* the break-even line (32 nodes per shard) keeps small campaigns off
  the pool entirely, and larger ones on it;
* a shard retried after a sibling worker's crash lands on a *reused*
  warm worker and still resumes its torn ledger byte-identically —
  no stale per-process world state leaks into the retry.
"""

import dataclasses
import json

import pytest

from repro.core.config import ReproConfig
from repro.faults.plan import FaultPlan, WorkerCrash
from repro.parallel import WarmWorkerPool, run_parallel_campaign
from repro.proxy.population import PopulationConfig

KWARGS = dict(
    num_shards=4,
    max_nodes=40,
    atlas_probes_per_country=1,
    atlas_repetitions=1,
)


def _config(seed: int = 7) -> ReproConfig:
    return ReproConfig(seed=seed, population=PopulationConfig(scale=0.006))


class TestPoolReuse:
    def test_two_campaigns_back_to_back_on_one_pool(self):
        # The service-epoch pattern: one pool, two different campaigns.
        # Both must match their inline references, the second re-primes
        # (different config => workers rebuild their cached world), and
        # the worker processes themselves must persist across both.
        first_ref = run_parallel_campaign(_config(7), workers=1, **KWARGS)
        second_ref = run_parallel_campaign(_config(8), workers=1, **KWARGS)

        with WarmWorkerPool(2) as pool:
            pids_before = sorted(
                handle.process.pid for handle in pool._handles
            )
            first = run_parallel_campaign(
                _config(7), workers=2, pool=pool, **KWARGS
            )
            second = run_parallel_campaign(
                _config(8), workers=2, pool=pool, **KWARGS
            )
            pids_after = sorted(
                handle.process.pid for handle in pool._handles
            )

        assert first.dataset.to_json() == first_ref.dataset.to_json()
        assert second.dataset.to_json() == second_ref.dataset.to_json()
        # Same processes served both campaigns: warm reuse, not respawn.
        assert pids_before == pids_after

    def test_same_campaign_twice_reuses_warm_world(self):
        # Same config twice on one pool: the second campaign's shards
        # run on restored worlds, not fresh builds — and must be
        # byte-identical to the first.
        with WarmWorkerPool(2) as pool:
            first = run_parallel_campaign(
                _config(9), workers=2, pool=pool, **KWARGS
            )
            second = run_parallel_campaign(
                _config(9), workers=2, pool=pool, **KWARGS
            )
        assert first.dataset.to_json() == second.dataset.to_json()


class TestBreakEvenFallback:
    def test_small_campaign_runs_inline(self, monkeypatch):
        # Below the break-even line the pool must never be built; a
        # booby-trapped constructor proves the fallback engaged.
        import repro.parallel.executor as executor

        def _boom(*args, **kwargs):
            raise AssertionError("pool built below break-even")

        monkeypatch.setattr(executor, "WarmWorkerPool", _boom)
        result = run_parallel_campaign(_config(), workers=4, **KWARGS)
        reference = run_parallel_campaign(_config(), workers=1, **KWARGS)
        assert result.dataset.to_json() == reference.dataset.to_json()

    def test_campaign_on_the_line_builds_a_pool(self, monkeypatch):
        import repro.parallel.executor as executor

        built = []
        real_pool = executor.WarmWorkerPool

        def _tracking(*args, **kwargs):
            built.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor, "WarmWorkerPool", _tracking)
        kwargs = dict(num_shards=2, atlas_probes_per_country=0)
        # 63 nodes over 2 shards is under 32 per shard: inline.
        run_parallel_campaign(_config(), workers=2, max_nodes=63, **kwargs)
        assert built == []
        # 64 nodes is on the line: two worker processes.
        run_parallel_campaign(_config(), workers=2, max_nodes=64, **kwargs)
        assert built == [(2,)]

    def test_crash_drill_never_downgrades_to_inline(self, monkeypatch):
        # A worker_crash fault os._exit()s the process running the
        # shard; the fallback must keep it in a worker, never inline —
        # otherwise the drill would kill the caller (this test).
        config = dataclasses.replace(
            _config(),
            # Small batches so shard 0 has a batch boundary for the
            # crash to fire on (it dies before batch ``after_batches``).
            batch_size=4,
            faults=FaultPlan(
                worker_crash=WorkerCrash(after_batches=1, shard_index=0)
            ),
        )
        with pytest.raises(Exception, match="shard-0"):
            # Without a checkpoint the crashing shard can never finish;
            # the executor gives up with ShardExecutionError("shard-0")
            # after retries — proving it ran in a worker process.
            run_parallel_campaign(
                config, workers=2, max_shard_retries=1, **KWARGS
            )


class TestCrashRecoveryThroughWarmPool:
    """A retried shard on a reused warm worker resumes byte-identically."""

    CONFIG = ReproConfig(
        seed=424,
        population=PopulationConfig(scale=0.005),
        batch_size=25,
    )

    def test_retry_lands_on_warm_worker_and_resumes(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        crash_config = dataclasses.replace(
            self.CONFIG,
            faults=FaultPlan(
                worker_crash=WorkerCrash(after_batches=1, shard_index=0)
            ),
        )
        # Two workers, four shards: when shard 0's worker dies, its
        # retry must run on a worker that already measured other
        # shards (or its pristine respawn) — the stale-state hazard
        # the dirty-world tracking exists for.
        with WarmWorkerPool(2) as pool:
            uids_before = {handle.uid for handle in pool._handles}
            result = run_parallel_campaign(
                crash_config,
                workers=2,
                num_shards=4,
                atlas_probes_per_country=0,
                checkpoint_dir=ckpt,
                pool=pool,
            )
            uids_after = {handle.uid for handle in pool._handles}

        baseline = run_parallel_campaign(
            self.CONFIG,
            workers=1,
            num_shards=4,
            atlas_probes_per_country=0,
        )
        assert result.dataset.to_json() == baseline.dataset.to_json()

        # Exactly one worker died (the crash drill) and was respawned;
        # the other survived and stayed warm through the retry.
        assert len(uids_after) == 2
        assert len(uids_before & uids_after) == 1

        with open(tmp_path / "ckpt" / "checkpoint.json") as handle:
            manifest = json.load(handle)
        units = {
            unit["role"]: unit
            for unit in manifest["runs"][-1]["units"]
        }
        # The retried shard replayed its torn ledger, not remeasured.
        assert units["shard-0"]["batches_replayed"] >= 1
