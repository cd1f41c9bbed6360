"""Sharded parallel executor: determinism parity and plumbing.

The central guarantee under test: at a fixed shard count, the merged
dataset is byte-identical no matter how many worker processes ran the
shards (``workers`` changes wall-clock only; ``num_shards`` is part of
the experiment definition, like ``batch_size``).
"""

import dataclasses
import os
import signal
import time

import pytest

from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.core.world import build_world
from repro.faults import FaultPlan
from repro.netsim.engine import SimulationError
from repro.parallel import (
    AtlasTask,
    InlinePool,
    ShardExecutionError,
    ShardSpec,
    ShardTask,
    WarmWorkerPool,
    make_shards,
    run_atlas_task,
    run_measurement_shard,
    run_parallel_campaign,
    shard_items,
    unpack_shard_result,
)
from repro.proxy.population import PopulationConfig
from repro.service import EpochDeadlineExceeded

PARITY_KWARGS = dict(
    num_shards=4,
    max_nodes=48,
    atlas_probes_per_country=1,
    atlas_repetitions=1,
)


def _small_config() -> ReproConfig:
    return ReproConfig(population=PopulationConfig(scale=0.01))


class TestSharding:
    def test_shards_partition_the_fleet(self):
        items = list(range(23))
        specs = make_shards(4)
        slices = [shard_items(items, spec) for spec in specs]
        merged = sorted(x for piece in slices for x in piece)
        assert merged == items
        sizes = [len(piece) for piece in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_max_nodes_caps_before_partitioning(self):
        items = list(range(100))
        specs = make_shards(4, max_nodes=10)
        merged = sorted(
            x for spec in specs for x in shard_items(items, spec)
        )
        assert merged == list(range(10))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec(shard_index=4, num_shards=4)
        with pytest.raises(ValueError):
            ShardSpec(shard_index=0, num_shards=0)
        with pytest.raises(ValueError):
            ShardSpec(shard_index=0, num_shards=1, max_nodes=-1)

    def test_seed_and_tag_derivation(self):
        spec = ShardSpec(shard_index=3, num_shards=8)
        # Shard 0 lines up with the serial campaign's client stream
        # (seed + 1); later shards step past it one by one.
        assert ShardSpec(0, 8).client_seed(100) == 101
        assert spec.client_seed(100) == 104
        assert spec.name_tag() == "s3-"


class TestWorkerParity:
    """workers=N must reproduce workers=1 exactly."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_parallel_campaign(
            _small_config(), workers=1, **PARITY_KWARGS
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_workers_identical_dataset(self, serial_result, workers):
        # An explicit pool: this fleet is below the break-even line, and
        # the whole point is exercising the warm-pool path, not the
        # inline fallback.
        with WarmWorkerPool(workers) as pool:
            parallel_result = run_parallel_campaign(
                _small_config(), workers=workers, pool=pool,
                **PARITY_KWARGS
            )
        assert (
            parallel_result.dataset.to_json()
            == serial_result.dataset.to_json()
        )
        assert parallel_result.discarded_doh == serial_result.discarded_doh
        assert parallel_result.discarded_do53 == serial_result.discarded_do53

    def test_produces_complete_measurements(self, serial_result):
        dataset = serial_result.dataset
        config = _small_config()
        runs = config.runs_per_client
        providers = len(config.providers)
        by_node = {}
        for sample in dataset.doh:
            by_node.setdefault(sample.node_id, []).append(sample)
        for node_id, samples in by_node.items():
            assert len(samples) == runs * providers
        atlas = [s for s in dataset.do53 if s.source == "ripeatlas"]
        assert atlas

    def test_qname_join_survives_the_merge(self, serial_result):
        # PoP identification joins DoH samples against the merged
        # auth-server logs; shard name tags keep that join unambiguous,
        # so successful samples must still resolve to a PoP.
        successful = [s for s in serial_result.dataset.doh if s.success]
        assert successful
        assert any(s.pop_ip_prefix for s in successful)

    def test_progress_callback_counts_tasks(self):
        calls = []
        run_parallel_campaign(
            _small_config(),
            workers=1,
            num_shards=2,
            max_nodes=8,
            atlas_probes_per_country=0,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_parallel_campaign(_small_config(), workers=0)


class TestFaultedParity:
    """The byte-identity invariant must survive fault injection."""

    FAULTED_KWARGS = dict(
        num_shards=4,
        max_nodes=32,
        atlas_probes_per_country=1,
        atlas_repetitions=1,
    )

    def _faulted_config(self) -> ReproConfig:
        return ReproConfig(
            seed=55,
            population=PopulationConfig(scale=0.006),
            faults=FaultPlan.chaos(seed=3),
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_workers_identical_under_faults_observed(self, workers):
        # Chaos faults AND observability on — the hardest parity case:
        # every injected fault, counter, histogram and trace must land
        # identically whether shards ran inline or on the warm pool.
        serial = run_parallel_campaign(
            self._faulted_config(), workers=1, observe=True,
            **self.FAULTED_KWARGS
        )
        with WarmWorkerPool(workers) as pool:
            parallel = run_parallel_campaign(
                self._faulted_config(), workers=workers, observe=True,
                pool=pool, **self.FAULTED_KWARGS
            )
        assert parallel.dataset.to_json() == serial.dataset.to_json()
        assert parallel.failures == serial.failures
        assert (
            parallel.metrics["counters"] == serial.metrics["counters"]
        )
        assert (
            parallel.metrics["histograms"] == serial.metrics["histograms"]
        )
        assert parallel.traces.snapshot() == serial.traces.snapshot()
        # The chaos plan must actually have produced failures to make
        # the parity claim meaningful.
        assert any(not s.success for s in serial.dataset.doh)

    def test_warm_shards_match_fresh_builds(self):
        # Every pool restores its world between tasks, so the workers=1
        # reference above runs on restored worlds too.  Pin the warm
        # path to fresh builds: each shard (and Atlas) measured on its
        # own fresh world must match the same task run on one warm
        # world after Atlas and the shards before it.
        config = self._faulted_config()
        plan = WorldPlan.for_config(config)
        atlas = (run_atlas_task, AtlasTask(1, 1, client_seed=99), "atlas")
        shards = [
            (run_measurement_shard, ShardTask(spec, observe=True),
             "shard-{}".format(spec.shard_index))
            for spec in make_shards(4, max_nodes=32)
        ]
        items = [atlas] + shards
        fresh = []
        for item in items:
            with InlinePool() as pool:
                pool.prime(config, plan)
                fresh.extend(pool.run_items([item]))
        with InlinePool() as pool:
            pool.prime(config, plan)
            warm = pool.run_items(items)

        assert warm[0] == fresh[0]
        for warm_packed, fresh_packed in zip(warm[1:], fresh[1:]):
            actual = _without_gauges(unpack_shard_result(warm_packed))
            expected = _without_gauges(unpack_shard_result(fresh_packed))
            assert actual == expected
        assert any(
            not raw.success
            for packed in fresh[1:]
            for raw in unpack_shard_result(packed).kept_doh
        )


def _without_gauges(result):
    """A shard result minus its wall-clock gauges."""
    metrics = dict(result.metrics)
    del metrics["gauges"]
    return dataclasses.replace(result, metrics=metrics)


# -- worker crash/hang simulation helpers (must be picklable) -------------
# Pool items run as fn(arg, warm_world); these ignore the world.

def _execute_tasks(items, workers, **kwargs):
    """Run *items* on a throwaway pool of *workers* processes."""
    with WarmWorkerPool(min(workers, len(items))) as pool:
        return pool.run_items(items, **kwargs)


def _double(value, _warm):
    return value * 2


def _die(_value, _warm):
    os._exit(11)  # simulate an OOM-kill / segfault, no cleanup


def _die_once(sentinel_path, _warm):
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w"):
            pass
        os._exit(11)
    return "recovered"


def _hang(_value, _warm):
    time.sleep(60)


def _hang_ignoring_sigterm(_value, _warm):
    # The nastiest hang: SIGTERM bounces off, so only the pool's
    # kill() escalation can end this worker.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60)


def _raise(_value, _warm):
    raise RuntimeError("task exploded")


def _refuse_to_unpickle():
    raise ValueError("this pair does not unpickle")


class _Unpicklable:
    """Pickles in the parent; unpickling it in a worker raises."""

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


class TestExecutorResilience:
    """The process pool: dead workers are detected and retried, never
    hung."""

    def test_healthy_tasks_keep_item_order(self):
        items = [(_double, n, "t{}".format(n)) for n in range(5)]
        assert _execute_tasks(items, workers=2) == [0, 2, 4, 6, 8]

    def test_crashed_worker_is_retried(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        items = [
            (_double, 21, "ok"),
            (_die_once, sentinel, "flaky"),
        ]
        results = _execute_tasks(items, workers=2, max_retries=2)
        assert results == [42, "recovered"]

    def test_permanent_crash_raises_named_error(self):
        items = [(_die, None, "doomed-shard")]
        with pytest.raises(ShardExecutionError, match="doomed-shard"):
            _execute_tasks(items, workers=1, max_retries=1)

    def test_task_exception_surfaces_after_retries(self):
        items = [(_raise, None, "explosive")]
        with pytest.raises(ShardExecutionError, match="task exploded"):
            _execute_tasks(items, workers=1, max_retries=0)

    def test_prime_that_fails_to_unpickle_fails_its_task(self):
        with WarmWorkerPool(1) as pool:
            pool.prime(_Unpicklable(), None)
            with pytest.raises(ShardExecutionError, match="not unpickle"):
                pool.run_items([(_double, 1, "t")], max_retries=1)
            # A pair that unpickles serves the next task.
            pool.prime("config", "plan")
            assert pool.run_items([(_double, 1, "t")]) == [2]

    def test_hung_worker_trips_watchdog(self):
        items = [(_hang, None, "sleeper")]
        with pytest.raises(ShardExecutionError, match="watchdog"):
            _execute_tasks(
                items, workers=1, timeout_s=1.0, max_retries=0
            )

    def test_signal_exception_while_waiting_reaches_the_caller(self):
        # The service's SIGALRM and SIGTERM handlers raise
        # BaseExceptions in the main thread; one that lands while
        # run_items waits on its workers must not be swallowed there.
        def deadline(_signum, _frame):
            raise EpochDeadlineExceeded("deadline")

        previous = signal.signal(signal.SIGALRM, deadline)
        try:
            with WarmWorkerPool(1) as pool:
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                start = time.monotonic()
                with pytest.raises(EpochDeadlineExceeded):
                    pool.run_items([(_hang, None, "sleeper")])
                assert time.monotonic() - start < 30.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_sigterm_ignoring_worker_cannot_deadlock_shutdown(self):
        # A worker that ignores SIGTERM must still be reaped: the pool
        # escalates terminate() -> grace -> kill(), so the whole call
        # (including pool shutdown) returns promptly instead of
        # blocking forever on an unkillable child.
        items = [(_hang_ignoring_sigterm, None, "immortal")]
        start = time.monotonic()
        with pytest.raises(ShardExecutionError, match="watchdog"):
            _execute_tasks(
                items, workers=1, timeout_s=1.0, max_retries=0
            )
        # Generous bound: 1s watchdog + two 2s grace periods + spawn
        # slack.  A deadlocked shutdown would blow far past this.
        assert time.monotonic() - start < 30.0


class TestDeadlockDetection:
    def test_stuck_node_task_raises(self):
        world = build_world(_small_config())

        class StuckCampaign(Campaign):
            def _node_task(self, node, sink_doh, sink_do53):
                yield world.sim.event()  # nobody ever triggers this

        campaign = StuckCampaign(world, atlas_probes_per_country=0)
        with pytest.raises(SimulationError, match="did not finish"):
            campaign.measure(world.nodes()[:2])
