"""The warm-world contract (``repro.parallel.worker.WarmWorld``).

A worker builds its world once and serves every later task from a
restored snapshot, re-targeted to the next fault plan when only that
changed.  Byte-identity rests on the re-targeted world being
indistinguishable from a fresh build, so these tests compare against
one directly rather than against another warm run.
"""

import pytest

import repro.parallel.worker as worker_mod
from repro.ckpt.checkpoint import store_unit_result
from repro.ckpt.worldstate import capture_world_state
from repro.core.campaign import Campaign
from repro.core.plan import WorldPlan
from repro.core.world import build_world
from repro.parallel import (
    InlinePool,
    ShardResult,
    ShardTask,
    WarmWorld,
    make_shards,
    pack_shard_result,
    run_measurement_shard,
)
from repro.service import ServiceConfig, ServiceSupervisor
from repro.service.supervisor import epoch_client_seed_offset


def _chaos_service(directory="unused", **overrides) -> ServiceConfig:
    """The benchmark's service-chaos identity (master seed 20210402)."""
    settings = dict(
        directory=str(directory),
        master_seed=20210402,
        scale=0.005,
        epochs=3,
        runs_per_epoch=1,
        num_shards=2,
        batch_size=40,
        providers=("cloudflare",),
        workers=1,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def _epoch_task(service: ServiceConfig, epoch: int) -> ShardTask:
    """Shard 0 of *epoch*, with the service's epoch plumbing."""
    return ShardTask(
        make_shards(service.num_shards)[0],
        run_index_offset=epoch * service.runs_per_epoch,
        client_seed_offset=epoch_client_seed_offset(epoch),
        name_prefix="e{}-".format(epoch),
    )


@pytest.fixture
def count_builds(monkeypatch):
    """Count the world builds warm worlds make."""
    calls = []
    real = worker_mod.build_world

    def counting(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(worker_mod, "build_world", counting)
    return calls


class TestRetarget:
    SERVICE = _chaos_service()
    PLAN = WorldPlan.for_config(SERVICE.epoch_config(0))

    @pytest.mark.parametrize("epoch", [0, 1, 2])
    def test_retargeted_world_equals_fresh_build(self, epoch, count_builds):
        config = self.SERVICE.epoch_config(epoch)
        fresh = build_world(config, plan=self.PLAN)
        fresh.sim.run()

        warm = WarmWorld()
        warm.prime(self.SERVICE.epoch_config((epoch + 1) % 3), self.PLAN)
        warm.checkout()
        warm.release()
        warm.prime(config, self.PLAN)
        retargeted = warm.checkout()

        assert len(count_builds) == 1
        state = capture_world_state(retargeted)
        assert "faults" in state
        # Epoch 0 has no bursty loss, so its chain must go as well.
        assert ("burst_loss" in state) == (
            config.faults.bursty_loss is not None
        )
        assert state == capture_world_state(fresh)

    @pytest.mark.parametrize("epoch", [0, 1, 2])
    def test_retargeted_shard_blob_is_byte_identical(self, epoch):
        task = _epoch_task(self.SERVICE, epoch)
        fresh = WarmWorld()
        fresh.prime(self.SERVICE.epoch_config(epoch), self.PLAN)
        reference = run_measurement_shard(task, fresh)

        warm = WarmWorld()
        warm.prime(self.SERVICE.epoch_config((epoch + 2) % 3), self.PLAN)
        warm.checkout()
        warm.release()
        warm.prime(self.SERVICE.epoch_config(epoch), self.PLAN)
        packed = run_measurement_shard(task, warm)
        assert packed == reference
        # The next task restores the snapshot taken after re-targeting.
        warm.release()
        assert run_measurement_shard(task, warm) == reference

    def test_different_world_is_rebuilt(self, count_builds):
        warm = WarmWorld()
        warm.prime(self.SERVICE.epoch_config(0), self.PLAN)
        warm.checkout()
        warm.release()
        other = _chaos_service(master_seed=7).epoch_config(0)
        warm.prime(other, WorldPlan.for_config(other))
        assert warm.checkout().config == other
        assert len(count_builds) == 2


def test_inline_service_builds_one_world(tmp_path, count_builds):
    code = ServiceSupervisor(_chaos_service(tmp_path / "svc")).run()
    assert code == 0
    assert len(count_builds) == 1


def _measure_then_raise(_arg, warm):
    world = warm.checkout()
    Campaign(world, atlas_probes_per_country=0).measure(world.nodes()[:3])
    raise RuntimeError("task died mid-shard")


def test_task_that_raises_forces_rebuild(count_builds):
    service = _chaos_service()
    config = service.epoch_config(1)
    plan = WorldPlan.for_config(config)
    task = _epoch_task(service, 1)
    fresh = WarmWorld()
    fresh.prime(config, plan)
    reference = run_measurement_shard(task, fresh)
    assert len(count_builds) == 1

    with InlinePool() as pool:
        pool.prime(config, plan)
        with pytest.raises(RuntimeError, match="mid-shard"):
            pool.run_items([(_measure_then_raise, None, "doomed")])
        assert len(count_builds) == 2
        # The half-measured world is never restored: the next task
        # rebuilds and measures exactly like a fresh world.
        (packed,) = pool.run_items(
            [(run_measurement_shard, task, "shard-0")]
        )
        assert len(count_builds) == 3
        assert packed == reference
        # A clean finish leaves the world warm.
        pool.run_items([(run_measurement_shard, task, "shard-0")])
        assert len(count_builds) == 3


def test_cached_task_after_a_failure_keeps_the_world_dirty(
    tmp_path, count_builds
):
    service = _chaos_service()
    config = service.epoch_config(1)
    plan = WorldPlan.for_config(config)
    task = _epoch_task(service, 1)
    fresh = WarmWorld()
    fresh.prime(config, plan)
    reference = run_measurement_shard(task, fresh)

    # Shard 1 finished in an earlier run: its task returns the cached
    # blob without checking the world out.
    store_unit_result(
        str(tmp_path / "shard-1.result"), "fp",
        pack_shard_result(ShardResult(1)),
    )
    cached = ShardTask(
        make_shards(service.num_shards)[1],
        checkpoint_dir=str(tmp_path),
        fingerprint="fp",
    )
    with InlinePool() as pool:
        pool.prime(config, plan)
        with pytest.raises(RuntimeError, match="mid-shard"):
            pool.run_items([(_measure_then_raise, None, "doomed")])
        pool.run_items([(run_measurement_shard, cached, "shard-1")])
        assert len(count_builds) == 2
        (packed,) = pool.run_items(
            [(run_measurement_shard, task, "shard-0")]
        )
        assert len(count_builds) == 3
        assert packed == reference


def test_checkout_that_raises_forces_rebuild(monkeypatch, count_builds):
    service = _chaos_service()
    plan = WorldPlan.for_config(service.epoch_config(0))
    config = service.epoch_config(1)
    fresh = build_world(config, plan=plan)
    fresh.sim.run()

    warm = WarmWorld()
    warm.prime(service.epoch_config(0), plan)
    warm.checkout()
    warm.release()

    # Re-targeting fails after the world took the new fault plan but
    # before its snapshot was re-captured.
    real_install = worker_mod.install_faults

    def install_then_raise(world, new_config):
        real_install(world, new_config)
        raise RuntimeError("interrupted re-target")

    monkeypatch.setattr(worker_mod, "install_faults", install_then_raise)
    warm.prime(config, plan)
    with pytest.raises(RuntimeError, match="re-target"):
        warm.checkout()
    monkeypatch.setattr(worker_mod, "install_faults", real_install)

    world = warm.checkout()
    assert len(count_builds) == 2
    assert capture_world_state(world) == capture_world_state(fresh)
