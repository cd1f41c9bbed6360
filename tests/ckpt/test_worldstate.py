"""World-state restore must undo what ran after the capture.

``Campaign.collect_atlas`` attaches RIPE Atlas probe hosts to the
network.  A restore to a snapshot taken before them has to detach
those hosts (and their port bindings): a warm worker restores the same
world for every task, so Atlas followed by any task on that world
depends on it.
"""

from repro.ckpt.worldstate import capture_world_state, restore_world_state
from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.proxy.population import PopulationConfig

CONFIG = ReproConfig(seed=7, population=PopulationConfig(scale=0.006))


def _booted_world():
    world = build_world(CONFIG)
    world.sim.run()
    return world


def _atlas(world):
    return Campaign(
        world, atlas_probes_per_country=1, atlas_repetitions=1,
        client_seed=99, client_name_tag="a-",
    ).collect_atlas()


def test_atlas_runs_again_after_restore():
    world = _booted_world()
    pristine = capture_world_state(world)
    first = _atlas(world)
    assert first
    restore_world_state(world, pristine)
    # Before the fix: NetworkError "IP already attached".
    assert _atlas(world) == first


def test_restored_state_lists_only_snapshot_hosts():
    world = _booted_world()
    pristine = capture_world_state(world)
    _atlas(world)
    restore_world_state(world, pristine)
    state = capture_world_state(world)
    assert set(state["ephemeral_ports"]) == set(pristine["ephemeral_ports"])
    assert state == pristine
    # Before the fix: KeyError on the first Atlas probe's address.
    restore_world_state(build_world(CONFIG), state)
