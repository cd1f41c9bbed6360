"""Incremental campaigns: extend a finished checkpoint without
remeasuring it.

``extend_campaign`` grows a completed campaign along exactly one axis
(new providers, extra runs, a larger fleet), measures **only** the
delta, and merges it deterministically: base records keep their exact
order and bytes, delta records append in canonical order.
"""

import dataclasses
import subprocess
import sys

import pytest

from repro.ckpt import (
    CampaignCheckpoint,
    CheckpointError,
    extend_campaign,
    plan_extension,
)
from repro.ckpt.extend import fleet_node_ids
from repro.core.config import ReproConfig
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

from tests.ckpt.conftest import read_manifest, runner_env

BASE_CONFIG = ReproConfig(
    seed=424, population=PopulationConfig(scale=0.005), batch_size=25
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """One completed, checkpointed one-shard base campaign shared by
    the module."""
    directory = str(tmp_path_factory.mktemp("base") / "ckpt")
    result = run_parallel_campaign(
        BASE_CONFIG, workers=1, num_shards=1, atlas_probes_per_country=0,
        checkpoint_dir=directory,
    )
    return directory, result.dataset


class TestPlanValidation:
    def test_exactly_one_axis_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            plan_extension(BASE_CONFIG)
        with pytest.raises(ValueError, match="exactly one"):
            plan_extension(BASE_CONFIG, providers=("adguard",),
                           extra_runs=1)

    def test_unknown_provider_rejected(self):
        with pytest.raises(ValueError, match="unknown provider"):
            plan_extension(BASE_CONFIG, providers=("nxdomain-dns",))

    def test_existing_provider_rejected(self):
        with pytest.raises(ValueError, match="already in the base"):
            plan_extension(BASE_CONFIG, providers=("cloudflare",))

    def test_duplicate_providers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_extension(BASE_CONFIG,
                           providers=("adguard", "adguard"))

    def test_scale_must_grow(self):
        with pytest.raises(ValueError, match="must exceed"):
            plan_extension(BASE_CONFIG, scale=0.005)

    def test_scale_must_add_a_node(self):
        # Country floors give scales 0.005 and 0.006 the same fleet.
        assert fleet_node_ids(
            dataclasses.replace(
                BASE_CONFIG, population=PopulationConfig(scale=0.006))
        ) == fleet_node_ids(BASE_CONFIG)
        with pytest.raises(ValueError, match="0.006 adds no exit node.*0.005"):
            plan_extension(BASE_CONFIG, scale=0.006)

    def test_provider_plan_shape(self):
        plan = plan_extension(BASE_CONFIG, providers=("adguard",))
        assert plan.kind == "providers"
        assert not plan.include_do53  # base Do53 samples must not double
        assert plan.config.providers == BASE_CONFIG.providers + ("adguard",)

    def test_runs_plan_offsets_past_base(self):
        plan = plan_extension(BASE_CONFIG, extra_runs=1)
        assert plan.kind == "runs"
        assert plan.run_index_offset == BASE_CONFIG.runs_per_client


class TestProviderExtension:
    def test_delta_only_and_deterministic_merge(self, base, tmp_path):
        directory, dataset = base
        result = extend_campaign(directory, dataset,
                                 providers=("adguard",))

        # Only the new provider was measured: no Do53, no base rework.
        assert result.kind == "providers"
        assert result.batches_measured > 0
        assert result.batches_replayed == 0
        assert result.doh_added > 0
        assert result.do53_added == 0
        assert len(result.dataset.do53) == len(dataset.do53)

        # Base records survive as an exact prefix of the merged dataset.
        merged = result.dataset
        assert merged.doh[: len(dataset.doh)] == dataset.doh
        assert merged.do53 == dataset.do53
        added = merged.doh[len(dataset.doh):]
        assert {sample.provider for sample in added} == {"adguard"}

        # The lineage entry proves the delta-only recompute.
        lineage = read_manifest(directory)["lineage"]
        assert lineage[-1]["kind"] == "providers"
        assert lineage[-1]["batches_measured"] == result.batches_measured

    def test_re_extend_is_a_pure_replay(self, base, tmp_path):
        directory, dataset = base
        first = extend_campaign(directory, dataset, providers=("adguard",))
        again = extend_campaign(directory, dataset, providers=("adguard",))
        assert again.batches_measured == 0
        assert again.batches_replayed > 0
        assert again.extension_id == first.extension_id

        first_path, again_path = tmp_path / "a.json", tmp_path / "b.json"
        first.dataset.save(str(first_path))
        again.dataset.save(str(again_path))
        assert first_path.read_bytes() == again_path.read_bytes()


class TestRunsExtension:
    def test_new_runs_continue_the_index_space(self, base):
        directory, dataset = base
        result = extend_campaign(directory, dataset, extra_runs=1)
        assert result.kind == "runs"
        assert result.doh_added > 0
        assert result.do53_added > 0

        base_max = max(sample.run_index for sample in dataset.doh)
        added = result.dataset.doh[len(dataset.doh):]
        assert min(s.run_index for s in added) == base_max + 1
        # Base samples are untouched.
        assert result.dataset.doh[: len(dataset.doh)] == dataset.doh


class TestNodesExtension:
    def test_only_new_nodes_are_measured(self, base):
        directory, dataset = base
        # At tiny scales the per-country client floor dominates, so the
        # fleet only grows once the scale step is large enough (0.005
        # and 0.0075 plan identical fleets; 0.012 adds 30 nodes).
        result = extend_campaign(directory, dataset, scale=0.012)
        assert result.kind == "nodes"
        assert result.clients_added > 0

        base_fleet = fleet_node_ids(BASE_CONFIG)
        added = result.dataset.doh[len(dataset.doh):]
        assert added
        assert not {s.node_id for s in added} & base_fleet
        # Base clients keep their slots; new clients append after them.
        node_ids = [client.node_id for client in result.dataset.clients]
        assert node_ids[: len(dataset.clients)] == [
            client.node_id for client in dataset.clients
        ]


class TestGuards:
    def test_incomplete_base_refused(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        CampaignCheckpoint.open(directory, BASE_CONFIG,
                                execution={"mode": "serial"})
        with pytest.raises(CheckpointError, match="complete"):
            extend_campaign(directory, None, providers=("adguard",))

    def test_merge_dedupes_clients_base_wins(self, base):
        from repro.dataset.store import Dataset

        _directory, dataset = base
        overlapping = Dataset(
            clients=list(dataset.clients[:2]),
            doh=[],
            do53=[],
            min_clients_per_country=dataset.min_clients_per_country,
        )
        merged = dataset.merge(overlapping)
        assert len(merged.clients) == len(dataset.clients)
        assert merged.doh == dataset.doh


@pytest.mark.parametrize("axis,problem", [
    (["--scale", "0.006"], "adds no exit node"),
    (["--provider", "cloudflare"], "already in the base campaign"),
    (["--provider", "nxdomain-dns"], "unknown provider"),
    ([], "exactly one extension axis"),
], ids=["scale-adds-no-node", "existing-provider", "unknown-provider",
        "no-axis"])
def test_cli_names_a_rejected_extension(base, tmp_path, axis, problem):
    directory, dataset = base
    dataset_path = str(tmp_path / "base.json")
    dataset.save(dataset_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "ckpt", "extend", directory,
         "--dataset", dataset_path, "--out", str(tmp_path / "out.json")]
        + axis,
        capture_output=True, text=True, env=runner_env(), timeout=300,
    )
    assert proc.returncode == 1
    assert "repro ckpt extend: error: " in proc.stderr
    assert problem in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()
