"""Campaign tests: dataset shape, validation, Atlas supplement, and
batches that leave nothing for the cyclic collector."""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.faults import FaultPlan
from repro.geo.countries import COUNTRIES, SUPER_PROXY_COUNTRIES
from repro.obs import Observability
from repro.proxy.population import PopulationConfig
from tests.conftest import TEST_SEED, collector_paused


class TestDatasetShape:
    def test_every_client_measured_runs_times_providers(self, small_world,
                                                        dataset):
        runs = small_world.config.runs_per_client
        providers = len(small_world.config.providers)
        by_node = {}
        for sample in dataset.doh:
            by_node.setdefault(sample.node_id, []).append(sample)
        # Spot check 50 clients: each has runs*providers DoH samples.
        for node_id, samples in list(by_node.items())[:50]:
            assert len(samples) == runs * providers

    def test_do53_counts(self, small_world, dataset):
        runs = small_world.config.runs_per_client
        bd_samples = [s for s in dataset.do53 if s.source == "brightdata"]
        by_node = {}
        for sample in bd_samples:
            by_node.setdefault(sample.node_id, []).append(sample)
        for node_id, samples in list(by_node.items())[:50]:
            assert len(samples) == runs

    def test_atlas_supplements_super_proxy_countries(self, dataset):
        atlas = [s for s in dataset.do53 if s.source == "ripeatlas"]
        assert atlas
        assert {s.country for s in atlas} <= set(SUPER_PROXY_COUNTRIES)
        assert all(s.valid and s.success for s in atlas)

    def test_super_proxy_do53_marked_invalid(self, dataset):
        for sample in dataset.do53:
            if (
                sample.source == "brightdata"
                and sample.country in SUPER_PROXY_COUNTRIES
            ):
                assert not sample.valid

    def test_censored_countries_have_no_doh_success(self, dataset):
        censored = {c for c, p in COUNTRIES.items() if p.censored}
        for sample in dataset.doh:
            if sample.country in censored:
                assert not sample.success

    def test_censored_countries_still_have_do53(self, dataset):
        cn = [
            s for s in dataset.do53
            if s.country == "CN" and s.success and s.valid
        ]
        assert cn  # ordinary web fetches pass the firewall

    def test_analyzed_countries_exclude_censored(self, dataset):
        analyzed = set(dataset.analyzed_countries())
        assert "CN" not in analyzed
        assert "KP" not in analyzed

    def test_pop_join_coverage(self, dataset):
        successes = dataset.successful_doh()
        joined = sum(1 for s in successes if s.pop_ip_prefix)
        assert joined / len(successes) > 0.95

    def test_timings_positive_and_ordered(self, dataset):
        for sample in dataset.successful_doh()[:500]:
            assert sample.t_doh_ms > 0
            assert sample.t_dohr_ms > 0
            assert sample.t_doh_ms > sample.t_dohr_ms

    def test_rtt_estimates_plausible(self, dataset):
        values = [s.rtt_estimate_ms for s in dataset.successful_doh()[:500]]
        assert all(v > 0 for v in values)
        assert all(v < 3000 for v in values)


class TestValidation:
    def test_discard_rate_near_mislabel_rate(self, small_world,
                                             campaign_result):
        rate = campaign_result.discard_rate
        configured = small_world.config.population.mislabel_rate
        assert rate <= 4 * configured + 0.01
        # Some mislabels must actually be caught at this fleet size.
        assert campaign_result.discarded_doh + \
            campaign_result.discarded_do53 >= 0

    def test_no_mislabeled_clients_in_dataset(self, small_world, dataset):
        node_by_id = {n.node_id: n for n in small_world.nodes()}
        for client in dataset.clients:
            node = node_by_id.get(client.node_id)
            if node is None:
                continue
            assert node.claimed_country == node.true_country

    def test_client_prefixes_are_slash24(self, dataset):
        for client in dataset.clients[:100]:
            assert client.ip_prefix.endswith("/24")

    def test_serialisation_roundtrip(self, dataset, tmp_path):
        from repro.dataset.store import Dataset

        path = str(tmp_path / "dataset.json")
        dataset.save(path)
        loaded = Dataset.load(path)
        assert len(loaded.clients) == len(dataset.clients)
        assert len(loaded.doh) == len(dataset.doh)
        assert len(loaded.do53) == len(dataset.do53)
        assert loaded.doh[0] == dataset.doh[0]

    def test_summary_mentions_counts(self, dataset):
        text = dataset.summary()
        assert str(len(dataset.clients)) in text


class TestFailureIsolation:
    """A node process that raises becomes a NodeFailure record; the
    rest of the batch is measured normally (the paper's campaign never
    aborted on one churned peer)."""

    def _flaky_campaign(self, world, bad_id, fail_times, **kwargs):
        calls = {"n": 0}

        class Flaky(Campaign):
            def _node_task(self, node, sink_doh, sink_do53):
                if node.node_id == bad_id and calls["n"] < fail_times:
                    calls["n"] += 1
                    raise RuntimeError("node process crashed")
                return super()._node_task(node, sink_doh, sink_do53)

        return Flaky(world, atlas_probes_per_country=0, **kwargs)

    def test_one_bad_node_does_not_abort_the_batch(self, small_world):
        nodes = small_world.nodes()[:4]
        bad_id = nodes[1].node_id
        campaign = self._flaky_campaign(small_world, bad_id, fail_times=99)
        raw_doh, raw_do53 = campaign.measure(nodes)

        assert len(campaign.failures) == 1
        failure = campaign.failures[0]
        assert failure.node_id == bad_id
        assert failure.error == "node process crashed"
        assert failure.attempts == 2  # default max_node_retries=1
        measured = {raw.node_id for raw in raw_doh}
        assert bad_id not in measured
        assert len(measured) == 3  # everyone else got measured

    def test_flaky_node_recovers_on_retry(self, small_world):
        nodes = small_world.nodes()[:2]
        bad_id = nodes[0].node_id
        campaign = self._flaky_campaign(small_world, bad_id, fail_times=1)
        raw_doh, _raw_do53 = campaign.measure(nodes)

        assert campaign.failures == []
        assert bad_id in {raw.node_id for raw in raw_doh}

    def test_zero_retries_fails_on_first_error(self, small_world):
        nodes = small_world.nodes()[:2]
        bad_id = nodes[0].node_id
        campaign = self._flaky_campaign(
            small_world, bad_id, fail_times=99, max_node_retries=0
        )
        campaign.measure(nodes)
        assert campaign.failures[0].attempts == 1

    def test_partial_attempt_leaves_no_samples(self, small_world):
        # A node that measures everything and then dies must not leak
        # its half-committed attempt into the sinks.
        nodes = small_world.nodes()[:2]
        bad_id = nodes[0].node_id

        class DiesAtTheEnd(Campaign):
            def _node_task(self, node, sink_doh, sink_do53):
                yield from super()._node_task(node, sink_doh, sink_do53)
                if node.node_id == bad_id:
                    raise RuntimeError("died after measuring")

        campaign = DiesAtTheEnd(small_world, atlas_probes_per_country=0)
        raw_doh, raw_do53 = campaign.measure(nodes)

        assert {f.node_id for f in campaign.failures} == {bad_id}
        assert bad_id not in {raw.node_id for raw in raw_doh}
        assert bad_id not in {raw.node_id for raw in raw_do53}


class TestNoCyclicGarbage:
    """Every object a batch allocates is freed by reference counting, so
    the collection that closes each batch is a backstop that finds
    nothing, and a batch's memory is its live state."""

    @pytest.mark.parametrize("variant", ["healthy", "chaos", "observed"])
    def test_measure_leaves_no_cycles(self, variant):
        config = ReproConfig(
            seed=TEST_SEED,
            population=PopulationConfig(scale=0.005),
            batch_size=25,
            faults=FaultPlan.chaos(seed=3) if variant == "chaos" else None,
        )
        world = build_world(config)
        campaign = Campaign(
            world, obs=Observability() if variant == "observed" else None
        )
        # Four batches of 25 nodes.
        with collector_paused() as found:
            raw_doh, raw_do53 = campaign.measure(world.nodes()[:100])
        assert len(raw_doh) == 800 and len(raw_do53) == 200
        assert found == {}
