"""FaultPlan / FaultWindow: schedule semantics, validation, pickling."""

import pickle

import pytest

from repro.faults import (
    FaultPlan,
    FaultWindow,
    GilbertElliottLoss,
    NodeChurn,
    ProviderOutage,
    SuperProxyOverload,
)


class TestFaultWindow:
    def test_default_window_always_active(self):
        window = FaultWindow()
        for now in (0.0, 1.0, 1e9):
            assert window.active(now)

    def test_bounded_window(self):
        window = FaultWindow(start_ms=100.0, end_ms=200.0)
        assert not window.active(99.9)
        assert window.active(100.0)
        assert window.active(199.9)
        assert not window.active(200.0)

    def test_periodic_duty_cycle(self):
        window = FaultWindow(period_ms=1000.0, burst_ms=250.0)
        # First burst_ms of every period fires, the rest is quiet.
        assert window.active(0.0)
        assert window.active(249.9)
        assert not window.active(250.0)
        assert not window.active(999.9)
        assert window.active(1000.0)
        assert window.active(5100.0)
        assert not window.active(5400.0)

    def test_duty_cycle_respects_outer_bounds(self):
        window = FaultWindow(
            start_ms=500.0, end_ms=2500.0, period_ms=1000.0, burst_ms=100.0
        )
        assert not window.active(0.0)       # before start
        assert window.active(500.0)         # phase anchored at start_ms
        assert not window.active(700.0)
        assert window.active(1550.0)
        assert not window.active(2600.0)    # after end

    @pytest.mark.parametrize("kwargs", [
        dict(start_ms=-1.0),
        dict(start_ms=10.0, end_ms=10.0),
        dict(period_ms=100.0),                       # burst missing
        dict(burst_ms=10.0),                         # period missing
        dict(period_ms=0.0, burst_ms=0.0),
        dict(period_ms=100.0, burst_ms=200.0),       # burst > period
        dict(period_ms=100.0, burst_ms=0.0),
    ])
    def test_invalid_windows_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultWindow(**kwargs)


class TestComponentValidation:
    def test_churn_rate_bounds(self):
        with pytest.raises(ValueError):
            NodeChurn(rate=1.5)
        with pytest.raises(ValueError):
            NodeChurn(min_delay_ms=10.0, max_delay_ms=5.0)

    def test_outage_mode_and_provider(self):
        with pytest.raises(ValueError):
            ProviderOutage("quad9", mode="explode")
        with pytest.raises(ValueError):
            ProviderOutage("")

    def test_overload_rate_bounds(self):
        with pytest.raises(ValueError):
            SuperProxyOverload(rate=0.0)
        with pytest.raises(ValueError):
            SuperProxyOverload(rate=1.5)

    def test_ge_probability_bounds(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_enter_bad=-0.1)
        with pytest.raises(ValueError):
            GilbertElliottLoss(bad_loss_rate=1.1)

    def test_duplicate_outage_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(provider_outages=(
                ProviderOutage("quad9"),
                ProviderOutage("quad9"),
            ))

    def test_same_provider_different_modes_allowed(self):
        plan = FaultPlan(provider_outages=(
            ProviderOutage("quad9", mode="refuse"),
            ProviderOutage("quad9", mode="servfail"),
        ))
        assert len(plan.provider_outages) == 2


class TestFaultPlan:
    def test_with_seed_keeps_schedule(self):
        # --fault-seed changes the seed, never the schedule.
        plan = FaultPlan.from_preset("chaos", seed=1)
        reseeded = FaultPlan.from_preset("chaos", seed=9)
        assert reseeded.seed == 9
        assert reseeded.node_churn == plan.node_churn
        assert reseeded.provider_outages == plan.provider_outages

    def test_plan_pickles_roundtrip(self):
        # The plan rides inside ReproConfig across the spawn boundary.
        plan = FaultPlan.chaos(seed=4)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_chaos_covers_every_fault_class(self):
        plan = FaultPlan.chaos()
        assert plan.node_churn is not None
        assert plan.provider_outages
        assert plan.superproxy_overload is not None
        assert plan.bursty_loss is not None

    @pytest.mark.parametrize("preset,check", [
        ("chaos", lambda p: p.node_churn is not None),
        ("churn", lambda p: p.node_churn is not None
            and p.superproxy_overload is None),
        ("overload", lambda p: p.superproxy_overload is not None
            and p.node_churn is None),
        ("burst-loss", lambda p: p.bursty_loss is not None),
        ("outage:google", lambda p:
            p.provider_outages[0].provider == "google"
            and p.provider_outages[0].mode == "refuse"),
        ("outage:quad9:servfail", lambda p:
            p.provider_outages[0].mode == "servfail"),
    ])
    def test_from_preset(self, preset, check):
        plan = FaultPlan.from_preset(preset, seed=7)
        assert plan.seed == 7
        assert check(plan)

    def test_from_preset_rejects_unknown(self):
        with pytest.raises(ValueError):
            FaultPlan.from_preset("meteor-strike")
        with pytest.raises(ValueError):
            FaultPlan.from_preset("outage:")
