"""Fault schedules: frozen, picklable descriptions of *what* fails *when*.

A :class:`FaultPlan` travels inside :class:`~repro.core.config.ReproConfig`
across process boundaries, so every class here is a frozen dataclass of
plain values.  Episodes are scheduled against the **simulation clock**
via :class:`FaultWindow`; the random half of each decision (which node
churns, how long until the disconnect) lives in
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "FaultPlan",
    "FaultWindow",
    "GilbertElliottLoss",
    "NodeChurn",
    "ProviderOutage",
    "SuperProxyOverload",
    "WorkerCrash",
    "WORKER_CRASH_EXIT",
]

_INF = float("inf")

#: Exit status a deliberately crashed process dies with (distinguishes
#: the ``worker_crash`` drill from real crashes in tests and CI).
WORKER_CRASH_EXIT = 57


@dataclass(frozen=True)
class FaultWindow:
    """When (in sim-time ms) a fault episode is armed.

    The default window is always active.  ``period_ms``/``burst_ms``
    turn it into a duty cycle: within ``[start_ms, end_ms)`` the fault
    fires for the first ``burst_ms`` of every ``period_ms`` — the shape
    of a recurring outage, independent of how long the campaign's sim
    time happens to run.
    """

    start_ms: float = 0.0
    end_ms: float = _INF
    period_ms: Optional[float] = None
    burst_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ValueError("start_ms must be >= 0")
        if self.end_ms <= self.start_ms:
            raise ValueError("end_ms must be > start_ms")
        if (self.period_ms is None) != (self.burst_ms is None):
            raise ValueError("period_ms and burst_ms come together")
        if self.period_ms is not None:
            if self.period_ms <= 0:
                raise ValueError("period_ms must be > 0")
            if not 0 < self.burst_ms <= self.period_ms:
                raise ValueError("burst_ms must be in (0, period_ms]")

    def active(self, now: float) -> bool:
        """Whether the episode is firing at sim-time *now*."""
        if not self.start_ms <= now < self.end_ms:
            return False
        if self.period_ms is None:
            return True
        return (now - self.start_ms) % self.period_ms < self.burst_ms


@dataclass(frozen=True)
class NodeChurn:
    """Exit nodes dropping off mid-tunnel (BrightData peer churn).

    Each time a node's agent accepts a command there is a *rate* chance
    the node disconnects after a uniform delay in
    ``[min_delay_ms, max_delay_ms]`` — mid-resolution, mid-handshake or
    mid-exchange, wherever the delay lands.
    """

    rate: float = 0.1
    min_delay_ms: float = 5.0
    max_delay_ms: float = 120.0
    window: FaultWindow = field(default_factory=FaultWindow)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not 0.0 <= self.min_delay_ms <= self.max_delay_ms:
            raise ValueError("need 0 <= min_delay_ms <= max_delay_ms")


@dataclass(frozen=True)
class ProviderOutage:
    """A DoH provider failing during the window.

    ``mode="refuse"`` drops connections at every PoP front end (the
    client sees the TLS stream die); ``mode="servfail"`` keeps HTTPS up
    but answers every query with SERVFAIL (a resolving-backend outage).
    """

    provider: str
    window: FaultWindow = field(default_factory=FaultWindow)
    mode: str = "refuse"

    def __post_init__(self) -> None:
        if self.mode not in ("refuse", "servfail"):
            raise ValueError("mode must be 'refuse' or 'servfail'")
        if not self.provider:
            raise ValueError("provider name required")


@dataclass(frozen=True)
class SuperProxyOverload:
    """Super proxies shedding load: 502 bursts before node selection.

    During the window each incoming request is rejected with
    probability *rate* (1.0 = hard outage for the whole burst).
    """

    rate: float = 1.0
    window: FaultWindow = field(default_factory=FaultWindow)

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Bursty packet loss layered on the i.i.d. loss in netsim.latency.

    The classic two-state chain: every transmission steps good→bad with
    ``p_enter_bad`` and bad→good with ``p_exit_bad``; while in the bad
    state each transmission is additionally lost with
    ``bad_loss_rate``.  Mean burst length is ``1 / p_exit_bad``
    transmissions.
    """

    p_enter_bad: float = 0.01
    p_exit_bad: float = 0.25
    bad_loss_rate: float = 0.3

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "bad_loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("{} must be in [0, 1]".format(name))


@dataclass(frozen=True)
class WorkerCrash:
    """Hard-kill the measuring process mid-campaign (preemption drill).

    Unlike every other fault this one never touches the simulation: it
    kills the *process* (``os._exit``) right before the batch with
    index ``after_batches`` starts, exactly like the OOM killer or a
    spot-instance preemption would.  Measured timings are therefore
    byte-identical with or without it — what it exercises is the
    checkpoint/resume machinery (``repro.ckpt``) and the executor's
    crashed-worker retry path.

    The crash fires only on a **fresh** start (a run that begins at
    batch 0); a resumed run sails past the crash point, which is what
    makes recovery testable and terminating.  ``shard_index`` narrows
    the blast to one shard of the parallel executor (``None`` crashes
    the serial campaign and every shard alike).
    """

    after_batches: int = 1
    shard_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.after_batches < 1:
            raise ValueError(
                "after_batches must be >= 1 (a crash before any batch "
                "commits would just crash again on resume)"
            )


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule for one campaign.

    Part of :class:`~repro.core.config.ReproConfig`, so the same plan
    reaches every shard worker.  ``seed`` feeds the injector's keyed
    RNG streams; two campaigns with the same world seed and the same
    plan produce byte-identical datasets at any worker count.
    """

    seed: int = 0
    node_churn: Optional[NodeChurn] = None
    provider_outages: Tuple[ProviderOutage, ...] = ()
    superproxy_overload: Optional[SuperProxyOverload] = None
    bursty_loss: Optional[GilbertElliottLoss] = None
    #: Process-level preemption drill (see :class:`WorkerCrash`); never
    #: perturbs measurements, only kills the measuring process.
    worker_crash: Optional[WorkerCrash] = None

    def __post_init__(self) -> None:
        seen = set()
        for outage in self.provider_outages:
            key = (outage.provider, outage.mode)
            if key in seen:
                raise ValueError(
                    "duplicate outage for provider {!r} mode {!r}".format(
                        outage.provider, outage.mode
                    )
                )
            seen.add(key)

    # -- presets -----------------------------------------------------------

    @classmethod
    def chaos(cls, seed: int = 0) -> "FaultPlan":
        """Every fault class at once, at moderate intensity."""
        return cls(
            seed=seed,
            node_churn=NodeChurn(rate=0.12),
            provider_outages=(
                ProviderOutage(
                    "quad9",
                    window=FaultWindow(period_ms=4000.0, burst_ms=1600.0),
                ),
            ),
            superproxy_overload=SuperProxyOverload(
                rate=1.0,
                window=FaultWindow(period_ms=5000.0, burst_ms=400.0),
            ),
            bursty_loss=GilbertElliottLoss(),
        )

    @classmethod
    def from_preset(cls, preset: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI preset: ``churn``, ``outage:<provider>[:servfail]``,
        ``overload``, ``burst-loss`` or ``chaos``."""
        name, _, rest = preset.partition(":")
        if name == "chaos":
            return cls.chaos(seed)
        if name == "churn":
            return cls(seed=seed, node_churn=NodeChurn(rate=0.12))
        if name == "overload":
            return cls(
                seed=seed,
                superproxy_overload=SuperProxyOverload(
                    rate=1.0,
                    window=FaultWindow(period_ms=5000.0, burst_ms=400.0),
                ),
            )
        if name == "burst-loss":
            return cls(seed=seed, bursty_loss=GilbertElliottLoss())
        if name == "outage":
            provider, _, mode = rest.partition(":")
            if not provider:
                raise ValueError("outage preset needs a provider: outage:<name>")
            return cls(
                seed=seed,
                provider_outages=(
                    ProviderOutage(
                        provider,
                        window=FaultWindow(
                            period_ms=4000.0, burst_ms=1600.0
                        ),
                        mode=mode or "refuse",
                    ),
                ),
            )
        raise ValueError("unknown fault preset {!r}".format(preset))
