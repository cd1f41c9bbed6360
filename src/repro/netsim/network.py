"""The network fabric: host registry and message delivery.

A :class:`Network` binds the simulator kernel, the latency model and a
seeded random source.  It moves *messages* (arbitrary payload objects
with an explicit wire size) between hosts, sampling per-transmission
one-way delays and losses, and preserving FIFO ordering per
(src, dst, channel) so streams never reorder.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Callable, Dict, Optional, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.host import Host, SiteProfile
from repro.netsim.latency import LatencyModel, LatencyParams

__all__ = ["Network", "NetworkError", "UnknownHostError"]


class NetworkError(RuntimeError):
    """Base class for fabric-level failures."""


class UnknownHostError(NetworkError):
    """Raised when a message is addressed to an unattached IP."""


class Network:
    """Registry of hosts plus the delivery machinery between them."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.latency = latency or LatencyModel(LatencyParams())
        #: Optional stateful bursty-loss process (an object with a
        #: ``lost() -> bool`` method, e.g. a Gilbert–Elliott chain from
        #: ``repro.faults``), layered on the i.i.d. loss model.
        self.burst_loss = None
        self._hosts: Dict[str, Host] = {}
        # Anycast VIPs: address -> selector(client_host) -> concrete IP.
        self._anycast: Dict[str, Callable[[Host], str]] = {}
        # FIFO guard: last scheduled arrival per ordered channel.
        self._last_arrival: Dict[Tuple[str, str, int], float] = {}
        # Port demux tables are owned by the socket layer but stored here
        # so they are per-network (tests build many independent networks).
        self.udp_ports: Dict[Tuple[str, int], object] = {}
        self.tcp_ports: Dict[Tuple[str, int], object] = {}

    # -- host management -------------------------------------------------

    def add_host(self, name: str, ip: str, site: SiteProfile) -> Host:
        """Create and attach a host."""
        if ip in self._hosts:
            raise NetworkError("IP already attached: {}".format(ip))
        host = Host(name=name, ip=ip, site=site, network=self)
        self._hosts[ip] = host
        return host

    def host(self, ip: str) -> Host:
        """Look up the host attached at *ip*."""
        try:
            return self._hosts[ip]
        except KeyError:
            raise UnknownHostError("no host attached at {}".format(ip)) from None

    def has_host(self, ip: str) -> bool:
        """Whether a host is attached at *ip*."""
        return ip in self._hosts

    def detach_hosts(self, ips) -> None:
        """Detach the hosts at *ips* along with their port bindings.

        Only safe when no message to or from them is in flight (a
        drained event queue).
        """
        ips = set(ips)
        for ip in ips:
            del self._hosts[ip]
        for table in (self.udp_ports, self.tcp_ports):
            for key in [key for key in table if key[0] in ips]:
                del table[key]

    # -- anycast ----------------------------------------------------------

    def register_anycast(
        self, vip: str, selector: Callable[[Host], str]
    ) -> None:
        """Register *vip* as an anycast address.

        *selector* maps a connecting client host to the concrete unicast
        address of the site that BGP-style routing would deliver it to.
        This is how the DoH providers' single public address (e.g.
        1.1.1.1-style) fans out to per-city PoPs.
        """
        if vip in self._hosts:
            raise NetworkError("VIP collides with a unicast host: {}".format(vip))
        self._anycast[vip] = selector

    def is_anycast(self, ip: str) -> bool:
        """Whether *ip* is a registered anycast VIP."""
        return ip in self._anycast

    def resolve_destination(self, src: Host, dst_ip: str) -> str:
        """Map *dst_ip* to a concrete host address for *src*.

        Unicast addresses pass through; anycast VIPs are resolved with
        the registered selector (stable per client, as BGP paths are).
        """
        selector = self._anycast.get(dst_ip)
        if selector is None:
            return dst_ip
        concrete = selector(src)
        if concrete in self._anycast:
            raise NetworkError("anycast selector returned another VIP")
        return concrete

    def __len__(self) -> int:
        return len(self._hosts)

    # -- delivery -----------------------------------------------------------

    def sample_loss(self, src: Host, dst: Host) -> bool:
        """Sample whether one transmission between the hosts is lost."""
        iid = self.latency.loss(src.site, dst.site, self.rng)
        burst = self.burst_loss
        # The chain steps on every transmission, even already-lost ones,
        # so burst state is a function of transmission count alone.
        bursty = burst is not None and burst.lost()
        return iid or bursty

    def transmit(
        self,
        src: Host,
        dst_ip: str,
        nbytes: int,
        deliver: Callable[[], None],
        channel: int = 0,
        reliable: bool = True,
        extra_delay_ms: float = 0.0,
    ) -> Optional[float]:
        """Schedule *deliver* to run when the message reaches *dst_ip*.

        With ``reliable=True`` losses are converted into retransmission
        delay (exponentially backed-off RTO seeded from the path's
        expected RTT), so delivery always happens — this is what the
        in-order TCP layer uses.  With ``reliable=False`` a lost message
        is silently dropped and None is returned (UDP semantics).

        Returns the scheduled arrival time, or None if dropped.

        This is the fabric's per-message hot path and the one place the
        delay formula of :mod:`repro.netsim.latency` is evaluated.  RNG
        draw order: src access, dst access and queueing jitter, then
        the i.i.d. loss draw, then the burst chain (as
        :meth:`sample_loss`).  The per-pair constants (base delay,
        queueing mu, access rates, loss sum) come straight from the
        latency model's pair memo.
        """
        try:
            dst = self._hosts[dst_ip]
        except KeyError:
            raise UnknownHostError(
                "no host attached at {}".format(dst_ip)
            ) from None
        rng = self.rng
        src_site = src.site
        dst_site = dst.site
        latency = self.latency
        entry = latency._base_cache.get((id(src_site), id(dst_site)))
        if entry is not None:
            latency.base_cache_hits += 1
        else:
            entry = latency._pair_entry(src_site, dst_site)
        params = latency.params
        (delay, mu, src_dc, src_lm, src_bits_ms,
         dst_dc, dst_lm, dst_bits_ms, loss_sum, _src, _dst) = entry
        if src_dc:
            delay += src_lm
        else:
            delay += src_lm * rng.lognormvariate(0.0, params.access_sigma)
        if dst_dc:
            delay += dst_lm
        else:
            delay += dst_lm * rng.lognormvariate(0.0, params.access_sigma)
        bits = nbytes * 8.0
        delay += bits / src_bits_ms
        delay += bits / dst_bits_ms
        delay += rng.lognormvariate(mu, params.queueing_sigma)
        min_delay = params.min_delay_ms
        if delay <= min_delay:
            delay = min_delay
        delay += extra_delay_ms
        lost = rng.random() < loss_sum
        burst = self.burst_loss
        if burst is not None:
            # The chain steps on every transmission, even already-lost
            # ones, so burst state is a function of transmission count.
            lost = burst.lost() or lost
        if lost:
            if not reliable:
                return None
            delay += self._retransmission_penalty_ms(src, dst)
        sim = self.sim
        arrival = sim.now + delay
        key = (src.ip, dst_ip, channel)
        last = self._last_arrival
        previous = last.get(key)
        if previous is not None and arrival <= previous:
            arrival = previous + 1e-6
        last[key] = arrival
        # Inline sim.schedule(arrival - now, deliver): the delay is
        # non-negative by construction (sampled delay has a positive
        # floor and the FIFO guard only pushes arrivals later), so the
        # kernel's in-the-past check is redundant here.
        sim._seq += 1
        sim.events_scheduled += 1
        heappush(sim._heap, (arrival, sim._seq, deliver, None))
        return arrival

    def forget_flow_state(self) -> None:
        """Drop per-channel FIFO bookkeeping.

        Safe whenever the event queue is drained (no in-flight
        messages): channel ids are never reused, so stale entries only
        cost memory.  Long campaigns call this between batches.
        """
        self._last_arrival.clear()

    def _retransmission_penalty_ms(self, src: Host, dst: Host) -> float:
        """Cost of recovering one lost segment: RTO plus the resend."""
        rtt = self.latency.expected_rtt_ms(src.site, dst.site)
        rto = max(200.0, 2.0 * rtt)
        penalty = rto
        # Back off while consecutive retransmissions are also lost.
        while self.sample_loss(src, dst):
            rto *= 2.0
            penalty += rto
            if penalty > 30000.0:  # give up doubling; cap recovery cost
                break
        return penalty
