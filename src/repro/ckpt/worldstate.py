"""Snapshot and restore of all mutable simulation state.

Why this exists: the whole world shares **one** sequential
``random.Random`` stream (network jitter, proxy box times, resolver
choices, churn...), so a resumed campaign cannot simply "skip" work it
already measured — every skipped draw would shift every later draw.
Instead, checkpoints are taken at **batch boundaries**, where the
event heap is drained, and capture the complete mutable state of the
world; resume rebuilds the world from the config (cheap and
deterministic, see :mod:`repro.core.plan`) and then restores that
state, after which the continuation replays the exact draw sequence
the uninterrupted run would have made.

A world cannot be pickled whole — server processes are suspended
generator frames — but its *mutable state* is plain data: RNG state
tuples, counters, cache entries, and log lists.  The inventory below
is exhaustive by audit; anything not listed is either immutable after
build (zones, topology, routing tables), empty at a drained batch
boundary (event heap, flow bookkeeping, port tables for ephemeral
sockets), or a pure memo whose content never influences behaviour or
scraped metrics (latency base cache, anycast assignment memo).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.world import World

__all__ = ["capture_world_state", "restore_world_state"]

STATE_VERSION = 1


def _resolvers(world: World):
    """Every recursive resolver in deterministic build order."""
    for code in world.population.infrastructure:
        infra = world.population.infrastructure[code]
        for resolver in infra.all_resolvers():
            yield resolver
    for name in world.providers:
        for pop in world.providers[name].pops:
            yield pop.resolver
    for proxy in world.super_proxies:
        if proxy.resolver is not None:
            yield proxy.resolver


def _auth_servers(world: World):
    """Every authoritative server in deterministic build order."""
    yield world.auth_server
    for server in world.root_servers:
        yield server
    for server in world.tld_servers:
        yield server


def _capture_resolver(resolver) -> Dict:
    cache = resolver.cache
    stats = resolver.stats
    return {
        "cache_entries": dict(cache._entries),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "client_queries": stats.client_queries,
        "upstream_queries": stats.upstream_queries,
        "servfails": stats.servfails,
        "timeouts": stats.timeouts,
    }


def _restore_resolver(resolver, state: Dict) -> None:
    cache = resolver.cache
    cache._entries.clear()
    cache._entries.update(state["cache_entries"])
    cache.hits = state["cache_hits"]
    cache.misses = state["cache_misses"]
    stats = resolver.stats
    stats.client_queries = state["client_queries"]
    stats.upstream_queries = state["upstream_queries"]
    stats.servfails = state["servfails"]
    stats.timeouts = state["timeouts"]


def capture_world_state(world: World) -> Dict:
    """Capture all mutable world state as a picklable plain dict.

    Must be called at a batch boundary: the event heap drained and all
    per-measurement sockets closed (exactly the state
    ``Campaign.measure`` reaches between batches).
    """
    sim = world.sim
    if sim._heap:
        raise RuntimeError(
            "world state can only be captured at a drained batch "
            "boundary ({} events still scheduled)".format(len(sim._heap))
        )
    state: Dict = {
        "version": STATE_VERSION,
        "sim": {
            "now": sim.now,
            "seq": sim._seq,
            "events_scheduled": sim.events_scheduled,
            "events_executed": sim.events_executed,
        },
        "world_rng": world.rng.getstate(),
        "ephemeral_ports": {
            ip: host._next_ephemeral
            for ip, host in world.network._hosts.items()
        },
        "resolvers": [
            _capture_resolver(resolver) for resolver in _resolvers(world)
        ],
        "auth_servers": [
            {
                "query_log": list(server.query_log),
                "queries_served": server.queries_served,
                "truncated_responses": server.truncated_responses,
            }
            for server in _auth_servers(world)
        ],
        "exit_nodes": [
            (node._serves, node.tunnels_served, node.fetches_served)
            for node in world.nodes()
        ],
        "super_proxies": [
            (proxy.tunnels_served, proxy.fetches_served)
            for proxy in world.super_proxies
        ],
        "pop_queries": [
            [pop.queries_served for pop in world.providers[name].pops]
            for name in world.providers
        ],
        "sessions": dict(world.proxy_network._sessions),
        "allocator": {
            "country_index": dict(world.allocator._country_index),
            "next_subnet": dict(world.allocator._next_subnet),
            "next_host": dict(world.allocator._next_host),
        },
    }
    injector = world.fault_injector
    if injector is not None:
        state["faults"] = {
            "activations": dict(injector.activations),
            "overload_counts": dict(injector._overload_counts),
        }
    burst = world.network.burst_loss
    if burst is not None:
        state["burst_loss"] = {
            "rng": burst.rng.getstate(),
            "bad": burst.bad,
            "losses": burst.losses,
        }
    return state


def restore_world_state(world: World, state: Dict) -> None:
    """Restore a freshly built world to a captured state.

    The world must have been built from the same config (enforced one
    level up by the campaign fingerprint); after this call the world is
    indistinguishable from the one that captured the state.
    """
    if state.get("version") != STATE_VERSION:
        raise ValueError(
            "unsupported world state version {!r}".format(
                state.get("version"))
        )
    sim = world.sim
    if sim._heap:
        # A freshly built world still has its boot events queued (the
        # t=0 process-start callbacks that launch every server loop).
        # The original run consumed them inside its first batch; drain
        # them now, before the clock jumps forward, or they would pop
        # with a timestamp in the restored past.  Any state they touch
        # is overwritten by the restore below, exactly as the captured
        # run overwrote it.
        sim.run()
    sim.now = state["sim"]["now"]
    sim._seq = state["sim"]["seq"]
    sim.events_scheduled = state["sim"]["events_scheduled"]
    sim.events_executed = state["sim"]["events_executed"]
    world.rng.setstate(_rng_state(state["world_rng"]))

    # Hosts attached after the capture (RIPE Atlas probes) go away,
    # and so does per-channel FIFO bookkeeping, whose arrival times
    # may lie past the restored clock.
    network = world.network
    saved_ports = state["ephemeral_ports"]
    attached_since = [ip for ip in network._hosts if ip not in saved_ports]
    if attached_since:
        network.detach_hosts(attached_since)
    network.forget_flow_state()
    hosts = network._hosts
    for ip, next_port in saved_ports.items():
        hosts[ip]._next_ephemeral = next_port

    resolvers = list(_resolvers(world))
    _match(len(resolvers), len(state["resolvers"]), "resolvers")
    for resolver, saved in zip(resolvers, state["resolvers"]):
        _restore_resolver(resolver, saved)

    auth_servers = list(_auth_servers(world))
    _match(len(auth_servers), len(state["auth_servers"]), "auth servers")
    for server, saved in zip(auth_servers, state["auth_servers"]):
        server.query_log[:] = saved["query_log"]
        server.queries_served = saved["queries_served"]
        server.truncated_responses = saved["truncated_responses"]

    nodes = world.nodes()
    _match(len(nodes), len(state["exit_nodes"]), "exit nodes")
    for node, (serves, tunnels, fetches) in zip(nodes, state["exit_nodes"]):
        node._serves = serves
        node.tunnels_served = tunnels
        node.fetches_served = fetches

    _match(len(world.super_proxies), len(state["super_proxies"]),
           "super proxies")
    for proxy, (tunnels, fetches) in zip(
        world.super_proxies, state["super_proxies"]
    ):
        proxy.tunnels_served = tunnels
        proxy.fetches_served = fetches

    providers: List = [world.providers[name] for name in world.providers]
    _match(len(providers), len(state["pop_queries"]), "providers")
    for provider, counts in zip(providers, state["pop_queries"]):
        _match(len(provider.pops), len(counts), "provider PoPs")
        for pop, served in zip(provider.pops, counts):
            pop.queries_served = served

    world.proxy_network._sessions.clear()
    world.proxy_network._sessions.update(state["sessions"])

    allocator = world.allocator
    saved = state["allocator"]
    allocator._country_index.clear()
    allocator._country_index.update(saved["country_index"])
    allocator._next_subnet.clear()
    allocator._next_subnet.update(saved["next_subnet"])
    allocator._next_host.clear()
    allocator._next_host.update(saved["next_host"])

    injector = world.fault_injector
    if "faults" in state:
        if injector is None:
            raise ValueError(
                "state captured with fault injection, world built without"
            )
        injector.activations.clear()
        injector.activations.update(state["faults"]["activations"])
        injector._overload_counts.clear()
        injector._overload_counts.update(state["faults"]["overload_counts"])
    elif injector is not None:
        raise ValueError(
            "state captured without fault injection, world built with"
        )
    burst = world.network.burst_loss
    if "burst_loss" in state:
        if burst is None:
            raise ValueError(
                "state captured with burst loss, world built without"
            )
        burst.rng.setstate(_rng_state(state["burst_loss"]["rng"]))
        burst.bad = state["burst_loss"]["bad"]
        burst.losses = state["burst_loss"]["losses"]


def _rng_state(saved):
    """Normalise a ``Random.getstate()`` tuple after a pickle round
    trip (the inner state must be a tuple, not a list)."""
    kind, internal, gauss = saved
    return (kind, tuple(internal), gauss)


def _match(actual: int, expected: int, what: str) -> None:
    if actual != expected:
        raise ValueError(
            "world shape mismatch while restoring state: {} {} in the "
            "rebuilt world, {} in the snapshot (was the checkpoint "
            "taken with a different config?)".format(actual, what, expected)
        )
