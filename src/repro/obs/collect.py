"""Scraping a built world's internal counters into a metrics registry.

Every layer of the stack already counts things — DNS caches count hits
and misses, proxies count tunnels, the simulator kernel counts events,
the fault injector counts activations.  :func:`collect_world_metrics`
reads them all into absolute-valued counters (``set_counter``), so the
scrape is idempotent: calling it again after more simulation work
simply refreshes the totals.

All scraped values are pure functions of the world's deterministic
execution, so the merged counters are identical for any worker count
at a fixed shard layout (the determinism tests rely on this).
Wall-clock readings never come from here — those are gauges, set by
the callers that own a wall clock.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["collect_world_metrics"]


def collect_world_metrics(world, metrics: MetricsRegistry) -> None:
    """Scrape *world*'s counters into *metrics* (idempotent)."""
    # -- simulator kernel --------------------------------------------------
    sim = world.sim
    metrics.set_counter("sim.events_scheduled", sim.events_scheduled)
    metrics.set_counter("sim.events_executed", sim.events_executed)

    # -- DNS caches: ISP resolvers, provider backends, super proxies ------
    isp_hits = isp_misses = 0
    for infra in world.population.infrastructure.values():
        for resolver in infra.all_resolvers():
            isp_hits += resolver.cache.hits
            isp_misses += resolver.cache.misses
    metrics.set_counter("dns.isp_cache_hits", isp_hits)
    metrics.set_counter("dns.isp_cache_misses", isp_misses)

    provider_hits = provider_misses = 0
    provider_queries = 0
    for provider in world.providers.values():
        provider_queries += provider.total_queries()
        for pop in provider.pops:
            provider_hits += pop.resolver.cache.hits
            provider_misses += pop.resolver.cache.misses
    metrics.set_counter("doh.provider_cache_hits", provider_hits)
    metrics.set_counter("doh.provider_cache_misses", provider_misses)
    metrics.set_counter("doh.provider_queries", provider_queries)

    sp_hits = sp_misses = 0
    tunnels = fetches = 0
    for super_proxy in world.super_proxies:
        tunnels += super_proxy.tunnels_served
        fetches += super_proxy.fetches_served
        if super_proxy.resolver is not None:
            sp_hits += super_proxy.resolver.cache.hits
            sp_misses += super_proxy.resolver.cache.misses
    metrics.set_counter("proxy.superproxy_cache_hits", sp_hits)
    metrics.set_counter("proxy.superproxy_cache_misses", sp_misses)
    metrics.set_counter("proxy.tunnels_served", tunnels)
    metrics.set_counter("proxy.fetches_served", fetches)

    # -- exit-node fleet ---------------------------------------------------
    node_tunnels = node_fetches = 0
    for node in world.nodes():
        node_tunnels += node.tunnels_served
        node_fetches += node.fetches_served
    metrics.set_counter("exit.tunnels_served", node_tunnels)
    metrics.set_counter("exit.fetches_served", node_fetches)

    # -- fault activations -------------------------------------------------
    injector = world.fault_injector
    if injector is not None:
        for kind in sorted(injector.activations):
            metrics.set_counter(
                "faults." + kind, injector.activations[kind]
            )
        chain = world.network.burst_loss
        if chain is not None:
            metrics.set_counter("faults.burst_losses", chain.losses)
