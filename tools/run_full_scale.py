"""Run the campaign at the paper's full scale (22,052 clients).

Writes the dataset and a summary report under results/full_scale/.

Run:  python tools/run_full_scale.py [--seed N] [--workers N] [--shards K]

``--workers 1`` (the default) without ``--shards`` runs the legacy
serial campaign; anything else uses the sharded parallel executor,
whose merged dataset is byte-identical for any worker count at a fixed
shard count (see docs/performance.md).  ``--checkpoint-dir`` needs
``--shards``.
"""

import argparse
import gc
import os
import time

from repro.analysis.figures import figure3_clients_per_country
from repro.analysis.geography import (
    country_medians,
    share_of_countries_benefiting,
)
from repro.analysis.pops import pop_distance_stats
from repro.analysis.providers import provider_summaries
from repro.analysis.report import render_table3, render_table4
from repro.analysis.slowdown import headline_stats
from repro.analysis.tables import table3_dataset_composition, table4_logistic
from repro.analysis.phases import (
    phase_breakdown,
    phase_summary,
    reconcile_with_dataset,
    render_phase_table,
)
from repro.ckpt import CampaignCheckpoint
from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.obs import Observability
from repro.obs.manifest import build_manifest, sidecar_path, write_manifest
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20210402)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = legacy serial run, "
                             "0 = auto-size to available CPUs)")
    parser.add_argument("--shards", type=int, default=None,
                        help="fleet shard count (default 8 when sharded)")
    parser.add_argument("--observe", action="store_true",
                        help="record phase traces and metrics; writes "
                             "dataset.traces.json and a phase breakdown "
                             "(see docs/observability.md)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="commit batches here so a preempted "
                             "full-scale run resumes byte-identically; "
                             "needs --shards (see docs/checkpointing.md)")
    parser.add_argument("--resume", nargs="?", const="auto",
                        choices=("never", "auto", "force"),
                        default="never",
                        help="resume an interrupted checkpoint (bare "
                             "--resume = auto; force discards it)")
    args = parser.parse_args()
    if args.checkpoint_dir and args.workers == 1 and args.shards is None:
        parser.error("--checkpoint-dir needs --shards (--shards 1 keeps "
                     "the run in one process)")
    return args


def main() -> None:
    args = _parse_args()
    seed = args.seed
    out_dir = os.path.join("results", "full_scale")
    os.makedirs(out_dir, exist_ok=True)
    lines = []

    def emit(text=""):
        print(text, flush=True)
        lines.append(text)

    started = time.time()
    config = ReproConfig(seed=seed, population=PopulationConfig(scale=1.0))
    campaign_started = time.time()

    if args.workers != 1 or args.shards is not None:
        from repro.parallel.executor import default_worker_count

        workers = args.workers if args.workers > 0 else default_worker_count()
        args.workers = workers
        emit("sharded campaign: workers={} shards={}".format(
            workers, args.shards or "default"))

        def shard_progress(done, total):
            print("  finished task {}/{} ({:.0f}s)".format(
                done, total, time.time() - campaign_started), flush=True)

        result = run_parallel_campaign(
            config,
            workers=args.workers,
            num_shards=args.shards,
            atlas_probes_per_country=25,
            atlas_repetitions=5,
            progress=shard_progress,
            observe=args.observe,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    else:
        world = build_world(config)
        # The built world is permanent: freeze it out of the GC's view
        # so collections during the campaign only trace young objects.
        gc.collect()
        gc.freeze()
        emit("world built in {:.0f}s: {} hosts, {} exit nodes".format(
            time.time() - started, len(world.network), len(world.nodes())))

        campaign_started = time.time()

        def progress(done, total):
            if done % 4000 < 400 or done == total:
                print("  measured {}/{} nodes ({:.0f}s)".format(
                    done, total, time.time() - campaign_started), flush=True)

        obs = Observability() if args.observe else None
        campaign = Campaign(world, atlas_probes_per_country=25,
                            atlas_repetitions=5, obs=obs)
        result = campaign.run(progress=progress)
    dataset = result.dataset
    emit("campaign in {:.0f}s".format(time.time() - campaign_started))
    emit(dataset.summary())
    emit("discard rate {:.4f} (paper 0.0088)".format(result.discard_rate))
    emit()

    h = headline_stats(dataset)
    emit("headlines: doh1 {:.0f} (415)  do53 {:.0f} (234)  dohr {:.0f}"
         .format(h.median_doh1_ms, h.median_do53_ms, h.median_dohr_ms))
    emit("delta10 {:.0f} (65)  spd1 {:.3f} (0.191)  spd10 {:.3f} (0.28)"
         "  tripled {:.3f} (0.10)".format(
             h.median_delta10_ms, h.share_speedup_doh1,
             h.share_speedup_doh10, h.share_tripled_doh1))
    emit("multipliers {} (1.84/1.24/1.18/1.17)".format(
        "/".join("{:.2f}".format(h.median_multipliers[n])
                 for n in (1, 10, 100, 1000))))
    c_doh, c_do53 = country_medians(dataset)
    emit("country medians {:.0f}/{:.0f} (564.7/332.9)  benefiting {:.3f}"
         " (0.088)".format(c_doh, c_do53,
                           share_of_countries_benefiting(dataset)))
    emit()

    fig3 = figure3_clients_per_country(dataset)
    emit("figure3: median {:.0f} (103)  >=200 share {:.2f} (0.17)  "
         "range [{}, {}] (10-282)".format(
             fig3.median_clients, fig3.share_with_200_plus,
             fig3.minimum, fig3.maximum))
    emit()

    for s in provider_summaries(dataset):
        emit("{:<11} doh1 {:>4.0f}  dohr {:>4.0f}  pops {:>3}".format(
            s.provider, s.median_doh1_ms, s.median_dohr_ms,
            s.observed_pops))
    emit()
    for s in pop_distance_stats(dataset):
        emit("{:<11} improve {:>4.0f}mi  nearest {:.2f}  >1000mi {:.2f}"
             .format(s.provider, s.median_improvement_miles,
                     s.share_nearest, s.share_over_1000_miles))
    emit()
    emit(render_table3(table3_dataset_composition(dataset)))
    emit()
    rows, _models = table4_logistic(dataset)
    emit(render_table4(rows))

    phases = None
    if result.traces is not None:
        phases = phase_summary(result.traces)
        emit("phase breakdown ({} traces):".format(len(result.traces)))
        emit("\n".join(render_phase_table(phase_breakdown(result.traces))))
        report = reconcile_with_dataset(result.traces, dataset)
        emit(report.describe())
        emit()

    dataset_path = os.path.join(out_dir, "dataset.json")
    dataset.save(dataset_path)
    manifest = build_manifest(
        config,
        dataset=dataset,
        dataset_path=dataset_path,
        workers=args.workers,
        num_shards=args.shards,
        metrics=result.metrics,
        phases=phases,
        command="tools/run_full_scale.py --seed {} --workers {}".format(
            args.seed, args.workers),
        checkpoint=(
            {
                "directory": args.checkpoint_dir,
                "fingerprint": CampaignCheckpoint.load(
                    args.checkpoint_dir).fingerprint,
            }
            if args.checkpoint_dir else None
        ),
    )
    write_manifest(sidecar_path(dataset_path, "manifest"), manifest)
    if result.traces is not None:
        result.traces.save(sidecar_path(dataset_path, "traces"))
    with open(os.path.join(out_dir, "summary.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    emit()
    emit("total wall time {:.0f}s; outputs in {}".format(
        time.time() - started, out_dir))


if __name__ == "__main__":
    main()
