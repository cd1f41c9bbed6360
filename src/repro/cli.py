"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``campaign``    — build a world, run the measurement campaign, save
  the dataset (JSON and/or CSV);
* ``analyze``     — regenerate a paper artifact from a saved dataset;
* ``groundtruth`` — run the §4 validation experiments (Tables 1–2);
* ``info``        — describe what a configuration would build;
* ``trace``       — inspect recorded phase traces (``--observe`` runs);
* ``ckpt``        — inspect, verify, prune, and extend campaign
  checkpoints (``status``/``verify``/``gc``/``extend``);
* ``service``     — the always-on longitudinal availability service
  (``run``/``resume``/``status``, see docs/availability.md).

Examples::

    python -m repro campaign --scale 0.05 --out dataset.json
    python -m repro campaign --scale 1.0 --workers 4 --out dataset.json
    python -m repro campaign --scale 0.05 --observe --out dataset.json
    python -m repro campaign --scale 0.2 --shards 4 \
        --checkpoint-dir ckpt/ --resume
    python -m repro ckpt status ckpt/
    python -m repro ckpt extend ckpt/ --dataset dataset.json \
        --provider adguard --out extended.json
    python -m repro analyze dataset.json --artifact headlines
    python -m repro analyze dataset.json --artifact phases
    python -m repro trace dataset.traces.json --node AD-0000
    python -m repro groundtruth --repetitions 10
    python -m repro service run svc/ --scale 0.02 --epochs 5
    python -m repro service resume svc/ --workers 4
    python -m repro service status svc/
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.groundtruth import GroundTruthHarness
from repro.core.world import build_world
from repro.dataset.store import Dataset
from repro.proxy.population import PopulationConfig

__all__ = ["main"]

_ARTIFACTS = (
    "headlines", "table3", "table4", "table5", "table6",
    "figure3", "figure6", "figure7", "providers", "failures",
    "phases", "availability",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Measuring DNS-over-HTTPS "
                    "Performance Around the World' (IMC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", help="run the measurement campaign"
    )
    campaign.add_argument("--scale", type=float, default=0.05,
                          help="fleet scale (1.0 = 22,052 clients)")
    campaign.add_argument("--seed", type=int, default=20210402)
    campaign.add_argument("--out", help="write the dataset JSON here")
    campaign.add_argument("--csv-dir",
                          help="additionally export CSVs to this directory")
    campaign.add_argument("--atlas-probes", type=int, default=8,
                          help="RIPE Atlas probes per super-proxy country")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes for the sharded executor "
                               "(1 = serial, 0 = auto-size to available "
                               "CPUs; see docs/performance.md)")
    campaign.add_argument("--shards", type=int, default=None,
                          help="fleet shard count (part of the experiment "
                               "definition; default 8 when sharded)")
    campaign.add_argument("--fault-preset", default=None,
                          help="enable deterministic fault injection: "
                               "chaos, churn, overload, burst-loss, or "
                               "outage:<provider>[:servfail] "
                               "(see docs/robustness.md)")
    campaign.add_argument("--fault-seed", type=int, default=0,
                          help="seed for the fault plan (default 0)")
    campaign.add_argument("--shard-timeout", type=float, default=None,
                          help="watchdog: seconds before an unresponsive "
                               "worker round is retried")
    campaign.add_argument("--shard-retries", type=int, default=2,
                          help="max retries per shard task after a worker "
                               "crash or watchdog timeout")
    campaign.add_argument("--observe", action="store_true",
                          help="record phase traces and metrics; writes "
                               "<out>.traces.json next to the dataset "
                               "(never changes the dataset itself, see "
                               "docs/observability.md)")
    campaign.add_argument("--checkpoint-dir", default=None,
                          help="commit every batch to this directory so "
                               "a killed run can be resumed byte-"
                               "identically; needs --shards (see "
                               "docs/checkpointing.md)")
    campaign.add_argument("--resume", nargs="?", const="auto",
                          choices=("never", "auto", "force"),
                          default="never",
                          help="resume an interrupted checkpoint: bare "
                               "--resume (= auto) continues it after a "
                               "fingerprint check; --resume=force "
                               "discards it and starts fresh")

    ckpt = sub.add_parser(
        "ckpt", help="inspect, verify, prune, and extend checkpoints"
    )
    cksub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    ck_status = cksub.add_parser(
        "status", help="describe a checkpoint directory"
    )
    ck_status.add_argument("dir", help="checkpoint directory")
    ck_verify = cksub.add_parser(
        "verify", help="check the manifest and every sealed file"
    )
    ck_verify.add_argument("dir", help="checkpoint directory")
    ck_gc = cksub.add_parser(
        "gc", help="prune temp files and stale units"
    )
    ck_gc.add_argument("dir", help="checkpoint directory")
    ck_extend = cksub.add_parser(
        "extend",
        help="grow a finished campaign: measure only the delta and "
             "merge it into an existing dataset",
    )
    ck_extend.add_argument("dir", help="base checkpoint directory")
    ck_extend.add_argument("--dataset", required=True,
                           help="the base campaign's dataset JSON")
    ck_extend.add_argument("--out", required=True,
                           help="write the merged dataset JSON here")
    ck_extend.add_argument("--provider", action="append", default=[],
                           help="add this provider across the whole "
                                "fleet (repeatable)")
    ck_extend.add_argument("--extra-runs", type=int, default=0,
                           help="measure this many additional runs per "
                                "client")
    ck_extend.add_argument("--scale", type=float, default=None,
                           help="grow the fleet to this scale, measuring "
                                "only the new nodes")
    ck_extend.add_argument("--resume", nargs="?", const="auto",
                           choices=("auto", "force"), default="auto",
                           help="auto (default) reuses a finished or "
                                "interrupted delta; force re-measures it")

    analyze = sub.add_parser(
        "analyze", help="regenerate a paper artifact from a dataset"
    )
    analyze.add_argument("dataset", help="dataset JSON (from 'campaign')")
    analyze.add_argument("--artifact", choices=_ARTIFACTS,
                         default="headlines")
    analyze.add_argument("--traces", default=None,
                         help="trace sidecar for --artifact phases "
                              "(default: <dataset>.traces.json)")
    analyze.add_argument("--runs-per-epoch", type=int, default=None,
                         help="for --artifact availability: how many "
                              "runs per client each service epoch "
                              "measured (maps run_index to epoch)")
    analyze.add_argument("--slo-target", type=float, default=0.99,
                         help="for --artifact availability: target "
                              "per-provider success rate")

    trace = sub.add_parser(
        "trace", help="inspect phase traces from an --observe run"
    )
    trace.add_argument("traces", help="trace sidecar JSON "
                                      "(<dataset>.traces.json)")
    trace.add_argument("--node", help="exit-node id to show")
    trace.add_argument("--provider", default=None,
                       help="provider name, or 'do53' (default: all)")
    trace.add_argument("--run", type=int, default=None,
                       help="run index (default: all)")

    groundtruth = sub.add_parser(
        "groundtruth", help="run the §4 ground-truth validation"
    )
    groundtruth.add_argument("--scale", type=float, default=0.01)
    groundtruth.add_argument("--seed", type=int, default=20210402)
    groundtruth.add_argument("--repetitions", type=int, default=10)

    info = sub.add_parser("info", help="describe a configuration")
    info.add_argument("--scale", type=float, default=0.05)
    info.add_argument("--seed", type=int, default=20210402)

    service = sub.add_parser(
        "service",
        help="always-on longitudinal availability service "
             "(see docs/availability.md)",
    )
    svsub = service.add_subparsers(dest="service_command", required=True)

    def _runtime_args(p):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes per epoch (a runtime "
                            "knob: never changes the dataset bytes)")
        p.add_argument("--epoch-deadline", type=float, default=None,
                       help="watchdog: seconds an epoch may run before "
                            "it is aborted and retried")
        p.add_argument("--epoch-retries", type=int, default=2,
                       help="max retries per failed epoch")
        p.add_argument("--retry-backoff", type=float, default=1.0,
                       help="base seconds between epoch retries "
                            "(grows linearly per attempt)")

    sv_run = svsub.add_parser(
        "run", help="start a fresh service in a directory"
    )
    sv_run.add_argument("dir", help="service directory (created)")
    sv_run.add_argument("--master-seed", type=int, default=20210402,
                        help="master seed: with the other identity "
                             "flags, fully determines every epoch")
    sv_run.add_argument("--scale", type=float, default=0.05)
    sv_run.add_argument("--epochs", type=int, default=3,
                        help="how many epochs the service measures")
    sv_run.add_argument("--runs-per-epoch", type=int, default=2,
                        help="runs per client in each epoch")
    sv_run.add_argument("--shards", type=int, default=4,
                        help="fleet shard count (part of the service "
                             "identity, unlike --workers)")
    sv_run.add_argument("--batch-size", type=int, default=400)
    sv_run.add_argument("--provider", action="append", default=[],
                        help="measure this provider (repeatable; "
                             "default: the paper's four)")
    sv_run.add_argument("--no-faults", action="store_true",
                        help="disable the evolving fault schedule "
                             "(measure a healthy Internet)")
    sv_run.add_argument("--slo-target", type=float, default=0.99)
    _runtime_args(sv_run)

    sv_resume = svsub.add_parser(
        "resume",
        help="continue an interrupted service at its exact epoch "
             "boundary",
    )
    sv_resume.add_argument("dir", help="service directory")
    _runtime_args(sv_resume)

    sv_status = svsub.add_parser(
        "status", help="describe a service directory and its journal"
    )
    sv_status.add_argument("dir", help="service directory")
    return parser


def _run_serial_campaign(args, config):
    """The unsharded workers=1 campaign path."""
    from repro.obs import Observability

    print("building world (scale={}, seed={})...".format(
        args.scale, args.seed))
    world = build_world(config)
    print("  {} hosts, {} exit nodes".format(
        len(world.network), len(world.nodes())))
    print("running campaign...")
    campaign = Campaign(
        world,
        atlas_probes_per_country=args.atlas_probes,
        obs=Observability() if args.observe else None,
    )
    return campaign.run()


def _checkpoint_summary(directory):
    """Manifest-embeddable provenance of a checkpoint directory."""
    from repro.ckpt import CampaignCheckpoint

    checkpoint = CampaignCheckpoint.load(directory)
    return {
        "directory": directory,
        "fingerprint": checkpoint.fingerprint,
        "status": checkpoint.manifest.get("status"),
        "runs": checkpoint.manifest.get("runs", []),
        "lineage": checkpoint.manifest.get("lineage", []),
    }


def _cmd_campaign(args) -> int:
    sharded = args.workers != 1 or args.shards is not None
    if args.checkpoint_dir and not sharded:
        # Each checkpoint commit rewrites its unit's samples, so only
        # shard-sized units are checkpointed.
        print("repro campaign: error: --checkpoint-dir needs --shards "
              "(--shards 1 keeps the run in one process)",
              file=sys.stderr)
        return 2
    faults = None
    if args.fault_preset:
        from repro.faults import FaultPlan

        faults = FaultPlan.from_preset(args.fault_preset,
                                       seed=args.fault_seed)
        print("fault injection enabled: preset={!r}, fault-seed={}".format(
            args.fault_preset, args.fault_seed))
    config = ReproConfig(
        seed=args.seed, population=PopulationConfig(scale=args.scale),
        faults=faults,
    )
    started = time.time()
    if sharded:
        from repro.parallel import run_parallel_campaign
        from repro.parallel.executor import default_worker_count

        workers = args.workers if args.workers > 0 else default_worker_count()
        print("running sharded campaign (scale={}, seed={}, workers={}, "
              "shards={})...".format(args.scale, args.seed, workers,
                                     args.shards or "default"))
        result = run_parallel_campaign(
            config,
            workers=workers,
            num_shards=args.shards,
            atlas_probes_per_country=args.atlas_probes,
            shard_timeout_s=args.shard_timeout,
            max_shard_retries=args.shard_retries,
            observe=args.observe,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    else:
        result = _run_serial_campaign(args, config)
    dataset = result.dataset
    print("  " + dataset.summary())
    print("  discard rate {:.2%}".format(result.discard_rate))
    if result.failures:
        print("  {} node(s) failed permanently (isolated, see "
              "'analyze --artifact failures')".format(len(result.failures)))

    phases = None
    if result.traces is not None:
        from repro.analysis.phases import phase_summary

        phases = phase_summary(result.traces)
        print("  observability: {} traces, {} metrics".format(
            len(result.traces), len(result.metrics["counters"])))
    if args.out:
        from repro.obs.manifest import (
            build_manifest, sidecar_path, write_manifest,
        )

        dataset.save(args.out)
        print("dataset written to {}".format(args.out))
        manifest = build_manifest(
            config,
            dataset=dataset,
            dataset_path=args.out,
            workers=args.workers,
            num_shards=args.shards,
            metrics=result.metrics,
            phases=phases,
            command="campaign --scale {} --seed {} --workers {}".format(
                args.scale, args.seed, args.workers),
            checkpoint=(
                _checkpoint_summary(args.checkpoint_dir)
                if args.checkpoint_dir else None
            ),
        )
        manifest_path = sidecar_path(args.out, "manifest")
        write_manifest(manifest_path, manifest)
        print("manifest written to {}".format(manifest_path))
        if result.traces is not None:
            traces_path = sidecar_path(args.out, "traces")
            result.traces.save(traces_path)
            print("traces written to {}".format(traces_path))
    if args.csv_dir:
        from repro.dataset.csvio import export_csv

        paths = export_csv(dataset, args.csv_dir)
        print("CSVs written: {}".format(", ".join(sorted(paths.values()))))
    print("done in {:.0f}s".format(time.time() - started))
    return 0


def _cmd_analyze(args) -> int:
    try:
        return _render_artifact(args)
    except ValueError as exc:
        # The analyses raise ValueError on data they cannot analyse
        # (for example no country with enough clients); name it.
        print("repro analyze: error: {}".format(exc), file=sys.stderr)
        return 1


def _render_artifact(args) -> int:
    dataset = Dataset.load(args.dataset)
    artifact = args.artifact
    if artifact == "headlines":
        from repro.analysis.slowdown import headline_stats

        h = headline_stats(dataset)
        print("median DoH1  {:.0f} ms (paper 415)".format(h.median_doh1_ms))
        print("median Do53  {:.0f} ms (paper 234)".format(h.median_do53_ms))
        print("median DoHR  {:.0f} ms".format(h.median_dohr_ms))
        print("multipliers  " + "/".join(
            "{:.2f}".format(h.median_multipliers[n])
            for n in (1, 10, 100, 1000)
        ) + " (paper 1.84/1.24/1.18/1.17)")
        print("speedup@DoH1 {:.1%} (paper 19.1%)".format(
            h.share_speedup_doh1))
    elif artifact == "table3":
        from repro.analysis.report import render_table3
        from repro.analysis.tables import table3_dataset_composition

        print(render_table3(table3_dataset_composition(dataset)))
    elif artifact == "table4":
        from repro.analysis.report import render_table4
        from repro.analysis.tables import table4_logistic

        rows, _models = table4_logistic(dataset)
        print(render_table4(rows))
    elif artifact == "table5":
        from repro.analysis.report import render_table5
        from repro.analysis.tables import table5_linear

        rows, _models = table5_linear(dataset)
        print(render_table5(rows, "Table 5: linear model"))
    elif artifact == "table6":
        from repro.analysis.report import render_table5
        from repro.analysis.tables import table6_linear_by_resolver

        rows, _models = table6_linear_by_resolver(dataset)
        print(render_table5(rows, "Table 6: linear model by resolver"))
    elif artifact == "figure3":
        from repro.analysis.figures import figure3_clients_per_country
        from repro.analysis.report import render_figure3

        print(render_figure3(figure3_clients_per_country(dataset)))
    elif artifact == "figure6":
        from repro.analysis.pops import pop_distance_stats

        for stat in pop_distance_stats(dataset):
            print(
                "{:<11} median improvement {:>5.0f} mi  "
                "nearest {:.0%}  >=1000mi {:.0%}".format(
                    stat.provider, stat.median_improvement_miles,
                    stat.share_nearest, stat.share_over_1000_miles,
                )
            )
    elif artifact == "figure7":
        from repro.analysis.figures import figure7_delta_by_resolver
        from repro.stats.descriptive import median

        for provider, values in sorted(
            figure7_delta_by_resolver(dataset).items()
        ):
            print("{:<11} median country delta10 {:>+7.1f} ms".format(
                provider, median(values)))
    elif artifact == "failures":
        from repro.analysis.failures import render_failure_report

        print(render_failure_report(dataset))
    elif artifact == "availability":
        from repro.analysis.availability import (
            availability_report,
            render_availability_table,
        )
        from repro.ioutil import atomic_write_json
        from repro.obs.manifest import sidecar_path

        if args.runs_per_epoch is None:
            print("--artifact availability needs --runs-per-epoch "
                  "(the service's runs-per-client per epoch)")
            return 1
        report = availability_report(
            dataset,
            runs_per_epoch=args.runs_per_epoch,
            slo_target=args.slo_target,
        )
        print(render_availability_table(report))
        out_path = sidecar_path(args.dataset, "availability")
        atomic_write_json(out_path, report, indent=2, sort_keys=True,
                          trailing_newline=True)
        print()
        print("availability artifact written to {}".format(out_path))
    elif artifact == "providers":
        from repro.analysis.providers import provider_summaries

        for s in provider_summaries(dataset):
            print(
                "{:<11} doh1 {:>4.0f}  dohr {:>4.0f}  pops {:>3}".format(
                    s.provider, s.median_doh1_ms, s.median_dohr_ms,
                    s.observed_pops,
                )
            )
    elif artifact == "phases":
        import os

        from repro.analysis.phases import (
            phase_breakdown,
            reconcile_with_dataset,
            render_phase_table,
        )
        from repro.obs.manifest import sidecar_path
        from repro.obs.trace import TraceRecorder

        traces_path = args.traces or sidecar_path(args.dataset, "traces")
        if not os.path.exists(traces_path):
            print("no trace sidecar at {} — rerun the campaign with "
                  "--observe".format(traces_path))
            return 1
        recorder = TraceRecorder.load(traces_path)
        for line in render_phase_table(phase_breakdown(recorder)):
            print(line)
        print()
        report = reconcile_with_dataset(recorder, dataset)
        print(report.describe())
        if not report.ok:
            return 1
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder.load(args.traces)
    selected = [
        trace for trace in recorder
        if (args.node is None or trace.node_id == args.node)
        and (args.provider is None or trace.provider == args.provider)
        and (args.run is None or trace.run_index == args.run)
    ]
    if args.node is None:
        nodes = sorted({trace.node_id for trace in selected})
        print("{} traces across {} nodes; use --node to inspect one"
              .format(len(selected), len(nodes)))
        for node_id in nodes[:20]:
            count = sum(1 for t in selected if t.node_id == node_id)
            print("  {} ({} traces)".format(node_id, count))
        if len(nodes) > 20:
            print("  ... and {} more nodes".format(len(nodes) - 20))
        return 0
    if not selected:
        print("no traces match node={!r} provider={!r} run={!r}".format(
            args.node, args.provider, args.run))
        return 1
    for trace in selected:
        status = "ok" if trace.success else "FAILED: " + trace.error
        print("{} / {} / run {} [{}] ({})".format(
            trace.node_id, trace.provider, trace.run_index,
            trace.kind, status))
        for event in trace.events:
            start = ("{:10.2f}".format(event.start_ms)
                     if event.start_ms is not None else "         -")
            print("  {:<18} {:<10} start {} ms  dur {:8.2f} ms".format(
                event.name, event.source, start, event.duration_ms))
    return 0


def _cmd_groundtruth(args) -> int:
    from repro.analysis.report import render_groundtruth

    config = ReproConfig(
        seed=args.seed, population=PopulationConfig(scale=args.scale)
    )
    world = build_world(config)
    harness = GroundTruthHarness(world, repetitions=args.repetitions)
    print(render_groundtruth(
        harness.validate_doh("cloudflare"),
        "Table 1: DoH/DoHR method vs ground truth",
    ))
    print()
    print(render_groundtruth(
        harness.validate_do53(),
        "Table 2: Do53 method vs ground truth",
    ))
    return 0


def _cmd_info(args) -> int:
    config = ReproConfig(
        seed=args.seed, population=PopulationConfig(scale=args.scale)
    )
    counts = config.population.scaled_counts()
    print("seed {}, scale {}".format(args.seed, args.scale))
    print("countries: {}".format(len(counts)))
    print("exit nodes: {}".format(sum(counts.values())))
    print("providers: {}".format(", ".join(config.providers)))
    print("runs per client: {}".format(config.runs_per_client))
    print("TLS version: {}".format(config.tls_version))
    return 0


def _cmd_ckpt(args) -> int:
    from repro.ckpt import CheckpointError

    handlers = {
        "status": _ckpt_status,
        "verify": _ckpt_verify,
        "gc": _ckpt_gc,
        "extend": _ckpt_extend,
    }
    try:
        return handlers[args.ckpt_command](args)
    except CheckpointError as exc:
        # A missing, damaged or mismatched checkpoint is named, never
        # shown as a traceback.
        print("repro ckpt {}: error: {}".format(args.ckpt_command, exc),
              file=sys.stderr)
        return 1


def _ckpt_status(args) -> int:
    import os

    from repro.ckpt import CampaignCheckpoint

    checkpoint = CampaignCheckpoint.load(args.dir)
    manifest = checkpoint.manifest
    print("checkpoint:   {}".format(args.dir))
    print("fingerprint:  {}".format(checkpoint.fingerprint))
    print("status:       {}".format(manifest.get("status")))
    execution = manifest.get("execution", {})
    if execution:
        # Unset knobs (None, e.g. no max_nodes cap) are left out.
        print("execution:    " + ", ".join(
            "{}={}".format(key, execution[key])
            for key in sorted(execution) if execution[key] is not None))
    for index, run in enumerate(manifest.get("runs", [])):
        units = run.get("units", [])
        print("run {}: {}".format(index, ", ".join(
            "{} (replayed {}, measured {})".format(
                unit.get("role"), unit.get("batches_replayed"),
                unit.get("batches_measured"))
            for unit in units) or "(no units recorded)"))
    for entry in manifest.get("lineage", []):
        print("extension {}: kind={} measured={} doh+{} do53+{} "
              "clients+{}".format(
                  entry.get("extension"), entry.get("kind"),
                  entry.get("batches_measured"), entry.get("doh_added"),
                  entry.get("do53_added"), entry.get("clients_added")))
    for name in sorted(os.listdir(args.dir)):
        path = os.path.join(args.dir, name)
        if name.endswith((".state", ".result")):
            print("  {:<24} {:>10} bytes".format(
                name, os.path.getsize(path)))
        elif os.path.isdir(path) and name.startswith("ext-"):
            print("  {:<24} (nested extension checkpoint)".format(
                name + "/"))
    return 0


def _ckpt_verify(args) -> int:
    """Classify a checkpoint and exit with its health code.

    Exit codes are a documented contract (docs/checkpointing.md):
    0 = clean, 1 = stale (a missing or unreadable manifest, an older
    format, or a sealed file that fails its seal).
    """
    from repro.ckpt import verify_checkpoint_dir

    health = verify_checkpoint_dir(args.dir)
    for note in health.notes:
        print("  {}".format(note))
    for problem in health.problems:
        print("PROBLEM: {}".format(problem))
    if health.resumable:
        print("checkpoint {} verified: every file reads back "
              "clean".format(args.dir))
    else:
        print("checkpoint {} status: stale (the service quarantines "
              "it)".format(args.dir))
    return health.exit_code


def _ckpt_gc(args) -> int:
    import os

    from repro.ckpt import CampaignCheckpoint
    from repro.ckpt.checkpoint import load_unit_result

    checkpoint = CampaignCheckpoint.load(args.dir)
    reclaimed = 0
    removed = []

    def remove(path):
        nonlocal reclaimed
        reclaimed += os.path.getsize(path)
        os.remove(path)
        removed.append(os.path.basename(path))

    for name in sorted(os.listdir(args.dir)):
        path = os.path.join(args.dir, name)
        if not os.path.isfile(path):
            continue
        if name.endswith(".tmp"):
            remove(path)
        elif name.endswith((".state", ".result")):
            # A unit file that fails its seal is measured again from
            # batch 0 anyway.
            if load_unit_result(path, checkpoint.fingerprint) is None:
                remove(path)
    print("removed {} file(s), reclaimed {} bytes".format(
        len(removed), reclaimed))
    for name in removed:
        print("  {}".format(name))
    return 0


def _ckpt_extend(args) -> int:
    from repro.ckpt.extend import extend_campaign
    from repro.obs.manifest import (
        build_manifest, sidecar_path, write_manifest,
    )

    dataset = Dataset.load(args.dataset)
    result = extend_campaign(
        args.dir,
        dataset,
        providers=args.provider,
        extra_runs=args.extra_runs,
        scale=args.scale,
        resume=args.resume,
    )
    print("extension {} ({}): replayed {} batch(es), measured {}".format(
        result.extension_id, result.kind, result.batches_replayed,
        result.batches_measured))
    print("  +{} DoH sample(s), +{} Do53 sample(s), +{} client(s)".format(
        result.doh_added, result.do53_added, result.clients_added))
    print("  " + result.dataset.summary())
    result.dataset.save(args.out)
    print("merged dataset written to {}".format(args.out))
    manifest = build_manifest(
        result.config,
        dataset=result.dataset,
        dataset_path=args.out,
        command="ckpt extend {}".format(args.dir),
        checkpoint=_checkpoint_summary(args.dir),
    )
    manifest_path = sidecar_path(args.out, "manifest")
    write_manifest(manifest_path, manifest)
    print("manifest written to {}".format(manifest_path))
    return 0


def _cmd_service(args) -> int:
    from repro.service import ServiceError

    handlers = {
        "run": _service_run,
        "resume": _service_resume,
        "status": _service_status,
    }
    try:
        return handlers[args.service_command](args)
    except ServiceError as exc:
        # A missing, damaged or foreign service directory is named,
        # never shown as a traceback.
        print("repro service {}: error: {}".format(
            args.service_command, exc), file=sys.stderr)
        return 1


def _service_run(args) -> int:
    from repro.service import ServiceConfig, ServiceSupervisor

    config = ServiceConfig(
        directory=args.dir,
        master_seed=args.master_seed,
        scale=args.scale,
        epochs=args.epochs,
        runs_per_epoch=args.runs_per_epoch,
        num_shards=args.shards,
        batch_size=args.batch_size,
        providers=tuple(args.provider) or ServiceConfig.providers,
        faults_enabled=not args.no_faults,
        slo_target=args.slo_target,
        workers=args.workers,
        epoch_deadline_s=args.epoch_deadline,
        max_epoch_retries=args.epoch_retries,
        retry_backoff_s=args.retry_backoff,
    )
    return ServiceSupervisor(config).run(fresh=True)


def _read_service_manifest(directory):
    """``service.json`` of *directory*; a missing one is an error."""
    from repro.service import ServiceError
    from repro.service.supervisor import read_service_manifest

    manifest = read_service_manifest(directory)
    if manifest is None:
        raise ServiceError("no service manifest in {!r}; use 'repro "
                           "service run' to start one".format(directory))
    return manifest


def _service_resume(args) -> int:
    from repro.service import ServiceConfig, ServiceSupervisor

    manifest = _read_service_manifest(args.dir)
    config = ServiceConfig.from_identity(
        args.dir,
        manifest["identity"],
        workers=args.workers,
        epoch_deadline_s=args.epoch_deadline,
        max_epoch_retries=args.epoch_retries,
        retry_backoff_s=args.retry_backoff,
    )
    return ServiceSupervisor(config).run(fresh=False)


def _service_status(args) -> int:
    import os

    from repro.service import ServiceJournal
    from repro.service import paths as service_paths

    manifest = _read_service_manifest(args.dir)
    identity = manifest["identity"]
    print("service:      {}".format(args.dir))
    print("fingerprint:  {}".format(manifest.get("fingerprint")))
    print("status:       {}".format(manifest.get("status")))
    print("identity:     " + ", ".join(
        "{}={}".format(key, identity[key])
        for key in sorted(identity) if key != "fault_params"))

    journal = ServiceJournal(service_paths.journal_path(args.dir),
                             manifest.get("fingerprint"))
    if journal.load() is None:
        print("journal:      (none yet)")
        return 0
    epochs = int(identity.get("epochs", 0))
    next_epoch = journal.next_epoch()
    print("epochs:       {}/{} done{}".format(
        len(journal.epochs_done()), epochs,
        "" if next_epoch >= epochs else
        ", next is epoch {}".format(next_epoch)))
    for record in journal.records[-6:]:
        if record.kind == "header":
            continue
        payload = {k: v for k, v in record.payload.items()
                   if k != "fault_plan"}
        print("  [{}] {} {}".format(record.seq, record.kind, payload))
    availability = service_paths.availability_path(args.dir)
    if os.path.exists(availability):
        print("availability: {}".format(availability))
    quarantines = service_paths.quarantine_root(args.dir)
    if os.path.isdir(quarantines) and os.listdir(quarantines):
        print("QUARANTINE:   {} entr(ies) under {}".format(
            len(os.listdir(quarantines)), quarantines))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* and dispatch to a subcommand; returns exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "campaign": _cmd_campaign,
        "analyze": _cmd_analyze,
        "groundtruth": _cmd_groundtruth,
        "info": _cmd_info,
        "trace": _cmd_trace,
        "ckpt": _cmd_ckpt,
        "service": _cmd_service,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
