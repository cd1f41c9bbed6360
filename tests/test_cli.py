"""CLI and CSV-export tests."""

import os

import pytest

from repro.cli import main
from repro.dataset.csvio import export_csv, load_csv


class TestCsvRoundtrip:
    def test_export_creates_three_files(self, dataset, tmp_path):
        paths = export_csv(dataset, str(tmp_path))
        assert set(paths) == {"clients", "doh", "do53"}
        for path in paths.values():
            assert os.path.exists(path)
            assert os.path.getsize(path) > 0

    def test_roundtrip_preserves_records(self, dataset, tmp_path):
        export_csv(dataset, str(tmp_path))
        loaded = load_csv(
            str(tmp_path),
            min_clients_per_country=dataset.min_clients_per_country,
        )
        assert len(loaded.clients) == len(dataset.clients)
        assert len(loaded.doh) == len(dataset.doh)
        assert len(loaded.do53) == len(dataset.do53)
        assert loaded.clients[0] == dataset.clients[0]
        assert loaded.doh[0] == dataset.doh[0]
        assert loaded.do53[0] == dataset.do53[0]

    def test_roundtrip_preserves_none_timings(self, tmp_path):
        # Failed samples store None, which CSV writes as "" — the
        # round-trip must restore None, not 0.0.
        from repro.dataset.records import Do53Sample, DohSample
        from repro.dataset.store import Dataset

        failed_doh = DohSample(
            node_id="n-1", country="DE", provider="quad9", run_index=0,
            t_doh_ms=None, t_dohr_ms=None, rtt_estimate_ms=None,
            success=False, error="exit node died",
        )
        failed_do53 = Do53Sample(
            node_id="n-1", country="DE", run_index=0, time_ms=None,
            success=False, valid=False, error="fetch failed",
        )
        dataset = Dataset(doh=[failed_doh], do53=[failed_do53])
        export_csv(dataset, str(tmp_path))
        loaded = load_csv(str(tmp_path))
        assert loaded.doh[0] == failed_doh
        assert loaded.do53[0] == failed_do53

    def test_roundtrip_preserves_analysis(self, dataset, tmp_path):
        from repro.analysis.slowdown import headline_stats

        export_csv(dataset, str(tmp_path))
        loaded = load_csv(
            str(tmp_path),
            min_clients_per_country=dataset.min_clients_per_country,
        )
        original = headline_stats(dataset)
        rebuilt = headline_stats(loaded)
        assert rebuilt.median_doh1_ms == pytest.approx(
            original.median_doh1_ms
        )
        assert rebuilt.n_client_provider_pairs == \
            original.n_client_provider_pairs


class TestCli:
    def test_info(self, capsys):
        assert main(["info", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "exit nodes:" in out
        assert "cloudflare" in out

    def test_campaign_and_analyze(self, tmp_path, capsys):
        out_path = str(tmp_path / "ds.json")
        csv_dir = str(tmp_path / "csv")
        code = main([
            "campaign", "--scale", "0.015", "--seed", "5",
            "--out", out_path, "--csv-dir", csv_dir,
            "--atlas-probes", "2",
        ])
        assert code == 0
        assert os.path.exists(out_path)
        assert os.path.exists(os.path.join(csv_dir, "doh.csv"))
        capsys.readouterr()

        for artifact in ("headlines", "table3", "figure6", "figure7",
                         "providers"):
            assert main(["analyze", out_path, "--artifact", artifact]) == 0
            out = capsys.readouterr().out
            assert out.strip(), artifact

    def test_faulted_campaign_and_failures_artifact(self, tmp_path, capsys):
        out_path = str(tmp_path / "faulted.json")
        code = main([
            "campaign", "--scale", "0.004", "--seed", "7",
            "--fault-preset", "chaos", "--fault-seed", "2",
            "--atlas-probes", "0", "--out", out_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault injection enabled" in out

        assert main(["analyze", out_path, "--artifact", "failures"]) == 0
        out = capsys.readouterr().out
        assert "Failure rates by provider" in out
        assert "Failure reasons" in out

    def test_observed_campaign_writes_sidecars(self, tmp_path, capsys):
        out_path = str(tmp_path / "obs.json")
        code = main([
            "campaign", "--scale", "0.01", "--seed", "5",
            "--observe", "--atlas-probes", "1", "--out", out_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "observability:" in out
        manifest_path = str(tmp_path / "obs.manifest.json")
        traces_path = str(tmp_path / "obs.traces.json")
        assert os.path.exists(manifest_path)
        assert os.path.exists(traces_path)

        import json

        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["seed"] == 5
        assert manifest["metrics"]["counters"]["campaign.raw_doh"] > 0
        assert manifest["phases"]  # per-provider phase aggregates
        assert manifest["dataset"]["path"] == out_path

        # analyze --artifact phases finds the sidecar by convention.
        assert main(["analyze", out_path, "--artifact", "phases"]) == 0
        out = capsys.readouterr().out
        assert "phase reconciliation OK" in out
        assert "query_roundtrip" in out

        # trace: listing, then one node's timeline.
        assert main(["trace", traces_path]) == 0
        listing = capsys.readouterr().out
        assert "use --node to inspect one" in listing
        node_id = listing.splitlines()[1].split()[0]
        assert main(["trace", traces_path, "--node", node_id]) == 0
        out = capsys.readouterr().out
        assert "tunnel_setup" in out
        assert "exit_dns" in out

    def test_trace_with_no_match_fails(self, tmp_path, capsys):
        from repro.obs.trace import TraceRecorder

        traces_path = str(tmp_path / "t.json")
        TraceRecorder().save(traces_path)
        assert main(["trace", traces_path, "--node", "NOPE-1"]) == 1

    def test_analyze_phases_without_sidecar_fails(self, tmp_path, capsys,
                                                  dataset):
        path = str(tmp_path / "plain.json")
        dataset.save(path)
        assert main(["analyze", path, "--artifact", "phases"]) == 1
        out = capsys.readouterr().out
        assert "--observe" in out

    def test_unobserved_campaign_manifest_has_no_metrics(self, tmp_path,
                                                         capsys):
        out_path = str(tmp_path / "plain.json")
        code = main([
            "campaign", "--scale", "0.004", "--seed", "3",
            "--atlas-probes", "0", "--out", out_path,
        ])
        assert code == 0
        import json

        with open(str(tmp_path / "plain.manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["metrics"] is None
        assert manifest["phases"] is None
        assert not os.path.exists(str(tmp_path / "plain.traces.json"))

    def test_bad_fault_preset_rejected(self):
        with pytest.raises(ValueError):
            main([
                "campaign", "--scale", "0.003",
                "--fault-preset", "meteor-strike",
            ])

    def test_checkpoint_dir_needs_shards(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        assert main([
            "campaign", "--scale", "0.003", "--workers", "1",
            "--checkpoint-dir", str(directory),
        ]) == 2
        assert "--shards" in capsys.readouterr().err
        assert not directory.exists()

    def test_analyze_table4_needs_enough_data(self, tmp_path, capsys,
                                              dataset):
        path = str(tmp_path / "full.json")
        dataset.save(path)
        assert main(["analyze", path, "--artifact", "table4"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out

    def test_analyze_names_a_dataset_it_cannot_analyse(self, tmp_path,
                                                       capsys):
        from repro.dataset.store import Dataset

        path = str(tmp_path / "empty.json")
        Dataset().save(path)
        assert main(["analyze", path, "--artifact", "figure3"]) == 1
        err = capsys.readouterr().err
        assert "repro analyze: error: no analysed countries" in err

    def test_groundtruth(self, capsys):
        code = main([
            "groundtruth", "--scale", "0.004", "--repetitions", "2",
            "--seed", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
