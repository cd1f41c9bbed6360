"""The epoch supervisor: lifecycle, determinism, watchdog, retries."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.ckpt import CampaignCheckpoint
from repro.cli import main
from repro.faults.epochs import epoch_fault_plan
from repro.service import (
    EXIT_EPOCH_FAILED,
    EXIT_OK,
    ServiceConfig,
    ServiceError,
    ServiceSupervisor,
)
from repro.service import paths as service_paths
from repro.service.journal import ServiceJournal
from tests.service.conftest import cli_run_args, service_env, tiny_config


def dataset_digest(directory: str) -> str:
    """The digest the supervisor journals, recomputed from disk."""
    with open(service_paths.dataset_path(directory)) as handle:
        data = json.load(handle)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


def read_journal(config: ServiceConfig) -> ServiceJournal:
    journal = ServiceJournal(
        service_paths.journal_path(config.directory),
        config.fingerprint(),
    )
    with journal:
        return journal


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One completed tiny service, shared by the read-only tests."""
    config = tiny_config(tmp_path_factory.mktemp("svc") / "svc")
    code = ServiceSupervisor(config).run(fresh=True)
    assert code == EXIT_OK
    return config


class TestLifecycle:
    def test_artifacts_published(self, finished):
        directory = finished.directory
        for path in (
            service_paths.service_manifest_path(directory),
            service_paths.journal_path(directory),
            service_paths.dataset_path(directory),
            service_paths.availability_path(directory),
            service_paths.manifest_sidecar_path(directory),
        ):
            assert os.path.exists(path), path
        for epoch in range(finished.epochs):
            assert os.path.isdir(
                service_paths.epoch_dir(directory, epoch)
            )

    def test_service_manifest_complete(self, finished):
        with open(
            service_paths.service_manifest_path(finished.directory)
        ) as handle:
            manifest = json.load(handle)
        assert manifest["status"] == "complete"
        assert manifest["fingerprint"] == finished.fingerprint()
        assert manifest["identity"]["epochs"] == finished.epochs

    def test_journal_records_every_epoch(self, finished):
        journal = read_journal(finished)
        assert sorted(journal.epochs_done()) == [0, 1]
        assert journal.service_complete()
        assert journal.next_epoch() == finished.epochs

    def test_epoch_done_digest_matches_published_dataset(self, finished):
        journal = read_journal(finished)
        last = journal.epochs_done()[finished.epochs - 1]
        assert last["dataset_digest"] == dataset_digest(
            finished.directory
        )

    def test_obs_manifest_carries_service_block(self, finished):
        with open(
            service_paths.manifest_sidecar_path(finished.directory)
        ) as handle:
            manifest = json.load(handle)
        service = manifest["service"]
        assert service["fingerprint"] == finished.fingerprint()
        assert service["epochs_completed"] == finished.epochs
        availability = manifest["availability"]
        assert set(availability["providers"]) == set(finished.providers)

    def test_ckpt_status_on_an_epoch_checkpoint(self, finished, capsys):
        epoch1 = service_paths.epoch_dir(finished.directory, 1)
        assert main(["ckpt", "status", epoch1]) == 0
        out = capsys.readouterr().out
        assert "None" not in out
        assert CampaignCheckpoint.load(epoch1).fingerprint in out


class TestDeterminismContract:
    def test_journalled_fault_plan_matches_rederivation(self, finished):
        # Acceptance: epoch N's schedule is a pure function of
        # (master_seed, N) — the plan the service *ran* (journalled at
        # epoch start) equals the plan derived in isolation.
        journal = read_journal(finished)
        for epoch in range(finished.epochs):
            start = journal.epoch_start_payload(epoch)
            assert start is not None
            derived = epoch_fault_plan(
                finished.master_seed, epoch, finished.providers,
                finished.fault_params,
            )
            assert start["fault_plan"] == repr(derived)

    def test_resume_of_finished_service_is_idempotent(self, finished):
        dataset_path = service_paths.dataset_path(finished.directory)
        availability = service_paths.availability_path(
            finished.directory
        )
        with open(dataset_path, "rb") as handle:
            before_dataset = handle.read()
        with open(availability, "rb") as handle:
            before_avail = handle.read()
        code = ServiceSupervisor(finished).run(fresh=False)
        assert code == EXIT_OK
        with open(dataset_path, "rb") as handle:
            assert handle.read() == before_dataset
        with open(availability, "rb") as handle:
            assert handle.read() == before_avail

    def test_worker_count_does_not_change_bytes(self, finished,
                                                tmp_path):
        parallel = tiny_config(tmp_path / "svc-w2", workers=2)
        assert ServiceSupervisor(parallel).run(fresh=True) == EXIT_OK
        for getter in (
            service_paths.dataset_path, service_paths.availability_path
        ):
            with open(getter(finished.directory), "rb") as handle:
                baseline = handle.read()
            with open(getter(parallel.directory), "rb") as handle:
                assert handle.read() == baseline


class TestIdentityGuards:
    def test_fresh_run_refuses_existing_directory(self, finished):
        with pytest.raises(ServiceError, match="service resume"):
            ServiceSupervisor(finished).run(fresh=True)

    def test_resume_refuses_identity_drift(self, finished):
        drifted = dataclasses.replace(finished, master_seed=999)
        with pytest.raises(ServiceError, match="fingerprint"):
            ServiceSupervisor(drifted).run(fresh=False)

    def test_resume_refuses_missing_service(self, tmp_path):
        config = tiny_config(tmp_path / "nothing-here")
        with pytest.raises(ServiceError, match="no service manifest"):
            ServiceSupervisor(config).run(fresh=False)

    def test_runtime_knobs_not_in_fingerprint(self, finished):
        runtime_tweaked = dataclasses.replace(
            finished, workers=8, epoch_deadline_s=1.0,
            max_epoch_retries=9, retry_backoff_s=0.0,
        )
        assert runtime_tweaked.fingerprint() == finished.fingerprint()
        identity_tweaked = dataclasses.replace(finished, epochs=3)
        assert identity_tweaked.fingerprint() != finished.fingerprint()


class TestWatchdogAndRetries:
    def test_deadline_failure_then_resume_succeeds(self, finished,
                                                   tmp_path):
        # An impossible watchdog deadline fails every attempt; the
        # journal proves the bounded retries; resuming with a sane
        # deadline completes and reproduces the reference bytes.
        config = tiny_config(
            tmp_path / "svc-deadline",
            epoch_deadline_s=0.05,
            max_epoch_retries=1,
            retry_backoff_s=0.0,
        )
        code = ServiceSupervisor(config).run(fresh=True)
        assert code == EXIT_EPOCH_FAILED
        journal = read_journal(config)
        retries = journal.events("epoch-retry")
        assert len(retries) == 2  # initial attempt + 1 retry
        assert all(
            "deadline" in record["error"] for record in retries
        )
        with open(
            service_paths.service_manifest_path(config.directory)
        ) as handle:
            assert json.load(handle)["status"] == "failed"

        healed = dataclasses.replace(config, epoch_deadline_s=None)
        assert ServiceSupervisor(healed).run(fresh=False) == EXIT_OK
        assert dataset_digest(config.directory) == dataset_digest(
            finished.directory
        )


class TestCliNamesProblems:
    """``repro service`` names a damaged or occupied directory on
    stderr and exits 1, as ``repro ckpt`` does, with no traceback."""

    @staticmethod
    def run_cli(argv):
        return subprocess.run(
            argv, env=service_env(), capture_output=True, text=True,
            timeout=120,
        )

    @staticmethod
    def copy_of(finished, directory):
        os.makedirs(directory)
        for getter in (service_paths.service_manifest_path,
                       service_paths.journal_path):
            shutil.copy(getter(finished.directory), getter(directory))
        return directory

    def assert_named(self, proc, command, problem):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "repro service {}: error:".format(command) in proc.stderr
        assert problem in proc.stderr

    def test_run_into_an_existing_service(self, finished):
        proc = self.run_cli(cli_run_args(finished))
        self.assert_named(proc, "run", "already holds a service")

    @pytest.mark.parametrize("command", ["status", "resume"])
    def test_half_a_service_manifest(self, finished, tmp_path, command):
        directory = self.copy_of(finished, str(tmp_path / "svc"))
        path = service_paths.service_manifest_path(directory)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        proc = self.run_cli([sys.executable, "-m", "repro", "service",
                             command, directory])
        self.assert_named(proc, command, "unreadable service manifest")

    def test_resume_with_a_journal_corrupt_mid_file(self, finished,
                                                    tmp_path):
        directory = self.copy_of(finished, str(tmp_path / "svc"))
        path = service_paths.journal_path(directory)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            handle.write(b"\xff")
        proc = self.run_cli([sys.executable, "-m", "repro", "service",
                             "resume", directory])
        self.assert_named(proc, "resume", "corrupt mid-file")
