"""Signal drills: SIGTERM/SIGINT and the epoch deadline mid-epoch must
be graceful.

Each drill starts ``python -m repro service run`` as a real process,
waits until epoch 1 has committed at least one batch (so the signal
lands *mid-epoch*, after epoch 0 published), delivers the signal, and
then asserts the robustness contract:

* the process exits ``EXIT_INTERRUPTED`` having journalled the
  shutdown,
* the published ``dataset.json`` is byte-exact pre- or post-epoch
  state — its canonical digest equals one journalled at an epoch
  boundary, never a torn in-between,
* ``repro service resume`` completes the service and reproduces the
  uninterrupted baseline bytes.

Real signals land wherever the process happens to be.  The in-process
cases below raise the signal handlers' exceptions at a fixed point
inside a node task instead, where simulated code's ``except
Exception`` handlers sit, so each outcome is deterministic.
"""

import hashlib
import json
import signal
import time

import pytest

from repro.ckpt.checkpoint import committed_batches
from repro.core.client import MeasurementClient
from repro.service import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EpochDeadlineExceeded,
    GracefulShutdown,
    ServiceSupervisor,
)
from repro.service import paths as service_paths
from repro.service.journal import ServiceJournal

from tests.service.conftest import tiny_config

POLL_DEADLINE_S = 300


def canonical_digest(directory: str) -> str:
    with open(service_paths.dataset_path(directory)) as handle:
        data = json.load(handle)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


def open_journal(config) -> ServiceJournal:
    journal = ServiceJournal(
        service_paths.journal_path(config.directory),
        config.fingerprint(),
    )
    with journal:
        return journal


@pytest.fixture(scope="module")
def baseline_digest(tmp_path_factory):
    """Digest of the uninterrupted service's final dataset bytes."""
    config = tiny_config(tmp_path_factory.mktemp("baseline") / "svc")
    assert ServiceSupervisor(config).run(fresh=True) == EXIT_OK
    return canonical_digest(config.directory)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
@pytest.mark.parametrize("workers", [1, 4])
def test_signal_mid_epoch_is_graceful(tmp_path, service_proc,
                                      baseline_digest, signum, workers):
    config = tiny_config(tmp_path / "svc", workers=workers)
    proc = service_proc(config)

    # Wait for the drill moment: epoch 0 published, epoch 1 mid-flight.
    epoch1 = service_paths.epoch_dir(config.directory, 1)
    deadline = time.time() + POLL_DEADLINE_S
    while time.time() < deadline:
        if proc.poll() is not None:
            break
        if committed_batches(epoch1) >= 1:
            proc.send_signal(signum)
            break
        time.sleep(0.02)
    else:
        pytest.fail("service never reached epoch 1")
    proc.wait(timeout=120)
    stderr = proc.stderr.read().decode("utf-8", "replace")

    # Either we caught it mid-epoch (graceful interrupt) or it beat us
    # to the finish line (tiny scale) — both are legal; a crash is not.
    assert proc.returncode in (EXIT_INTERRUPTED, 0), stderr

    journal = open_journal(config)
    if proc.returncode == EXIT_INTERRUPTED:
        shutdowns = journal.events("shutdown")
        assert shutdowns, "graceful exit must journal the shutdown"
        assert shutdowns[-1]["signal"] == int(signum)

    # The published dataset is byte-exact pre- or post-epoch state:
    # its canonical digest must be one the journal recorded at an
    # epoch boundary — a torn mid-epoch publish would match nothing.
    boundary_digests = {
        payload["dataset_digest"]
        for payload in journal.epochs_done().values()
    }
    assert boundary_digests, "epoch 0 should have published"
    assert canonical_digest(config.directory) in boundary_digests

    # Self-healing resume: picks up at the journalled epoch boundary
    # and reproduces the uninterrupted baseline byte-for-byte.
    assert ServiceSupervisor(config).run(fresh=False) == EXIT_OK
    assert canonical_digest(config.directory) == baseline_digest


def raise_in_epoch_1(monkeypatch, exc, at_call: int = 50) -> None:
    """Make epoch 1's *at_call*-th DoH measurement raise *exc*, once.

    The tiny service measures 2 providers per node in batches of 10
    nodes, so call 50 falls in shard 0's third batch, after two
    committed batches.
    """
    original = MeasurementClient.measure_doh
    calls = []

    def measure_doh(self, *args, **kwargs):
        if kwargs.get("run_index") == 1:
            calls.append(None)
            if len(calls) == at_call:
                raise exc
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MeasurementClient, "measure_doh", measure_doh)


def test_shutdown_inside_a_node_task_stops_the_service(
    tmp_path, monkeypatch, baseline_digest
):
    config = tiny_config(tmp_path / "svc")
    raise_in_epoch_1(monkeypatch, GracefulShutdown(signal.SIGTERM))
    assert ServiceSupervisor(config).run(fresh=True) == EXIT_INTERRUPTED
    shutdowns = open_journal(config).events("shutdown")
    assert [record["signal"] for record in shutdowns] == [
        int(signal.SIGTERM)
    ]
    assert shutdowns[0]["epoch_in_flight"] == 1

    monkeypatch.undo()
    assert ServiceSupervisor(config).run(fresh=False) == EXIT_OK
    assert canonical_digest(config.directory) == baseline_digest


def test_deadline_inside_a_node_task_retries_the_epoch(
    tmp_path, monkeypatch, baseline_digest
):
    config = tiny_config(tmp_path / "svc", retry_backoff_s=0.0)
    raise_in_epoch_1(
        monkeypatch, EpochDeadlineExceeded("epoch exceeded its deadline")
    )
    assert ServiceSupervisor(config).run(fresh=True) == EXIT_OK
    retries = open_journal(config).events("epoch-retry")
    assert [(r["epoch"], r["attempt"]) for r in retries] == [(1, 0)]
    assert "EpochDeadlineExceeded" in retries[0]["error"]
    assert canonical_digest(config.directory) == baseline_digest
