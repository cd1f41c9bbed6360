"""The epoch supervisor: an always-on longitudinal campaign service.

``repro service run`` turns the one-shot campaign into a *service*:
the same fleet is re-measured epoch after epoch under an evolving
deterministic fault schedule (:mod:`repro.faults.epochs`), each epoch
a full checkpointed campaign in its own directory.  The accumulated
dataset and the availability/SLO artifact are republished atomically
at every epoch boundary — never mid-epoch, so a reader (or a kill)
only ever observes pre-epoch or post-epoch state.

Robustness posture (the reason this module exists):

* **graceful SIGTERM/SIGINT** — the first signal raises
  :class:`GracefulShutdown` in the main thread; every byte already
  committed is crash-safe by construction (unit files, journal records
  and artifacts are fsync'd, files are replaced by atomic renames),
  so stopping anywhere is safe.  The
  supervisor journals the shutdown and exits ``EXIT_INTERRUPTED``;
* **watchdog deadline per epoch** — ``SIGALRM`` bounds each epoch
  attempt; an overrunning epoch is aborted and retried, and because
  retries resume from the epoch's checkpoint, progress across
  attempts is monotonic;
* **bounded retry with backoff** — epoch failures (deadline, worker
  loss, simulation errors) retry up to ``max_epoch_retries`` times
  with linear backoff before the service exits ``EXIT_EPOCH_FAILED``;
* **quarantine, never overwrite** — a checkpoint that fails
  verification (an unreadable manifest, a file that fails its seal)
  is moved under
  ``<dir>/quarantine/`` with its bytes intact and the service exits
  ``EXIT_QUARANTINE``; restoring the bytes and running ``repro
  service resume`` picks up where it left off;
* **crash journal** — every epoch boundary, retry, shutdown and
  quarantine is appended (checksummed, fsync'd) to
  ``journal.jsonl``; ``repro service resume`` continues at the exact
  epoch boundary the journal proves.

Determinism contract: the accumulated dataset bytes are a pure
function of the service identity (master seed, scale, epochs, runs
per epoch, shard count, batch size, providers, fault schedule
parameters) — independent of worker count, kills, retries, resumes,
or wall clock.  The soak drill (``tools/service_soak.py``) enforces
this in CI by SIGKILLing a run mid-epoch and byte-diffing the
recovered dataset against an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.analysis.availability import (
    availability_report,
    render_availability_table,
)
from repro.ckpt.quarantine import quarantine_checkpoint, verify_checkpoint_dir
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.dataset.store import Dataset
from repro.faults.epochs import EpochScheduleParams, epoch_fault_plan
from repro.ioutil import atomic_write_json
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import run_parallel_campaign
from repro.parallel.pool import InlinePool, WarmWorkerPool
from repro.proxy.population import PopulationConfig
from repro.service import paths
from repro.service.journal import ServiceError, ServiceJournal

__all__ = [
    "EXIT_EPOCH_FAILED",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "EXIT_QUARANTINE",
    "EpochDeadlineExceeded",
    "EpochFailedError",
    "GracefulShutdown",
    "QuarantinedCheckpointError",
    "ServiceConfig",
    "ServiceError",
    "ServiceSupervisor",
    "epoch_client_seed_offset",
    "read_service_manifest",
]

#: Service process exit codes (``repro service run``/``resume``).
EXIT_OK = 0
EXIT_INTERRUPTED = 3   # graceful SIGTERM/SIGINT; resumable
EXIT_QUARANTINE = 4    # a checkpoint was quarantined; operator needed
EXIT_EPOCH_FAILED = 5  # an epoch failed every retry


class GracefulShutdown(BaseException):
    """Raised in the main thread when SIGTERM/SIGINT arrives.

    A :class:`BaseException`, like :class:`KeyboardInterrupt`: the
    signal can land inside simulated code, whose ``except Exception``
    handlers would otherwise turn it into a failed sample or a retried
    node and lose the shutdown.
    """

    def __init__(self, signum: int) -> None:
        super().__init__("received signal {}".format(signum))
        self.signum = signum


class EpochDeadlineExceeded(BaseException):
    """The per-epoch watchdog (SIGALRM) fired.

    A :class:`BaseException` for the same reason as
    :class:`GracefulShutdown`; the epoch loop catches it by name to
    retry the epoch.
    """


class EpochFailedError(ServiceError):
    """An epoch failed on every attempt."""


class QuarantinedCheckpointError(ServiceError):
    """A corrupt checkpoint was moved aside; the service must stop."""

    def __init__(self, message: str, destination: str) -> None:
        super().__init__(message)
        self.destination = destination


@dataclass(frozen=True)
class ServiceConfig:
    """Identity + runtime knobs of one longitudinal service.

    The *identity* fields define the experiment — they are hashed into
    the service fingerprint, persisted in ``service.json``, and must
    match on resume.  The *runtime* fields (workers, deadline, retry
    policy) only shape this process's execution and may differ between
    runs without changing a single dataset byte.
    """

    directory: str
    # -- identity ----------------------------------------------------------
    master_seed: int = 20210402
    scale: float = 0.05
    epochs: int = 3
    runs_per_epoch: int = 2
    num_shards: int = 4
    batch_size: int = 400
    providers: Tuple[str, ...] = (
        "cloudflare", "google", "nextdns", "quad9",
    )
    faults_enabled: bool = True
    fault_params: EpochScheduleParams = field(
        default_factory=EpochScheduleParams
    )
    slo_target: float = 0.99
    # -- runtime -----------------------------------------------------------
    workers: int = 1
    epoch_deadline_s: Optional[float] = None
    max_epoch_retries: int = 2
    retry_backoff_s: float = 1.0

    _IDENTITY_FIELDS = (
        "master_seed", "scale", "epochs", "runs_per_epoch", "num_shards",
        "batch_size", "providers", "faults_enabled", "fault_params",
        "slo_target",
    )

    def identity(self) -> Dict:
        """The experiment-defining fields as a plain dict."""
        out: Dict = {}
        for name in self._IDENTITY_FIELDS:
            value = getattr(self, name)
            if name == "fault_params":
                value = {
                    f.name: getattr(value, f.name)
                    for f in fields(EpochScheduleParams)
                }
            elif name == "providers":
                value = list(value)
            out[name] = value
        return out

    def fingerprint(self) -> str:
        """Stable digest of the identity (resume gate)."""
        canonical = json.dumps(self.identity(), sort_keys=True)
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()

    def epoch_config(self, epoch: int) -> ReproConfig:
        """The campaign config of one epoch — pure in the identity.

        The world (topology, fleet, seeds) is identical in every epoch;
        only the fault schedule evolves, via
        :func:`repro.faults.epochs.epoch_fault_plan`.
        """
        faults = None
        if self.faults_enabled:
            faults = epoch_fault_plan(
                self.master_seed, epoch, self.providers, self.fault_params
            )
        return ReproConfig(
            seed=self.master_seed,
            population=PopulationConfig(scale=self.scale),
            providers=tuple(self.providers),
            runs_per_client=self.runs_per_epoch,
            batch_size=self.batch_size,
            faults=faults,
        )

    @classmethod
    def from_identity(
        cls, directory: str, identity: Dict, **runtime
    ) -> "ServiceConfig":
        """Rebuild a config from a stored identity dict (resume)."""
        data = dict(identity)
        data["providers"] = tuple(data.get("providers", ()))
        data["fault_params"] = EpochScheduleParams(
            **data.get("fault_params", {})
        )
        return cls(directory=directory, **data, **runtime)


def epoch_client_seed_offset(epoch: int) -> int:
    """Shift of every client RNG stream in *epoch*.

    Epoch 0 uses the unshifted streams (it is bit-for-bit a plain
    campaign); later epochs are pushed far past every shard/Atlas/
    extension stream so no two epochs ever share a query-name RNG.
    The per-epoch name prefix (``e<N>-``) makes uniqueness structural
    on top of that.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return epoch * 9999991


# -- signal plumbing -------------------------------------------------------


@contextmanager
def _shutdown_guard():
    """Raise :class:`GracefulShutdown` on the first SIGTERM/SIGINT.

    Only the first signal raises (repeat deliveries while unwinding are
    ignored); handlers are restored on exit.  Outside the main thread
    (no signal access) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    fired = {"done": False}

    def handler(signum, _frame):
        if fired["done"]:
            return
        fired["done"] = True
        raise GracefulShutdown(signum)

    previous = {
        signum: signal.signal(signum, handler)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


@contextmanager
def _epoch_deadline(seconds: Optional[float]):
    """Arm a SIGALRM watchdog for one epoch attempt."""
    if (
        seconds is None
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def handler(_signum, _frame):
        raise EpochDeadlineExceeded(
            "epoch exceeded its {:.1f}s watchdog deadline".format(seconds)
        )

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def read_service_manifest(directory: str) -> Optional[Dict]:
    """The ``service.json`` of *directory*, or None when there is none.

    Raises :class:`ServiceError` when the file does not read back as a
    manifest: cut short, not JSON, or without an identity.
    """
    path = paths.service_manifest_path(directory)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise ServiceError(
            "unreadable service manifest {!r}: {}".format(path, exc)
        ) from None
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("identity"), dict
    ):
        raise ServiceError(
            "unreadable service manifest {!r}: no identity".format(path)
        )
    return manifest


def _json_digest(payload: Dict) -> str:
    """Digest of a dataset's plain-dict form (canonical compact JSON)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


# -- the supervisor --------------------------------------------------------


class ServiceSupervisor:
    """Owns one service directory and drives its epochs."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.directory = config.directory
        self.fingerprint = config.fingerprint()
        self.metrics = MetricsRegistry()
        #: Dataset accumulated across completed epochs (in memory).
        self._dataset: Optional[Dataset] = None
        #: Digest of :attr:`_dataset` as last published or verified.
        self._digest: Optional[str] = None
        #: The pool every epoch's campaign runs on (created lazily,
        #: closed when the service run ends): worker processes when
        #: ``config.workers > 1``, else the inline pool.  Epochs
        #: re-prime it, so each worker's world is built once per
        #: service run and only re-targeted at the next fault plan.
        self._pool = None
        #: The fleet's WorldPlan; every epoch builds the same world.
        self._plan: Optional[WorldPlan] = None
        self._log = print

    # -- service manifest --------------------------------------------------

    def _write_service_manifest(self, status: str) -> None:
        manifest = {
            "version": 1,
            "fingerprint": self.fingerprint,
            "identity": self.config.identity(),
            "status": status,
            "updated_unix": int(time.time()),
        }
        path = paths.service_manifest_path(self.directory)
        existing = read_service_manifest(self.directory)
        if existing is not None:
            manifest["created_unix"] = existing.get(
                "created_unix", manifest["updated_unix"]
            )
        else:
            manifest["created_unix"] = manifest["updated_unix"]
        atomic_write_json(
            path, manifest, indent=2, sort_keys=True,
            trailing_newline=True,
        )

    # -- entry points ------------------------------------------------------

    def run(self, fresh: bool = True) -> int:
        """Start (*fresh*) or continue (``fresh=False``) the service.

        Returns a process exit code (:data:`EXIT_OK`,
        :data:`EXIT_INTERRUPTED`, :data:`EXIT_QUARANTINE`, or
        :data:`EXIT_EPOCH_FAILED`).
        """
        existing = read_service_manifest(self.directory)
        if fresh and existing is not None:
            raise ServiceError(
                "service directory {!r} already holds a service "
                "(fingerprint {}); use 'repro service resume'".format(
                    self.directory, existing.get("fingerprint", "?")
                )
            )
        if not fresh:
            if existing is None:
                raise ServiceError(
                    "no service manifest in {!r}; use 'repro service "
                    "run' to start one".format(self.directory)
                )
            if existing.get("fingerprint") != self.fingerprint:
                raise ServiceError(
                    "cannot resume {!r}: stored identity fingerprint {} "
                    "does not match this configuration's {} (master "
                    "seed, scale, epochs, shards, batch size, providers "
                    "and fault parameters must all match)".format(
                        self.directory,
                        existing.get("fingerprint"), self.fingerprint,
                    )
                )
        os.makedirs(self.directory, exist_ok=True)
        self._write_service_manifest("in-progress")

        journal = ServiceJournal(
            paths.journal_path(self.directory), self.fingerprint
        )
        try:
            with journal, _shutdown_guard():
                return self._run_guarded(journal)
        finally:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def _run_guarded(self, journal: ServiceJournal) -> int:
        try:
            return self._supervise(journal)
        except GracefulShutdown as exc:
            journal.append(
                "shutdown",
                {
                    "signal": int(exc.signum),
                    "epoch_in_flight": journal.next_epoch(),
                },
            )
            self._write_service_manifest("interrupted")
            self._log(
                "service interrupted by signal {}; every committed "
                "batch is safe — 'repro service resume' continues "
                "at epoch {}".format(
                    exc.signum, journal.next_epoch()
                )
            )
            return EXIT_INTERRUPTED
        except QuarantinedCheckpointError as exc:
            self._write_service_manifest("quarantined")
            self._log("QUARANTINE: {}".format(exc))
            return EXIT_QUARANTINE
        except EpochFailedError as exc:
            self._write_service_manifest("failed")
            self._log("epoch failed permanently: {}".format(exc))
            return EXIT_EPOCH_FAILED

    # -- the epoch loop ----------------------------------------------------

    def _supervise(self, journal: ServiceJournal) -> int:
        config = self.config
        self.metrics.set_gauge("service.epochs_total", float(config.epochs))
        done = journal.epochs_done()
        self._dataset = None

        for epoch in range(config.epochs):
            directory = paths.epoch_dir(self.directory, epoch)
            self._check_epoch_checkpoint(journal, epoch, directory)
            if epoch in done:
                # Completed in an earlier run: replay from the cached
                # checkpoint results (no measuring, no world build) and
                # verify the journal's recorded digest still matches.
                epoch_dataset = self._run_epoch_campaign(epoch, directory)
                self._accumulate(epoch_dataset)
                self._verify_replayed_epoch(journal, epoch, done[epoch])
                self.metrics.set_gauge(
                    "service.epochs_done", float(epoch + 1)
                )
                continue
            self._run_epoch_with_retries(journal, epoch, directory)

        if not journal.service_complete():
            journal.append(
                "service-done",
                {"epochs": config.epochs, "dataset_digest": self._digest},
            )
        self._write_service_manifest("complete")
        self._log(
            "service complete: {} epoch(s), dataset at {}".format(
                config.epochs, paths.dataset_path(self.directory)
            )
        )
        return EXIT_OK

    def _run_epoch_with_retries(
        self, journal: ServiceJournal, epoch: int, directory: str
    ) -> None:
        config = self.config
        attempts = 1 + max(0, config.max_epoch_retries)
        plan = (
            config.epoch_config(epoch).faults
            if config.faults_enabled else None
        )
        for attempt in range(attempts):
            journal.append(
                "epoch-start",
                {
                    "epoch": epoch,
                    "attempt": attempt,
                    "fault_plan": repr(plan),
                    "run_index_offset": epoch * config.runs_per_epoch,
                },
            )
            self._log(
                "epoch {}/{} (attempt {}): measuring under {}".format(
                    epoch, config.epochs - 1, attempt,
                    "evolving faults" if plan is not None else "no faults",
                )
            )
            try:
                with _epoch_deadline(config.epoch_deadline_s):
                    epoch_dataset = self._run_epoch_campaign(
                        epoch, directory
                    )
            except QuarantinedCheckpointError:
                raise
            except (Exception, EpochDeadlineExceeded) as exc:
                self.metrics.inc("service.epoch_retries")
                journal.append(
                    "epoch-retry",
                    {
                        "epoch": epoch,
                        "attempt": attempt,
                        "error": "{}: {}".format(
                            type(exc).__name__, exc
                        ),
                    },
                )
                if attempt + 1 >= attempts:
                    raise EpochFailedError(
                        "epoch {} failed after {} attempt(s); last "
                        "error: {}".format(epoch, attempts, exc)
                    )
                backoff = config.retry_backoff_s * (attempt + 1)
                self._log(
                    "epoch {} attempt {} failed ({}); retrying in "
                    "{:.1f}s from the epoch checkpoint".format(
                        epoch, attempt, exc, backoff
                    )
                )
                if backoff > 0:
                    time.sleep(backoff)
                continue
            self._accumulate(epoch_dataset)
            digest = self._publish(epoch)
            journal.append(
                "epoch-done",
                {
                    "epoch": epoch,
                    "attempt": attempt,
                    "dataset_digest": digest,
                    "clients": len(self._dataset.clients),
                    "doh": len(self._dataset.doh),
                    "do53": len(self._dataset.do53),
                },
            )
            self.metrics.set_gauge("service.epochs_done", float(epoch + 1))
            return

    def _run_epoch_campaign(self, epoch: int, directory: str) -> Dataset:
        """One epoch = one checkpointed sharded campaign."""
        config = self.config
        epoch_config = config.epoch_config(epoch)
        if self._plan is None:
            self._plan = WorldPlan.for_config(epoch_config)
        result = run_parallel_campaign(
            epoch_config,
            workers=config.workers,
            num_shards=config.num_shards,
            atlas_probes_per_country=0,
            checkpoint_dir=directory,
            resume="auto",
            run_index_offset=epoch * config.runs_per_epoch,
            client_seed_offset=epoch_client_seed_offset(epoch),
            name_prefix="e{}-".format(epoch),
            pool=self._campaign_pool(),
            plan=self._plan,
        )
        return result.dataset

    def _campaign_pool(self):
        """The service-lifetime pool.

        One pool serves every epoch: each epoch's campaign re-primes it
        with that epoch's config, which differs from the last only in
        its fault plan, so worlds are re-targeted instead of rebuilt
        and worker processes persist.
        """
        if self._pool is None:
            self._pool = (
                WarmWorkerPool(self.config.workers)
                if self.config.workers > 1 else InlinePool()
            )
        return self._pool

    # -- checkpoint health -------------------------------------------------

    def _check_epoch_checkpoint(
        self, journal: ServiceJournal, epoch: int, directory: str
    ) -> None:
        """Verify (and if needed quarantine) an epoch's checkpoint."""
        if not os.path.isdir(directory):
            return
        if not os.path.exists(
            paths.checkpoint_manifest_path(directory)
        ) and not any(
            name.endswith((".state", ".result"))
            for name in os.listdir(directory)
        ):
            # No manifest and no unit file: an empty husk from a crash
            # before the manifest was written, safe to adopt.  With a
            # unit file it is somebody's data, and verification fails.
            return
        health = verify_checkpoint_dir(directory)
        if health.resumable:
            return
        reason = "; ".join(health.problems)
        destination = quarantine_checkpoint(
            directory,
            paths.quarantine_root(self.directory),
            reason=reason,
        )
        journal.append(
            "quarantine",
            {"epoch": epoch, "moved_to": destination, "reason": reason},
        )
        self.metrics.inc("service.quarantines")
        raise QuarantinedCheckpointError(
            "epoch {} checkpoint failed verification ({}); original "
            "bytes preserved at {!r}. Restore the checkpoint and run "
            "'repro service resume', or delete the quarantined copy to "
            "re-measure the epoch from scratch.".format(
                epoch, reason, destination
            ),
            destination,
        )

    def _verify_replayed_epoch(
        self, journal: ServiceJournal, epoch: int, recorded: Dict
    ) -> None:
        """A replayed epoch must reproduce its journalled digest."""
        digest = self._digest = _json_digest(self._dataset.to_json())
        if digest != recorded.get("dataset_digest"):
            raise ServiceError(
                "replaying epoch {} produced dataset digest {} but the "
                "journal recorded {} — the epoch checkpoints no longer "
                "reproduce the published dataset (damaged or foreign "
                "result blobs?). Quarantine-inspect {!r} before "
                "trusting this service directory.".format(
                    epoch, digest,
                    recorded.get("dataset_digest"),
                    paths.epoch_dir(self.directory, epoch),
                )
            )

    # -- dataset + artifacts ----------------------------------------------

    def _accumulate(self, epoch_dataset: Dataset) -> None:
        if self._dataset is None:
            self._dataset = epoch_dataset
        else:
            self._dataset = self._dataset.merge(epoch_dataset)

    def _publish(self, through_epoch: int) -> str:
        """Atomically republish dataset + availability + manifest.

        Called only at epoch boundaries; a kill at any moment leaves
        the previously published (complete) artifacts in place.
        Returns the dataset digest.
        """
        config = self.config
        dataset_file = paths.dataset_path(self.directory)
        # One plain-dict form serves both the file and the digest.
        payload = self._dataset.to_json()
        self._dataset.save(dataset_file, payload)

        report = availability_report(
            self._dataset,
            runs_per_epoch=config.runs_per_epoch,
            epochs=through_epoch + 1,
            slo_target=config.slo_target,
        )
        atomic_write_json(
            paths.availability_path(self.directory), report,
            indent=2, sort_keys=True, trailing_newline=True,
        )

        manifest = build_manifest(
            config.epoch_config(through_epoch),
            dataset=self._dataset,
            dataset_path=dataset_file,
            workers=config.workers,
            num_shards=config.num_shards,
            command="service (epochs 0..{})".format(through_epoch),
            availability=_availability_summary(report),
            service={
                "fingerprint": self.fingerprint,
                "directory": self.directory,
                "epochs_completed": through_epoch + 1,
                "epochs_target": config.epochs,
                "runs_per_epoch": config.runs_per_epoch,
                "master_seed": config.master_seed,
                "metrics": self.metrics.snapshot(),
            },
        )
        write_manifest(
            paths.manifest_sidecar_path(self.directory), manifest
        )
        self._log(render_availability_table(report))
        self._digest = _json_digest(payload)
        return self._digest


def _availability_summary(report: Dict) -> Dict:
    """The compact availability block embedded in the run manifest."""
    return {
        "epochs": report["epochs"],
        "runs_per_epoch": report["runs_per_epoch"],
        "slo_target": report["slo_target"],
        "providers": {
            name: {
                "availability": entry["availability"],
                "slo_met": entry["slo_met"],
                "outages": len(entry["outages"]),
            }
            for name, entry in report["providers"].items()
        },
    }
