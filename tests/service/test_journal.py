"""The crash journal: append-only, torn-tail safe, identity-locked."""

import os

import pytest

from repro.ckpt.ledger import LedgerRecord
from repro.service.journal import (
    FORMAT_TAG,
    JournalCorruptError,
    ServiceJournal,
)

FP = "a" * 32


def test_fresh_journal_writes_header(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with ServiceJournal(path, FP) as journal:
        assert journal.records[0].kind == "header"
        assert journal.records[0].payload == {
            "fingerprint": FP, "format": FORMAT_TAG,
        }
    assert os.path.exists(path)


def test_append_and_reopen_preserves_events(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with ServiceJournal(path, FP) as journal:
        journal.append("epoch-start", {"epoch": 0, "attempt": 0})
        journal.append("epoch-done", {"epoch": 0, "dataset_digest": "x"})
        journal.append("epoch-start", {"epoch": 1, "attempt": 0})
    with ServiceJournal(path, FP) as journal:
        assert journal.epochs_done() == {
            0: {"epoch": 0, "dataset_digest": "x"}
        }
        assert journal.next_epoch() == 1
        assert not journal.service_complete()
        assert journal.epoch_start_payload(1) == {
            "epoch": 1, "attempt": 0,
        }
        journal.append("epoch-done", {"epoch": 1, "dataset_digest": "y"})
        journal.append("service-done", {"epochs": 2})
    with ServiceJournal(path, FP) as journal:
        assert journal.next_epoch() == 2
        assert journal.service_complete()


def test_torn_tail_is_truncated_on_open(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with ServiceJournal(path, FP) as journal:
        journal.append("epoch-done", {"epoch": 0, "dataset_digest": "x"})
    with open(path, "ab") as handle:
        handle.write(b'{"k":"epoch-done","seq":2,"p')  # kill mid-append
    with ServiceJournal(path, FP) as journal:
        assert journal.epochs_done() == {
            0: {"epoch": 0, "dataset_digest": "x"}
        }
        journal.append("shutdown", {"signal": 15})
    with ServiceJournal(path, FP) as journal:
        assert [r.kind for r in journal.records] == [
            "header", "epoch-done", "shutdown",
        ]


def test_foreign_fingerprint_rejected(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with ServiceJournal(path, FP):
        pass
    with pytest.raises(JournalCorruptError, match="different service"):
        ServiceJournal(path, "b" * 32).open()


def test_mid_file_damage_rejected(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with ServiceJournal(path, FP) as journal:
        for epoch in range(4):
            journal.append(
                "epoch-done", {"epoch": epoch, "dataset_digest": "x"}
            )
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        handle.write(b"\xff")
    with pytest.raises(JournalCorruptError, match="corrupt mid-file"):
        ServiceJournal(path, FP).open()


class TestDamageAnywhere:
    """Cut or bit-flip a journal at every offset: opening it keeps
    exactly the records before the damaged final one, and the next
    append continues the sequence; damage before the final record
    raises instead."""

    @pytest.fixture()
    def journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with ServiceJournal(path, FP) as journal:
            journal.append("epoch-start", {"epoch": 0, "attempt": 0})
            journal.append("epoch-retry", {
                "epoch": 0, "attempt": 0,
                "error": "EpochDeadlineExceeded: too slow",
            })
            journal.append("epoch-start", {"epoch": 0, "attempt": 1})
            journal.append("epoch-done", {
                "epoch": 0, "attempt": 1, "dataset_digest": "ab" * 16,
            })
            journal.append("shutdown", {"signal": 15, "epoch_in_flight": 1})
            written = list(journal.records)
        with open(path, "rb") as handle:
            pristine = handle.read()
        # Byte offset where each record starts, and the file end.
        starts = [0] + [
            index + 1 for index, byte in enumerate(pristine)
            if byte == ord("\n")
        ]
        assert len(starts) == len(written) + 1
        return path, pristine, written, starts

    @staticmethod
    def reopen(path, blob):
        """Open the journal holding *blob*; returns the records kept,
        after checking that one more append continues them."""
        with open(path, "wb") as handle:
            handle.write(blob)
        with ServiceJournal(path, FP) as journal:
            kept = list(journal.records)
            journal.append("service-done", {"epochs": 1})
        with ServiceJournal(path, FP) as journal:
            assert journal.records == kept + [
                LedgerRecord("service-done", len(kept), {"epochs": 1})
            ]
        return kept

    def test_every_cut_keeps_the_records_before_it(self, journal):
        path, pristine, written, starts = journal
        for cut in range(len(pristine) + 1):
            whole = sum(1 for end in starts[1:] if end <= cut)
            # A cut inside the header leaves nothing, and opening it
            # writes the same fresh header again.
            assert self.reopen(path, pristine[:cut]) == (
                written[:max(1, whole)]
            ), cut

    def test_every_bit_flip_drops_the_final_record_or_raises(self, journal):
        path, pristine, written, starts = journal
        final = starts[-2]
        for offset in range(len(pristine)):
            for bit in range(8):
                damaged = bytearray(pristine)
                damaged[offset] ^= 1 << bit
                try:
                    kept = self.reopen(path, bytes(damaged))
                except JournalCorruptError:
                    assert offset < final, (offset, bit)
                    continue
                assert offset >= final, (offset, bit)
                assert kept == written[:-1], (offset, bit)
