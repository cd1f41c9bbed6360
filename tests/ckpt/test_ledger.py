"""Unit tests for the append-only sample ledger."""

import base64
import json

import pytest

from repro.ckpt.ledger import (
    CheckpointCorruptionError,
    LedgerWriter,
    read_ledger,
    truncate_ledger,
)
from repro.core.campaign import NodeFailure
from repro.parallel.wirepack import pack_samples


def write_journal(path, batches=3):
    with LedgerWriter(str(path)) as writer:
        writer.append("header", {"fingerprint": "abc", "role": "serial"})
        for index in range(batches):
            writer.append("batch", {"i": index, "doh": [[1.5, "x"]]})
        writer.append("done", {"batches": batches})


class TestRoundtrip:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "serial.ledger"
        write_journal(path)
        load = read_ledger(str(path))
        assert [r.kind for r in load.records] == [
            "header", "batch", "batch", "batch", "done",
        ]
        assert [r.seq for r in load.records] == [0, 1, 2, 3, 4]
        assert load.records[1].payload == {"i": 0, "doh": [[1.5, "x"]]}
        assert not load.dropped_tail
        assert load.clean_bytes == path.stat().st_size

    def test_missing_file_is_none(self, tmp_path):
        assert read_ledger(str(tmp_path / "absent.ledger")) is None

    def test_floats_survive_exactly(self, tmp_path):
        # The byte-identity guarantee rests on json round-tripping
        # IEEE doubles exactly.
        path = tmp_path / "serial.ledger"
        values = [0.1 + 0.2, 1e-308, 123456.789012345, 2.0 ** 52 + 0.5]
        with LedgerWriter(str(path)) as writer:
            writer.append("header", {})
            writer.append("batch", values)
        load = read_ledger(str(path))
        assert load.records[1].payload == values


class TestTornTail:
    def test_partial_last_line_dropped(self, tmp_path):
        path = tmp_path / "serial.ledger"
        write_journal(path, batches=2)
        clean = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"k": "batch", "n": 4, "p": [1, 2')  # torn
        load = read_ledger(str(path))
        assert load.dropped_tail
        assert len(load.records) == 4  # header + 2 batches + done
        assert load.clean_bytes == clean

    def test_truncate_to_restores_clean_prefix(self, tmp_path):
        path = tmp_path / "serial.ledger"
        write_journal(path, batches=2)
        with open(path, "ab") as handle:
            handle.write(b"garbage after a crash")
        load = read_ledger(str(path))
        truncate_ledger(str(path), load.clean_bytes)
        reload = read_ledger(str(path))
        assert not reload.dropped_tail
        assert reload.records == load.records

    def test_torn_final_checksum_dropped(self, tmp_path):
        # A complete-looking final line with a wrong checksum is still
        # a torn write (the crash can land mid-payload after the quote).
        path = tmp_path / "serial.ledger"
        write_journal(path, batches=1)
        lines = path.read_bytes().splitlines(keepends=True)
        tampered = lines[-1].replace(b'"batches":1', b'"batches":9')
        path.write_bytes(b"".join(lines[:-1]) + tampered)
        load = read_ledger(str(path))
        assert load.dropped_tail
        assert load.records[-1].kind == "batch"


class TestCorruption:
    def test_bad_checksum_mid_file_raises(self, tmp_path):
        path = tmp_path / "serial.ledger"
        write_journal(path, batches=3)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"i":1', b'"i":7')
        path.write_bytes(b"".join(lines))
        with pytest.raises(CheckpointCorruptionError):
            read_ledger(str(path))

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "serial.ledger"
        with LedgerWriter(str(path)) as writer:
            writer.append("header", {})
        with LedgerWriter(str(path), next_seq=5) as writer:
            writer.append("batch", {"i": 5})
        with open(path, "ab") as handle:  # keep the gap mid-file
            handle.write(b"trailing")
        with pytest.raises(CheckpointCorruptionError):
            read_ledger(str(path))

    def test_first_record_must_be_header(self, tmp_path):
        path = tmp_path / "serial.ledger"
        with LedgerWriter(str(path)) as writer:
            writer.append("batch", {"i": 0})
            writer.append("batch", {"i": 1})
        with pytest.raises(CheckpointCorruptionError):
            read_ledger(str(path))

    def test_unparsable_mid_record_raises(self, tmp_path):
        path = tmp_path / "serial.ledger"
        write_journal(path, batches=2)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"not json at all\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CheckpointCorruptionError):
            read_ledger(str(path))


class TestWriterDiscipline:
    def test_appends_are_line_delimited_json(self, tmp_path):
        path = tmp_path / "serial.ledger"
        write_journal(path, batches=1)
        for line in path.read_bytes().splitlines():
            record = json.loads(line)
            assert set(record) == {"k", "n", "p", "c"}

    def test_resumed_writer_continues_sequence(self, tmp_path):
        path = tmp_path / "serial.ledger"
        with LedgerWriter(str(path)) as writer:
            writer.append("header", {})
            writer.append("batch", {"i": 0})
        load = read_ledger(str(path))
        with LedgerWriter(str(path), next_seq=len(load.records)) as writer:
            assert writer.append("batch", {"i": 1}) == 2
        reload = read_ledger(str(path))
        assert [r.seq for r in reload.records] == [0, 1, 2]


class TestDamageAnywhere:
    """Cut or bit-flip a checkpoint ledger of 3 batches at every offset:
    the reader keeps a prefix of what was written, losing at most the
    final record (a torn tail), or raises."""

    @pytest.fixture()
    def ledger(self, tmp_path):
        path = tmp_path / "shard-0.ledger"
        with LedgerWriter(str(path)) as writer:
            writer.append("header", {"fingerprint": "ab" * 20,
                                     "role": "shard-0", "format": 2})
            for index in range(3):
                blob = pack_samples([], [], [NodeFailure(
                    "DE-{:04d}".format(index), "hung", index)])
                writer.append("batch", base64.b64encode(blob).decode())
            writer.append("done", {"batches": 3})
        pristine = path.read_bytes()
        written = read_ledger(str(path)).records
        assert len(written) == 5
        return path, pristine, written

    def test_every_cut_drops_only_the_cut_record(self, ledger):
        path, pristine, written = ledger
        ends = [0] + [
            index + 1 for index, byte in enumerate(pristine)
            if byte == ord("\n")
        ]
        for cut in range(len(pristine) + 1):
            path.write_bytes(pristine[:cut])
            load = read_ledger(str(path))
            whole = sum(1 for end in ends[1:] if end <= cut)
            assert load.records == written[:whole], cut
            assert load.dropped_tail == (cut not in ends), cut
            assert load.clean_bytes == ends[whole], cut

    def test_every_bit_flip_drops_the_final_record_or_raises(self, ledger):
        path, pristine, written = ledger
        for offset in range(len(pristine)):
            for bit in range(8):
                damaged = bytearray(pristine)
                damaged[offset] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                try:
                    load = read_ledger(str(path))
                except CheckpointCorruptionError:
                    continue
                kept = len(load.records)
                assert kept >= len(written) - 1, (offset, bit)
                assert load.records == written[:kept], (offset, bit)
                assert load.dropped_tail == (kept < len(written))
