"""Fleet flight-journal merging: many per-node journals, one chronology.

``repro serve-admin flightlog --state-dir`` (and the fleet trace route)
rebuild one timeline from every node's ``flight-<node>.jsonl``.  The
merge must be deterministic -- stable ``(ts, node, seq)`` tie-break --
and crash-tolerant, because the whole point is reading journals left by
SIGKILLed nodes.
"""

import os

from repro.obs.events import (
    FlightRecorder,
    discover_flight_journals,
    flight_journal_path,
    merge_flight_journals,
)


class TestJournalPaths:
    def test_per_node_convention(self, tmp_path):
        assert flight_journal_path(str(tmp_path), "node-1") == str(
            tmp_path / "flight-node-1.jsonl"
        )

    def test_discovery_covers_nodes_and_rotated_segments(self, tmp_path):
        for name in (
            "flight.jsonl",
            "flight.jsonl.1",
            "flight-node-0.jsonl",
            "flight-node-0.jsonl.2",
            "flight-node-1.jsonl",
            "queue.json",  # not a journal
            "flightless.txt",
        ):
            (tmp_path / name).write_text("")
        found = {os.path.basename(p) for p in discover_flight_journals(str(tmp_path))}
        assert found == {
            "flight.jsonl",
            "flight.jsonl.1",
            "flight-node-0.jsonl",
            "flight-node-0.jsonl.2",
            "flight-node-1.jsonl",
        }

    def test_discovery_of_missing_directory_is_empty(self, tmp_path):
        assert discover_flight_journals(str(tmp_path / "nope")) == []


class TestNodeStamping:
    def test_records_carry_node_and_monotonic_seq(self, tmp_path):
        recorder = FlightRecorder(
            flight_journal_path(str(tmp_path), "node-0"), node="node-0"
        )
        first = recorder.record("submitted", "job-1")
        second = recorder.record("claimed", "job-1")
        recorder.close()
        assert first["node"] == second["node"] == "node-0"
        assert second["seq"] == first["seq"] + 1

    def test_seq_continues_across_restart(self, tmp_path):
        path = flight_journal_path(str(tmp_path), "node-0")
        recorder = FlightRecorder(path, node="node-0")
        last = recorder.record("submitted", "job-1")["seq"]
        recorder.close()
        reopened = FlightRecorder(path, node="node-0")
        resumed = reopened.record("claimed", "job-1")["seq"]
        reopened.close()
        assert resumed == last + 1


class TestMerge:
    def _write_events(self, tmp_path, node, events):
        recorder = FlightRecorder(
            flight_journal_path(str(tmp_path), node), node=node
        )
        for event, job_id, ts in events:
            recorder.record(event, job_id, ts=ts)
        recorder.close()

    def test_chronological_interleave_across_nodes(self, tmp_path):
        self._write_events(
            tmp_path, "a", [("submitted", "job-1", 10.0), ("completed", "job-1", 30.0)]
        )
        self._write_events(tmp_path, "b", [("claimed", "job-1", 20.0)])
        merged = merge_flight_journals(discover_flight_journals(str(tmp_path)))
        assert [(r["event"], r["node"]) for r in merged] == [
            ("submitted", "a"),
            ("claimed", "b"),
            ("completed", "a"),
        ]

    def test_equal_timestamps_break_on_node_then_seq(self, tmp_path):
        self._write_events(
            tmp_path, "b", [("claimed", "job-1", 5.0), ("compute", "job-1", 5.0)]
        )
        self._write_events(tmp_path, "a", [("submitted", "job-1", 5.0)])
        merged = merge_flight_journals(discover_flight_journals(str(tmp_path)))
        assert [(r["node"], r["event"]) for r in merged] == [
            ("a", "submitted"),
            ("b", "claimed"),
            ("b", "compute"),
        ]

    def test_merge_is_deterministic_under_path_order(self, tmp_path):
        self._write_events(tmp_path, "a", [("submitted", "job-1", 1.0)])
        self._write_events(tmp_path, "b", [("submitted", "job-2", 1.0)])
        paths = discover_flight_journals(str(tmp_path))
        assert merge_flight_journals(paths) == merge_flight_journals(paths[::-1])

    def test_pre_fleet_records_merge_untagged(self, tmp_path):
        # A journal left by a pre-fleet server (``flight.jsonl``, no
        # node/seq) merges with node="".
        recorder = FlightRecorder(str(tmp_path / "flight.jsonl"))
        recorder.record("submitted", "job-1", ts=2.0)
        recorder.close()
        self._write_events(tmp_path, "a", [("claimed", "job-1", 2.0)])
        merged = merge_flight_journals(discover_flight_journals(str(tmp_path)))
        assert [r.get("node") for r in merged] == [None, "a"]

    def test_torn_lines_are_dropped_not_fatal(self, tmp_path):
        self._write_events(tmp_path, "a", [("submitted", "job-1", 1.0)])
        path = flight_journal_path(str(tmp_path), "a")
        with open(path, "ab") as handle:
            handle.write(b'{"event": "claimed", "job": "jo')  # SIGKILL mid-write
        merged = merge_flight_journals([path])
        assert [r["event"] for r in merged] == ["submitted"]

    def test_missing_journal_is_skipped(self, tmp_path):
        self._write_events(tmp_path, "a", [("submitted", "job-1", 1.0)])
        paths = [
            flight_journal_path(str(tmp_path), "a"),
            flight_journal_path(str(tmp_path), "ghost"),
        ]
        assert len(merge_flight_journals(paths)) == 1
