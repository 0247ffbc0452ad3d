"""Tests for the batch-campaign runner."""

import json
import warnings

import pytest

from repro.analysis.campaign import (
    CampaignSpec,
    append_journal_record,
    load_campaign,
    load_journal,
    repair_journal,
    run_campaign,
    save_campaign,
    summarize_campaign,
)
from repro.fabric import CellId


def small_spec(**overrides):
    base = dict(
        name="test-campaign",
        protocol="algorithm1",
        ns=[33],
        adversaries=["none", "silence"],
        seeds=[0, 1],
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpec:
    def test_grid_enumerates_all_cells(self):
        spec = small_spec()
        assert len(list(spec.grid())) == 4

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            small_spec(protocol="paxos")

    def test_rejects_unknown_adversary(self):
        with pytest.raises(ValueError):
            small_spec(adversaries=["byzantine"])


class TestRun:
    def test_records_have_expected_fields(self):
        records = run_campaign(small_spec(seeds=[0]))
        assert len(records) == 2
        for record in records:
            assert record["decision"] in (0, 1)
            assert record["rounds"] > 0
            assert record["bits"] > 0
            assert record["protocol"] == "algorithm1"

    def test_early_stopping_records_exit_epochs(self):
        records = run_campaign(
            small_spec(protocol="early-stopping", adversaries=["none"],
                       seeds=[0])
        )
        assert "exit_epochs" in records[0]

    def test_tradeoff_records_x(self):
        records = run_campaign(
            small_spec(protocol="tradeoff", adversaries=["none"], seeds=[0],
                       options={"x": 3})
        )
        assert records[0]["x"] == 3

    def test_resume_skips_done_cells(self):
        spec = small_spec(adversaries=["none"], seeds=[0, 1])
        first = run_campaign(spec)
        marker = dict(first[0])
        marker["rounds"] = -1  # sentinel proving reuse
        resumed = run_campaign(spec, resume=[marker, first[1]])
        assert resumed[0]["rounds"] == -1
        assert resumed[1] == first[1]

    def test_resume_ignores_other_campaigns(self):
        spec = small_spec(adversaries=["none"], seeds=[0])
        foreign = dict(run_campaign(spec)[0])
        foreign["campaign"] = "someone-else"
        foreign["rounds"] = -1
        records = run_campaign(spec, resume=[foreign])
        assert records[0]["rounds"] > 0

    def test_resume_respects_options(self):
        """A record from a differently-parameterized sweep is not reused."""
        spec_x2 = small_spec(
            protocol="tradeoff", adversaries=["none"], seeds=[0],
            options={"x": 2},
        )
        spec_x3 = small_spec(
            protocol="tradeoff", adversaries=["none"], seeds=[0],
            options={"x": 3},
        )
        stale = dict(run_campaign(spec_x2)[0])
        stale["rounds"] = -1  # sentinel proving reuse
        same_options = run_campaign(spec_x2, resume=[stale])
        assert same_options[0]["rounds"] == -1
        other_options = run_campaign(spec_x3, resume=[stale])
        assert other_options[0]["rounds"] > 0
        assert other_options[0]["x"] == 3

    def test_legacy_records_without_options_match_empty_options(self):
        spec = small_spec(adversaries=["none"], seeds=[0])
        legacy = dict(run_campaign(spec)[0])
        del legacy["options"]
        legacy["rounds"] = -1
        records = run_campaign(spec, resume=[legacy])
        assert records[0]["rounds"] == -1

    def test_record_identity_round_trips_through_json(self):
        spec = small_spec(
            protocol="tradeoff", adversaries=["none"], seeds=[0],
            options={"x": 2},
        )
        record = run_campaign(spec)[0]
        rehydrated = json.loads(json.dumps(record))
        assert CellId.from_record(rehydrated) == spec.cell_id(33, "none", 0)


class TestParallel:
    def test_parallel_records_identical_to_serial(self):
        spec = small_spec()  # 4 cells
        serial = run_campaign(spec, jobs=1)
        fanned = run_campaign(spec, jobs=2)
        assert json.dumps(fanned, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_parallel_streams_journal_and_resumes(self, tmp_path):
        spec = small_spec(adversaries=["none"], seeds=[0, 1])
        path = tmp_path / "journal.jsonl"
        records = run_campaign(spec, jobs=2, journal=path)
        on_disk = load_journal(path)
        assert len(on_disk) == 2
        assert sorted(map(CellId.from_record, on_disk)) == sorted(
            map(CellId.from_record, records)
        )
        # A re-run resumes entirely from the journal: nothing recomputed,
        # nothing re-appended.
        recomputed = []
        resumed = run_campaign(
            spec, resume=on_disk, jobs=2, journal=path,
            on_record=recomputed.append,
        )
        assert recomputed == []
        assert len(load_journal(path)) == 2
        assert resumed == records


class TestJournal:
    def test_interrupted_campaign_resumes_from_journal(self, tmp_path):
        """Kill a campaign mid-grid; the journal completes the sweep."""
        spec = small_spec()  # 4 cells
        path = tmp_path / "journal.jsonl"
        seen = []

        def interrupt(record):
            seen.append(record)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, journal=path, on_record=interrupt)
        on_disk = load_journal(path)
        assert len(on_disk) == 2  # the finished cells survived the crash

        finished = []
        resumed = run_campaign(
            spec, resume=on_disk, journal=path,
            on_record=finished.append,
        )
        assert len(finished) == 2  # only the missing cells ran
        assert len(resumed) == 4
        assert len(load_journal(path)) == 4
        done = {CellId.from_record(rec) for rec in resumed}
        assert done == {spec.cell_id(*cell) for cell in spec.grid()}

    def test_load_journal_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_journal_record(path, {"campaign": "c", "seed": 0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"campaign": "c", "se')  # crash mid-append
        assert load_journal(path) == [{"campaign": "c", "seed": 0}]

    RECORDS = [
        {"campaign": "c", "seed": 0},
        {"campaign": "αβγ", "seed": 1},  # multi-byte UTF-8 in the middle
        {"campaign": "c", "seed": 2},
    ]

    def full_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for record in self.RECORDS:
            append_journal_record(path, record)
        return path

    def test_load_survives_truncation_at_every_byte_offset(self, tmp_path):
        """A crash can cut the final ``write`` anywhere — including inside
        a multi-byte UTF-8 character.  Whatever the offset, ``load_journal``
        must return exactly the records whose lines survived intact."""
        source = self.full_journal(tmp_path)
        data = source.read_bytes()
        boundaries = [0]
        for index, byte in enumerate(data):
            if byte == ord("\n"):
                boundaries.append(index + 1)
        victim = tmp_path / "truncated.jsonl"
        for offset in range(len(data) + 1):
            victim.write_bytes(data[:offset])
            intact = sum(1 for b in boundaries if b <= offset) - 1
            loaded = load_journal(victim)
            # Always a clean prefix: the terminated lines, plus the tail
            # line iff the cut landed exactly at the end of its JSON.
            assert loaded == self.RECORDS[: len(loaded)], (
                f"truncation at byte {offset}"
            )
            assert intact <= len(loaded) <= intact + 1, (
                f"truncation at byte {offset}"
            )

    def test_repair_quarantines_corrupt_tail(self, tmp_path):
        path = self.full_journal(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])  # cut inside the final record
        tail = repair_journal(path)
        assert tail  # the severed bytes are reported back
        # The journal itself is clean again...
        assert path.read_bytes() == data[: data.rfind(b"\n", 0, -1) + 1]
        assert load_journal(path) == self.RECORDS[:2]
        # ...and no bytes were destroyed: the tail sits in the sidecar.
        quarantine = path.with_name(path.name + ".quarantine")
        assert quarantine.read_bytes() == tail + b"\n"

    def test_append_after_crash_does_not_merge_records(self, tmp_path):
        path = self.full_journal(tmp_path)
        path.write_bytes(path.read_bytes()[:-9])
        fresh = {"campaign": "c", "seed": 3}
        append_journal_record(path, fresh)
        # The torn tail was quarantined first, so the new record landed on
        # its own line instead of gluing onto the partial one.
        assert load_journal(path) == self.RECORDS[:2] + [fresh]
        assert path.with_name(path.name + ".quarantine").exists()

    def test_repair_restores_missing_newline_on_intact_tail(self, tmp_path):
        """A crash *between* the record write and its newline leaves a
        valid JSON line with no terminator: repair must restore the
        newline, not quarantine a perfectly good record."""
        path = self.full_journal(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])  # strip only the final newline
        assert repair_journal(path) == b""
        assert path.read_bytes() == data
        assert load_journal(path) == self.RECORDS
        assert not path.with_name(path.name + ".quarantine").exists()

    def test_repair_on_clean_journal_is_a_no_op(self, tmp_path):
        path = self.full_journal(tmp_path)
        before = path.read_bytes()
        assert repair_journal(path) == b""
        assert path.read_bytes() == before

    def test_load_journal_dedupes_rerun_cells_latest_write_wins(
        self, tmp_path
    ):
        """A cell appended twice (e.g. a sweep re-run after a partial
        resume) must surface once: the *last* record appended, at the
        position of the first."""
        spec = small_spec(adversaries=["none"], seeds=[0, 1])
        path = tmp_path / "journal.jsonl"
        first, second = run_campaign(spec, journal=path)
        stale = dict(first)
        stale["rounds"] = -1  # the superseded earlier write
        rerun = dict(first)
        rerun["rounds"] = 99  # the authoritative re-run
        path.write_text("", encoding="utf-8")
        for record in (stale, second, rerun):
            append_journal_record(path, record)
        loaded = load_journal(path)
        assert loaded == [rerun, second]  # deduped, first-seen position
        assert len(load_journal(path, dedupe=False)) == 3

    def test_load_journal_dedupe_keeps_non_cell_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        note = {"note": "sweep started"}
        cell = {"campaign": "c", "protocol": "algorithm1", "n": 33,
                "t": 8, "adversary": "none", "seed": 0}
        for record in (note, cell, note, cell):
            append_journal_record(path, record)
        assert load_journal(path) == [note, cell, note]

    def test_resume_after_torn_append(self, tmp_path):
        """End-to-end: a campaign whose journal was torn mid-record still
        resumes, re-running only the severed cell."""
        spec = small_spec()  # 4 cells
        path = tmp_path / "journal.jsonl"
        run_campaign(spec, journal=path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # sever the final record
        on_disk = load_journal(path)
        assert len(on_disk) == 3
        finished = []
        resumed = run_campaign(
            spec, resume=on_disk, journal=path,
            on_record=finished.append,
        )
        assert len(finished) == 1
        assert len(resumed) == 4
        assert len(load_journal(path)) == 4


class TestRemovedGridKwargs:
    """The PR-9 one-cycle loose-keyword adapter is gone: spec required."""

    def test_loose_keywords_rejected(self):
        with pytest.raises(TypeError):
            run_campaign(
                name="test-campaign", protocol="algorithm1", ns=[33],
                adversaries=["none"], seeds=[0],
            )

    def test_positional_name_rejected(self):
        with pytest.raises(TypeError, match="CampaignSpec"):
            run_campaign("test-campaign")

    def test_no_spec_at_all_rejected(self):
        with pytest.raises(TypeError):
            run_campaign()

    def test_cell_key_alias_is_gone(self):
        spec = small_spec(adversaries=["none"], seeds=[0])
        assert not hasattr(spec, "cell_key")

    def test_spec_path_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_campaign(small_spec(adversaries=["none"], seeds=[0]))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        records = run_campaign(small_spec(adversaries=["none"], seeds=[0]))
        path = tmp_path / "campaign.json"
        save_campaign(records, path)
        assert load_campaign(path) == records


class TestSummary:
    def test_aggregates_per_cell(self):
        records = run_campaign(small_spec())
        summary = summarize_campaign(records)
        assert len(summary) == 2  # two adversaries, one n
        for row in summary:
            assert row["runs"] == 2
            assert row["mean_rounds"] > 0
            assert 0.0 <= row["fallback_rate"] <= 1.0
            assert set(row["decisions"]) <= {0, 1}
