"""Tests for the batch-campaign runner."""

import json
import multiprocessing
import subprocess
import sys
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from repro.analysis import campaign
from repro.analysis.campaign import (
    CampaignSpec,
    append_journal_record,
    repair_journal,
    run_campaign,
    save_campaign,
    summarize_campaign,
)
from repro.fabric import CampaignCache, CellId
from repro.harness import ProtocolSpec, registry
from repro.replay import load_recipe
from repro.runtime import SyncProcess


def journal_lines(path):
    """The records of a JSONL journal, one per line (it is write-only:
    the campaign runner never reads it back)."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def interrupted_run(spec, cache, after, **kwargs):
    """Run *spec* into *cache*, interrupted once *after* cells finished;
    returns the records that finished before the interrupt."""
    seen = []

    def interrupt(record):
        seen.append(record)
        if len(seen) == after:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec, cache=cache, on_record=interrupt, **kwargs)
    return seen


def assert_resumes(spec, cache, missing, **kwargs):
    """Re-running *spec* against *cache* executes exactly *missing* cells
    and returns the records of an uninterrupted run."""
    computed = []
    resumed = run_campaign(
        spec, cache=cache, on_record=computed.append, **kwargs
    )
    assert len(computed) == missing
    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        run_campaign(spec), sort_keys=True
    )
    return resumed


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

    @pytest.mark.parametrize("axis", ["ns", "adversaries", "seeds"])
    def test_rejects_an_empty_axis(self, axis):
        with pytest.raises(ValueError, match=f"axis '{axis}' is empty"):
            small_spec(**{axis: ()})


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

    def test_resume_skips_done_cells(self, tmp_path):
        spec = small_spec(adversaries=["none"], seeds=[0, 1])
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(small_spec(adversaries=["none"], seeds=[0]), cache=cache)
        assert_resumes(spec, cache, missing=1)

    def test_resume_respects_options(self, tmp_path):
        """A record from a differently-parameterized sweep is not reused."""
        spec_x2 = small_spec(
            protocol="tradeoff", adversaries=["none"], seeds=[0],
            options={"x": 2},
        )
        spec_x3 = small_spec(
            protocol="tradeoff", adversaries=["none"], seeds=[0],
            options={"x": 3},
        )
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(spec_x2, cache=cache)
        assert_resumes(spec_x2, cache, missing=0)
        (record,) = assert_resumes(spec_x3, cache, missing=1)
        assert record["x"] == 3

    def test_legacy_records_without_options_match_empty_options(
        self, tmp_path
    ):
        spec = small_spec(adversaries=["none"], seeds=[0])
        legacy = dict(run_campaign(spec)[0])
        del legacy["options"]
        legacy["rounds"] = -1
        cell = CellId.from_record(legacy)
        assert cell == spec.cell_id(33, "none", 0)
        cache = CampaignCache(tmp_path / "cache")
        cache.put(cell, legacy)
        records = run_campaign(spec, cache=cache)
        assert records[0]["rounds"] == -1

    def test_record_identity_round_trips_through_json(self):
        spec = small_spec(
            protocol="tradeoff", adversaries=["none"], seeds=[0],
            options={"x": 2},
        )
        record = run_campaign(spec)[0]
        rehydrated = json.loads(json.dumps(record))
        assert CellId.from_record(rehydrated) == spec.cell_id(33, "none", 0)

    def test_numpy_ns_axis_runs_the_int_cell(self, tmp_path):
        """A numpy ``ns`` axis is stored as ints: its cell publishes to the
        cache as JSON and is the ``ns=(8,)`` cell."""
        spec = CampaignSpec("x", "ben-or", ns=np.array([8]), seeds=[1])
        (record,) = run_campaign(spec, cache=CampaignCache(tmp_path))
        assert type(record["n"]) is int
        json.dumps(record)
        plain = CampaignSpec("x", "ben-or", ns=(8,), seeds=[1])
        assert CellId.from_record(record).digest == plain.cell_id(8, "none", 1).digest


class OwnBit(SyncProcess):
    """Decides its own input bit: mixed inputs violate agreement."""

    def __init__(self, pid, n, bit):
        super().__init__(pid, n)
        self.bit = bit

    def program(self, env):
        env.decide(self.bit)
        return None
        yield  # pragma: no cover


class TestFailureRecipes:
    def test_campaigns_differing_only_in_options_keep_their_recipes(
        self, tmp_path, monkeypatch
    ):
        """A failing cell's recipe is named by its config's digest, so a
        campaign that differs only in options cannot overwrite it."""
        spec = ProtocolSpec(
            name="own-bit",
            summary="test-only planted agreement bug",
            build=lambda config: ([
                OwnBit(pid, config.n, bit)
                for pid, bit in enumerate(config.inputs)
            ], config.t),
            default_max_rounds=5,
        )
        monkeypatch.setitem(registry._REGISTRY, spec.name, spec)
        records = {
            k: run_campaign(
                small_spec(
                    name=f"campaign-{k}", protocol="own-bit", ns=[6],
                    adversaries=["none"], seeds=[0], options={"k": k},
                ),
                record_failures=tmp_path,
            )[0]
            for k in (1, 2)
        }
        assert {r["invariant"] for r in records.values()} == {"agreement"}
        assert records[1]["recipe"] != records[2]["recipe"]
        for k, record in records.items():
            recipe = load_recipe(record["recipe"])
            assert dict(recipe.config.options) == {"k": k}
            assert recipe.note.startswith(f"campaign campaign-{k}: n=6")


class TestParallel:
    def test_parallel_records_identical_to_serial(self):
        spec = small_spec()  # 4 cells
        serial = run_campaign(spec, jobs=1)
        fanned = run_campaign(spec, jobs=2)
        assert json.dumps(fanned, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_parallel_streams_journal_and_resumes(self, tmp_path):
        """A pooled sweep interrupted after its first cell resumes from the
        cache; the journal logs each computed cell once, as it finishes."""
        spec = small_spec()  # 4 cells
        cache = CampaignCache(tmp_path / "cache")
        path = tmp_path / "journal.jsonl"
        (first,) = interrupted_run(spec, cache, after=1, jobs=2, journal=path)
        assert journal_lines(path) == [first]
        resumed = assert_resumes(spec, cache, missing=3, jobs=2, journal=path)
        on_disk = journal_lines(path)
        assert sorted(CellId.from_record(r).digest for r in on_disk) == sorted(
            CellId.from_record(r).digest for r in resumed
        )
        assert_resumes(spec, cache, missing=0, jobs=2, journal=path)
        assert journal_lines(path) == on_disk  # hits are not re-appended

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_mixed_n_grid_matches_serial_each_cell_reported_once(self, jobs):
        spec = small_spec(ns=[33, 48, 40], seeds=[0])  # 6 cells
        serial = run_campaign(spec)
        computed = []
        fanned = run_campaign(spec, jobs=jobs, on_record=computed.append)
        assert fanned == serial
        assert sorted(CellId.from_record(r).digest for r in computed) == sorted(
            spec.cell_id(*coords).digest for coords in spec.grid()
        )

    def test_cells_are_submitted_largest_n_first(self, monkeypatch):
        """Heaviest-first into one shared queue is the whole schedule."""
        calls = []

        class InThreadPool:
            def __init__(self, max_workers, mp_context):
                calls.append(("workers", max_workers))

            def submit(self, fn, *args):
                calls.append(("submit", *args[1:4]))
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, **kwargs):
                calls.append(("shutdown", kwargs))

        monkeypatch.setattr(campaign, "ProcessPoolExecutor", InThreadPool)
        monkeypatch.setattr(campaign, "_run_cell", _stub_cell)
        spec = small_spec(ns=[33, 48, 40], seeds=[0])
        records = run_campaign(spec, jobs=8)
        assert calls == [
            ("workers", 6),  # min(jobs, cells to run)
            ("submit", 48, "none", 0),
            ("submit", 48, "silence", 0),
            ("submit", 40, "none", 0),
            ("submit", 40, "silence", 0),
            ("submit", 33, "none", 0),
            ("submit", 33, "silence", 0),
            ("shutdown", {"cancel_futures": True}),
        ]
        assert [(r["n"], r["adversary"]) for r in records] == [
            (n, adversary) for n, adversary, _ in spec.grid()
        ]

    def test_raising_cell_surfaces_its_own_exception(self, monkeypatch):
        monkeypatch.setattr(campaign, "_run_cell", _explode_on_silence)
        with pytest.raises(LookupError, match="boom on silence") as caught:
            run_campaign(small_spec(seeds=[0, 1, 2]), jobs=2)
        # The worker's traceback rides along as the cause.
        assert "_explode_on_silence" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_run_and_keeps_finished_cells(
        self, tmp_path, repro_env
    ):
        """A worker that dies without reporting (SIGKILL, OOM killer) must
        end the run with an error, not block it forever; what finished
        before the death is in the cache, so a re-run computes the rest."""
        cache = tmp_path / "cache"
        done = subprocess.run(
            [sys.executable, "-c", KILLED_WORKER_SCRIPT, str(cache)],
            capture_output=True, text=True, timeout=30, env=repro_env,
        )
        assert done.stdout.split() == ["BrokenProcessPool"], done.stderr
        spec = CampaignSpec(**KILLED_WORKER_SPEC)
        survivors = sum(
            CampaignCache(cache).get(spec.cell_id(*coords)) is not None
            for coords in spec.grid()
        )
        assert 1 <= survivors <= 3
        assert_resumes(spec, cache, missing=4 - survivors)


def _stub_cell(spec, n, adversary, seed, record_failures=None):
    return {"n": n, "adversary": adversary, "seed": seed}


def _explode_on_silence(spec, n, adversary, seed, record_failures=None):
    if adversary == "silence":
        raise LookupError(f"boom on {adversary} seed {seed}")
    return _stub_cell(spec, n, adversary, seed)


KILLED_WORKER_SPEC = dict(
    name="killed-worker", protocol="ben-or", ns=[5],
    adversaries=["none", "silence"], seeds=[0, 1],
)

#: Runs the grid above with ``jobs=2``; the worker that draws the
#: (silence, 0) cell waits until some other cell is published, then
#: SIGKILLs itself.  Prints the exception type ``run_campaign`` raised.
KILLED_WORKER_SCRIPT = f"""
import os, signal, sys, time
from pathlib import Path
from repro.analysis import campaign

cache = Path(sys.argv[1])
run_cell = campaign._run_cell

def dying_cell(spec, n, adversary, seed, record_failures=None):
    if (adversary, seed) == ("silence", 0):
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not list(
            cache.glob("objects/*/*.json")
        ):
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return run_cell(spec, n, adversary, seed, record_failures)

campaign._run_cell = dying_cell
spec = campaign.CampaignSpec(**{KILLED_WORKER_SPEC!r})
try:
    campaign.run_campaign(spec, jobs=2, cache=cache)
except Exception as exc:
    print(type(exc).__name__)
"""


class TestResume:
    def test_interrupted_campaign_resumes_from_cache(self, tmp_path):
        """Kill a serial campaign mid-grid; the cache completes the sweep."""
        spec = small_spec()  # 4 cells
        cache = CampaignCache(tmp_path / "cache")
        interrupted_run(spec, cache, after=2)
        survivors = sum(
            cache.get(spec.cell_id(*coords)) is not None
            for coords in spec.grid()
        )
        assert survivors == 2  # the finished cells survived the crash
        resumed = assert_resumes(spec, cache, missing=2)
        done = {CellId.from_record(rec) for rec in resumed}
        assert done == {spec.cell_id(*cell) for cell in spec.grid()}


class TestJournal:
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
        a multi-byte UTF-8 character.  Whatever the offset, the repaired
        journal holds exactly the records whose lines survived intact."""
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
            repair_journal(victim)
            loaded = journal_lines(victim)
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
        assert journal_lines(path) == self.RECORDS[:2]
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
        assert journal_lines(path) == self.RECORDS[:2] + [fresh]
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
        assert journal_lines(path) == self.RECORDS
        assert not path.with_name(path.name + ".quarantine").exists()

    def test_repair_on_clean_journal_is_a_no_op(self, tmp_path):
        path = self.full_journal(tmp_path)
        before = path.read_bytes()
        assert repair_journal(path) == b""
        assert path.read_bytes() == before

    def test_resume_after_torn_append(self, tmp_path):
        """End-to-end: a campaign killed mid-append tears its journal's
        last record; it still resumes from the cache, re-running only the
        cell that never finished, and its next append repairs the tail."""
        spec = small_spec()  # 4 cells
        cache = CampaignCache(tmp_path / "cache")
        path = tmp_path / "journal.jsonl"
        finished = interrupted_run(spec, cache, after=3, journal=path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # sever the final record
        assert_resumes(spec, cache, missing=1, journal=path)
        on_disk = journal_lines(path)
        assert on_disk[:2] == finished[:2]
        assert len(on_disk) == 3  # the torn line went to the quarantine
        assert path.with_name(path.name + ".quarantine").exists()


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
        assert json.loads(path.read_text(encoding="utf-8")) == records


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
