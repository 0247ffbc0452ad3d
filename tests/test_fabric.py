"""Tests for repro.fabric (cell identity, the content-addressed cache) and
for how ``run_campaign`` / ``resolve`` use the cache."""

import json
import multiprocessing

import pytest

from repro.analysis.campaign import (
    CampaignSpec,
    load_journal,
    resolve,
    run_campaign,
    summarize_campaign,
)
from repro.fabric import CampaignCache, CellId, canonical_json, open_cache
from repro.harness import capability_fingerprint


def make_cell(**overrides):
    base = dict(
        protocol="algorithm1", n=33, t=8, adversary="none", seed=0
    )
    base.update(overrides)
    return CellId.make(**base)


def small_spec(**overrides):
    base = dict(
        name="fabric-test",
        protocol="algorithm1",
        ns=[33],
        adversaries=["none", "silence"],
        seeds=[0],
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ---------------------------------------------------------------------------
# CellId
class TestCellId:
    def test_digest_is_stable(self):
        assert make_cell().digest == make_cell().digest

    @pytest.mark.parametrize(
        "change",
        [
            {"protocol": "phase-king"},
            {"n": 65},
            {"t": 9},
            {"t": None},
            {"adversary": "silence"},
            {"seed": 1},
            {"options": {"x": 3}},
            {"transport": "inprocess"},
            {"transport": "tcp", "transport_options": {"processes_per_worker": 4}},
            {"engine": "cells-v1+schema-v1"},
        ],
    )
    def test_every_identity_component_changes_the_digest(self, change):
        assert make_cell(**change).digest != make_cell().digest

    def test_option_order_is_canonicalized(self):
        a = make_cell(options={"b": 1, "a": 2})
        b = make_cell(options={"a": 2, "b": 1})
        assert a == b and a.digest == b.digest

    def test_none_options_mean_empty(self):
        assert make_cell(options=None) == make_cell(options={})
        assert canonical_json(None) == "{}"

    def test_engine_defaults_to_current_fingerprint(self):
        assert make_cell().engine == capability_fingerprint()

    def test_from_record_tolerates_legacy_shapes(self):
        legacy = {
            "protocol": "algorithm1",
            "n": 33,
            "t": 8,
            "adversary": "none",
            "seed": 0,
        }
        cell = CellId.from_record(legacy)
        assert cell == make_cell()

    def test_from_record_rejects_non_cell_records(self):
        assert CellId.from_record({"note": "hello"}) is None
        assert CellId.from_record({}) is None

    def test_from_record_refuses_a_non_lockstep_round_model(self):
        """A journal line written by a sweep pinned to the removed
        partial-synchrony model is never served: resume re-runs the cell.
        One pinned to lockstep is the lockstep cell it always was."""
        legacy = {
            "protocol": "algorithm1", "n": 33, "t": 8, "adversary": "none",
            "seed": 0,
        }
        assert CellId.from_record(
            dict(legacy, model="partial-synchrony", model_options={"gst": 2})
        ) is None
        assert CellId.from_record(dict(legacy, model="lockstep")) == make_cell()

    def test_payload_round_trips(self):
        cell = make_cell(options={"x": 4}, transport="inprocess")
        assert CellId.from_payload(cell.payload()) == cell

    def test_str_names_the_cell(self):
        cell = make_cell()
        assert str(cell) == f"algorithm1:n33:none:s0:{cell.short}"


# ---------------------------------------------------------------------------
# CampaignCache
class TestCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        record = {"rounds": 5, "decision": 1}
        path = cache.put(cell, record)
        assert cache.get(cell) == record
        assert path == cache.entry_path(cell)
        assert list((tmp_path / "cache").rglob("*.json")) == [path]

    def test_miss_then_hit_accounting(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        assert cache.get(cell) is None
        cache.put(cell, {"rounds": 1})
        cache.get(cell)
        stats = cache.stats.as_dict()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["puts"] == 1
        assert stats["hit_rate"] == 0.5

    def test_entry_path_has_no_side_effects(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        path = cache.entry_path(make_cell())
        assert path.name == f"{make_cell().digest}.json"
        assert not (tmp_path / "cache").exists()
        assert cache.stats.hits == cache.stats.misses == 0

    def test_corrupted_entry_is_quarantined_and_recomputable(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        path = cache.put(cell, {"rounds": 5})
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(cell) is None
        assert cache.stats.invalid == 1
        assert path.with_name(path.name + ".quarantine").exists()
        # The recompute path publishes cleanly over the hole.
        cache.put(cell, {"rounds": 5})
        assert cache.get(cell) == {"rounds": 5}

    def test_truncated_entry_detected(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        path = cache.put(cell, {"rounds": 5, "decision": 1})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(cell) is None
        assert path.with_name(path.name + ".quarantine").exists()

    def test_wrong_identity_entry_detected(self, tmp_path):
        """An entry whose stored identity does not re-digest to its
        filename (bitrot, a bad copy) must read as a miss, not as the
        other cell's answer."""
        cache = CampaignCache(tmp_path / "cache")
        victim, other = make_cell(), make_cell(seed=99)
        source = cache.put(other, {"rounds": 9})
        target = cache.entry_path(victim)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert cache.get(victim) is None
        assert target.with_name(target.name + ".quarantine").exists()

    def test_failure_recipe_rides_along(self, tmp_path):
        """A failing cell's record names its saved recipe file; the entry
        is the identity and the record, with no second copy of the
        recipe."""
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        record = {"failed": True, "recipe": "counterexamples/cell.json"}
        path = cache.put(cell, record)
        assert cache.get(cell) == record
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(entry) == ["cell", "digest", "kind", "record", "schema"]
        with pytest.raises(TypeError):
            cache.put(cell, record, recipe={"schema": 2})  # type: ignore[call-arg]

    def test_each_cell_is_served_from_its_own_entry(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cells = [make_cell(seed=s) for s in range(3)]
        for index, cell in enumerate(cells):
            cache.put(cell, {"rounds": index})
        for index, cell in enumerate(cells):
            entry = json.loads(cache.entry_path(cell).read_text())
            assert entry["digest"] == cell.digest
            assert cache.get(cell) == {"rounds": index}

    def test_concurrent_writers_race_atomically(self, tmp_path):
        """Racing writers on one cell each publish a complete entry; the
        survivor verifies and no temp files are left behind."""
        root = tmp_path / "cache"
        cell = make_cell()
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        procs = [
            context.Process(target=_racing_put, args=(root, seed))
            for seed in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        reader = CampaignCache(root)
        record = reader.get(cell)
        assert record == {"rounds": 7, "decision": 1}
        assert list((root / "objects").rglob(".tmp-*")) == []

    def test_open_cache_accepts_paths_and_instances(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        assert open_cache(cache) is cache
        opened = open_cache(tmp_path / "cache")
        assert isinstance(opened, CampaignCache)
        assert opened.root == cache.root
        assert open_cache(None) is None  # "no cache" passes through


def _racing_put(root, seed):
    cache = CampaignCache(root)
    cell = CellId.make(
        protocol="algorithm1", n=33, t=8, adversary="none", seed=0
    )
    for _ in range(20):
        cache.put(cell, {"rounds": 7, "decision": 1})


# ---------------------------------------------------------------------------
# run_campaign × cache
class TestCampaignCache:
    def run_twice(self, spec, tmp_path, **kwargs):
        cache = CampaignCache(tmp_path / "cache")
        cold_computed = []
        cold = run_campaign(
            spec, cache=cache, on_record=cold_computed.append, **kwargs
        )
        warm_cache = CampaignCache(tmp_path / "cache")
        warm_computed = []
        warm = run_campaign(
            spec, cache=warm_cache, on_record=warm_computed.append, **kwargs
        )
        return cold, cold_computed, warm, warm_computed, warm_cache

    def test_warm_run_serves_every_cell_from_cache(self, tmp_path):
        spec = small_spec()
        cold, cold_computed, warm, warm_computed, warm_cache = (
            self.run_twice(spec, tmp_path)
        )
        assert len(cold_computed) == 2
        assert warm_computed == []
        assert warm_cache.stats.hits == 2
        assert warm_cache.stats.misses == 0
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )

    def test_cold_and_warm_summaries_byte_identical(self, tmp_path):
        spec = small_spec(seeds=[0, 1])
        cold, _, warm, warm_computed, _ = self.run_twice(spec, tmp_path)
        assert warm_computed == []
        assert json.dumps(
            summarize_campaign(cold), sort_keys=True
        ) == json.dumps(summarize_campaign(warm), sort_keys=True)

    def test_object_engine_cells_serve_columnar_run(
        self, tmp_path, monkeypatch
    ):
        """Cells computed with every batch on the reference object loop
        (``tests/delivery_oracle.py``) are served, byte for byte, to a
        default (columnar) run: the cell identity names no delivery path."""
        from .delivery_oracle import pin_object_loop

        spec = small_spec()
        cache = CampaignCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            pin_object_loop(patch)
            cold = run_campaign(spec, cache=cache)
        warm_computed = []
        warm = run_campaign(
            spec, cache=cache, on_record=warm_computed.append
        )
        assert warm_computed == []
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )

    def test_differing_options_are_distinct_cells(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        base = dict(
            name="fabric-test", protocol="tradeoff", ns=[33],
            adversaries=["none"], seeds=[0],
        )
        run_campaign(CampaignSpec(options={"x": 2}, **base), cache=cache)
        computed = []
        run_campaign(
            CampaignSpec(options={"x": 3}, **base),
            cache=cache, on_record=computed.append,
        )
        assert len(computed) == 1  # different x → different cell → miss

    def test_cache_hits_are_not_rejournaled(self, tmp_path):
        spec = small_spec()
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(spec, cache=cache)
        journal = tmp_path / "journal.jsonl"
        run_campaign(spec, cache=cache, journal=journal)
        assert not journal.exists()

    def test_parallel_cached_run_identical_to_serial(self, tmp_path):
        spec = small_spec(seeds=[0, 1])  # 4 cells
        serial = run_campaign(spec)
        cache = CampaignCache(tmp_path / "cache")
        fanned = run_campaign(spec, jobs=2, cache=cache)
        assert json.dumps(fanned, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert cache.stats.puts == 4
        warm = run_campaign(spec, jobs=2, cache=cache)
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_cache_hit_carries_the_asking_campaigns_name(self, tmp_path):
        """The cache is shared across campaigns: a hit is stamped with the
        name of the campaign that asked, in its records and in the file
        ``save_campaign`` writes, and the stored entry is not rewritten."""
        from repro.analysis.campaign import save_campaign

        cache = CampaignCache(tmp_path / "cache")
        grid = dict(protocol="ben-or", ns=(8,), seeds=(1,))
        (alpha,) = run_campaign(CampaignSpec("alpha", **grid), cache=cache)
        computed = []
        (beta,) = run_campaign(
            CampaignSpec("beta", **grid), cache=cache,
            on_record=computed.append,
        )
        assert computed == []  # served from the cache
        assert (alpha["campaign"], beta["campaign"]) == ("alpha", "beta")
        assert {**beta, "campaign": "alpha"} == alpha
        save_campaign([beta], tmp_path / "beta.json")
        (saved,) = json.loads((tmp_path / "beta.json").read_text())
        assert saved["campaign"] == "beta"
        (again,) = run_campaign(CampaignSpec("alpha", **grid), cache=cache)
        assert again == alpha

    def test_cache_accepts_a_path(self, tmp_path):
        spec = small_spec(adversaries=["none"])
        run_campaign(spec, cache=tmp_path / "cache")
        computed = []
        run_campaign(
            spec, cache=str(tmp_path / "cache"), on_record=computed.append
        )
        assert computed == []


# ---------------------------------------------------------------------------
# resolve: the read-only grid walk
class TestResolve:
    def test_reports_cache_hits_and_pending_cells(self, tmp_path):
        spec = small_spec(seeds=[0, 1])  # 4 cells
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(small_spec(seeds=[0]), cache=cache)  # fill half
        results, pending = resolve(spec, cache=tmp_path / "cache")
        assert sorted(results) == [(33, "none", 0), (33, "silence", 0)]
        assert {source for source, _ in results.values()} == {"cache"}
        assert pending == [
            (coords, spec.cell_id(*coords))
            for coords in [(33, "none", 1), (33, "silence", 1)]
        ]

    def test_full_cache_serves_grid_order(self, tmp_path):
        spec = small_spec(seeds=[0, 1])
        expected = run_campaign(spec, cache=tmp_path / "cache")
        results, pending = resolve(spec, cache=tmp_path / "cache")
        assert pending == []
        assert list(results) == list(spec.grid())
        assert json.dumps(
            [record for _, record in results.values()], sort_keys=True
        ) == json.dumps(expected, sort_keys=True)

    def test_journal_answers_before_cache(self, tmp_path):
        spec = small_spec()
        journal = tmp_path / "journal.jsonl"
        run_campaign(
            small_spec(adversaries=["none"]),
            cache=tmp_path / "cache", journal=journal,
        )
        cache = CampaignCache(tmp_path / "cache")
        results, pending = resolve(spec, cache=cache, resume=journal)
        journaled = load_journal(journal)[0]
        assert results[(33, "none", 0)] == ("journal", journaled)
        assert [coords for coords, _ in pending] == [(33, "silence", 0)]
        assert cache.stats.hits == 0  # the journaled cell was never probed

    def test_resume_is_a_journal_path(self, tmp_path):
        spec = small_spec()
        records = run_campaign(small_spec(adversaries=["none"]))
        with pytest.raises(TypeError, match="'list'"):
            resolve(spec, resume=records)
        with pytest.raises(TypeError, match="'list'"):
            run_campaign(spec, resume=records)

    def test_without_cache_or_journal_everything_is_pending(self, tmp_path):
        spec = small_spec()
        results, pending = resolve(spec, resume=tmp_path / "absent.jsonl")
        assert results == {}
        assert [coords for coords, _ in pending] == list(spec.grid())
        assert list(tmp_path.iterdir()) == []  # read-only: nothing created
