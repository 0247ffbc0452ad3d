"""Tests for repro.fabric: cell identity, the content-addressed cache,
work-stealing dispatch, the directory transport, and the query layer."""

import json
import multiprocessing
import os

import pytest

from repro.analysis.campaign import (
    CampaignSpec,
    run_campaign,
    summarize_campaign,
)
from repro.fabric import (
    CampaignCache,
    CellId,
    CellTask,
    DirectoryClaims,
    FabricDispatcher,
    StealScheduler,
    await_cells,
    canonical_json,
    estimated_cost,
    open_cache,
    query,
)
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
            {"model": "lockstep"},
            {"model": "partial-synchrony", "model_options": {"gst": 2}},
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

    def test_payload_round_trips(self):
        cell = make_cell(options={"x": 4}, model="lockstep")
        assert CellId.from_payload(cell.payload()) == cell

    def test_sorting_mixed_model_axis(self):
        cells = [make_cell(model="lockstep"), make_cell(), make_cell(seed=1)]
        ordered = sorted(cells)
        assert [c.digest for c in ordered] == sorted(c.digest for c in cells)

    def test_str_names_the_cell(self):
        text = str(make_cell(model="lockstep"))
        assert text.startswith("algorithm1:n33:none:s0:lockstep:")


# ---------------------------------------------------------------------------
# CampaignCache
class TestCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        record = {"rounds": 5, "decision": 1}
        cache.put(cell, record)
        assert cache.get(cell) == record
        assert cache.contains(cell)
        assert len(cache) == 1

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

    def test_contains_has_no_stats_side_effects(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        assert not cache.contains(make_cell())
        assert cache.stats.misses == 0

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
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        cache.put(cell, {"failed": True}, recipe={"schema": 2, "seed": 0})
        assert cache.get_recipe(cell) == {"schema": 2, "seed": 0}
        assert cache.get_recipe(make_cell(seed=1)) is None

    def test_scan_yields_verified_entries(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cells = [make_cell(seed=s) for s in range(3)]
        for index, cell in enumerate(cells):
            cache.put(cell, {"rounds": index})
        entries = list(cache.scan())
        assert len(entries) == 3
        assert {e["digest"] for e in entries} == {c.digest for c in cells}

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


def _racing_put(root, seed):
    cache = CampaignCache(root)
    cell = CellId.make(
        protocol="algorithm1", n=33, t=8, adversary="none", seed=0
    )
    for _ in range(20):
        cache.put(cell, {"rounds": 7, "decision": 1})


# ---------------------------------------------------------------------------
# StealScheduler
class TestStealScheduler:
    def tasks(self, costs):
        return [
            CellTask(index=i, payload=f"task-{i}", cost=cost)
            for i, cost in enumerate(costs)
        ]

    def drain(self, scheduler, worker):
        out = []
        while (task := scheduler.next_for(worker)) is not None:
            out.append(task)
        return out

    def test_single_worker_drains_everything_once(self):
        tasks = self.tasks([1, 2, 3, 4])
        scheduler = StealScheduler(tasks, workers=1)
        drained = self.drain(scheduler, 0)
        assert sorted(t.index for t in drained) == [0, 1, 2, 3]
        assert scheduler.steals == 0
        assert scheduler.remaining() == 0

    def test_lpt_balances_load(self):
        scheduler = StealScheduler(self.tasks([8, 1, 1, 1, 1, 4]), workers=2)
        assert sorted(scheduler.loads) == [8.0, 8.0]

    def test_idle_worker_steals_cheapest_from_most_loaded(self):
        # Worker 0 gets the heavy task, worker 1 the three light ones.
        scheduler = StealScheduler(self.tasks([10, 2, 2, 2]), workers=2)
        own = scheduler.next_for(0)
        assert own.cost == 10
        # Worker 0 is now empty; its next call steals from worker 1's
        # tail — the cheapest end of the victim's shard.
        stolen = scheduler.next_for(0)
        assert stolen is not None and stolen.cost == 2
        assert scheduler.steals == 1

    def test_every_task_scheduled_exactly_once_with_stealing(self):
        tasks = self.tasks([5, 4, 3, 2, 1, 1, 1])
        scheduler = StealScheduler(tasks, workers=3)
        seen = []
        # Round-robin the workers so all of them go idle and steal.
        worker = 0
        while scheduler.remaining():
            task = scheduler.next_for(worker % 3)
            if task is not None:
                seen.append(task.index)
            worker += 1
        assert sorted(seen) == list(range(7))

    def test_schedule_is_deterministic(self):
        costs = [3, 1, 4, 1, 5, 9, 2, 6]
        a = StealScheduler(self.tasks(costs), workers=3)
        b = StealScheduler(self.tasks(costs), workers=3)
        assert [list(s) for s in a.shards] == [list(s) for s in b.shards]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            StealScheduler([], workers=0)

    def test_estimated_cost_grows_quadratically(self):
        assert estimated_cost(10) == 100.0
        assert estimated_cost(20) == 4 * estimated_cost(10)


# ---------------------------------------------------------------------------
# FabricDispatcher
def _square(payload):
    return payload * payload


def _explode(payload):
    raise ValueError(f"boom on {payload}")


class TestDispatcher:
    def test_runs_every_task_once(self):
        tasks = [
            CellTask(index=i, payload=i, cost=float(i + 1)) for i in range(7)
        ]
        results = {}
        FabricDispatcher(jobs=3).run(
            tasks, _square, lambda task, result: results.update(
                {task.index: result}
            )
        )
        assert results == {i: i * i for i in range(7)}

    def test_worker_failure_surfaces_as_runtime_error(self):
        tasks = [CellTask(index=0, payload="x")]
        with pytest.raises(RuntimeError, match="boom on x"):
            FabricDispatcher(jobs=1).run(tasks, _explode, lambda t, r: None)

    def test_empty_task_list_is_a_no_op(self):
        FabricDispatcher(jobs=2).run([], _square, lambda t, r: None)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            FabricDispatcher(jobs=0)


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

    @pytest.mark.parametrize(
        "model_kwargs",
        [
            {"model": "lockstep"},
            {"model": "partial-synchrony", "model_options": {"gst": 2}},
        ],
    )
    def test_cache_round_trip_on_both_round_models(
        self, tmp_path, model_kwargs
    ):
        spec = small_spec(adversaries=["none"], **model_kwargs)
        cold, cold_computed, warm, warm_computed, _ = self.run_twice(
            spec, tmp_path
        )
        assert len(cold_computed) == 1 and warm_computed == []
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )

    def test_object_engine_cells_serve_columnar_run(
        self, tmp_path, monkeypatch
    ):
        """The engine fingerprint spans the certified-identical delivery
        paths: cells computed with every batch on the object loop (what a
        numpy-less host does) are served, byte for byte, to a default
        (columnar-where-it-pays) run."""
        import math

        from repro.runtime import delivery

        spec = small_spec()
        cache = CampaignCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(delivery, "_COLUMNAR_MIN_FANOUT", math.inf)
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

    def test_cache_accepts_a_path(self, tmp_path):
        spec = small_spec(adversaries=["none"])
        run_campaign(spec, cache=tmp_path / "cache")
        computed = []
        run_campaign(
            spec, cache=str(tmp_path / "cache"), on_record=computed.append
        )
        assert computed == []


# ---------------------------------------------------------------------------
# DirectoryClaims + await_cells
class TestClaims:
    def test_exactly_one_claimant_wins(self, tmp_path):
        cell = make_cell()
        a = DirectoryClaims(tmp_path / "claims", owner="host-a")
        b = DirectoryClaims(tmp_path / "claims", owner="host-b")
        assert a.claim(cell)
        assert not b.claim(cell)
        assert a.owner_of(cell) == "host-a"
        assert b.is_claimed(cell)

    def test_release_frees_the_cell(self, tmp_path):
        cell = make_cell()
        a = DirectoryClaims(tmp_path / "claims", owner="host-a")
        a.claim(cell)
        a.release(cell)
        assert not a.is_claimed(cell)
        b = DirectoryClaims(tmp_path / "claims", owner="host-b")
        assert b.claim(cell)

    def backdate(self, claims, cell, seconds=120):
        path = claims._path(cell)
        stat = path.stat()
        os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))

    def test_stale_lease_is_reclaimable(self, tmp_path):
        cell = make_cell()
        dead = DirectoryClaims(
            tmp_path / "claims", owner="dead-host", lease_seconds=60
        )
        dead.claim(cell)
        live = DirectoryClaims(
            tmp_path / "claims", owner="live-host", lease_seconds=60
        )
        assert not live.is_stale(cell)
        self.backdate(dead, cell)
        assert live.is_stale(cell)
        assert live.reclaim(cell)
        assert live.owner_of(cell) == "live-host"

    def test_reclaim_refuses_a_fresh_lease(self, tmp_path):
        cell = make_cell()
        a = DirectoryClaims(tmp_path / "claims", owner="host-a")
        a.claim(cell)
        b = DirectoryClaims(tmp_path / "claims", owner="host-b")
        assert not b.reclaim(cell)
        assert a.owner_of(cell) == "host-a"

    def test_release_all(self, tmp_path):
        claims = DirectoryClaims(tmp_path / "claims", owner="host-a")
        cells = [make_cell(seed=s) for s in range(3)]
        for cell in cells:
            claims.claim(cell)
        claims.release_all()
        assert all(not claims.is_claimed(c) for c in cells)
        assert claims.claimed == set()

    def test_await_finds_published_results(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        other = DirectoryClaims(tmp_path / "cache" / "claims", owner="b")
        other.claim(cell)
        cache.put(cell, {"rounds": 3})
        found, abandoned = await_cells(
            cache, [(("coords",), cell)], other, poll_seconds=0.01
        )
        assert found == {("coords",): {"rounds": 3}}
        assert abandoned == []

    def test_await_hands_back_stale_claims(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = make_cell()
        dead = DirectoryClaims(
            tmp_path / "cache" / "claims", owner="dead", lease_seconds=60
        )
        dead.claim(cell)
        self.backdate(dead, cell)
        found, abandoned = await_cells(
            cache, [(("coords",), cell)], dead, poll_seconds=0.01
        )
        assert found == {}
        assert abandoned == [(("coords",), cell)]

    def test_await_treats_unclaimed_missing_cells_as_abandoned(
        self, tmp_path
    ):
        cache = CampaignCache(tmp_path / "cache")
        claims = DirectoryClaims(tmp_path / "cache" / "claims", owner="a")
        cell = make_cell()
        found, abandoned = await_cells(
            cache, [(("coords",), cell)], claims, poll_seconds=0.01
        )
        assert found == {}
        assert abandoned == [(("coords",), cell)]

    def test_await_timeout_abandons_the_rest(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        claims = DirectoryClaims(
            tmp_path / "cache" / "claims", owner="slow", lease_seconds=3600
        )
        cell = make_cell()
        claims.claim(cell)  # never publishes
        found, abandoned = await_cells(
            cache,
            [(("coords",), cell)],
            claims,
            poll_seconds=0.01,
            timeout_seconds=0.05,
        )
        assert found == {}
        assert abandoned == [(("coords",), cell)]


class TestMultiHostCampaign:
    def test_two_hosts_partition_and_share_results(self, tmp_path):
        """Host B claims and computes one cell; host A's run computes the
        rest, picks B's result out of the store, and the merged sweep is
        identical to a single-host run."""
        spec = small_spec(seeds=[0, 1])  # 4 cells
        single = run_campaign(spec)

        cache = CampaignCache(tmp_path / "cache")
        coords_b = next(iter(spec.grid()))
        cell_b = spec.cell_id(*coords_b)
        host_b = DirectoryClaims(tmp_path / "cache" / "claims", owner="b")
        assert host_b.claim(cell_b)
        record_b = next(
            r for r in single
            if (r["n"], r["adversary"], r["seed"]) == coords_b
        )
        cache.put(cell_b, record_b)

        host_a = DirectoryClaims(tmp_path / "cache" / "claims", owner="a")
        computed = []
        merged = run_campaign(
            spec, cache=cache, claims=host_a, on_record=computed.append
        )
        assert len(computed) == 3  # B's cell was not recomputed
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            single, sort_keys=True
        )

    def test_dead_hosts_cells_are_reclaimed_locally(self, tmp_path):
        spec = small_spec()  # 2 cells
        cache = CampaignCache(tmp_path / "cache")
        cell = spec.cell_id(*next(iter(spec.grid())))
        dead = DirectoryClaims(
            tmp_path / "cache" / "claims", owner="dead", lease_seconds=60
        )
        dead.claim(cell)
        path = dead._path(cell)
        stat = path.stat()
        os.utime(path, (stat.st_atime - 120, stat.st_mtime - 120))

        host_a = DirectoryClaims(
            tmp_path / "cache" / "claims", owner="a", lease_seconds=60
        )
        computed = []
        records = run_campaign(
            spec, cache=cache, claims=host_a, on_record=computed.append
        )
        assert len(records) == 2
        assert len(computed) == 2  # the abandoned cell ran locally
        assert host_a.owner_of(cell) is None  # released after recompute

    def test_claims_require_a_cache(self):
        claims = DirectoryClaims("/tmp/unused", owner="a")
        with pytest.raises(ValueError, match="requires a cache"):
            run_campaign(small_spec(), claims=claims)


# ---------------------------------------------------------------------------
# Query layer
class TestQuery:
    def test_query_reports_hits_and_misses(self, tmp_path):
        spec = small_spec(seeds=[0, 1])  # 4 cells
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(small_spec(seeds=[0]), cache=cache)  # fill half
        result = query(spec, cache)
        assert result.spec_name == "fabric-test"
        assert len(result.hits) == 2
        assert len(result.misses) == 2
        assert result.hit_rate == 0.5
        assert len(result.records()) == 2

    def test_query_full_cache_serves_grid_order(self, tmp_path):
        spec = small_spec(seeds=[0, 1])
        cache = CampaignCache(tmp_path / "cache")
        expected = run_campaign(spec, cache=cache)
        result = query(spec, CampaignCache(tmp_path / "cache"))
        assert result.hit_rate == 1.0
        assert json.dumps(result.records(), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_query_as_dict_names_missing_cells(self, tmp_path):
        spec = small_spec()
        cache = CampaignCache(tmp_path / "cache")
        payload = query(spec, cache).as_dict()
        assert payload["hits"] == 0
        assert payload["misses"] == 2
        assert len(payload["missing"]) == 2

    def test_open_cache_accepts_paths_and_instances(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        assert open_cache(cache) is cache
        opened = open_cache(tmp_path / "cache")
        assert isinstance(opened, CampaignCache)
        assert opened.root == cache.root
