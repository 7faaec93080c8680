"""Live recording hooks: campaign and gateway runs land in the index.

The campaign end-to-end tests drive the serial scheduler with synthetic
sleep units (cheap, deterministic) — the same acceptance comparison the
CI smoke job makes: index counts must equal the CampaignReport's.
"""

from __future__ import annotations

import pytest

from repro.campaign import run_campaign
from repro.campaign.cache import ResultCache
from repro.campaign.report import UnitOutcome
from repro.campaign.units import enumerate_units
from repro.results.db import ResultsDB
from repro.results.hooks import record_campaign_outcomes, record_unit
from repro.results.queries import experiment_rollup

FAST = ["sleep:0.01#a", "sleep:0.01#b", "sleep:0.01#c"]


class TestCampaignRecording:
    def test_cold_run_matches_report(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        report = run_campaign(FAST, cache_dir=str(tmp_path / "cache"),
                              results_db=db_path)
        with ResultsDB(db_path) as db:
            assert len(db) == report.units_total
            cols, rows = db.query(
                "SELECT status, hits, git_sha FROM runs")
        assert all(status == "ran" for status, _, _ in rows)
        assert sum(hits for _, hits, _ in rows) == report.cache_hits == 0
        roll = experiment_rollup(db_path)
        assert roll["sleep"]["runs"] == report.units_total
        assert roll["sleep"]["failed"] == report.failures == 0

    def test_warm_rerun_adds_no_rows_only_hits(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        run_campaign(FAST, cache_dir=str(tmp_path / "cache"),
                     results_db=db_path)
        report = run_campaign(FAST, cache_dir=str(tmp_path / "cache"),
                              results_db=db_path)
        assert report.cache_hits == len(FAST)
        with ResultsDB(db_path) as db:
            assert len(db) == len(FAST)
        roll = experiment_rollup(db_path)
        assert roll["sleep"]["cache_hits"] == len(FAST)

    def test_hit_against_unindexed_cache_backfills(self, tmp_path):
        """Cache warmed before the index existed: the first recorded
        hit creates the row from the sidecar, then counts itself."""
        run_campaign(FAST[:1], cache_dir=str(tmp_path / "cache"))
        db_path = str(tmp_path / "i.db")
        run_campaign(FAST[:1], cache_dir=str(tmp_path / "cache"),
                     results_db=db_path)
        roll = experiment_rollup(db_path)
        assert roll["sleep"]["runs"] == 1
        assert roll["sleep"]["cache_hits"] == 1

    def test_failed_then_ran_upgrades(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        failed = UnitOutcome(ident="x", label="x@p", key="k1",
                             status="failed", worker=0, seconds=0.1,
                             compute_seconds=0.1, error="boom")
        record_campaign_outcomes(db_path, [failed], git_sha="s")
        with ResultsDB(db_path) as db:
            assert db.query("SELECT status FROM runs")[1] == [("failed",)]
        ran = UnitOutcome(ident="x", label="x@p", key="k1",
                          status="ran", worker=0, seconds=0.2,
                          compute_seconds=0.2)
        record_campaign_outcomes(db_path, [ran], git_sha="s")
        with ResultsDB(db_path) as db:
            assert db.query("SELECT status FROM runs")[1] == [("ran",)]
            assert len(db) == 1

    def test_recording_is_opt_in(self, tmp_path):
        report = run_campaign(FAST, cache_dir=str(tmp_path / "cache"))
        assert report.failures == 0
        assert not (tmp_path / ".repro-results.db").exists()


class TestServeRecording:
    @pytest.fixture
    def unit_and_cache(self, tmp_path):
        unit = enumerate_units(["sleep:0.01#s"])[0]
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(unit.key, {"ok": 1}, meta={
            "ident": unit.ident, "point": unit.point.label,
            "worker": "serve", "duration": 0.01,
        })
        return unit, cache

    @staticmethod
    def _hit(unit):
        return UnitOutcome(ident=unit.ident, label=unit.label, key=unit.key,
                           status="hit", worker="serve", seconds=0.0,
                           compute_seconds=unit.est_cost)

    def test_execution_then_hit(self, tmp_path, unit_and_cache):
        unit, cache = unit_and_cache
        db_path = str(tmp_path / "i.db")
        with ResultsDB(db_path) as db:
            assert record_unit(db, unit.key, cache.meta(unit.key),
                               git_sha="g1", cache=cache)
        record_campaign_outcomes(db_path, [self._hit(unit)], cache,
                                 git_sha="g1")
        with ResultsDB(db_path) as db:
            cols, rows = db.query(
                "SELECT source, status, hits, git_sha FROM runs")
            assert rows == [("serve", "ran", 1, "g1")]
            assert db.metrics_for(unit.key)["duration_seconds"] == 0.01

    def test_hit_without_prior_row_backfills_from_sidecar(
            self, tmp_path, unit_and_cache):
        unit, cache = unit_and_cache
        db_path = str(tmp_path / "i.db")
        # git_sha="" stamps nothing (None would auto-resolve).
        record_campaign_outcomes(db_path, [self._hit(unit)], cache,
                                 git_sha="")
        with ResultsDB(db_path) as db:
            cols, rows = db.query("SELECT source, hits, git_sha FROM runs")
            # Sidecar says worker == "serve", so the backfilled row
            # keeps its true origin.
            assert rows == [("serve", 1, None)]


SELECTOR = "sleep:0#one-row"


def _row(db_path, key):
    """Everything about an indexed entry except ids, times and counts."""
    with ResultsDB(db_path) as db:
        run = db.query(
            "SELECT source, ident, point, params_json, host, cache_key "
            "FROM runs WHERE run_key = ?", (key,))[1]
        metrics = db.query(
            "SELECT m.name, m.value, m.unit FROM metrics m "
            "JOIN runs r ON r.id = m.run_id WHERE r.run_key = ?",
            (key,))[1]
        artifacts = db.query(
            "SELECT a.path, a.sha256, a.bytes FROM artifacts a "
            "JOIN runs r ON r.id = a.run_id WHERE r.run_key = ?",
            (key,))[1]
    return run, sorted(metrics), sorted(artifacts)


def _serve(cache_dir, db_path):
    import asyncio

    from repro.serve import Gateway, ServeConfig

    async def go():
        async with Gateway(ServeConfig(cache_dir=cache_dir,
                                       results_db=db_path,
                                       pool_workers=1)) as gateway:
            return await gateway.call_run(SELECTOR)

    return asyncio.run(go()).doc["units"][0]["served"]


def _campaign(cache_dir, db_path):
    report = run_campaign([SELECTOR], cache_dir=cache_dir,
                          results_db=db_path)
    return report.outcomes[0].status


def _ingest(cache_dir, db_path):
    from repro.results.ingest import Ingestor

    with ResultsDB(db_path) as db:
        stats = Ingestor(db, git_sha="").ingest_cache_dir(cache_dir)
    return "ingested" if stats.added == 1 else str(stats)


#: How each path indexes the entry, and what it reports doing.
INDEXERS = {"campaign": (_campaign, "hit"), "serve": (_serve, "hit"),
            "ingest": (_ingest, "ingested")}


class TestOneRowPerEntry:
    """One cache entry indexes to one row, whichever path records it:
    the path that wrote it (campaign ran, serve executed), a later hit
    through either front end, or ``results ingest``."""

    @pytest.mark.parametrize("writer", ["campaign", "serve"])
    @pytest.mark.parametrize("reader", ["writer", "campaign", "serve",
                                        "ingest"])
    def test_same_row_on_every_path(self, tmp_path, writer, reader):
        cache_dir = str(tmp_path / "cache")
        write, _ = INDEXERS[writer]
        assert write(cache_dir, str(tmp_path / "writer.db")) in (
            "ran", "executed")
        key = enumerate_units([SELECTOR])[0].key
        ref = str(tmp_path / "ref.db")
        assert _ingest(cache_dir, ref) == "ingested"
        if reader == "writer":
            got = str(tmp_path / "writer.db")
        else:
            got = str(tmp_path / "reader.db")
            index, status = INDEXERS[reader]
            assert index(cache_dir, got) == status
        run, metrics, artifacts = _row(got, key)
        assert run[0][0] == writer  # source: who wrote the entry
        assert run[0][4]  # host: the writing process
        assert metrics and artifacts
        assert (run, metrics, artifacts) == _row(ref, key)

    def test_every_sidecar_writer_writes_the_same_keys(self, tmp_path):
        from repro.fleet.coordinator import FleetCoordinator
        from repro.fleet.config import FleetConfig
        from repro.fleet.salvage import salvage_value

        unit = enumerate_units([SELECTOR])[0]
        sidecars = {}
        for writer, run in (("campaign", _campaign), ("serve", _serve)):
            cache = str(tmp_path / writer)
            run(cache, str(tmp_path / f"{writer}.db"))
            sidecars[writer] = ResultCache(cache).meta(unit.key)

        fleet_cache = ResultCache(str(tmp_path / "fleet"))
        coordinator = FleetCoordinator(FleetConfig(listen="127.0.0.1:0"),
                                       fleet_cache)
        coordinator._absorb(UnitOutcome(
            ident=unit.ident, label=unit.label, key=unit.key, status="ran",
            worker=3, seconds=0.0, compute_seconds=0.0, result={"x": 1},
            host="w:1",
        ), unit)
        sidecars["fleet"] = fleet_cache.meta(unit.key)

        main = ResultCache(str(tmp_path / "main"))
        assert salvage_value(unit.key, [str(tmp_path / "campaign")], main)
        sidecars["salvage"] = main.meta(unit.key)

        keys = {name: sorted(meta) for name, meta in sidecars.items()}
        assert len({tuple(k) for k in keys.values()}) == 1, keys
        assert {"ident", "point", "params", "duration", "version",
                "worker", "host"} <= set(keys["campaign"])
