"""Tier-1 tests for the epoch-keyed server-side result cache.

The cache memoises SELECT answers under (canonical statement, snapshot
epoch, catalog version).  The contract under test is the differential
one: a warm execution must be byte-identical to a cold one — same
columns, same rows, same CostReport fields — and every write path
(epoch-advancing DML, version-bumping DDL/TRUNCATE/ANALYZE, staged
transaction state) must invalidate or bypass before a stale answer can
escape.  A final hypothesis matrix interleaves reads with random
DML/DDL/ANALYZE and compares a caching session against a cache-off
session statement by statement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cache import ResultCache, canonical_sql
from repro.sim import Environment
from repro.telemetry import MetricsRegistry
from repro.vertica import VerticaDatabase
from repro.vertica.engine import CostReport
from repro.vertica.errors import SqlError
from repro.wlm import AdmissionController, ResourcePool

# Identical to the plan-differential matrix: any drift in these fields
# would silently change every benchmark via the JDBC cost bridge.
COST_FIELDS = [
    "rows_scanned",
    "node_rows_scanned",
    "rows_aggregated",
    "node_rows_aggregated",
    "rows_output",
    "node_rows_output",
    "bytes_output",
    "node_output_bytes",
    "rows_written",
    "node_rows_written",
]

QUERY = "SELECT grp, COUNT(*), SUM(v) FROM metrics GROUP BY grp ORDER BY grp"


@pytest.fixture
def registry():
    reg = telemetry.install(MetricsRegistry(enabled=True))
    yield reg
    telemetry.reset()


def make_db(num_nodes=3, rows=40):
    db = VerticaDatabase(num_nodes=num_nodes)
    db.result_cache_default = True
    session = db.connect()
    session.execute(
        "CREATE TABLE metrics (id INTEGER, grp INTEGER, v FLOAT) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    values = ", ".join(f"({i}, {i % 5}, {float(i % 7)})" for i in range(rows))
    session.execute(f"INSERT INTO metrics VALUES {values}")
    return db, session


def cost_value(cost, field):
    """One CostReport field; per-node dicts as ordered (node, value) pairs."""
    value = getattr(cost, field)
    return list(value.items()) if isinstance(value, dict) else value


def assert_same_result(warm, cold):
    assert warm.columns == cold.columns
    assert warm.rows == cold.rows
    for field in COST_FIELDS:
        assert cost_value(warm.cost, field) == cost_value(cold.cost, field), field


class TestHitPath:
    def test_warm_execution_identical_to_cold(self):
        db, session = make_db()
        cold = session.execute(QUERY)
        assert cold.cost.cache_hit is False
        warm = session.execute(QUERY)
        assert warm.cost.cache_hit is True
        assert_same_result(warm, cold)
        assert warm.snapshot_epoch == cold.snapshot_epoch

    def test_spelling_variants_share_one_entry(self):
        db, session = make_db()
        session.execute(QUERY)
        restyled = session.execute(
            "select GRP, count(*), sum(V)  from metrics group by grp order by grp"
        )
        assert restyled.cost.cache_hit is True
        assert len(db.result_cache) == 1

    def test_different_literals_are_different_entries(self):
        db, session = make_db()
        a = session.execute("SELECT COUNT(*) FROM metrics WHERE grp = 1")
        b = session.execute("SELECT COUNT(*) FROM metrics WHERE grp = 2")
        assert a.cost.cache_hit is False
        assert b.cost.cache_hit is False
        assert len(db.result_cache) == 2

    def test_hit_and_store_counters(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        session.execute(QUERY)
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.hits"] >= 1
        assert counters["vertica.cache.result.stores"] >= 1


    def test_hit_skips_the_parser_after_parse_eviction(self, monkeypatch):
        # A hit entry keeps its parsed statement: a repeat whose text fell
        # out of the parse LRU is answered without parsing again.
        db, session = make_db()
        db.plan_cache.capacity = 1
        cold = session.execute(QUERY)
        assert db.result_cache.statement(canonical_sql(QUERY)) is None
        session.execute(QUERY)
        session.execute("SELECT COUNT(*) FROM metrics")
        assert canonical_sql(QUERY) not in db.plan_cache._parsed

        def no_parse(sql):
            raise AssertionError(f"parsed again: {sql}")

        monkeypatch.setattr("repro.vertica.session.parse_statement", no_parse)
        warm = session.execute(QUERY)
        assert warm.cost.cache_hit is True
        assert_same_result(warm, cold)


class TestSessionToggle:
    def test_set_result_cache_off_disables(self):
        db, session = make_db()
        session.execute("SET RESULT_CACHE = 'off'")
        start = len(db.result_cache)
        session.execute(QUERY)
        second = session.execute(QUERY)
        assert second.cost.cache_hit is False
        assert len(db.result_cache) == start

    def test_set_result_cache_back_on(self):
        db, session = make_db()
        session.execute("SET RESULT_CACHE = 'off'")
        session.execute(QUERY)
        session.execute("SET RESULT_CACHE = 'on'")
        miss = session.execute(QUERY)
        assert miss.cost.cache_hit is False
        assert session.execute(QUERY).cost.cache_hit is True

    def test_invalid_value_rejected(self):
        db, session = make_db()
        with pytest.raises(SqlError):
            session.execute("SET RESULT_CACHE = 'maybe'")

    def test_database_default_off(self):
        db = VerticaDatabase(num_nodes=2)
        assert db.result_cache_default is False
        session = db.connect()
        session.execute("CREATE TABLE t (id INTEGER)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("SELECT id FROM t")
        repeat = session.execute("SELECT id FROM t")
        assert repeat.cost.cache_hit is False
        assert len(db.result_cache) == 0


class TestInvalidation:
    def test_insert_advances_epoch_and_invalidates(self):
        db, session = make_db()
        before = session.execute(QUERY)
        session.execute("INSERT INTO metrics VALUES (1000, 0, 1.0)")
        after = session.execute(QUERY)
        assert after.cost.cache_hit is False
        assert after.rows != before.rows
        assert session.execute(QUERY).cost.cache_hit is True

    def test_at_epoch_pins_the_old_answer(self):
        db, session = make_db()
        base = session.execute(QUERY)
        epoch = base.snapshot_epoch
        session.execute("INSERT INTO metrics VALUES (1000, 0, 1.0)")
        pinned = session.execute(f"AT EPOCH {epoch} {QUERY}")
        assert pinned.rows == base.rows
        again = session.execute(f"AT EPOCH {epoch} {QUERY}")
        assert again.cost.cache_hit is True
        assert again.rows == base.rows

    def test_truncate_bumps_catalog_version(self):
        # TRUNCATE discards rows without advancing an epoch — the catalog
        # version bump is the only thing keeping the old answer out.
        db, session = make_db()
        full = session.execute(QUERY)
        assert full.rows
        version = db.catalog.version
        session.execute("TRUNCATE TABLE metrics")
        assert db.catalog.version > version
        empty = session.execute(QUERY)
        assert empty.cost.cache_hit is False
        assert empty.rows == []

    def test_unrelated_ddl_invalidates(self):
        db, session = make_db()
        session.execute(QUERY)
        session.execute("CREATE TABLE bystander (id INTEGER)")
        miss = session.execute(QUERY)
        assert miss.cost.cache_hit is False
        assert session.execute(QUERY).cost.cache_hit is True

    def test_analyze_invalidates(self):
        # New statistics change plan choice without an epoch; the version
        # bump re-keys both caches.
        db, session = make_db()
        session.execute(QUERY)
        version = db.catalog.version
        session.execute("ANALYZE metrics")
        assert db.catalog.version > version
        assert session.execute(QUERY).cost.cache_hit is False


class TestBypass:
    def test_staged_transaction_writes_bypass(self, registry):
        db, session = make_db()
        entries = len(db.result_cache)
        session.execute("BEGIN")
        session.execute("INSERT INTO metrics VALUES (5000, 1, 2.0)")
        result = session.execute(QUERY)
        session.execute("ROLLBACK")
        # Read-your-writes: the staged row is visible but never cached.
        assert any(row[0] == 1 and row[1] == 9 for row in result.rows)
        assert len(db.result_cache) == entries
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.bypass.txn_writes"] >= 1

    def test_system_tables_bypass(self, registry):
        db, session = make_db()
        entries = len(db.result_cache)
        session.execute("SELECT table_name FROM V_CATALOG.TABLES")
        session.execute("SELECT table_name FROM V_CATALOG.TABLES")
        assert len(db.result_cache) == entries
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.bypass.system_table"] >= 2


class TestEviction:
    def test_lru_eviction_under_byte_pressure(self, registry):
        db, session = make_db()
        session.execute(QUERY)
        one_entry = db.result_cache.used_bytes
        assert one_entry > 0
        db.result_cache = ResultCache(budget_bytes=int(one_entry * 2.5))
        for floor in range(1, 5):
            # Same full answer each time (every grp is >= -floor), so each
            # distinct literal stores an entry the size of the first one.
            session.execute(
                f"SELECT grp, COUNT(*), SUM(v) FROM metrics "
                f"WHERE grp >= -{floor} GROUP BY grp ORDER BY grp"
            )
        cache = db.result_cache
        assert 1 <= len(cache) <= 2
        assert cache.used_bytes <= cache.budget_bytes
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.evictions"] >= 2

    def test_statement_lives_as_long_as_its_entries(self):
        cache = ResultCache()
        statement = object()
        for epoch in (1, 2, 3):
            cache.store("Q", epoch, 0, ["c"], [(epoch,)], CostReport())
        assert cache.statement("Q") is None  # stored, never hit
        for epoch in (1, 2, 2):
            cache.lookup("Q", epoch, 0, statement)
        assert cache.statement("Q") is statement
        cache.store("Q", 2, 0, ["c"], [(2,)], CostReport())  # drops a pin
        assert cache.keys() == [("Q", 3, 0), ("Q", 1, 0), ("Q", 2, 0)]
        cache._evict_one()  # epoch 3, never hit
        assert cache.statement("Q") is statement
        cache._evict_one()  # epoch 1, the last pin
        assert cache.statement("Q") is None
        cache.lookup("Q", 3, 0, statement)
        cache.clear()
        assert cache.statement("Q") is None

    def test_oversized_result_refused(self, registry):
        db, session = make_db()
        db.result_cache = ResultCache(budget_bytes=16)
        session.execute(QUERY)
        repeat = session.execute(QUERY)
        assert repeat.cost.cache_hit is False
        assert len(db.result_cache) == 0
        counters = registry.snapshot().counters
        assert counters["vertica.cache.result.rejected"] >= 2


class TestWlmAccounting:
    def test_store_charges_pool_and_clear_releases(self):
        env = Environment()
        db, session = make_db()
        wlm = AdmissionController(env, db.catalog)
        db.result_cache.attach_account(wlm.cache_account("GENERAL"))
        session.execute(QUERY)
        state = wlm.state("GENERAL")
        assert db.result_cache.reserved_mb >= 1
        assert state.cache_mb == db.result_cache.reserved_mb
        # Cache residency is not a leak: tickets were all released.
        assert wlm.leaked() == {}
        db.result_cache.clear()
        assert db.result_cache.reserved_mb == 0
        assert state.cache_mb == 0

    def test_grow_denied_when_pool_is_full(self, registry):
        env = Environment()
        db = VerticaDatabase(num_nodes=2)
        db.catalog.create_resource_pool(
            ResourcePool(
                "TINY", memory_mb=2, planned_concurrency=1, max_concurrency=1
            )
        )
        wlm = AdmissionController(env, db.catalog)
        account = wlm.cache_account("TINY")
        assert account.grow(2) is True
        assert account.grow(1) is False
        assert account.reserved_mb == 2
        account.shrink(1)
        assert account.reserved_mb == 1
        counters = registry.snapshot().counters
        assert counters["wlm.pool.TINY.cache_grow_denied"] >= 1
        account.shrink(1)
        assert wlm.leaked() == {}

    def test_store_refused_when_pool_cannot_grant(self):
        env = Environment()
        db, session = make_db()
        db.catalog.create_resource_pool(
            ResourcePool(
                "CRAMPED", memory_mb=1, planned_concurrency=1, max_concurrency=1
            )
        )
        wlm = AdmissionController(env, db.catalog)
        account = wlm.cache_account("CRAMPED")
        # Exhaust the pool so the cache's first MB grant must fail.
        filler = wlm.cache_account("CRAMPED")
        assert filler.grow(1) is True
        db.result_cache.attach_account(account)
        repeat_a = session.execute(QUERY)
        repeat_b = session.execute(QUERY)
        assert repeat_a.cost.cache_hit is False
        assert repeat_b.cost.cache_hit is False
        assert len(db.result_cache) == 0
        filler.shrink(1)


class TestExplainAndProfile:
    def test_explain_reports_miss_then_hit(self):
        db, session = make_db()
        plan = session.execute(f"EXPLAIN {QUERY}")
        assert plan.columns == ["QUERY_PLAN"]
        lines = [row[0] for row in plan.rows]
        assert any(line.startswith("RESULT CACHE: miss") for line in lines)
        # EXPLAIN itself must not populate or warm the cache.
        assert len(db.result_cache) == 0
        session.execute(QUERY)
        plan = session.execute(f"EXPLAIN {QUERY}")
        lines = [row[0] for row in plan.rows]
        assert any(line.startswith("RESULT CACHE: hit") for line in lines)

    def test_explain_silent_when_cache_off(self):
        db, session = make_db()
        session.execute("SET RESULT_CACHE = 'off'")
        plan = session.execute(f"EXPLAIN {QUERY}")
        assert not any("RESULT CACHE" in row[0] for row in plan.rows)

    def test_profile_hit_replays_cost(self):
        db, session = make_db()
        cold = session.execute(QUERY)
        report = session.execute(f"PROFILE {QUERY}")
        lines = [row[0] for row in report.rows]
        assert lines[0].startswith("RESULT CACHE: hit")
        assert report.query_result.rows == cold.rows
        assert report.cost.cache_hit is True
        for field in COST_FIELDS:
            assert cost_value(report.cost, field) == cost_value(cold.cost, field)


# ----------------------------------------------------------------- hypothesis
READS = (
    QUERY,
    "SELECT COUNT(*) FROM metrics WHERE grp = 2",
    "SELECT SUM(v) FROM metrics",
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    ops=st.lists(
        st.sampled_from(
            ["read0", "read1", "read2", "insert", "analyze", "ddl", "truncate"]
        ),
        min_size=2,
        max_size=12,
    )
)
def test_random_interleavings_match_cache_off(ops):
    """Differential matrix: a caching session and a cache-off session run
    the same DML/DDL/ANALYZE interleaving and must agree on every read."""
    cached_db, cached = make_db(rows=24)
    cold_db, cold = make_db(rows=24)
    cold.execute("SET RESULT_CACHE = 'off'")
    next_id = 24
    ddl_n = 0
    for op in ops:
        if op.startswith("read"):
            sql = READS[int(op[-1])]
            a = cached.execute(sql)
            b = cold.execute(sql)
            assert_same_result(a, b)
            continue
        if op == "insert":
            sql = f"INSERT INTO metrics VALUES ({next_id}, {next_id % 5}, 1.5)"
            next_id += 1
        elif op == "analyze":
            sql = "ANALYZE metrics"
        elif op == "truncate":
            sql = "TRUNCATE TABLE metrics"
        else:
            sql = f"CREATE TABLE scratch_{ddl_n} (id INTEGER)"
            ddl_n += 1
        cached.execute(sql)
        cold.execute(sql)
    # Final sweep: every read agrees after the dust settles, twice (the
    # second pass reads through whatever the first pass populated).
    for __ in range(2):
        for sql in READS:
            assert_same_result(cached.execute(sql), cold.execute(sql))
