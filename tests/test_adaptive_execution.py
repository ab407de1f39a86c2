"""Tests for adaptive query execution (join reordering + replanning).

Three layers, matching the three pieces of the subsystem:

- **Reordering** — ``SET JOIN_REORDER on`` lets the optimizer re-sequence
  multi-way equi-join chains by estimated cardinality.  The differential
  matrix proves the answer (rows, order, per-node cost attribution) stays
  byte-identical to the legacy oracle for 3–5-way joins under every
  combination of reorder/adaptive flags and strategy overrides.
- **Replanning** — ``SET ADAPTIVE_EXECUTION on`` lets join operators
  revise build side / algorithm at their materialization checkpoint.  A
  deliberately stale ANALYZE forces an order-of-magnitude misestimate and
  the recorded ``ReplanEvent`` must show up in PROFILE.
- **Feedback** — executed queries blend estimated-vs-actual scan counts
  into :class:`~repro.vertica.stats.feedback.CorrectionStore`; the second
  optimization of the same query must be strictly better-estimated and
  must not poison the originally cached plan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.errors import SqlError
from repro.vertica.plan import bind_select, optimize
from repro.vertica.plan.adaptive import AdaptiveContext
from repro.vertica.plan.logical import Join, TableScan
from repro.vertica.plan.optimizer import RULE_JOIN_REORDER
from repro.vertica.sql.parser import parse_statement
from tests.test_plan_differential import assert_identical


def set_flags(db, reorder=False, adaptive=False, strategy="auto"):
    db.join_reorder = reorder
    db.adaptive_execution = adaptive
    db.join_strategy = strategy


def assert_identical_with_flags(db, sql, reorder, adaptive, strategy="auto"):
    set_flags(db, reorder, adaptive, strategy)
    try:
        # A pinned nested loop charges its right input's scan first, so
        # only that strategy compares the per-node dicts unordered.
        assert_identical(db, sql, ordered=strategy != "nested-loop")
    finally:
        set_flags(db)


def plan_text(session, sql):
    return "\n".join(r[0] for r in session.execute(sql).rows)


# --------------------------------------------------------------- star schema
def make_star_db(fact_rows=60, stale=True, analyzed_rows=12):
    """A 4-dim star with (optionally) deliberately stale fact statistics.

    Every plain column name is globally unique so reordering's
    name-resolution guard accepts the chain.  With ``stale`` the fact is
    ANALYZEd at ``analyzed_rows`` and then grown to ``fact_rows`` —
    estimates lag reality by the growth factor.
    """
    db = VerticaDatabase(num_nodes=4)
    session = db.connect()
    session.execute(
        "CREATE TABLE f (ka INTEGER, kb INTEGER, kc INTEGER, kd INTEGER, "
        "v FLOAT) SEGMENTED BY HASH(ka) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dima (a_id INTEGER, a_val INTEGER) "
        "SEGMENTED BY HASH(a_id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dimb (b_id INTEGER, b_val INTEGER) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "CREATE TABLE dimc (c_id INTEGER, c_val INTEGER) "
        "SEGMENTED BY HASH(c_id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dimd (d_id INTEGER, d_val INTEGER) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO dima VALUES "
        + ", ".join(f"({i}, {i * 10})" for i in range(6))
    )
    session.execute(
        "INSERT INTO dimb VALUES "
        + ", ".join(f"({i}, {i * 7})" for i in range(4))
    )
    session.execute(
        "INSERT INTO dimc VALUES " + ", ".join(f"({i}, {i + 100})" for i in range(3))
    )
    # dimd is deliberately selective: only two of five kd values match.
    session.execute("INSERT INTO dimd VALUES (0, 1), (1, 2)")

    def fact_values(start, stop):
        return ", ".join(
            f"({i % 6}, {i % 4}, {i % 3}, {i % 5}, {i}.5)"
            for i in range(start, stop)
        )

    first = min(analyzed_rows, fact_rows)
    session.execute("INSERT INTO f VALUES " + fact_values(0, first))
    for name in ("f", "dima", "dimb", "dimc", "dimd"):
        session.execute(f"ANALYZE {name}")
    if fact_rows > first:
        session.execute("INSERT INTO f VALUES " + fact_values(first, fact_rows))
        if not stale:
            session.execute("ANALYZE f")
    return db


@pytest.fixture(scope="module")
def star_db():
    return make_star_db()


THREE_WAY = (
    "SELECT v, a_val, b_val FROM f JOIN dima ON ka = a_id "
    "JOIN dimb ON kb = b_id"
)
FOUR_WAY = THREE_WAY + " JOIN dimc ON kc = c_id"
FIVE_WAY = FOUR_WAY + " JOIN dimd ON kd = d_id"

STAR_MATRIX = [
    THREE_WAY,
    FOUR_WAY,
    FIVE_WAY,
    FIVE_WAY + " WHERE b_val > 2",
    "SELECT a_val, COUNT(*) FROM f JOIN dima ON ka = a_id "
    "JOIN dimd ON kd = d_id GROUP BY a_val ORDER BY a_val",
    # selective dim written last in FROM order: reordering moves it first
    "SELECT v, d_val FROM f JOIN dima ON ka = a_id JOIN dimb ON kb = b_id "
    "JOIN dimd ON kd = d_id WHERE d_val > 1",
]


class TestAdaptiveDifferential:
    """Rows/order/cost stay byte-identical with every adaptivity flag."""

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("reorder", [False, True])
    @pytest.mark.parametrize("sql", STAR_MATRIX)
    def test_star_matrix(self, star_db, sql, reorder, adaptive):
        assert_identical_with_flags(star_db, sql, reorder, adaptive)

    @pytest.mark.parametrize(
        "strategy", ["auto", "hash", "merge", "nested-loop"]
    )
    @pytest.mark.parametrize("reorder", [False, True])
    def test_five_way_under_strategy_override(self, star_db, reorder, strategy):
        assert_identical_with_flags(
            star_db, FIVE_WAY, reorder, adaptive=True, strategy=strategy
        )

    def test_fresh_stats_matrix(self):
        db = make_star_db(stale=False)
        for sql in (THREE_WAY, FIVE_WAY):
            assert_identical_with_flags(db, sql, reorder=True, adaptive=True)


# ----------------------------------------------------------- reordering plan
class TestJoinReorderPlan:
    def test_explain_renders_join_order(self, star_db):
        session = star_db.connect()
        session.execute("SET JOIN_REORDER on")
        try:
            plan = plan_text(session, f"EXPLAIN {FIVE_WAY}")
        finally:
            session.execute("SET JOIN_REORDER off")
        assert "JOIN ORDER:" in plan
        assert "(reordered from" in plan
        assert "step 1:" in plan
        assert RULE_JOIN_REORDER in plan

    def test_selective_dim_joins_first(self, star_db):
        # dimd keeps only 2/5 of kd values; a cardinality-greedy order
        # must join it before the wider dima/dimb dims.
        session = star_db.connect()
        session.execute("SET JOIN_REORDER on")
        try:
            plan = plan_text(session, f"EXPLAIN {FIVE_WAY}")
        finally:
            session.execute("SET JOIN_REORDER off")
        order_line = next(
            line for line in plan.splitlines() if "JOIN ORDER:" in line
        )
        assert order_line.index("DIMD") < order_line.index("DIMA")

    def test_reorder_off_keeps_binder_order(self, star_db):
        session = star_db.connect()
        plan = plan_text(session, f"EXPLAIN {FIVE_WAY}")
        assert "JOIN ORDER:" not in plan
        assert RULE_JOIN_REORDER not in plan

    def test_two_way_join_never_reordered(self, star_db):
        session = star_db.connect()
        session.execute("SET JOIN_REORDER on")
        try:
            plan = plan_text(
                session, "EXPLAIN SELECT v, a_val FROM f JOIN dima ON ka = a_id"
            )
        finally:
            session.execute("SET JOIN_REORDER off")
        assert "JOIN ORDER:" not in plan

    def test_colocated_chain_stays_shuffle_free(self):
        # Both sides segmented by their join key: co-location means no
        # shuffle, and reordering must preserve that property.
        db = VerticaDatabase(num_nodes=4)
        session = db.connect()
        session.execute(
            "CREATE TABLE ft (fk INTEGER, fv INTEGER) "
            "SEGMENTED BY HASH(fk) ALL NODES"
        )
        session.execute(
            "CREATE TABLE d1 (k1 INTEGER, x1 INTEGER) "
            "SEGMENTED BY HASH(k1) ALL NODES"
        )
        session.execute(
            "CREATE TABLE d2 (k2 INTEGER, x2 INTEGER) "
            "SEGMENTED BY HASH(k2) ALL NODES"
        )
        session.execute(
            "INSERT INTO ft VALUES " + ", ".join(f"({i % 5}, {i})" for i in range(20))
        )
        session.execute(
            "INSERT INTO d1 VALUES " + ", ".join(f"({i}, {i})" for i in range(5))
        )
        session.execute("INSERT INTO d2 VALUES (0, 0), (1, 1)")
        for name in ("ft", "d1", "d2"):
            session.execute(f"ANALYZE {name}")
        session.execute("SET JOIN_REORDER on")
        sql = (
            "PROFILE SELECT fv, x1, x2 FROM ft JOIN d1 ON fk = k1 "
            "JOIN d2 ON fk = k2"
        )
        report = plan_text(session, sql)
        assert "JOIN ORDER:" in report
        # The co-located pair joins shuffle-free even after reordering;
        # only the upper join against the (unsegmentable) intermediate
        # result may shuffle, exactly as it would in binder order.
        colocated_line = next(
            line for line in report.splitlines() if "JOIN D2" in line
        )
        assert "co-located" in colocated_line
        assert "rows shuffled" not in colocated_line


# ------------------------------------------------------------- replanning
def make_misestimated_db(analyzed=20, grown=400, dim_rows=30):
    """Fact ANALYZEd small then grown: the planner builds on the fact."""
    db = VerticaDatabase(num_nodes=4)
    session = db.connect()
    session.execute(
        "CREATE TABLE fact (fk INTEGER, fv FLOAT) SEGMENTED BY HASH(fk) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dim (dk INTEGER, dv INTEGER) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO fact VALUES "
        + ", ".join(f"({i % dim_rows}, {i}.0)" for i in range(analyzed))
    )
    session.execute(
        "INSERT INTO dim VALUES "
        + ", ".join(f"({i}, {i * 3})" for i in range(dim_rows))
    )
    session.execute("ANALYZE fact")
    session.execute("ANALYZE dim")
    session.execute(
        "INSERT INTO fact VALUES "
        + ", ".join(f"({i % dim_rows}, {i}.0)" for i in range(analyzed, grown))
    )
    return db


JOIN_SQL = "SELECT fv, dv FROM fact JOIN dim ON fk = dk"


class TestMidQueryReplanning:
    def test_swap_build_recorded_in_profile(self):
        db = make_misestimated_db()
        session = db.connect()
        session.execute("SET ADAPTIVE_EXECUTION on")
        report = plan_text(session, f"PROFILE {JOIN_SQL}")
        assert "REPLAN:" in report
        assert "swap-build" in report
        assert "misestimate" in report

    def test_adaptive_rows_match_frozen_rows(self):
        frozen = make_misestimated_db().connect().execute(JOIN_SQL)
        adaptive_db = make_misestimated_db()
        session = adaptive_db.connect()
        session.execute("SET ADAPTIVE_EXECUTION on")
        adaptive = session.execute(JOIN_SQL)
        assert adaptive.rows == frozen.rows
        assert adaptive.columns == frozen.columns

    def test_no_replan_when_adaptivity_off(self):
        db = make_misestimated_db()
        report = plan_text(db.connect(), f"PROFILE {JOIN_SQL}")
        assert "REPLAN:" not in report

    def test_strategy_override_pins_algorithm(self):
        # An explicit SET JOIN_STRATEGY is never second-guessed.
        db = make_misestimated_db()
        session = db.connect()
        session.execute("SET ADAPTIVE_EXECUTION on")
        session.execute("SET JOIN_STRATEGY hash")
        report = plan_text(session, f"PROFILE {JOIN_SQL}")
        assert "REPLAN:" not in report

    def test_checkpoint_swap_then_demote(self):
        context = AdaptiveContext(enabled=True, memory_rows=100)
        join = Join(
            left=_scan_stub(estimated=20),
            right=_scan_stub(estimated=500),
            condition=_condition_stub(),
        )
        join.strategy = "hash"
        join.build_side = "left"
        join.keys_sortable = True
        build, strategy = context.checkpoint_hash(join, 400, 150)
        assert (build, strategy) == ("right", "merge")
        actions = [event.action for event in context.events]
        assert actions == ["swap-build", "demote-merge"]

    def test_checkpoint_promote_hash(self):
        context = AdaptiveContext(enabled=True, memory_rows=100)
        join = Join(
            left=_scan_stub(estimated=5),
            right=_scan_stub(estimated=100_000),
            condition=_condition_stub(),
        )
        join.strategy = "merge"
        join.build_side = "right"
        build, strategy = context.checkpoint_merge(join, 5, 40)
        assert (build, strategy) == ("right", "hash")
        assert [event.action for event in context.events] == ["promote-hash"]

    def test_inactive_context_never_replans(self):
        context = AdaptiveContext(enabled=True, strategy_override="merge")
        assert not context.active
        join = Join(
            left=_scan_stub(estimated=1), right=_scan_stub(estimated=1),
            condition=_condition_stub(),
        )
        join.build_side = "left"
        assert context.checkpoint_hash(join, 10_000_000, 1) == ("left", "hash")
        assert context.events == []


def _scan_stub(estimated):
    class _Stub:
        key = "DIM"
        estimated_rows = estimated
    _Stub.estimated_rows = estimated
    return _Stub()


def _condition_stub():
    class _Cond:
        def sql(self):
            return "FK = DK"
    return _Cond()


# ------------------------------------------------------------ feedback loop
def scan_estimate(db, sql, table):
    plan = optimize(bind_select(db, parse_statement(sql)), db)
    for node in plan.nodes():
        if isinstance(node, TableScan) and node.table.name == table:
            return node.estimated_rows
    raise AssertionError(f"no scan of {table} in plan for {sql}")


class TestFeedbackLoop:
    def test_second_plan_strictly_better_estimated(self):
        db = make_misestimated_db(analyzed=20, grown=400)
        table = db.catalog.table("fact").name
        actual = 400
        before = scan_estimate(db, JOIN_SQL, table)
        session = db.connect()
        session.execute("SET ADAPTIVE_EXECUTION on")
        session.execute(JOIN_SQL)
        after = scan_estimate(db, JOIN_SQL, table)
        assert abs(after - actual) < abs(before - actual)
        assert db.stats_corrections.factor(table) > 1.0
        assert db.stats_corrections.version > 0

    def test_feedback_does_not_poison_plan_cache(self):
        db = make_misestimated_db()
        session = db.connect()
        session.execute("SET ADAPTIVE_EXECUTION on")
        session.execute(JOIN_SQL)  # optimized at corrections_version=0
        version_zero_plans = db.plan_cache.plan_count
        session.execute(JOIN_SQL)  # re-optimized against the correction
        assert db.stats_corrections.version > 0
        assert db.plan_cache.plan_count == version_zero_plans + 1

    def test_analyze_forgets_correction(self):
        db = make_misestimated_db()
        table = db.catalog.table("fact").name
        session = db.connect()
        session.execute("SET ADAPTIVE_EXECUTION on")
        session.execute(JOIN_SQL)
        assert db.stats_corrections.factor(table) > 1.0
        session.execute("ANALYZE fact")
        assert db.stats_corrections.factor(table) == 1.0

    def test_correction_clamped_and_blended(self):
        from repro.vertica.stats.feedback import CorrectionStore

        store = CorrectionStore(name="test.feedback")
        assert store.factor("T") == 1.0
        assert store.record("T", estimated=10, actual=100)
        # EWMA with weight 0.5: 0.5*1.0 + 0.5*10.0
        assert store.factor("T") == pytest.approx(5.5)
        store.record("T", estimated=1, actual=10_000_000)
        assert store.factor("T") <= 1000.0 / 2 + 5.5 / 2 + 1e-9
        store.forget("T")
        assert store.factor("T") == 1.0

    def test_immaterial_move_does_not_bump_version(self):
        from repro.vertica.stats.feedback import CorrectionStore

        store = CorrectionStore(name="test.feedback")
        assert not store.record("T", estimated=100, actual=102)
        assert store.version == 0


# ------------------------------------------------------------- SET options
class TestSetOptionValidation:
    @pytest.mark.parametrize(
        "option, good",
        [
            ("JOIN_REORDER", "on"),
            ("ADAPTIVE_EXECUTION", "on"),
        ],
    )
    def test_flags_round_trip(self, option, good):
        db = VerticaDatabase(num_nodes=2)
        session = db.connect()
        attr = option.lower()
        session.execute(f"SET {option} {good}")
        assert getattr(db, attr) is True
        session.execute(f"SET {option} off")
        assert getattr(db, attr) is False

    @pytest.mark.parametrize(
        "statement, fragments",
        [
            ("SET JOIN_STRATEGY sideways",
             ["SIDEWAYS", "auto", "hash", "merge", "nested-loop"]),
            ("SET JOIN_REORDER maybe", ["MAYBE", "on", "off"]),
            ("SET ADAPTIVE_EXECUTION definitely", ["DEFINITELY", "on", "off"]),
        ],
    )
    def test_invalid_value_names_value_and_choices(self, statement, fragments):
        session = VerticaDatabase(num_nodes=2).connect()
        with pytest.raises(SqlError) as err:
            session.execute(statement)
        for fragment in fragments:
            assert fragment in str(err.value)


# ----------------------------------------------------- randomized stale stats
class TestRandomizedStaleStats:
    @given(
        analyzed=st.integers(min_value=1, max_value=8),
        growth=st.integers(min_value=1, max_value=30),
        dims=st.integers(min_value=1, max_value=8),
        reorder=st.booleans(),
        strategy=st.sampled_from(["auto", "hash", "merge"]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stale_stats_never_change_answers(
        self, analyzed, growth, dims, reorder, strategy
    ):
        db = VerticaDatabase(num_nodes=3)
        session = db.connect()
        session.execute(
            "CREATE TABLE sf (k INTEGER, m INTEGER) "
            "SEGMENTED BY HASH(k) ALL NODES"
        )
        session.execute(
            "CREATE TABLE sd (k2 INTEGER, n INTEGER) UNSEGMENTED ALL NODES"
        )
        session.execute(
            "CREATE TABLE se (k3 INTEGER, p INTEGER) "
            "SEGMENTED BY HASH(k3) ALL NODES"
        )
        session.execute(
            "INSERT INTO sf VALUES "
            + ", ".join(f"({i % 7}, {i})" for i in range(analyzed))
        )
        session.execute(
            "INSERT INTO sd VALUES "
            + ", ".join(f"({i}, {i * 2})" for i in range(dims))
        )
        session.execute(
            "INSERT INTO se VALUES "
            + ", ".join(f"({i}, {i + 9})" for i in range(dims))
        )
        for name in ("sf", "sd", "se"):
            session.execute(f"ANALYZE {name}")
        total = analyzed * growth
        if total > analyzed:
            session.execute(
                "INSERT INTO sf VALUES "
                + ", ".join(f"({i % 7}, {i})" for i in range(analyzed, total))
            )
        sql = "SELECT m, n, p FROM sf JOIN sd ON k = k2 JOIN se ON k = k3"
        assert_identical_with_flags(
            db, sql, reorder=reorder, adaptive=True, strategy=strategy
        )
