"""Differential proof that the plan pipeline equals the legacy interpreter.

``tests.reference_interpreter.LegacyInterpreter`` is a frozen copy of the
pre-pipeline row-at-a-time SELECT evaluator.  Every test here runs the
same statement through both and demands *byte-identical* results: the
rows in order, the column names, and every field of the
:class:`~repro.vertica.engine.CostReport` (total and per-node) — because
the JDBC simulation bridge converts those counters into simulated
network/CPU time, any drift would silently change every benchmark in the
repo.

Two layers of coverage:

- a deterministic matrix of hand-picked statements exercising each
  operator and optimizer rule (pruning, pushdown, folding, views, joins,
  system tables, epochs, error paths);
- hypothesis-generated random schemas/rows/queries (derandomized so CI
  is reproducible).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.sql.parser import parse_statement
from tests.reference_interpreter import LegacyInterpreter

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


def run_select(runner, db, sql, initiator, txn=None):
    """Run one SELECT; returns ("ok", result) or ("err", type, message)."""
    statement = parse_statement(sql)
    assert isinstance(statement, ast.Select), sql
    txn = txn or db.begin()
    try:
        return "ok", runner(statement, txn, initiator)
    except Exception as error:  # noqa: BLE001 - compared structurally
        return "err", type(error).__name__, str(error)


def cost_value(cost, field, ordered=True):
    """One CostReport field; per-node dicts as ordered (node, value) pairs.

    The JDBC bridge walks the per-node dicts in insertion order (it
    spawns one simulated process per node in that order), so the order is
    part of the simulated answer, not just the totals.
    """
    value = getattr(cost, field)
    if ordered and isinstance(value, dict):
        return list(value.items())
    return value


def assert_identical(db, sql, initiator=None, ordered=True):
    """Pipeline == legacy on rows, columns, errors and every cost field.

    ``ordered=False`` compares the per-node dicts as mappings only: the
    nested-loop join materializes its right input before its left one,
    so its scan charges reach ``node_rows_scanned`` in the opposite order
    from the legacy interpreter's.
    """
    initiator = initiator or db.node_names[0]
    legacy = LegacyInterpreter(db)
    expected = run_select(legacy.select, db, sql, initiator)
    actual = run_select(db.engine.select, db, sql, initiator)
    if expected[0] == "err":
        assert actual == expected, f"{sql}: pipeline diverged on error"
        return
    assert actual[0] == "ok", f"{sql}: pipeline raised {actual[1:]}"
    want, got = expected[1], actual[1]
    assert got.columns == want.columns, sql
    assert got.rows == want.rows, sql
    for field in COST_FIELDS:
        assert cost_value(got.cost, field, ordered) == cost_value(
            want.cost, field, ordered
        ), f"{sql}: cost.{field} diverged"


@pytest.fixture(scope="module")
def db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE people (id INTEGER, age INTEGER, name VARCHAR(20), "
        "score FLOAT) SEGMENTED BY HASH(id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dept (d_id INTEGER, dept VARCHAR(10)) "
        "UNSEGMENTED ALL NODES"
    )
    session.execute(
        "INSERT INTO people VALUES "
        "(1, 34, 'ann', 12.5), (2, 17, 'bob', 3.0), (3, NULL, 'cho', 88.0), "
        "(4, 51, NULL, NULL), (5, 17, 'dee', 41.5), (6, 90, 'eve', 0.5)"
    )
    session.execute(
        "INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (4, 'eng')"
    )
    session.execute("CREATE VIEW adult AS SELECT id, age FROM people WHERE age >= 18")
    # A second committed batch so AT EPOCH reads see real history.
    session.execute("INSERT INTO people VALUES (7, 28, 'fay', 7.25)")
    session.execute(
        "CREATE TABLE flags (f BOOLEAN, g BOOLEAN, n INTEGER, x FLOAT) "
        "SEGMENTED BY HASH(n) ALL NODES"
    )
    session.execute(
        "INSERT INTO flags VALUES (true, false, 1, 1.5), (NULL, true, 2, NULL), "
        "(false, NULL, NULL, 2.0), (true, true, 4, 4.0), (NULL, NULL, 5, -1.0)"
    )
    return database


SEGMENT_SQL = None  # filled per-db inside the test (needs ring bounds)

MATRIX = [
    "SELECT * FROM people",
    "SELECT id, name FROM people",
    "SELECT name, name FROM people",
    "SELECT id + 1, age * 2 FROM people WHERE age > 20",
    "SELECT id AS ident, score FROM people WHERE name = 'ann' OR age < 30",
    "SELECT * FROM people WHERE age IS NULL",
    "SELECT * FROM people WHERE age IS NOT NULL AND score BETWEEN 1.0 AND 60.0",
    "SELECT * FROM people WHERE name LIKE 'a%'",
    "SELECT * FROM people WHERE id IN (1, 2, 3)",
    "SELECT * FROM people WHERE NOT (age > 20)",
    "SELECT COUNT(*) FROM people",
    "SELECT COUNT(age), SUM(age), AVG(score), MIN(name), MAX(id) FROM people",
    "SELECT age, COUNT(*) FROM people GROUP BY age",
    "SELECT age, COUNT(*) AS n FROM people GROUP BY age HAVING n > 1",
    "SELECT COUNT(DISTINCT age) FROM people",
    "SELECT age, SUM(score) FROM people WHERE id > 2 GROUP BY age ORDER BY age",
    "SELECT SUM(age) FROM people WHERE id > 999",
    "SELECT * FROM people ORDER BY age",
    "SELECT * FROM people ORDER BY age DESC, id",
    "SELECT * FROM people ORDER BY name LIMIT 3",
    "SELECT id, age FROM people ORDER BY age + id DESC",
    "SELECT id FROM people LIMIT 0",
    "SELECT name FROM people WHERE age > 100",
    "SELECT 1 + 2",
    "SELECT 1 + 2 AS three, 'x'",
    "SELECT * FROM dept",
    "SELECT dept, COUNT(*) FROM dept GROUP BY dept",
    "SELECT p.name, d.dept FROM people p JOIN dept d ON p.id = d.d_id",
    "SELECT name, dept FROM people JOIN dept ON id = d_id WHERE age > 18",
    "SELECT * FROM adult",
    "SELECT * FROM adult WHERE age > 21",
    "SELECT a.age, COUNT(*) FROM adult a GROUP BY a.age",
    "SELECT * FROM v_catalog.nodes",
    "SELECT * FROM v_monitor.storage_containers",
    "AT EPOCH 1 SELECT COUNT(*) FROM people",
    "SELECT missing FROM people",
    "SELECT id, missing + 1 FROM people",
    "SELECT MIN(age) FROM people GROUP BY missing",
    "SELECT SYNTHETIC_HASH() FROM dept",
]


#: shapes the executor evaluates column-at-a-time (never-raising, typed)
#: next to near misses that must stay row-major to keep their errors
COLUMNAR_MATRIX = [
    "SELECT * FROM people WHERE id IN (1, NULL)",
    "SELECT * FROM people WHERE id NOT IN (1, NULL)",
    "SELECT id IN (1, NULL), id NOT IN (2, 3) FROM people",
    "SELECT * FROM people WHERE score IN (12.5, 3)",
    "SELECT * FROM people WHERE age BETWEEN NULL AND 40",
    "SELECT * FROM people WHERE age BETWEEN id AND 40",
    "SELECT age BETWEEN 17 AND id * 10 FROM people",
    "SELECT name LIKE 'a%', name NOT LIKE '_o_' FROM people",
    "SELECT * FROM people WHERE NOT (age > 20 OR score < 10.0)",
    "SELECT age > score, age = score, id <> age FROM people",
    "SELECT id * age + 1, age - id, score * score, score + 1.0 FROM people",
    "SELECT id * 2.5, score + id FROM people",
    "SELECT * FROM people WHERE age * 2 > id + 30 AND score * 2.0 >= 20.0",
    "SELECT f AND g, f OR g, NOT f FROM flags",
    "SELECT * FROM flags WHERE f AND g",
    "SELECT * FROM flags WHERE f OR n > 2",
    "SELECT * FROM flags WHERE n",
    # a non-boolean conjunct: Kleene AND keeps 5 AND TRUE, 5 alone is not TRUE
    "SELECT * FROM flags WHERE n AND x > 0.0",
    "SELECT * FROM flags WHERE f AND n AND g",
    "SELECT * FROM people WHERE age AND id",
    "SELECT n, x FROM flags WHERE n < x OR x IS NULL",
    "SELECT f, g, COUNT(*), SUM(n), MIN(x) FROM flags GROUP BY f, g",
    "SELECT n * 2 AS d, x FROM flags ORDER BY d DESC",
    "SELECT n, x FROM flags ORDER BY x DESC, n",
    "SELECT n, x FROM flags ORDER BY f, x",
    "SELECT name, age FROM people ORDER BY age DESC, name",
    "SELECT age + id AS k, COUNT(*) FROM people GROUP BY age + id ORDER BY k",
    "SELECT age, SUM(score * 2.0), SUM(id / 2) FROM people GROUP BY age",
    "SELECT id, age / (age - age) FROM people",
    "SELECT id, name || 'x', age + name FROM people",
    "SELECT * FROM people WHERE age > 'x' AND id > 0",
    "SELECT p.id, d.dept, p.age * 2 FROM people p JOIN dept d "
    "ON p.id = d.d_id AND p.age > 20",
    "SELECT p.id, q.id FROM people p JOIN people q ON p.age = q.age "
    "ORDER BY p.id, q.id",
    "SELECT * FROM people WHERE SYNTHETIC_HASH() > 1000",
    # int * float may overflow: the first row's division error must win
    "SELECT age / 0, age * 1" + "0" * 400 + " * 1.5 FROM people",
]


class TestDeterministicMatrix:
    @pytest.mark.parametrize("sql", MATRIX)
    def test_matrix_statement(self, db, sql):
        assert_identical(db, sql)

    @pytest.mark.parametrize("sql", COLUMNAR_MATRIX)
    def test_columnar_shape(self, db, sql):
        assert_identical(db, sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM people",
            "SELECT * FROM dept",
            "SELECT age, COUNT(*) FROM people GROUP BY age",
            "SELECT * FROM adult",
        ],
    )
    def test_matrix_from_other_initiator(self, db, sql):
        # Unsegmented reads and view attribution depend on the initiator.
        assert_identical(db, sql, initiator=db.node_names[2])

    def test_hash_range_pruned_query(self, db):
        table = db.catalog.table("people")
        for segment in table.ring.segments[:2]:
            assert_identical(
                db,
                f"SELECT id, name FROM people WHERE HASH(id) >= {segment.lo} "
                f"AND HASH(id) < {segment.hi}",
            )

    def test_read_your_writes_in_open_transaction(self, db):
        # Uncommitted WOS rows must be visible through the pipeline the
        # same way the legacy interpreter saw them.
        statement = parse_statement("SELECT id, name FROM people ORDER BY id")
        txn = db.begin()
        initiator = db.node_names[0]
        db.engine.insert_rows(
            "PEOPLE",
            {"ID": [99], "AGE": [1], "NAME": ["wos"], "SCORE": [9.0]},
            txn,
        )
        legacy = LegacyInterpreter(db)
        want = legacy.select(parse_statement("SELECT id, name FROM people ORDER BY id"), txn, initiator)
        got = db.engine.select(statement, txn, initiator)
        assert got.rows == want.rows
        assert (99, "wos") in got.rows
        txn.abort()


# ----------------------------------------------------------- hypothesis layer
values = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))
names = st.one_of(st.none(), st.sampled_from(["ann", "bob", "cho", "dee", ""]))
rows_strategy = st.lists(
    st.tuples(values, values, names), min_size=0, max_size=25
)

OPERATORS = ["=", "<>", "<", "<=", ">", ">="]
where_strategy = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.sampled_from(OPERATORS),
        st.integers(min_value=-50, max_value=50),
    ),
)
items_strategy = st.sampled_from([
    "*",
    "A, B",
    "B, A, C",
    "A + 1, B - A",
    "C, A",
    "COUNT(*)",
    "COUNT(A), SUM(B)",
    "B, COUNT(*), MIN(A), MAX(C)",
    "B, COUNT(DISTINCT A)",
])
order_strategy = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["A", "B", "C"]), st.booleans()),
)
limit_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=10))


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)


def build_random_db(rows):
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    session.execute(
        "CREATE TABLE r (a INTEGER, b INTEGER, c VARCHAR(10)) "
        "SEGMENTED BY HASH(a) ALL NODES"
    )
    if rows:
        session.execute(
            "INSERT INTO r VALUES "
            + ", ".join(
                "(" + ", ".join(sql_literal(v) for v in row) + ")"
                for row in rows
            )
        )
    return db


def compose_sql(items, where, order, limit):
    sql = f"SELECT {items} FROM r"
    if where is not None:
        column, op, literal = where
        sql += f" WHERE {column} {op} {literal}"
    aggregated = "COUNT" in items or "SUM(" in items or "MIN(" in items
    if aggregated and items.startswith("B"):
        sql += " GROUP BY B"
    if order is not None and not aggregated:
        column, desc = order
        sql += f" ORDER BY {column}" + (" DESC" if desc else "")
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


class TestRandomizedDifferential:
    @given(
        rows=rows_strategy,
        items=items_strategy,
        where=where_strategy,
        order=order_strategy,
        limit=limit_strategy,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_query_matches_legacy(self, rows, items, where, order, limit):
        db = build_random_db(rows)
        assert_identical(db, compose_sql(items, where, order, limit))

    @given(rows=rows_strategy, bound=st.integers(min_value=-50, max_value=50))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_random_constant_folding_and_ranges(self, rows, bound):
        db = build_random_db(rows)
        # Folded arithmetic in WHERE and select list plus a hash-range
        # conjunct that tightening must read from the *pristine* WHERE.
        segment = db.catalog.table("r").ring.segments[0]
        assert_identical(
            db,
            f"SELECT A + (1 + 2), B FROM r WHERE B > {bound} - 10 "
            f"AND HASH(a) >= {segment.lo} AND HASH(a) < {segment.hi}",
        )


# ------------------------------------------------------------- join matrix
@pytest.fixture(scope="module")
def join_db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE fact (k INTEGER, v FLOAT) SEGMENTED BY HASH(k) ALL NODES"
    )
    session.execute(
        "CREATE TABLE dim (k2 INTEGER, label VARCHAR(10)) "
        "SEGMENTED BY HASH(k2) ALL NODES"
    )
    session.execute(
        "CREATE TABLE lookup (lk INTEGER, note VARCHAR(10)) UNSEGMENTED ALL NODES"
    )
    session.execute(
        "CREATE TABLE empty_t (e INTEGER, w FLOAT) SEGMENTED BY HASH(e) ALL NODES"
    )
    session.execute(
        "INSERT INTO fact VALUES (1, 1.5), (1, 2.5), (2, 0.5), (3, 9.0), "
        "(NULL, 4.0), (5, NULL), (7, 7.0)"
    )
    session.execute(
        "INSERT INTO dim VALUES (1, 'one'), (2, 'two'), (2, 'dup'), "
        "(NULL, 'nil'), (4, 'four')"
    )
    session.execute("INSERT INTO lookup VALUES (1, 'a'), (3, 'b'), (NULL, 'c')")
    return database


STRATEGIES = ["auto", "hash", "merge", "nested-loop"]

#: the one non-equi statement: a nested-loop join under every strategy
NON_EQUI_SQL = "SELECT v, label FROM fact JOIN dim ON k < k2"

JOIN_MATRIX = [
    # co-located equi join on both segmentation keys (hash under auto)
    "SELECT v, label FROM fact JOIN dim ON k = k2",
    # pushdown-below-join: one-sided conjuncts move into each scan
    "SELECT v, label FROM fact JOIN dim ON k = k2 WHERE v > 1.0 AND label <> 'dup'",
    # qualified aliases with duplicate keys on both sides
    "SELECT f.k, d.label FROM fact f JOIN dim d ON f.k = d.k2 ORDER BY f.k, d.label",
    # unsegmented right side (never co-located)
    "SELECT v, note FROM fact JOIN lookup ON k = lk",
    # empty right side / empty left side
    "SELECT v, w FROM fact JOIN empty_t ON k = e",
    "SELECT w, v FROM empty_t JOIN fact ON e = k",
    # non-equi condition: always nested loop
    NON_EQUI_SQL,
    # aggregates over a join
    "SELECT COUNT(*) FROM fact JOIN dim ON k = k2",
    "SELECT label, SUM(v) FROM fact JOIN dim ON k = k2 GROUP BY label ORDER BY label",
    # three-way chain through the unsegmented lookup
    "SELECT v, label, note FROM fact JOIN dim ON k = k2 JOIN lookup ON k = lk",
    # self join under one alias: plain names resolve left, qualified right
    "SELECT fact.k, k, fact.v, v FROM fact JOIN fact ON fact.k = k",
    # ORDER + LIMIT on top of a join
    "SELECT v, label FROM fact JOIN dim ON k = k2 ORDER BY v DESC LIMIT 2",
    # error path: FLOAT-vs-VARCHAR residual forces nested loop even when
    # forced to hash/merge — skipping pairs would also skip the error
    "SELECT v FROM fact JOIN dim ON k = k2 AND v > label",
    # error path in the WHERE above the join (pushdown must not hide it)
    "SELECT v FROM fact JOIN dim ON k = k2 WHERE v > label",
]


def assert_identical_with_strategy(db, sql, strategy, ordered=None):
    """``ordered`` defaults to strict unless the join runs as a nested loop."""
    if ordered is None:
        ordered = strategy != "nested-loop" and sql != NON_EQUI_SQL
    db.join_strategy = strategy
    try:
        assert_identical(db, sql, ordered=ordered)
    finally:
        db.join_strategy = "auto"


class TestJoinMatrix:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("sql", JOIN_MATRIX)
    def test_join_statement(self, join_db, sql, strategy):
        assert_identical_with_strategy(join_db, sql, strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_join_after_analyze(self, join_db, strategy):
        # Statistics may steer the strategy/build side but never the rows.
        session = join_db.connect()
        session.execute("ANALYZE fact")
        session.execute("ANALYZE dim")
        assert_identical_with_strategy(
            join_db,
            "SELECT v, label FROM fact JOIN dim ON k = k2 WHERE v > 1.0",
            strategy,
        )


def test_nan_join_keys():
    """NaN keys (COPY reads 'nan') never equi-match, as in the legacy
    interpreter, where ``nan == nan`` is false even for one NaN object.

    Dict lookup and tuple equality would pair a NaN object with itself,
    so the self-join and the INSERT ... SELECT copy (both sides holding
    the same NaN objects) check every strategy, the merge join included.
    """
    db = VerticaDatabase(num_nodes=3)
    session = db.connect()
    session.execute(
        "CREATE TABLE a (x FLOAT, p INTEGER) SEGMENTED BY HASH(p) ALL NODES"
    )
    session.execute(
        "CREATE TABLE b (y FLOAT, q INTEGER) SEGMENTED BY HASH(q) ALL NODES"
    )
    session.execute(
        "CREATE TABLE c (z FLOAT, r INTEGER) SEGMENTED BY HASH(r) ALL NODES"
    )
    session.execute("COPY a FROM STDIN DELIMITER ','",
                    copy_data="nan,1\n1.5,2\nnan,3\n2.0,4\n,5\n")
    session.execute("COPY b FROM STDIN DELIMITER ','",
                    copy_data="nan,1\n1.5,2\n2.0,3\n2.0,4\n")
    session.execute("INSERT INTO c SELECT x, p FROM a")
    session.execute("COMMIT")
    for sql in (
        "SELECT p, q FROM a JOIN b ON x = y",
        "SELECT a.p, a2.p FROM a JOIN a AS a2 ON a.x = a2.x",
        "SELECT p, r FROM a JOIN c ON x = z",
        "SELECT a.p, a2.p FROM a JOIN a AS a2 ON a.x = a2.x AND a.p = a2.p",
    ):
        for strategy in STRATEGIES:
            assert_identical_with_strategy(db, sql, strategy)


# ------------------------------------------------- randomized join layer
join_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    ),
    min_size=0,
    max_size=12,
)
join_where = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["A", "B", "B2"]),
        st.sampled_from(OPERATORS),
        st.integers(min_value=-50, max_value=50),
    ),
)


class TestRandomizedJoinDifferential:
    @given(
        left_rows=join_rows,
        right_rows=join_rows,
        strategy=st.sampled_from(STRATEGIES),
        where=join_where,
        analyze=st.booleans(),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_random_join_matches_legacy(
        self, left_rows, right_rows, strategy, where, analyze
    ):
        db = VerticaDatabase(num_nodes=3)
        session = db.connect()
        session.execute(
            "CREATE TABLE lt (a INTEGER, b INTEGER) SEGMENTED BY HASH(a) ALL NODES"
        )
        session.execute(
            "CREATE TABLE rt (a2 INTEGER, b2 INTEGER) "
            "SEGMENTED BY HASH(a2) ALL NODES"
        )
        for name, rows in (("lt", left_rows), ("rt", right_rows)):
            if rows:
                session.execute(
                    f"INSERT INTO {name} VALUES "
                    + ", ".join(
                        "(" + ", ".join(sql_literal(v) for v in row) + ")"
                        for row in rows
                    )
                )
        if analyze:
            session.execute("ANALYZE lt")
            session.execute("ANALYZE rt")
        sql = "SELECT b, b2 FROM lt JOIN rt ON a = a2"
        if where is not None:
            column, op, literal = where
            sql += f" WHERE {column} {op} {literal}"
        assert_identical_with_strategy(db, sql, strategy)


# ------------------------------------------------------ hash-range matrix
@pytest.fixture(scope="module")
def hash_db():
    """Two segmented tables (one and two segmentation columns) with
    history, delete vectors and a k-safe buddy layout."""
    database = VerticaDatabase(num_nodes=4, k_safety=1)
    session = database.connect()
    session.execute(
        "CREATE TABLE hr (k INTEGER, j INTEGER, name VARCHAR(10), x FLOAT) "
        "SEGMENTED BY HASH(k) ALL NODES"
    )
    session.execute(
        "CREATE TABLE hr2 (k INTEGER, name VARCHAR(10), x FLOAT) "
        "SEGMENTED BY HASH(k, name) ALL NODES"
    )
    for start in (0, 40):
        values = ", ".join(
            f"({i}, {i % 7}, {'NULL' if i % 9 == 4 else repr('n' + str(i % 5))}, "
            f"{'NULL' if i % 6 == 1 else i * 0.25})"
            for i in range(start, start + 40)
        )
        session.execute(f"INSERT INTO hr VALUES {values}")
        session.execute(
            "INSERT INTO hr2 SELECT k, name, x FROM hr WHERE k >= "
            f"{start} AND k < {start + 40}"
        )
    session.execute("DELETE FROM hr WHERE j = 3")
    session.execute("INSERT INTO hr VALUES (NULL, 1, 'nul', 1.0)")
    return database


def hash_range_sql(table, lo, hi):
    """Every shape of HASH condition over ``[lo, hi)``: absorbed conjuncts
    in both orientations, BETWEEN and =, next to shapes that stay in the
    predicate (a float bound, OR'd terms, the wrong columns)."""
    seg = "k" if table == "hr" else "k, name"
    h = f"HASH({seg})"
    return [
        f"SELECT * FROM {table} WHERE {h} >= {lo} AND {h} < {hi}",
        f"SELECT k, x FROM {table} WHERE {lo} <= {h} AND {hi} > {h}",
        f"SELECT k FROM {table} WHERE {h} > {lo - 1} AND {h} <= {hi - 1}",
        f"SELECT k FROM {table} WHERE {h} BETWEEN {lo} AND {hi - 1}",
        f"SELECT k FROM {table} WHERE {h} BETWEEN {lo} AND 'z'",
        f"SELECT k FROM {table} WHERE {h} >= {lo}.5 AND {h} < {hi}",
        f"SELECT k FROM {table} WHERE {h} < {lo} OR {h} >= {hi}",
        f"SELECT k FROM {table} WHERE ({h} >= {lo} AND {h} < {hi}) OR k = 3",
        f"SELECT k, name FROM {table} WHERE x > 2.0 AND {h} >= {lo} "
        f"AND name IS NOT NULL AND {h} < {hi}",
        f"SELECT name, COUNT(*), SUM(x) FROM {table} WHERE {h} >= {lo} "
        f"AND {h} < {hi} GROUP BY name ORDER BY name",
        f"SELECT k + 1, {h} FROM {table} WHERE {h} >= {lo} AND {h} < {hi} "
        "ORDER BY k",
        f"SELECT k FROM {table} WHERE HASH(x) >= {lo} AND HASH(x) < {hi}",
        f"SELECT k FROM {table} WHERE {h} >= {lo} AND {h} < {hi} "
        "AND x / 0 > 1",
        f"SELECT k FROM {table} WHERE {h} >= TRUE AND {h} < {hi}",
        f"SELECT k FROM {table} WHERE NOT ({h} < {lo}) AND {h} < {hi}",
        f"SELECT k FROM {table} WHERE {h} >= {hi} AND {h} < {lo}",
        # a non-boolean conjunct: Kleene AND with TRUE is bool(k), not k
        f"SELECT k FROM {table} WHERE {h} >= {lo} AND k AND {h} < {hi}",
        f"SELECT k FROM {table} WHERE x AND ({h} >= {lo} AND {h} < {hi})",
    ]


def hash_ranges(database, table):
    """Each segment, a quarter of one, a range across a boundary and the
    full ring."""
    ring = database.catalog.table(table).ring
    first, second = ring.segments[0], ring.segments[1]
    quarter = (first.hi - first.lo) // 4
    out = [(s.lo, s.hi) for s in ring.segments]
    out.append((first.lo + quarter, first.lo + 2 * quarter))
    out.append((first.hi - quarter, second.lo + quarter))
    out.append((0, 1 << 32))
    return out


class TestHashRangeMatrix:
    @pytest.mark.parametrize("table", ["hr", "hr2"])
    def test_hash_range_statements(self, hash_db, table):
        for lo, hi in hash_ranges(hash_db, table):
            for sql in hash_range_sql(table, lo, hi):
                assert_identical(hash_db, sql)

    def test_hash_equality(self, hash_db):
        from repro.vertica.hashring import vertica_hash

        for k in (0, 5, 41):
            h = vertica_hash(k)
            assert_identical(hash_db, f"SELECT * FROM hr WHERE HASH(k) = {h}")
            assert_identical(hash_db, f"SELECT * FROM hr WHERE {h} = HASH(k)")
            # float bounds next to a stored hash: the range may not decide
            # them (``<= n`` becomes ``< n + 1`` only for an integer n)
            for sql in (f"HASH(k) <= {h - 1}.5", f"HASH(k) > {h}.5",
                        f"HASH(k) BETWEEN {h}.5 AND {h + 9}",
                        f"HASH(k) >= {h}.5", f"HASH(k) < {h}.5"):
                assert_identical(hash_db, f"SELECT * FROM hr WHERE {sql}")

    def test_at_epoch(self, hash_db):
        for lo, hi in hash_ranges(hash_db, "hr")[:4]:
            for epoch in (2, 4, hash_db.epochs.current):
                assert_identical(
                    hash_db,
                    f"AT EPOCH {epoch} SELECT k, x FROM hr "
                    f"WHERE HASH(k) >= {lo} AND HASH(k) < {hi}",
                )

    def test_other_initiator(self, hash_db):
        for lo, hi in hash_ranges(hash_db, "hr2")[:4]:
            assert_identical(
                hash_db,
                f"SELECT * FROM hr2 WHERE HASH(k, name) >= {lo} "
                f"AND HASH(k, name) < {hi}",
                initiator=hash_db.node_names[3],
            )

    def test_open_transaction_with_wos_rows(self, hash_db):
        session = hash_db.connect()
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO hr VALUES (500, 1, 'w1', 2.5), (501, 2, NULL, 3.5), "
            "(502, 3, 'w3', NULL)"
        )
        session.execute("DELETE FROM hr WHERE k < 10")
        txn = session._txn
        initiator = hash_db.node_names[0]
        try:
            for lo, hi in hash_ranges(hash_db, "hr"):
                for sql in hash_range_sql("hr", lo, hi)[:10]:
                    want = run_select(LegacyInterpreter(hash_db).select,
                                      hash_db, sql, initiator, txn)
                    got = run_select(hash_db.engine.select, hash_db, sql,
                                     initiator, txn)
                    assert_same_outcome(sql, got, want)
        finally:
            session.execute("ROLLBACK")

    def test_down_node(self, hash_db):
        hash_db.fail_node(hash_db.node_names[1])
        try:
            for table in ("hr", "hr2"):
                for lo, hi in hash_ranges(hash_db, table):
                    for sql in hash_range_sql(table, lo, hi)[:4]:
                        assert_identical(hash_db, sql)
        finally:
            hash_db.recover_node(hash_db.node_names[1])


def assert_same_outcome(sql, got, want):
    if want[0] == "err":
        assert got == want, sql
        return
    assert got[0] == "ok", f"{sql}: pipeline raised {got[1:]}"
    assert got[1].columns == want[1].columns, sql
    assert got[1].rows == want[1].rows, sql
    for field in COST_FIELDS:
        assert cost_value(got[1].cost, field) == cost_value(
            want[1].cost, field), f"{sql}: cost.{field} diverged"
