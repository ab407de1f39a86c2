"""Golden matrix for UPDATE/DELETE: rowcounts, visible tables, every cost field.

The legacy-oracle differential suites cover SELECT only.  This module
pins the DML path the same way: each scenario replays a fixed statement
script against a fresh database, and every step records

- the statement's rowcount (or its error type and message),
- every :class:`~repro.vertica.engine.CostReport` field, with the
  per-node dicts as ordered ``(node, value)`` pairs — the JDBC bridge
  spawns one simulated process per node in that order,
- the table as a plain ``SELECT *`` then sees it (rows in scan order,
  plus that read's own cost).

Scenarios end with an ``AT EPOCH`` sweep over every epoch the script
produced, so reads across delete vectors are pinned too.  Values are
stored as ``repr`` strings: ``1``, ``1.0`` and ``True`` must stay apart.

The expected records live in ``tests/golden/dml_matrix.json``.  They
change only when DML semantics change on purpose; re-record with::

    PYTHONPATH=src python -m tests.test_dml_golden
"""

import json
from pathlib import Path

import pytest

from repro.vertica import VerticaDatabase
from repro.vertica.errors import VerticaError

GOLDEN = Path(__file__).parent / "golden" / "dml_matrix.json"

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


def canon(value):
    """JSON-safe, type-exact rendering of rows and cost fields."""
    if isinstance(value, dict):
        return [[key, canon(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    return repr(value)


def cost_record(cost):
    return {field: canon(getattr(cost, field)) for field in COST_FIELDS}


def run_step(session, sql):
    try:
        result = session.execute(sql)
    except VerticaError as error:
        return {"sql": sql, "error": [type(error).__name__, str(error)]}
    return {
        "sql": sql,
        "rowcount": result.rowcount,
        "rows": canon(result.rows),
        "cost": cost_record(result.cost),
    }


def seed_rows(start, stop):
    """Deterministic rows with NULLs in every column but the key."""
    out = []
    for i in range(start, stop):
        grp = "NULL" if i % 7 == 3 else str(i % 4)
        v = "NULL" if i % 5 == 2 else f"{i * 1.5}"
        s = "NULL" if i % 6 == 1 else f"'s{i % 3}'"
        out.append(f"({i}, {grp}, {v}, {s})")
    return ", ".join(out)


def make_db(k_safety=0, unsegmented=False):
    db = VerticaDatabase(num_nodes=4, k_safety=k_safety)
    session = db.connect()
    layout = "UNSEGMENTED ALL NODES" if unsegmented else (
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    session.execute(
        "CREATE TABLE t (id INTEGER, grp INTEGER, v FLOAT, s VARCHAR(10)) "
        + layout
    )
    # Three commits: several containers per node, three epochs of history.
    for start, stop in ((0, 14), (14, 23), (23, 30)):
        session.execute(f"INSERT INTO t VALUES {seed_rows(start, stop)}")
    if unsegmented:
        # identical logical rows: the replicated-copy dedup sees them as one
        session.execute("INSERT INTO t VALUES (40, 1, 2.5, 'dup'), "
                        "(40, 1, 2.5, 'dup')")
    return db


#: statements every single-statement scenario replays, in order
DML_SCRIPT = [
    "UPDATE t SET v = v * 2 WHERE grp = 1",
    "DELETE FROM t WHERE v > 30.0",
    "UPDATE t SET s = 'x' WHERE s IS NULL",
    "DELETE FROM t WHERE id IN (3, 4, 40)",
    "UPDATE t SET grp = grp + 1",
    "DELETE FROM t WHERE HASH(id) < 2147483648 AND grp = 2",
    "UPDATE t SET v = v + 1.0, s = 'y' WHERE id BETWEEN 5 AND 12 OR grp IS NULL",
    "DELETE FROM t WHERE s LIKE 's%' AND NOT (v < 5.0)",
    # error paths: type mismatch on write-back, mixed-type comparison,
    # division by zero, unknown columns on either side
    "UPDATE t SET id = 'abc' WHERE id = 1",
    "DELETE FROM t WHERE s > 1",
    "UPDATE t SET v = v / 0 WHERE id = 7",
    "DELETE FROM t WHERE id / (grp - grp) > 1",
    "UPDATE t SET missing = 1",
    "DELETE FROM t WHERE missing = 1",
    "UPDATE t SET v = 0.0 WHERE id = 999",
]


def replay(session, script):
    steps = []
    for sql in script:
        step = run_step(session, sql)
        if not sql.startswith(("SELECT", "AT EPOCH", "BEGIN", "COMMIT")):
            step["visible"] = run_step(session, "SELECT * FROM t")
        steps.append(step)
    return steps


def epoch_sweep(db, session):
    return [
        run_step(session, f"AT EPOCH {epoch} SELECT * FROM t")
        for epoch in range(1, db.epochs.current + 1)
    ]


def scenario_segmented():
    db = make_db()
    session = db.connect()
    return replay(session, DML_SCRIPT) + epoch_sweep(db, session)


def scenario_unsegmented():
    db = make_db(unsegmented=True)
    # DML touches every replicated copy; the initiator's copy is read
    session = db.connect(node=db.node_names[2])
    return replay(session, DML_SCRIPT) + epoch_sweep(db, session)


def scenario_ksafe_node_down():
    db = make_db(k_safety=1)
    session = db.connect()
    db.fail_node(db.node_names[1])  # its buddy serves the replica copy
    steps = replay(session, DML_SCRIPT[:8])
    steps += epoch_sweep(db, session)
    db.recover_node(db.node_names[1])
    steps.append(run_step(session, "SELECT * FROM t"))
    return steps


def scenario_ksafe_unsegmented_down():
    db = make_db(k_safety=1, unsegmented=True)
    session = db.connect()
    db.fail_node(db.node_names[3])
    return replay(session, DML_SCRIPT[:6]) + epoch_sweep(db, session)


def scenario_staged_transaction():
    """DML inside a transaction that already staged inserts and deletes."""
    db = make_db()
    session = db.connect()
    script = [
        "BEGIN",
        "INSERT INTO t VALUES (100, 1, 3.5, 'w'), (101, 2, NULL, NULL), "
        "(102, 1, 80.0, 's1')",
        "DELETE FROM t WHERE id < 6",
        "UPDATE t SET v = v * 2 WHERE grp = 1",
        "DELETE FROM t WHERE v > 30.0",
        "UPDATE t SET s = 'z' WHERE id >= 100 OR s IS NULL",
        "SELECT id, v FROM t WHERE grp = 1",
        "COMMIT",
    ]
    return replay(session, script) + epoch_sweep(db, session)


def scenario_staged_transaction_unsegmented():
    db = make_db(unsegmented=True)
    session = db.connect(node=db.node_names[1])
    script = [
        "BEGIN",
        "INSERT INTO t VALUES (100, 1, 3.5, 'w'), (101, 2, NULL, NULL)",
        "DELETE FROM t WHERE id < 6",
        "UPDATE t SET v = 1.0 WHERE grp = 1",
        "DELETE FROM t WHERE id = 101",
        "COMMIT",
    ]
    return replay(session, script) + epoch_sweep(db, session)


def scenario_staged_transaction_rollback():
    db = make_db()
    session = db.connect()
    script = [
        "BEGIN",
        "DELETE FROM t WHERE grp = 0",
        "UPDATE t SET grp = 9 WHERE grp = 3",
        "ROLLBACK",
        "DELETE FROM t WHERE grp = 3",
    ]
    return replay(session, script) + epoch_sweep(db, session)


SCENARIOS = {
    "segmented": scenario_segmented,
    "unsegmented": scenario_unsegmented,
    "ksafe_node_down": scenario_ksafe_node_down,
    "ksafe_unsegmented_down": scenario_ksafe_unsegmented_down,
    "staged_transaction": scenario_staged_transaction,
    "staged_transaction_unsegmented": scenario_staged_transaction_unsegmented,
    "staged_transaction_rollback": scenario_staged_transaction_rollback,
}


def record():
    return {name: build() for name, build in SCENARIOS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dml_matches_golden(golden, name):
    # A JSON round trip turns the record's tuples into lists, as stored.
    actual = json.loads(json.dumps(SCENARIOS[name]()))
    expected = golden[name]
    assert len(actual) == len(expected), name
    for got, want in zip(actual, expected):
        assert got == want, f"{name}: step {want['sql']!r} diverged"


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = []
    for name, steps in record().items():
        body = ",\n  ".join(json.dumps(step, separators=(",", ":"))
                            for step in steps)
        lines.append(f"{json.dumps(name)}: [\n  {body}\n ]")
    GOLDEN.write_text("{\n " + ",\n ".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
