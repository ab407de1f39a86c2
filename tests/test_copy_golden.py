"""Golden matrix for COPY (Avro, columnar, CSV) and multi-row INSERT.

Each scenario replays a fixed script of loads against a fresh database
and records, per statement,

- the loaded and rejected counts and the rejected-row sample (each
  sample line and its message), or the error type, message and sample,
- every :class:`~repro.vertica.engine.CostReport` field, with per-node
  dicts as ordered ``(node, value)`` pairs,
- the table as a plain ``SELECT *`` then sees it (rows in scan order).

Bad values sit in different columns of different rows, so the order of
rejections and the message of each (its leftmost failing column) are
pinned, as are REJECTMAX within and beyond its limit.  A scenario loads
an ANALYZEd table again and records ``V_CATALOG.COLUMN_STATISTICS``.
Values are stored as ``repr`` strings (``1``, ``1.0`` and ``True`` stay
apart).

The expected records live in ``tests/golden/copy_matrix.json``.  They
change only when load semantics change on purpose; re-record with::

    PYTHONPATH=src python -m tests.test_copy_golden
"""

import json
from pathlib import Path

import pytest

from repro.avrolite import Schema, encode_rows
from repro.hdfs.columnar import write_columnar
from repro.vertica import VerticaDatabase
from repro.vertica.copyload import avro_schema_for_table
from repro.vertica.errors import CopyRejectError, VerticaError
from tests.test_dml_golden import canon, cost_record

GOLDEN = Path(__file__).parent / "golden" / "copy_matrix.json"

TABLE = ("CREATE TABLE t (id INTEGER, v FLOAT, s VARCHAR(6), b BOOLEAN) ")


def make_db(k_safety=0, layout="SEGMENTED BY HASH(id) ALL NODES"):
    db = VerticaDatabase(num_nodes=4, k_safety=k_safety)
    db.connect().execute(TABLE + layout)
    return db


def sample_record(sample):
    return [[repr(row.line), row.reason] for row in sample]


def run_step(session, sql, payload=None):
    session.last_copy_result = None
    try:
        result = session.execute(sql, copy_data=payload)
    except CopyRejectError as error:
        return {"sql": sql, "error": [type(error).__name__, str(error)],
                "sample": sample_record(error.sample)}
    except VerticaError as error:
        return {"sql": sql, "error": [type(error).__name__, str(error)]}
    step = {"sql": sql, "rowcount": result.rowcount,
            "rows": canon(result.rows), "cost": cost_record(result.cost)}
    copied = session.last_copy_result
    if copied is not None:
        step["loaded"] = copied.loaded
        step["rejected"] = copied.rejected
        step["sample"] = sample_record(copied.sample)
    return step


def replay(session, script):
    steps = []
    for sql, payload in script:
        step = run_step(session, sql, payload)
        if sql.startswith(("COPY", "INSERT")):
            step["visible"] = run_step(session, "SELECT * FROM t")
        steps.append(step)
    return steps


def good_rows(start, stop):
    return [
        (i, None if i % 5 == 2 else i * 0.5,
         None if i % 6 == 1 else f"s{i % 4}", None if i % 7 == 3 else i % 2 == 0)
        for i in range(start, stop)
    ]


#: one row per way a value can fail, in a different column each time
LOOSE = Schema.record("t", [
    ("id", Schema.primitive("string", nullable=True)),
    ("v", Schema.primitive("string", nullable=True)),
    ("s", Schema.primitive("long", nullable=True)),
    ("b", Schema.primitive("long", nullable=True)),
])


def loose_rows():
    return [
        ("1", "x", None, None),      # id not INTEGER (first column wins)
        (None, None, 7, None),       # s not VARCHAR
        (None, None, None, 1),       # b not BOOLEAN
        (None, "2.5", None, 0),      # v not FLOAT, then b not BOOLEAN
        (None, None, None, None),    # all NULL: loads
    ]


DOUBLES = Schema.record("t", [
    ("id", Schema.primitive("double", nullable=True)),
    ("v", Schema.primitive("long", nullable=True)),
    ("s", Schema.primitive("string", nullable=True)),
    ("b", Schema.primitive("boolean", nullable=True)),
])


def double_rows():
    return [
        (3.0, 4, "ok", True),         # integral float id and int v coerce
        (2.5, 1, "ok", False),        # 2.5 is not an INTEGER
        (4.0, 2, "toolong", None),    # 7 chars exceed VARCHAR(6)
        (5.0, 3, "é" * 3 + "x", True),  # 7 bytes in UTF-8
        (1e300, None, None, None),    # float id out of INTEGER range
        (6.0, 9007199254740993, "ü", True),  # huge int v -> float
        (float("nan"), None, None, None),
        (-0.0, None, "", False),
    ]


def unicode_rows():
    """Every string fits VARCHAR(6) by characters; one does not by bytes."""
    return [(1, 1.0, "ab", True), (2, 2.0, "éé", False),
            (3, 3.0, "éééé", None), (4, 4.0, "ü✓", True)]


def avro(db, rows, schema=None, codec="deflate", block_rows=4096):
    schema = schema or avro_schema_for_table(db.catalog.table("t"))
    return encode_rows(schema, rows, codec=codec, block_rows=block_rows)


def columnar(db, rows, schema=None):
    schema = schema or avro_schema_for_table(db.catalog.table("t"))
    return write_columnar(schema, rows)


def copy_script(db, fmt):
    """The same loads in ``fmt`` (AVRO or COLUMNAR)."""
    encode = avro if fmt == "AVRO" else columnar
    copy = f"COPY t FROM STDIN FORMAT {fmt}"
    narrow = Schema.record("t", [("id", Schema.primitive("long"))])
    script = [
        (copy, encode(db, good_rows(0, 30))),
        (copy + " REJECTMAX 10", encode(db, loose_rows(), LOOSE)),
        (copy + " REJECTMAX 3", encode(db, loose_rows(), LOOSE)),
        (copy + " REJECTMAX 10", encode(db, double_rows(), DOUBLES)),
        (copy, encode(db, double_rows(), DOUBLES)),
        (copy + " REJECTMAX 10", encode(db, [(1,), (2,)], narrow)),
        (copy, encode(db, [])),
        (copy + " REJECTMAX 10", encode(db, unicode_rows())),
    ]
    if fmt == "AVRO":
        script += [
            (copy, avro(db, good_rows(30, 50), codec="null", block_rows=3)),
            (copy + " REJECTMAX 5",
             encode_rows(Schema.primitive("long"), [1, 2, 3])),
            (copy, b"not avro"),
        ]
    else:
        frames = b"".join(columnar(db, good_rows(a, b))
                          for a, b in ((30, 35), (35, 35), (35, 50)))
        script += [
            (copy, frames),
            (copy, frames + columnar(db, [(1,)], narrow)),
            (copy, b"PQL1garbage"),
        ]
    return script


def csv_text(lines):
    return "\n".join(lines) + "\n"


CSV_SCRIPT = [
    ("COPY t FROM STDIN",
     csv_text(["1,1.5,a,true", "2,,b,f", "3,2.5,,", ",,,", "", "4,1e3,dd,yes"])),
    ("COPY t FROM STDIN REJECTMAX 10", csv_text([
        "x,1.5,a,true",          # id not INTEGER
        "5,abc,b,t",             # v not FLOAT
        "6,1.0,toolongs,t",      # s too long
        "7,1.0,c,maybe",         # b not BOOLEAN
        "8,q,toolongs,maybe",    # three bad columns: v wins
        "9,1.0,c",               # field count
        "10,2.0,ok,no",
    ])),
    ("COPY t FROM STDIN REJECTMAX 2", csv_text([
        "x,1,a,t", "y,1,a,t", "z,1,a,t", "11,1,a,t"])),
    ("COPY t FROM STDIN DELIMITER '|'", csv_text(["12|0.25|p|false"])),
    ("COPY t FROM STDIN", csv_text(["99999999999999999999,1,a,t"])),
]


def insert_script():
    """Multi-row INSERT: an error in a later row, inside a transaction,
    leaves the rows before it staged (statement errors do not roll back)."""
    return [
        ("BEGIN", None),
        ("INSERT INTO t VALUES (1, 1.0, 'a', true), (2, 2.0, 'b', false)", None),
        ("INSERT INTO t VALUES (3, 1.0, 'c', true), (4, 'x', 'd', true), "
         "(5, 1.0, 'e', 'no')", None),
        ("INSERT INTO t VALUES (6, 1.0, 'f', true), (7, 2.0, 'toolong', 1), "
         "(8, 'y', 'g', true)", None),
        ("INSERT INTO t (id, s) VALUES (9, 'h'), (10, NULL)", None),
        ("INSERT INTO t (s, id) VALUES ('i', 11), ('j', 99999999999999999999)",
         None),
        ("INSERT INTO t VALUES (12, 3, 'k', NULL)", None),
        ("COMMIT", None),
        ("INSERT INTO t VALUES (13, 1.0, 'l', true), (14, 1.0, 'm', 2)", None),
    ]


def scenario_avro():
    db = make_db()
    return replay(db.connect(), copy_script(db, "AVRO"))


def scenario_columnar():
    db = make_db()
    return replay(db.connect(), copy_script(db, "COLUMNAR"))


def scenario_csv():
    db = make_db()
    return replay(db.connect(), CSV_SCRIPT)


def scenario_unsegmented():
    db = make_db(layout="UNSEGMENTED ALL NODES")
    session = db.connect(node=db.node_names[2])
    return replay(session, copy_script(db, "AVRO")[:4] + CSV_SCRIPT[:2])


def scenario_multicolumn_segmentation():
    db = make_db(layout="SEGMENTED BY HASH(s, id) ALL NODES")
    return replay(db.connect(), copy_script(db, "COLUMNAR")[:4]
                  + CSV_SCRIPT[:2])


def scenario_ksafe_node_down():
    db = make_db(k_safety=1)
    session = db.connect()
    db.fail_node(db.node_names[1])
    steps = replay(session, copy_script(db, "AVRO")[:3] + CSV_SCRIPT[:2])
    db.recover_node(db.node_names[1])
    steps.append(run_step(session, "SELECT * FROM t"))
    return steps


def scenario_open_transaction():
    db = make_db()
    session = db.connect()
    script = [("BEGIN", None)] + copy_script(db, "AVRO")[:3] + [
        ("SELECT COUNT(*) FROM t", None), ("COMMIT", None)]
    return replay(session, script)


def scenario_insert_values():
    db = make_db(k_safety=1)
    return replay(db.connect(), insert_script())


def scenario_analyzed_reload():
    db = make_db()
    session = db.connect()
    stats_sql = "SELECT * FROM V_CATALOG.COLUMN_STATISTICS"
    script = copy_script(db, "AVRO")[:1] + [("ANALYZE t", None)]
    script += copy_script(db, "COLUMNAR")[1:5] + CSV_SCRIPT[:2]
    steps = []
    for sql, payload in script:
        steps.append(run_step(session, sql, payload))
        steps.append(run_step(session, stats_sql))
    return steps


SCENARIOS = {
    "avro": scenario_avro,
    "columnar": scenario_columnar,
    "csv": scenario_csv,
    "unsegmented": scenario_unsegmented,
    "multicolumn_segmentation": scenario_multicolumn_segmentation,
    "ksafe_node_down": scenario_ksafe_node_down,
    "open_transaction": scenario_open_transaction,
    "insert_values": scenario_insert_values,
    "analyzed_reload": scenario_analyzed_reload,
}


def record():
    return {name: build() for name, build in SCENARIOS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_copy_matches_golden(golden, name):
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
