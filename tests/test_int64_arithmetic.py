"""INTEGER arithmetic stays inside 64 bits.

``+ - * /`` and unary minus on INTEGERs raise ``TypeMismatchError`` when
the result leaves int64 — the error storing such a value raises — in
the executor (row by row and column at a time) and in the legacy oracle,
which shares :mod:`repro.vertica.expr`.
"""

import pytest

from repro.vertica import VerticaDatabase
from repro.vertica.errors import TypeMismatchError
from tests.test_plan_differential import assert_identical

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


@pytest.fixture(scope="module")
def db():
    database = VerticaDatabase(num_nodes=4)
    session = database.connect()
    session.execute(
        "CREATE TABLE big (id INTEGER, a INTEGER, b INTEGER, x FLOAT) "
        "SEGMENTED BY HASH(id) ALL NODES"
    )
    session.execute(
        f"INSERT INTO big VALUES (1, {INT64_MAX}, 1, 1.5), "
        f"(2, {INT64_MIN}, -1, 2.5), (3, 5, NULL, NULL), (4, NULL, 7, 0.5), "
        f"(5, {INT64_MAX // 2 + 1}, 2, -1.0)"
    )
    return database


OVERFLOWING = [
    "SELECT a * 2 FROM big",
    "SELECT a + b FROM big",
    "SELECT a - 1 FROM big",
    "SELECT -a FROM big",
    "SELECT a / b FROM big WHERE id = 2",
    "SELECT id FROM big WHERE a * 2 > 0",
    "SELECT id FROM big WHERE b > 100 AND a * 2 > 0",
    "SELECT id FROM big WHERE a + 1 > 0 OR id = 1",
    "SELECT b, SUM(a * 2) FROM big GROUP BY b",
    "SELECT 9223372036854775807 + 1",
    "SELECT -(-9223372036854775807 - 1)",
    "SELECT id, a * b FROM big WHERE id = 5",
    # every row meets every conjunct: row 5 overflows though id > 2 holds
    "SELECT id FROM big WHERE id > 2 AND a * 2 > 0",
    "SELECT id FROM big WHERE id > 2 AND id < 5 AND b * a > 0",
]

SAFE = [
    "SELECT a * 1, a - 0, b * 2 FROM big",
    "SELECT a + b FROM big WHERE id IN (3, 4, 5)",
    "SELECT -b, a / 2 FROM big",
    "SELECT a * 2 FROM big WHERE id IN (3, 4)",
    "SELECT a * 2.0, x * 3 FROM big",
    "SELECT 9223372036854775806 + 1, -9223372036854775807",
    # sort keys read output columns: ``a`` is unknown there, so NULL
    "SELECT id FROM big ORDER BY a + a",
]


@pytest.mark.parametrize("sql", OVERFLOWING + SAFE)
def test_pipeline_matches_oracle(db, sql):
    assert_identical(db, sql)


@pytest.mark.parametrize("sql", OVERFLOWING)
def test_overflow_raises_typed_error(db, sql):
    with pytest.raises(TypeMismatchError, match="out of INTEGER range"):
        db.connect().execute(sql)


def test_update_and_insert_select_raise_the_same(db):
    session = db.connect()
    with pytest.raises(TypeMismatchError, match="out of INTEGER range"):
        session.execute("UPDATE big SET b = a * 2 WHERE id = 1")
    with pytest.raises(TypeMismatchError, match="out of INTEGER range"):
        session.execute("INSERT INTO big SELECT id, a + 1, b, x FROM big")
    assert session.execute("SELECT COUNT(*) FROM big").scalar() == 5


def test_staged_export_never_sees_an_out_of_range_integer(db):
    """The columnar codec refuses integers outside 64 bits; the engine now
    raises a typed error before a result could reach it."""
    from repro.avrolite import Schema, SchemaError
    from repro.hdfs.columnar import write_columnar

    schema = Schema.record("r", [("v", Schema.primitive("long", True))])
    with pytest.raises(SchemaError):
        write_columnar(schema, [(INT64_MAX * 2,)])
    with pytest.raises(TypeMismatchError):
        db.connect().execute("SELECT a * 2 FROM big WHERE id = 1")
