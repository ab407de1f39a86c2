"""The ``ingest`` grid area's cell: rows per wall second through each
load path (Avro encode + COPY, columnar encode + COPY, INSERT VALUES).

Kept apart from :mod:`repro.bench.grid`, which imports it per cell, so
that importing the grid harness does not load the ingest bench.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from repro.avrolite import encode_rows
from repro.bench.grid import GridCellError
from repro.hdfs.columnar import write_columnar
from repro.vertica import VerticaDatabase
from repro.vertica.copyload import avro_schema_for_table

#: the ingest table: ten columns of every SQL type the loaders coerce
INGEST_DDL = (
    "CREATE TABLE ingest (id INTEGER, qty INTEGER, day INTEGER, "
    "p0 FLOAT, p1 FLOAT, p2 FLOAT, p3 FLOAT, region VARCHAR(8), "
    "tag VARCHAR(12), flag BOOLEAN) SEGMENTED BY HASH(id) ALL NODES"
)


def ingest_rows(count: int, seed: int) -> List[Tuple[Any, ...]]:
    """Seeded rows for the ingest table, with a NULL now and then."""
    rng = random.Random(seed)
    regions = ("EMEA", "AMER", "APAC", "LATM")
    return [
        (i, rng.randrange(1 << 27), rng.randrange(20_000),
         rng.random(), rng.random() * 100.0,
         None if i % 17 == 5 else rng.random(), -rng.random(),
         rng.choice(regions),
         None if i % 23 == 7 else "t%08d" % rng.randrange(10 ** 8),
         i % 3 == 0)
        for i in range(count)
    ]


def _ingest_sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def run_ingest_cell(params: Dict[str, Any],
                     config: Dict[str, Any]) -> Dict[str, Any]:
    """Best-of-``repeats`` rows per wall second for one load path.

    COPY paths time the client-side encode (one container or columnar
    file per ``chunk_rows`` rows) plus the COPY statements; INSERT times
    the statements only (their SQL text is built beforehand).  Each
    repeat loads a fresh database.
    """
    rows = ingest_rows(config["rows"], config["seed"])
    chunk = config["chunk_rows"]
    chunks = [rows[i:i + chunk] for i in range(0, len(rows), chunk)]
    path = params["path"]
    statements = [
        "INSERT INTO ingest VALUES " + ", ".join(
            "(" + ", ".join(map(_ingest_sql_literal, row)) + ")"
            for row in part)
        for part in chunks
    ] if path == "insert_values" else []
    best = float("inf")
    for __ in range(config["repeats"]):
        db = VerticaDatabase(num_nodes=config["num_nodes"])
        session = db.connect()
        session.execute(INGEST_DDL)
        schema = avro_schema_for_table(db.catalog.table("ingest"))
        started = time.perf_counter()
        if path == "avro_copy":
            for part in chunks:
                session.execute("COPY ingest FROM STDIN FORMAT AVRO",
                                copy_data=encode_rows(schema, part))
        elif path == "columnar_copy":
            for part in chunks:
                session.execute("COPY ingest FROM STDIN FORMAT COLUMNAR",
                                copy_data=write_columnar(schema, part))
        else:
            for sql in statements:
                session.execute(sql)
        best = min(best, time.perf_counter() - started)
        loaded = session.execute("SELECT COUNT(*) FROM ingest").scalar()
        if loaded != len(rows):
            raise GridCellError(f"{path} loaded {loaded} rows, "
                                f"wanted {len(rows)}")
    return {"sim_seconds": None, "rows_per_sec": round(len(rows) / best)}
