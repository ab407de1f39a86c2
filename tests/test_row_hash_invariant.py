"""The stored segmentation hash of every row equals HASH(its seg columns).

The scan's hash-range mask filters rows by ``row_hashes``, while a
``HASH(cols) >= lo`` conjunct evaluates the hash of the row's values.  The
two are interchangeable only when every ROS container, WOS buffer and
replica buffer keeps ``row_hashes[i] == vertica_hash(*seg values of row
i)`` (and ``0`` on unsegmented tables).  This module checks that after
each write path: INSERT, Avro/columnar/CSV COPY, UPDATE, mergeout and
loads with a node down (buddy replicas).
"""

import pytest

from repro.avrolite import encode_rows
from repro.hdfs.columnar import write_columnar
from repro.vertica import VerticaDatabase
from repro.vertica.copyload import avro_schema_for_table
from repro.vertica.hashring import vertica_hash


def check_hashes(column_names, rows_of, hashes, table):
    positions = [column_names.index(c) for c in table.segmentation_columns]
    for index, row in enumerate(rows_of):
        want = (0 if table.unsegmented
                else vertica_hash(*[row[p] for p in positions]))
        assert hashes[index] == want, (table.name, index, row)


def assert_invariant(db, txn=None):
    """Every stored row of every table, committed and staged."""
    checked = 0
    for table in db.catalog.tables.values():
        for storage in db.storage.values():
            for containers in (storage.table_containers(table.name),
                               storage.replica_containers(table.name)):
                for container in containers:
                    rows = [container.row_tuple(i)
                            for i in range(container.nrows)]
                    check_hashes(container.column_names, rows,
                                 container.row_hashes, table)
                    checked += len(rows)
        if txn is not None:
            for buffers in (txn.wos, txn.replica_wos):
                for (name, __), buffer in buffers.items():
                    if name == table.name:
                        check_hashes(buffer.column_names, buffer.rows,
                                     buffer.row_hashes, table)
                        checked += buffer.nrows
    return checked


def rows(start, stop):
    return [(i, i * 0.5 if i % 4 else None, f"r{i % 5}", i % 3 == 0)
            for i in range(start, stop)]


LAYOUTS = [
    "SEGMENTED BY HASH(id) ALL NODES",
    "SEGMENTED BY HASH(s, id) ALL NODES",
    "SEGMENTED BY HASH(v) ALL NODES",
    "UNSEGMENTED ALL NODES",
]


@pytest.mark.parametrize("k_safety", [0, 1])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_write_path_keeps_row_hashes(layout, k_safety):
    db = VerticaDatabase(num_nodes=4, k_safety=k_safety)
    session = db.connect()
    session.execute("CREATE TABLE t (id INTEGER, v FLOAT, s VARCHAR(8), "
                    f"b BOOLEAN) {layout}")
    schema = avro_schema_for_table(db.catalog.table("t"))
    session.execute("INSERT INTO t VALUES (1, 2.0, 'a', true), "
                    "(2, NULL, NULL, NULL), (3, 1.5, 'c', false)")
    session.execute("COPY t FROM STDIN FORMAT AVRO",
                    copy_data=encode_rows(schema, rows(10, 40)))
    session.execute("COPY t FROM STDIN FORMAT COLUMNAR",
                    copy_data=write_columnar(schema, rows(40, 60))
                    + write_columnar(schema, rows(60, 70)))
    session.execute("COPY t FROM STDIN",
                    copy_data="80,1.25,x,true\n81,,y,\n82,3,z,f\n")
    session.execute("UPDATE t SET v = v + 1.0, id = id + 100 WHERE id < 30")
    session.execute("UPDATE t SET s = 'moved' WHERE b")
    assert assert_invariant(db) > 0

    # staged writes, before they commit
    session.execute("BEGIN")
    session.execute("INSERT INTO t VALUES (200, 0.5, 'w', false)")
    session.execute("COPY t FROM STDIN FORMAT AVRO",
                    copy_data=encode_rows(schema, rows(300, 310)))
    session.execute("UPDATE t SET id = id + 1 WHERE id >= 300")
    assert assert_invariant(db, session._txn) > 0
    session.execute("COMMIT")

    db.tuple_mover.advance_ahm()
    db.tuple_mover.mergeout()
    assert assert_invariant(db) > 0

    if k_safety:
        db.fail_node(db.node_names[2])
        session.execute("COPY t FROM STDIN FORMAT COLUMNAR",
                        copy_data=write_columnar(schema, rows(400, 420)))
        session.execute("UPDATE t SET v = 9.0 WHERE id >= 400")
        db.recover_node(db.node_names[2])
        assert assert_invariant(db) > 0
