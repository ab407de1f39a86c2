"""Property test: the container-at-a-time scan equals the row scan.

``Engine.scan`` is the row-at-a-time reference (the legacy oracle reads
through it); ``Engine.scan_chunks`` is what the executor runs.  For
random tables, commit histories, delete vectors, snapshots, hash ranges,
staged deletes, staged WOS rows and a down node, both must yield the
same (node, container, row index, values) sequence and charge
``CostReport.scanned`` with the same totals in the same per-node order —
or raise the same error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vertica import VerticaDatabase
from repro.vertica.engine import CostReport, HashRange
from repro.vertica.hashring import HASH_SPACE

COLUMNS = ["ID", "V", "S"]

batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=60),
            st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=4,
)


def build(data, unsegmented, k_safety):
    db = VerticaDatabase(num_nodes=3, k_safety=k_safety)
    session = db.connect()
    layout = ("UNSEGMENTED ALL NODES" if unsegmented
              else "SEGMENTED BY HASH(id) ALL NODES")
    session.execute(
        f"CREATE TABLE t (id INTEGER, v INTEGER, s VARCHAR(8)) {layout}"
    )
    for rows in data.draw(batches, label="batches"):
        values = ", ".join(
            f"({i}, {'NULL' if v is None else v}, 's{i % 3}')" for i, v in rows
        )
        session.execute(f"INSERT INTO t VALUES {values}")
        # Delete vectors: some commits also delete an id residue class.
        if data.draw(st.booleans(), label="delete"):
            modulus = data.draw(st.integers(2, 5), label="modulus")
            session.execute(f"DELETE FROM t WHERE id % {modulus} = 0")
    return db


def stage_transaction(data, db):
    txn = db.begin()
    if data.draw(st.booleans(), label="wos"):
        rows = data.draw(
            st.lists(st.integers(-5, 70), min_size=1, max_size=6),
            label="wos rows",
        )
        db.engine.insert_rows(
            "T", {"ID": rows, "V": [i % 4 for i in rows], "S": ["w"] * len(rows)},
            txn,
        )
    containers = [
        container
        for storage in db.storage.values()
        for container in storage.table_containers("T")
    ]
    for container in containers:
        if container.nrows and data.draw(st.booleans(), label="stage"):
            index = data.draw(
                st.integers(0, container.nrows - 1), label="staged row"
            )
            txn.stage_delete(container, index)
    return txn


def reference(db, args, kwargs):
    cost = CostReport()
    try:
        rows = [
            (row.node, id(row.container) if row.container else None,
             row.row_index if row.container else None,
             tuple(row.data[c] for c in COLUMNS))
            for row in db.engine.scan(*args, cost=cost, **kwargs)
        ]
    except Exception as error:  # noqa: BLE001 - compared structurally
        return ("err", type(error).__name__, str(error))
    return rows, cost


def chunked(db, args, kwargs):
    cost = CostReport()
    try:
        rows = []
        for chunk in db.engine.scan_chunks(*args, COLUMNS, cost=cost, **kwargs):
            positions = (chunk.positions if chunk.positions is not None
                         else range(chunk.size))
            for position, values in zip(positions, zip(*chunk.sliced())):
                rows.append((
                    chunk.node,
                    id(chunk.container) if chunk.container else None,
                    position if chunk.container else None,
                    values,
                ))
    except Exception as error:  # noqa: BLE001 - compared structurally
        return ("err", type(error).__name__, str(error))
    return rows, cost


@given(
    data=st.data(),
    unsegmented=st.booleans(),
    k_safety=st.sampled_from([0, 1]),
    for_update=st.booleans(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_scan_chunks_match_row_scan(data, unsegmented, k_safety, for_update):
    db = build(data, unsegmented, k_safety)
    txn = (stage_transaction(data, db)
           if data.draw(st.booleans(), label="txn") else None)
    if data.draw(st.booleans(), label="node down"):
        db.fail_node(data.draw(st.sampled_from(db.node_names), label="down"))
    snapshot = data.draw(st.integers(1, db.epochs.current), label="snapshot")
    lo = data.draw(st.integers(0, HASH_SPACE), label="lo")
    hi = data.draw(st.integers(0, HASH_SPACE), label="hi")
    hash_range = (HashRange(min(lo, hi), max(lo, hi))
                  if data.draw(st.booleans(), label="ranged") else None)
    initiator = data.draw(st.sampled_from(db.node_names), label="initiator")
    args = ("T", snapshot, txn, initiator)
    kwargs = {"hash_range": hash_range, "for_update": for_update}

    expected = reference(db, args, kwargs)
    actual = chunked(db, args, kwargs)
    if expected[0] == "err":
        assert actual == expected
        return
    assert actual[0] == expected[0]
    want, got = expected[1], actual[1]
    assert got.rows_scanned == want.rows_scanned
    assert list(got.node_rows_scanned.items()) == list(
        want.node_rows_scanned.items()
    )
