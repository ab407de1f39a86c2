"""``ingest_mixed``: a single-client mix of writes and reads on one table.

Set-up COPYs a ledger of ``BATCHES`` batches into a table segmented by
entry id.  The stream then runs blocks of ten statements, each block a
seeded shuffle of two multi-row ``INSERT ... VALUES`` (one new batch
each), two ``DELETE``s (each the oldest live batch, so the table keeps
its size), two single-key ``UPDATE``s, three point ``SELECT``s and one
per-account ``GROUP BY``.  After every ``MERGE_EVERY`` statements the
tuple mover advances the AHM and merges out, timed as its own operation.

Every statement carries fresh literals and every write moves the epoch,
so the parse cache overflows and the result cache almost never hits;
ROS containers pile up between mergeouts.  The generator keeps a model
of the table (live entries, per-account count and sum), so each
statement's answer is known when it is issued, and the final
``COUNT(*)`` and ``SUM`` are checked against the model.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Tuple

from repro.vertica.database import VerticaDatabase
from repro.vertica.tuplemover import storage_container_stats

from perfbench.harness import Op, Phase, group_timing, rows_per_s

NAME = "ingest_mixed"
BATCHES = 300
BATCH_ROWS = 20
ACCOUNTS = 500
MERGE_EVERY = 50
#: ops per unit: the statements between two mergeouts plus the mergeout
UNIT = MERGE_EVERY + 1
#: set-ups per run (a set-up takes about 0.13 s); setup_s is their median
SETUP_REPEATS = 20
#: peak memory is read after this many units (see harness.measure)
RSS_UNITS = 10
BLOCK = ("insert", "insert", "delete", "delete", "update", "update",
         "select", "select", "select", "group")
GROUP_SPAN = 10

DDL = ("CREATE TABLE ledger (entry_id INTEGER, acct_id INTEGER, "
       "batch_id INTEGER, amount INTEGER, memo VARCHAR(16)) "
       "SEGMENTED BY HASH(entry_id) ALL NODES")


@dataclass
class Model:
    """What the table holds after every statement issued so far."""

    entries: Dict[int, List[int]] = field(default_factory=dict)  # id -> [acct, amount]
    live_ids: List[int] = field(default_factory=list)
    slot: Dict[int, int] = field(default_factory=dict)
    batches: Deque[Tuple[int, List[int]]] = field(default_factory=deque)
    accounts: Dict[int, List[int]] = field(default_factory=dict)  # acct -> [n, sum]
    next_id: int = 0
    next_batch: int = 0

    def add(self, acct: int, amount: int) -> int:
        entry = self.next_id
        self.next_id += 1
        self.entries[entry] = [acct, amount]
        self.slot[entry] = len(self.live_ids)
        self.live_ids.append(entry)
        totals = self.accounts.setdefault(acct, [0, 0])
        totals[0] += 1
        totals[1] += amount
        return entry

    def remove(self, entry: int) -> None:
        acct, amount = self.entries.pop(entry)
        index = self.slot.pop(entry)
        last = self.live_ids.pop()
        if last != entry:
            self.live_ids[index] = last
            self.slot[last] = index
        totals = self.accounts[acct]
        totals[0] -= 1
        totals[1] -= amount

    def totals(self) -> Tuple[int, int]:
        return len(self.entries), sum(a for __, a in self.entries.values())


def _batch(model: Model, rng: random.Random, size: int) -> Tuple[int, List[Tuple]]:
    batch = model.next_batch
    model.next_batch += 1
    rows, ids = [], []
    for __ in range(size):
        acct, amount = rng.randrange(ACCOUNTS), rng.randrange(-5000, 5000)
        entry = model.add(acct, amount)
        ids.append(entry)
        rows.append((entry, acct, batch, amount, f"m{entry:09d}"))
    model.batches.append((batch, ids))
    return batch, rows


@dataclass
class Statement:
    kind: str
    sql: str
    expected: Any
    rows: int = 0


def statements(seed: int, model: Model) -> Iterator[Statement]:
    """The endless seeded stream, advancing ``model`` as it goes.

    ``expected`` is the row count for writes and the rows for reads.
    """
    rng = random.Random(seed ^ 0x1A6E5)
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "insert":
                __, rows = _batch(model, rng, rng.randrange(10, 31))
                values = ", ".join(
                    f"({e}, {a}, {b}, {m}, '{memo}')" for e, a, b, m, memo in rows)
                yield Statement(kind, f"INSERT INTO ledger VALUES {values}",
                                len(rows), len(rows))
            elif kind == "delete":
                batch, ids = model.batches.popleft()
                for entry in ids:
                    if entry in model.entries:
                        model.remove(entry)
                yield Statement(kind, f"DELETE FROM ledger WHERE batch_id = {batch}",
                                len(ids))
            elif kind == "update":
                entry = rng.choice(model.live_ids)
                delta = rng.randrange(1, 100)
                acct = model.entries[entry][0]
                model.entries[entry][1] += delta
                model.accounts[acct][1] += delta
                yield Statement(
                    kind, f"UPDATE ledger SET amount = amount + {delta} "
                          f"WHERE entry_id = {entry}", 1)
            elif kind == "select":
                entry = rng.randrange(model.next_id)
                found = model.entries.get(entry)
                expected = [(entry, found[0], found[1])] if found else []
                yield Statement(
                    kind, "SELECT entry_id, acct_id, amount FROM ledger "
                          f"WHERE entry_id = {entry}", expected)
            else:
                low = rng.randrange(ACCOUNTS - GROUP_SPAN)
                expected = [
                    (acct, *model.accounts[acct])
                    for acct in range(low, low + GROUP_SPAN)
                    if model.accounts.get(acct, (0,))[0] > 0
                ]
                yield Statement(
                    kind, "SELECT acct_id, COUNT(*), SUM(amount) FROM ledger "
                          f"WHERE acct_id >= {low} AND acct_id < "
                          f"{low + GROUP_SPAN} GROUP BY acct_id ORDER BY acct_id",
                    expected)


# ------------------------------------------------------------------ workload
@dataclass
class Inputs:
    seed: int
    seed_rows: List[Tuple]
    csv: str


def prepare(seed: int) -> Inputs:
    """The seeded ledger COPYed in set-up (``BATCHES`` batches)."""
    model = Model()
    rng = random.Random(seed)
    rows: List[Tuple] = []
    for __ in range(BATCHES):
        rows.extend(_batch(model, rng, BATCH_ROWS)[1])
    text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
    return Inputs(seed, rows, text)


def seeded_model(inputs: Inputs) -> Model:
    model = Model()
    batches: Dict[int, List[int]] = {}
    for entry, acct, batch, amount, __ in inputs.seed_rows:
        if model.add(acct, amount) != entry:
            raise ValueError(f"seed rows out of order at entry {entry}")
        batches.setdefault(batch, []).append(entry)
    model.batches.extend(sorted(batches.items()))
    model.next_batch = len(batches)
    return model


@dataclass
class State:
    db: VerticaDatabase
    session: Any
    model: Model
    containers: List[int] = field(default_factory=list)


def setup(inputs: Inputs) -> State:
    db = VerticaDatabase()
    session = db.connect()
    session.execute(DDL)
    session.execute("COPY ledger FROM STDIN DELIMITER ','", copy_data=inputs.csv)
    session.execute("ANALYZE ledger")
    session.execute("SET RESULT_CACHE = 'on'")
    return State(db, session, seeded_model(inputs))


def _sample_containers(state: State) -> None:
    state.containers.append(
        sum(count for __, __, count, __ in storage_container_stats(state.db)))


def operations(state: State, inputs: Inputs) -> Iterator[Op]:
    session = state.session
    mover = state.db.tuple_mover
    issued = 0
    for statement in statements(inputs.seed, state.model):
        if statement.kind in ("select", "group"):
            def run(sql=statement.sql):
                return session.execute(sql).rows

            def check(rows, expected=statement.expected):
                return [tuple(r) for r in rows] == expected
            group = "read"
        else:
            def run(sql=statement.sql):
                return session.execute(sql).rowcount

            def check(count, expected=statement.expected):
                return count == expected
            group = "write"
        yield Op(statement.kind, group, run, check, rows=statement.rows,
                 text=statement.sql)
        issued += 1
        if issued % MERGE_EVERY == 0:
            def mergeout():
                mover.advance_ahm()
                return mover.mergeout()
            yield Op("mergeout", "other", mergeout, lambda merged: True,
                     before=lambda: _sample_containers(state))


def final_check(state: State) -> List[str]:
    """COUNT(*) and SUM(amount) of the table against the generator's model."""
    got = tuple(state.session.execute(
        "SELECT COUNT(*), SUM(amount) FROM ledger").rows[0])
    want = state.model.totals()
    return [] if got == want else [f"final COUNT/SUM {got} != model {want}"]


def extra_metrics(phase: Phase) -> Dict[str, Any]:
    return {
        "insert_rows_per_s": rows_per_s(phase, ["insert"]),
        "read_p95_ms": group_timing(phase, "read", 95),
        "write_p95_ms": group_timing(phase, "write", 95),
    }


def kernel_events(state: State) -> int:
    return 0


def database(state: State) -> VerticaDatabase:
    return state.db
