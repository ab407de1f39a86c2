"""``sql_analytics``: a ``tpch_lite`` query mix against Vertica's SQL engine.

Set-up loads ``customer`` (unsegmented), ``orders`` and ``lineitem``
(both segmented by order key) with ``COPY ... FROM STDIN`` and runs
``ANALYZE``.  One session with ``SET RESULT_CACHE = 'on'`` then issues
eight query templates in cycles (each cycle a seeded shuffle of the
eight).  A template's parameter is *fresh* on three of every ten of its
uses, drawn from a seeded shuffle of its bounded domain, and otherwise
repeats an earlier value picked by Zipf over the order of first use.  A
fresh statement misses the result cache and runs the executor; a repeat
hits.  So hits are 70% of the operations by construction: the median
latency is a hit (front end plus cache lookup) and the 95th percentile a
miss (executor and scan), and neither moves when the seed does.

The two heaviest templates (pricing, top orders) take cut-offs near the
end of the date range, so each of their misses scans and joins about the
same number of rows and a unit's tail latency does not hang on which
cut-offs the seed drew.

Every answer is checked against the same query computed in plain Python
over the generated rows.  All money columns are integers, so sums are
exact.
"""

from __future__ import annotations

import bisect
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.vertica.database import VerticaDatabase

from perfbench.harness import Op, Phase

NAME = "sql_analytics"
ORDERS = 4000
LINES_PER_ORDER = 4
CUSTOMERS = 1000
DATES = 2400
FRESH_SLOTS = (0, 3, 6)  # of every ten uses of a template
ZIPF_S = 1.0

DDL = (
    "CREATE TABLE customer (c_custkey INTEGER, c_name VARCHAR(25), "
    "c_nation INTEGER, c_acctbal INTEGER) UNSEGMENTED ALL NODES",
    "CREATE TABLE orders (o_orderkey INTEGER, o_custkey INTEGER, "
    "o_status VARCHAR(1), o_totalprice INTEGER, o_orderdate INTEGER, "
    "o_priority VARCHAR(8)) SEGMENTED BY HASH(o_orderkey) ALL NODES",
    "CREATE TABLE lineitem (l_orderkey INTEGER, l_linenumber INTEGER, "
    "l_partkey INTEGER, l_quantity INTEGER, l_price INTEGER, "
    "l_discount INTEGER, l_returnflag VARCHAR(1), l_shipdate INTEGER) "
    "SEGMENTED BY HASH(l_orderkey) ALL NODES",
)
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW")


@dataclass
class Data:
    customer: List[Tuple]
    orders: List[Tuple]
    lineitem: List[Tuple]
    lines_of: Dict[int, List[Tuple]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for line in self.lineitem:
            self.lines_of.setdefault(line[0], []).append(line)


def generate(seed: int) -> Data:
    rng = random.Random(seed)
    customer = [
        (k, f"Customer#{k:06d}", rng.randrange(25), rng.randrange(-999, 9999))
        for k in range(CUSTOMERS)
    ]
    orders, lineitem = [], []
    for k in range(ORDERS):
        date = rng.randrange(DATES)
        orders.append((k, rng.randrange(CUSTOMERS), rng.choice("OFP"),
                       rng.randrange(1000, 500000), date,
                       rng.choice(PRIORITIES)))
        for n in range(LINES_PER_ORDER):
            lineitem.append((k, n, rng.randrange(2000), rng.randrange(1, 51),
                             rng.randrange(100, 10000), rng.randrange(11),
                             rng.choice("ANR"), date + rng.randrange(1, 121)))
    return Data(customer, orders, lineitem)


def csv(rows: List[Tuple]) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


# ------------------------------------------------------------------ templates
def _pricing(data: Data, d: int) -> List[Tuple]:
    groups: Dict[str, List[int]] = {}
    for line in data.lineitem:
        if line[7] <= d:
            g = groups.setdefault(line[6], [0, 0, 0, 0])
            g[0] += 1
            g[1] += line[3]
            g[2] += line[4]
            g[3] += line[4] * (100 - line[5])
    return [(flag, *g) for flag, g in sorted(groups.items())]


def _revenue(data: Data, d: int, disc: int) -> List[Tuple]:
    values = [line[4] * line[5] for line in data.lineitem
              if d <= line[7] < d + 365 and disc - 1 <= line[5] <= disc + 1
              and line[3] < 24]
    return [(sum(values) if values else None,)]


def _top_orders(data: Data, d: int) -> List[Tuple]:
    revenue = []
    for order in data.orders:
        if order[4] < d:
            lines = data.lines_of.get(order[0], [])
            if lines:
                rev = sum(line[4] * (100 - line[5]) for line in lines)
                revenue.append((order[0], order[4], rev))
    revenue.sort(key=lambda r: (-r[2], r[0]))
    return revenue[:10]


def _nation_orders(data: Data, d: int) -> List[Tuple]:
    nation = {c[0]: c[2] for c in data.customer}
    groups: Dict[int, List[int]] = {}
    for order in data.orders:
        if d <= order[4] < d + 400:
            g = groups.setdefault(nation[order[1]], [0, 0])
            g[0] += 1
            g[1] += order[3]
    return [(n, *g) for n, g in sorted(groups.items())]


def _order(data: Data, k: int) -> List[Tuple]:
    return [o[:4] for o in data.orders if o[0] == k]


def _order_lines(data: Data, k: int) -> List[Tuple]:
    return sorted((line[1], line[3], line[4])
                  for line in data.lines_of.get(k, []))


def _priority(data: Data, d: int) -> List[Tuple]:
    counts: Dict[str, int] = defaultdict(int)
    for order in data.orders:
        if d <= order[4] < d + 90:
            counts[order[5]] += 1
    return sorted(counts.items())


def _customer(data: Data, k: int) -> List[Tuple]:
    return [(c[1], c[3]) for c in data.customer if c[0] == k]


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    domain: Callable[[], List[Tuple]]
    model: Callable[..., List[Tuple]]


TEMPLATES = (
    Template(
        "pricing",
        "SELECT l_returnflag, COUNT(*), SUM(l_quantity), SUM(l_price), "
        "SUM(l_price * (100 - l_discount)) FROM lineitem "
        "WHERE l_shipdate <= {0} GROUP BY l_returnflag ORDER BY l_returnflag",
        lambda: [(d,) for d in range(DATES - 400, DATES + 120)], _pricing),
    Template(
        "revenue",
        "SELECT SUM(l_price * l_discount) FROM lineitem "
        "WHERE l_shipdate >= {0} AND l_shipdate < {0} + 365 "
        "AND l_discount BETWEEN {1} - 1 AND {1} + 1 AND l_quantity < 24",
        lambda: [(d, disc) for d in range(DATES - 300) for disc in range(1, 10)],
        _revenue),
    Template(
        "top_orders",
        "SELECT o_orderkey, o_orderdate, SUM(l_price * (100 - l_discount)) "
        "AS rev FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
        "WHERE o_orderdate < {0} GROUP BY o_orderkey, o_orderdate "
        "ORDER BY rev DESC, o_orderkey LIMIT 10",
        lambda: [(d,) for d in range(DATES - 600, DATES)], _top_orders),
    Template(
        "nation_orders",
        "SELECT c_nation, COUNT(*), SUM(o_totalprice) FROM customer "
        "JOIN orders ON c_custkey = o_custkey "
        "WHERE o_orderdate >= {0} AND o_orderdate < {0} + 400 "
        "GROUP BY c_nation ORDER BY c_nation",
        lambda: [(d,) for d in range(DATES - 400)], _nation_orders),
    Template(
        "order",
        "SELECT o_orderkey, o_custkey, o_status, o_totalprice FROM orders "
        "WHERE o_orderkey = {0}",
        lambda: [(k,) for k in range(ORDERS)], _order),
    Template(
        "order_lines",
        "SELECT l_linenumber, l_quantity, l_price FROM lineitem "
        "WHERE l_orderkey = {0} ORDER BY l_linenumber",
        lambda: [(k,) for k in range(ORDERS)], _order_lines),
    Template(
        "priority",
        "SELECT o_priority, COUNT(*) FROM orders "
        "WHERE o_orderdate >= {0} AND o_orderdate < {0} + 90 "
        "GROUP BY o_priority ORDER BY o_priority",
        lambda: [(d,) for d in range(DATES - 90)], _priority),
    Template(
        "customer",
        "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {0}",
        lambda: [(k,) for k in range(CUSTOMERS)], _customer),
)


class _ParamStream:
    """One template's parameters: fresh from a shuffled domain, or Zipf repeats."""

    def __init__(self, template: Template, rng: random.Random):
        self.rng = rng
        self.unused = template.domain()
        rng.shuffle(self.unused)
        self.used: List[Tuple] = []
        self.cumulative: List[float] = []
        self.uses = 0

    def next(self) -> Tuple[Tuple, bool]:
        fresh = self.uses % 10 in FRESH_SLOTS or not self.used
        self.uses += 1
        if fresh and self.unused:
            params = self.unused.pop()
            self.used.append(params)
            weight = 1.0 / len(self.used) ** ZIPF_S
            self.cumulative.append(
                (self.cumulative[-1] if self.cumulative else 0.0) + weight)
            return params, True
        pick = self.rng.random() * self.cumulative[-1]
        return self.used[bisect.bisect_right(self.cumulative, pick)], False


#: ops per unit: ten cycles, so every phase holds the same 30% of misses
UNIT = 10 * len(TEMPLATES)
#: set-ups per run (a set-up takes about 0.5 s); setup_s is their median
SETUP_REPEATS = 6
#: peak memory is read after this many units (see harness.measure)
RSS_UNITS = 4


def statements(seed: int) -> Iterator[Tuple[Template, Tuple, bool]]:
    """The endless seeded stream of (template, parameters, fresh)."""
    rng = random.Random(seed ^ 0x5EED)
    streams = [_ParamStream(t, rng) for t in TEMPLATES]
    order = list(range(len(TEMPLATES)))
    while True:
        rng.shuffle(order)
        for index in order:
            params, fresh = streams[index].next()
            yield TEMPLATES[index], params, fresh


# ------------------------------------------------------------------ workload
@dataclass
class Inputs:
    seed: int
    data: Data
    csv: Dict[str, str]


def prepare(seed: int) -> Inputs:
    data = generate(seed)
    return Inputs(seed, data, {
        "customer": csv(data.customer),
        "orders": csv(data.orders),
        "lineitem": csv(data.lineitem),
    })


@dataclass
class State:
    db: VerticaDatabase
    session: Any


def setup(inputs: Inputs) -> State:
    """Create the schema, COPY the three tables in, ANALYZE them."""
    db = VerticaDatabase()
    session = db.connect()
    for statement in DDL:
        session.execute(statement)
    for table, text in inputs.csv.items():
        session.execute(f"COPY {table} FROM STDIN DELIMITER ','",
                        copy_data=text)
        session.execute(f"ANALYZE {table}")
    session.execute("SET RESULT_CACHE = 'on'")
    return State(db, session)


def operations(state: State, inputs: Inputs) -> Iterator[Op]:
    answers: Dict[str, List[Tuple]] = {}
    session = state.session

    for template, params, __ in statements(inputs.seed):
        sql = template.sql.format(*params)

        def run(sql=sql):
            return session.execute(sql).rows

        def check(rows, sql=sql, template=template, params=params):
            if sql not in answers:
                answers[sql] = template.model(inputs.data, *params)
            return [tuple(r) for r in rows] == answers[sql]

        yield Op(template.name, "read", run, check, text=sql)


def extra_metrics(phase: Phase) -> Dict[str, float]:
    return {}


def kernel_events(state: State) -> int:
    return 0


def database(state: State) -> VerticaDatabase:
    return state.db
