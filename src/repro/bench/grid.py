"""Resumable experiment-grid harness with a persisted perf trajectory.

The paper's evidence is a parameter grid — Figures 6-12 sweep partitions
× cluster size × data scale × transport — so the harness makes grids a
first-class object instead of ad-hoc loops inside benchmark scripts:

- a :class:`ParameterGrid` declares the axes (cluster shape, partitions,
  transport, ...); its cross product is the set of *cells*;
- a :class:`ResultsStore` persists one record per cell with a status
  (``PENDING/RUNNING/DONE/FAILED``) into an append-only JSONL journal, so
  an interrupted sweep **resumes** instead of restarting — and publishes
  the finished trajectory into the repro's own Vertica tables
  (``bench_results``, written via the S2V connector, read back via V2S:
  the measurement store dogfoods the system under measurement);
- a :class:`GridRunner` executes the pending cells of a grid through one
  area's cell runner, journaling begin/done/fail around each;
- each area emits a schema-versioned ``BENCH_<area>.json`` artifact
  (routed through :class:`~repro.bench.report.ExperimentReport`'s JSON
  sidecar) carrying the cost-model fingerprint plus per-cell sim and
  wall seconds;
- :func:`compare_artifacts` is the CI perf gate: a fresh artifact is
  compared against the committed baseline with tolerance bands, and any
  regression (or stale grid/cost-model fingerprint) fails the job.

Command line::

    python -m repro.bench.grid                  # smoke grid, all areas
    python -m repro.bench.grid fig06 staging    # selected areas
    python -m repro.bench.grid --full           # the full (large) grids
    python -m repro.bench.grid --gate           # compare vs baselines
    python -m repro.bench.grid --list           # show areas and axes
    python -m repro.bench.grid --trajectory     # render the perf history

Interrupt a sweep at any point and re-run the same command: completed
cells are skipped, cells that were mid-flight are reconciled back to
PENDING and re-run.  ``--fresh`` discards the journal and restarts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.bench.fabric import Fabric
from repro.bench.report import (
    REPORT_SCHEMA_VERSION,
    ExperimentReport,
    append_jsonl,
    config_fingerprint,
)
from repro.connector.costmodel import NULL_COST_MODEL, PAPER_COST_MODEL
from repro.spark.row import StructField, StructType
from repro.vertica import VerticaDatabase
from repro.workloads.datasets import make_d1, make_d1_with_int_column

# ------------------------------------------------------------------ statuses
PENDING = "PENDING"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"

#: the Vertica table the results store publishes finished cells into
RESULTS_TABLE = "bench_results"
RESULTS_SCHEMA = StructType([
    StructField("area", "string"),
    StructField("cell_id", "string"),
    StructField("status", "string"),
    StructField("attempts", "long"),
    StructField("sim_seconds", "double"),
    StructField("wall_seconds", "double"),
])


class GridError(Exception):
    """Harness-level failure (mismatched journal, malformed artifact)."""


class GridCellError(Exception):
    """A cell's measurement produced an invalid result."""


def cost_model_fingerprint(cost_model=PAPER_COST_MODEL) -> str:
    """Digest of every cost-model knob; baselines are only comparable
    against runs calibrated identically."""
    return config_fingerprint(vars(cost_model))


# --------------------------------------------------------------------- grids
class ParameterGrid:
    """A named cross product of axes; iteration order is deterministic."""

    def __init__(self, area: str, axes: Mapping[str, Sequence[Any]]):
        if not axes:
            raise GridError(f"grid {area!r} declares no axes")
        self.area = area
        self.axes: Dict[str, Tuple[Any, ...]] = {
            name: tuple(values) for name, values in axes.items()
        }
        for name, values in self.axes.items():
            if not values:
                raise GridError(f"grid {area!r} axis {name!r} is empty")

    def cells(self) -> List[Dict[str, Any]]:
        """Every cell's parameters, in row-major axis order."""
        out: List[Dict[str, Any]] = [{}]
        for name, values in self.axes.items():
            out = [dict(cell, **{name: v}) for cell in out for v in values]
        return out

    def cell_id(self, params: Mapping[str, Any]) -> str:
        return ",".join(f"{name}={params[name]}" for name in self.axes)

    def fingerprint(self) -> str:
        return config_fingerprint({"area": self.area, "axes": self.axes})

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


# ------------------------------------------------------------- results store
class ResultsStore:
    """One grid's per-cell records, journaled for resume.

    The journal is append-only JSONL: a ``grid`` header pins the axes
    fingerprint, then ``begin``/``done``/``fail`` events per cell.
    :meth:`load` folds the events into the latest state; cells left
    ``RUNNING`` by a killed process are reconciled back to ``PENDING``
    (their attempt count survives, so flaky cells are visible).
    """

    def __init__(self, path: str, grid: ParameterGrid):
        self.path = path
        self.grid = grid
        self._records: Dict[str, Dict[str, Any]] = {}
        #: cells found mid-flight on load and reset to PENDING
        self.reconciled: List[str] = []
        self.load()

    # -- journal replay ---------------------------------------------------------
    def load(self) -> None:
        self._records = {
            self.grid.cell_id(params): {
                "cell_id": self.grid.cell_id(params),
                "params": dict(params),
                "status": PENDING,
                "attempts": 0,
                "sim_seconds": None,
                "wall_seconds": None,
                "metrics": {},
                "error": None,
            }
            for params in self.grid.cells()
        }
        self.reconciled = []
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                self._apply(json.loads(line))
        for record in self._records.values():
            if record["status"] == RUNNING:
                record["status"] = PENDING
                self.reconciled.append(record["cell_id"])

    def _apply(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "grid":
            if event.get("fingerprint") != self.grid.fingerprint():
                raise GridError(
                    f"journal {self.path} was written for a different grid "
                    f"(fingerprint {event.get('fingerprint')!r} != "
                    f"{self.grid.fingerprint()!r}); re-run with --fresh"
                )
            return
        record = self._records.get(event.get("cell_id", ""))
        if record is None:  # a cell the current grid no longer declares
            return
        if kind == "begin":
            record["status"] = RUNNING
            record["attempts"] += 1
        elif kind == "done":
            record["status"] = DONE
            record["sim_seconds"] = event.get("sim_seconds")
            record["wall_seconds"] = event.get("wall_seconds")
            record["metrics"] = event.get("metrics", {})
            record["error"] = None
        elif kind == "fail":
            record["status"] = FAILED
            record["wall_seconds"] = event.get("wall_seconds")
            record["error"] = event.get("error")

    # -- event writers ------------------------------------------------------------
    def _append(self, event: Dict[str, Any]) -> None:
        if not os.path.exists(self.path):
            append_jsonl(self.path, {
                "event": "grid",
                "area": self.grid.area,
                "axes": self.grid.axes,
                "fingerprint": self.grid.fingerprint(),
            })
        append_jsonl(self.path, event)
        self._apply(event)

    def begin(self, cell_id: str) -> None:
        self._append({
            "event": "begin",
            "cell_id": cell_id,
            "params": self._records[cell_id]["params"],
            "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        })

    def complete(self, cell_id: str, metrics: Dict[str, Any],
                 wall_seconds: float) -> None:
        metrics = dict(metrics)
        sim = metrics.pop("sim_seconds", None)
        self._append({
            "event": "done",
            "cell_id": cell_id,
            "sim_seconds": sim,
            "wall_seconds": round(wall_seconds, 4),
            "metrics": metrics,
        })

    def fail(self, cell_id: str, error: str, wall_seconds: float) -> None:
        self._append({
            "event": "fail",
            "cell_id": cell_id,
            "error": error,
            "wall_seconds": round(wall_seconds, 4),
        })

    # -- accessors ----------------------------------------------------------------
    def record(self, cell_id: str) -> Dict[str, Any]:
        return self._records[cell_id]

    def records(self) -> List[Dict[str, Any]]:
        """All cell records, in grid order."""
        return [self._records[self.grid.cell_id(p)] for p in self.grid.cells()]

    def counts(self) -> Dict[str, int]:
        out = {PENDING: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for record in self._records.values():
            out[record["status"]] += 1
        return out

    def discard(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)
        self.load()


# -------------------------------------------------------- Vertica dogfooding
def publish_results(stores: Sequence[ResultsStore],
                    fabric: Optional[Fabric] = None) -> Tuple[Fabric, int]:
    """Persist every finished cell into the repro's own Vertica tables.

    Creates ``bench_results`` (one CREATE TABLE through the engine) and
    appends one row per DONE/FAILED cell **via the S2V connector** — the
    store's durable query surface is the system under measurement.
    Returns the fabric and the number of rows written.
    """
    fabric = fabric or Fabric(num_vertica=2, num_spark=2,
                              cost_model=NULL_COST_MODEL)
    session = fabric.vertica.db.connect()
    try:
        exists = session.execute(
            "SELECT COUNT(*) FROM v_catalog.tables "
            f"WHERE table_name = '{RESULTS_TABLE.upper()}'"
        ).scalar() > 0
        if not exists:
            session.execute(RESULTS_SCHEMA.create_table_sql(
                RESULTS_TABLE, segmented_by=["cell_id"], varchar_length=500,
            ))
    finally:
        session.close()
    rows = []
    for store in stores:
        for record in store.records():
            if record["status"] not in (DONE, FAILED):
                continue
            rows.append((
                store.grid.area,
                record["cell_id"],
                record["status"],
                record["attempts"],
                float(record["sim_seconds"] if record["sim_seconds"]
                      is not None else -1.0),
                float(record["wall_seconds"] if record["wall_seconds"]
                      is not None else -1.0),
            ))
    if not rows:
        return fabric, 0
    df = fabric.spark.create_dataframe(rows, RESULTS_SCHEMA, num_partitions=2)
    df.write.format("vertica").options(
        db=fabric.vertica, table=RESULTS_TABLE, numpartitions=2,
        scale_factor=1.0,
    ).mode("append").save()
    return fabric, len(rows)


def read_results(fabric: Fabric) -> List[Tuple]:
    """Read the published trajectory back through the V2S connector."""
    df = fabric.spark.read.format("vertica").options(
        db=fabric.vertica, table=RESULTS_TABLE, numpartitions=2,
        scale_factor=1.0,
    ).load()
    return df.collect()


# -------------------------------------------------------------------- runner
class GridRunner:
    """Executes a grid's pending cells through one cell runner."""

    def __init__(self, grid: ParameterGrid, runner: Callable[[Dict[str, Any]],
                 Dict[str, Any]], store: ResultsStore,
                 log: Callable[[str], None] = print):
        self.grid = grid
        self.runner = runner
        self.store = store
        self.log = log

    def run(self, resume: bool = True) -> Dict[str, int]:
        """Run every non-DONE cell; returns run/skipped/failed counts.

        With ``resume`` (the default) DONE cells are skipped and FAILED
        cells are retried; without it the journal is discarded first.
        """
        if not resume:
            self.store.discard()
        if self.store.reconciled:
            self.log(
                f"[{self.grid.area}] reconciled {len(self.store.reconciled)} "
                f"interrupted cell(s) back to PENDING"
            )
        summary = {"run": 0, "skipped": 0, "failed": 0,
                   "reconciled": len(self.store.reconciled)}
        for params in self.grid.cells():
            cell_id = self.grid.cell_id(params)
            record = self.store.record(cell_id)
            if record["status"] == DONE:
                summary["skipped"] += 1
                continue
            self.store.begin(cell_id)
            started = time.perf_counter()
            try:
                metrics = self.runner(dict(params))
            except KeyboardInterrupt:
                raise  # journal keeps the begin event; next run reconciles
            except Exception as exc:  # noqa: BLE001 - journaled, not hidden
                wall = time.perf_counter() - started
                self.store.fail(cell_id, repr(exc), wall)
                summary["failed"] += 1
                self.log(f"[{self.grid.area}] FAILED {cell_id}: {exc!r}")
                continue
            wall = time.perf_counter() - started
            self.store.complete(cell_id, metrics, wall)
            summary["run"] += 1
            sim = metrics.get("sim_seconds")
            shown = "-" if sim is None else f"{sim:.1f}s sim"
            self.log(f"[{self.grid.area}] DONE {cell_id} ({shown}, "
                     f"{wall:.2f}s wall)")
        return summary


# --------------------------------------------------------------------- areas
class BenchArea:
    """One benchmark area: a grid, a cell runner, checks and a gate policy."""

    def __init__(self, name: str, title: str,
                 axes: Mapping[str, Sequence[Any]],
                 smoke_axes: Mapping[str, Sequence[Any]],
                 runner: Callable[[Dict[str, Any], Dict[str, Any]],
                                  Dict[str, Any]],
                 config: Optional[Dict[str, Any]] = None,
                 checks: Optional[Callable[[List[Dict[str, Any]]],
                                           List[Tuple[str, bool]]]] = None,
                 gate: Optional[Dict[str, Any]] = None):
        self.name = name
        self.title = title
        self.full_axes = dict(axes)
        self.smoke_axes = dict(smoke_axes)
        self.runner = runner
        self.config = dict(config or {})
        self.checks = checks or (lambda cells: [])
        #: gate policy copied into the artifact; the CI gate reads it from
        #: the *baseline*, so loosening a band requires a baseline commit
        self.gate = dict(gate or {})

    def grid(self, smoke: bool = True) -> ParameterGrid:
        return ParameterGrid(self.name,
                             self.smoke_axes if smoke else self.full_axes)

    def run_cell(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.runner(params, self.config)


# -- fig06: the parallelism bowl ------------------------------------------------
def _run_fig06_cell(params: Dict[str, Any],
                    config: Dict[str, Any]) -> Dict[str, Any]:
    fabric = Fabric()
    dataset = make_d1(real_rows=config["real_rows"])
    if params["direction"] == "v2s":
        fabric.populate(dataset, "d1")
        elapsed, rows = fabric.v2s_load(
            "d1", params["partitions"], dataset.scale
        )
        if rows != config["real_rows"]:
            raise GridCellError(f"V2S returned {rows} rows, "
                                f"wanted {config['real_rows']}")
    else:
        elapsed = fabric.s2v_save(dataset, "d1_out", params["partitions"])
    return {"sim_seconds": round(elapsed, 3)}


def _fig06_checks(cells: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    times = {(c["params"]["direction"], c["params"]["partitions"]):
             c["sim_seconds"] for c in done}
    v2s = {p: t for (d, p), t in times.items() if d == "v2s"}
    s2v = {p: t for (d, p), t in times.items() if d == "s2v"}
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    if v2s and s2v:
        checks += [
            ("bowl: V2S @4 partitions slower than its best",
             4 in v2s and v2s[4] > min(v2s.values())),
            ("bowl: S2V @4 partitions slower than its best",
             4 in s2v and s2v[4] > min(s2v.values())),
            ("S2V best occurs at high parallelism (>= 64)",
             min(s2v, key=s2v.get) >= 64),
            ("S2V best is faster than V2S best",
             min(s2v.values()) < min(v2s.values())),
        ]
    return checks


# -- scan throughput: plan pipeline vs the legacy floor --------------------------
#: rows/s every scan cell must exceed.  The row-at-a-time executor ran
#: 250k-346k rows/s on the machine the baselines were recorded on and the
#: columnar one 1.7M-3.7M, so a return to the row path fails this floor
#: while a CI machine 3x slower than that one still clears it.
SCAN_FLOOR_ROWS_PER_SEC = 500_000

SCAN_QUERIES = {
    "full_scan": "SELECT id, grp, v, name FROM big",
    "filtered_scan": "SELECT id, v FROM big WHERE v > 50.0",
    "grouped_agg": (
        "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM big GROUP BY grp"
    ),
}


def load_scan_table(session, rows: int, chunk: int = 2_000) -> None:
    """Create and populate the scan bench's ``big`` table."""
    session.execute(
        "CREATE TABLE big (id INTEGER, grp INTEGER, v FLOAT, "
        "name VARCHAR(20)) SEGMENTED BY HASH(id) ALL NODES"
    )
    for start in range(0, rows, chunk):
        values = ", ".join(
            f"({i}, {i % 37}, {float(i % 101)}, 'n{i % 50}')"
            for i in range(start, min(start + chunk, rows))
        )
        session.execute(f"INSERT INTO big VALUES {values}")


def _run_scan_cell(params: Dict[str, Any],
                   config: Dict[str, Any]) -> Dict[str, Any]:
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    load_scan_table(session, config["rows"])
    sql = SCAN_QUERIES[params["workload"]]
    best = float("inf")
    result = None
    for __ in range(config["repeats"]):
        started = time.perf_counter()
        result = session.execute(sql)
        best = min(best, time.perf_counter() - started)
    if result.cost.rows_scanned != config["rows"]:
        raise GridCellError(
            f"scanned {result.cost.rows_scanned} rows, wanted {config['rows']}"
        )
    # Wall-clock throughput is machine-dependent: recorded per cell, gated
    # only against the baseline's *floor*, never a tolerance band.
    return {"sim_seconds": None,
            "rows_per_sec": round(config["rows"] / best)}


def _scan_checks(cells: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    for cell in done:
        rate = cell["metrics"].get("rows_per_sec", 0)
        checks.append((
            f"{cell['params']['workload']} above the "
            f"{SCAN_FLOOR_ROWS_PER_SEC // 1000}k rows/s smoke floor",
            rate > SCAN_FLOOR_ROWS_PER_SEC,
        ))
    return checks


# -- staging transport vs direct JDBC --------------------------------------------
def _run_staging_cell(params: Dict[str, Any],
                      config: Dict[str, Any]) -> Dict[str, Any]:
    fabric = Fabric(with_hdfs=True)
    dataset = make_d1(config["real_rows"], config["virtual_rows"],
                      config["num_cols"], config["seed"])
    options: Dict[str, Any] = {}
    if params["transport"] == "staged":
        options = {"transport": "staging", "staging_root": "/staging",
                   "staging_fs": fabric.hdfs}
    if params["direction"] == "s2v":
        elapsed = fabric.s2v_save(dataset, "staging_bench",
                                  params["partitions"], **options)
    else:
        fabric.populate(dataset, "staging_bench")
        elapsed, rows = fabric.v2s_load(
            "staging_bench", params["partitions"], dataset.scale, **options
        )
        if rows != config["real_rows"]:
            raise GridCellError(f"V2S returned {rows} rows, "
                                f"wanted {config['real_rows']}")
    return {"sim_seconds": round(elapsed, 3)}


def _staging_checks(cells: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    times = {(c["params"]["direction"], c["params"]["transport"],
              c["params"]["partitions"]): c["sim_seconds"] for c in done}
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    gate_partitions = AREAS["staging"].config["gate_partitions"]
    for (direction, transport, partitions), staged in sorted(
            times.items(), key=lambda item: str(item[0])):
        if transport != "staged" or partitions < gate_partitions:
            continue
        direct = times.get((direction, "direct", partitions))
        if direct is None:
            continue
        checks.append((
            f"{direction} staged beats direct at {partitions} partitions",
            staged < direct,
        ))
    return checks


# -- join strategies: hash/merge vs the nested-loop floor ------------------------
def load_join_tables(session, probe_rows: int, build_rows: int,
                     colocated: bool, chunk: int = 2_000) -> None:
    """Create and populate the join bench's ``probe``/``build`` pair.

    Every probe key hits exactly one build row.  The co-located variant
    segments both tables on the join key; the other segments ``build`` on
    its payload column, so the same ring places matching rows on
    different nodes and the join must move build rows.
    """
    session.execute(
        "CREATE TABLE probe (k INTEGER, pv FLOAT) "
        "SEGMENTED BY HASH(k) ALL NODES"
    )
    seg = "k2" if colocated else "pay"
    session.execute(
        f"CREATE TABLE build (k2 INTEGER, pay INTEGER) "
        f"SEGMENTED BY HASH({seg}) ALL NODES"
    )
    for start in range(0, probe_rows, chunk):
        values = ", ".join(
            f"({i % build_rows}, {float(i % 97)})"
            for i in range(start, min(start + chunk, probe_rows))
        )
        session.execute(f"INSERT INTO probe VALUES {values}")
    for start in range(0, build_rows, chunk):
        values = ", ".join(
            f"({i}, {i + 7})"
            for i in range(start, min(start + chunk, build_rows))
        )
        session.execute(f"INSERT INTO build VALUES {values}")


def _run_join_cell(params: Dict[str, Any],
                   config: Dict[str, Any]) -> Dict[str, Any]:
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    load_join_tables(session, params["probe_rows"], params["build_rows"],
                     params["colocated"])
    session.execute("ANALYZE probe")
    session.execute("ANALYZE build")
    session.execute(f"SET JOIN_STRATEGY = '{params['strategy']}'")
    sql = "SELECT COUNT(*) FROM probe JOIN build ON k = k2"
    repeats = 1 if params["strategy"] == "nested-loop" else config["repeats"]
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        rows_out = session.execute(sql).scalar()
        best = min(best, time.perf_counter() - started)
    if rows_out != params["probe_rows"]:
        raise GridCellError(
            f"join returned {rows_out} rows, wanted {params['probe_rows']}"
        )
    profile = session.execute("PROFILE " + sql).profile
    shuffled = sum(op.stats.rows_shuffled for __, op in profile.operators())
    return {"sim_seconds": None,
            "join_seconds": round(best, 4),
            "rows_shuffled": shuffled,
            "rows_out": rows_out}


def _join_checks(cells: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    times = {(c["params"]["strategy"], c["params"]["colocated"]):
             c["metrics"].get("join_seconds") for c in done}
    shuffles = {(c["params"]["strategy"], c["params"]["colocated"]):
                c["metrics"].get("rows_shuffled") for c in done}
    for colocated in (True, False):
        loop = times.get(("nested-loop", colocated))
        hashed = times.get(("hash", colocated))
        if loop is not None and hashed is not None:
            checks.append((
                f"hash join >=5x faster than nested loop "
                f"(colocated={colocated})",
                hashed * 5.0 <= loop,
            ))
    for strategy in ("hash", "merge"):
        if (strategy, True) in shuffles:
            checks.append((
                f"co-located {strategy} join moves 0 cross-node rows",
                shuffles[(strategy, True)] == 0,
            ))
        if (strategy, False) in shuffles:
            checks.append((
                f"non-co-located {strategy} join moves build rows",
                (shuffles[(strategy, False)] or 0) > 0,
            ))
    return checks


# -- agg: aggregate pushdown vs driver-side aggregation --------------------------
AGG_AGGREGATES = [("*", "count"), ("c000", "sum"), ("c001", "avg"),
                  ("c002", "min"), ("c003", "max")]


def _run_agg_cell(params: Dict[str, Any],
                  config: Dict[str, Any]) -> Dict[str, Any]:
    # A fresh telemetry-enabled fabric installs a fresh global registry,
    # so the wire-row counters below start at zero for this cell.
    fabric = Fabric(telemetry=True)
    dataset = make_d1_with_int_column(real_rows=config["real_rows"])
    fabric.populate(dataset, "d1int")
    pushdown = params["mode"] == "pushdown"
    elapsed, groups = fabric.v2s_aggregate(
        "d1int", config["partitions"], dataset.scale, ["ikey"],
        AGG_AGGREGATES, agg_pushdown=pushdown,
    )
    wire_rows = telemetry.counter(
        "v2s.agg_pushdown.partial_rows" if pushdown else "v2s.rows_fetched"
    ).value
    return {
        "sim_seconds": round(elapsed, 3),
        "groups": int(groups),
        "wire_rows": int(wire_rows),
        "external_gb": round(fabric.vertica.external_bytes() / 1e9, 6),
    }


def _agg_checks(cells: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    by_mode = {c["params"]["mode"]: c for c in done}
    push = by_mode.get("pushdown")
    base = by_mode.get("driver")
    if push is None or base is None:
        return checks
    checks += [
        ("both modes produce the same number of groups",
         push["metrics"].get("groups") == base["metrics"].get("groups")),
        ("pushdown ships fewer rows over the wire",
         push["metrics"].get("wire_rows", 1 << 62)
         < base["metrics"].get("wire_rows", 0)),
        ("pushdown moves <1% of driver-side external bytes",
         push["metrics"].get("external_gb", 1e9)
         < 0.01 * base["metrics"].get("external_gb", 0.0)),
        ("pushdown is >5x faster end-to-end (sim)",
         push["sim_seconds"] * 5 < base["sim_seconds"]),
    ]
    return checks


# -- join_reorder: adaptive star joins vs the frozen binder order ----------------
STAR_WIDE_KEYS = ("ka", "kb", "kc")


def star_sizes(fact_rows: int) -> Dict[str, int]:
    """Derived star-schema sizes for one ``fact_rows`` scale.

    The fact is ANALYZEd at 1% of its final size, so its estimate is two
    orders of magnitude stale; the selective dim keeps 5% of fact rows;
    the wide dims are sized inside the swap window — larger than the
    (stale) intermediate estimate but smaller than its observed size —
    so the binder-order plan builds on the wrong side and the adaptive
    run records a swap.
    """
    return {
        "analyzed_rows": max(fact_rows // 100, 10),
        "wide_rows": max(fact_rows // 100, 10),
        "sel_rows": max(fact_rows // 10, 20),
        "sel_keep": max(fact_rows // 200, 1),
    }


def load_star_tables(session, fact_rows: int, relations: int,
                     chunk: int = 2_000) -> Dict[str, int]:
    """Create/populate the star bench's fact, wide dims and selective dim.

    Every fact row matches exactly one row in each wide dim (joins there
    never shrink the stream); the selective dim sits *last* in FROM
    order and its pushed-down predicate keeps ``sel_keep`` of
    ``sel_rows`` keys.  Only the fact's statistics are stale.
    """
    sizes = star_sizes(fact_rows)
    session.execute(
        "CREATE TABLE sfact (ka INTEGER, kb INTEGER, kc INTEGER, "
        "kd INTEGER, fv FLOAT) SEGMENTED BY HASH(ka) ALL NODES"
    )
    wide = sizes["wide_rows"]
    for idx in range(relations - 2):
        session.execute(
            f"CREATE TABLE dwide{idx} (w{idx}_id INTEGER, w{idx}_pay INTEGER) "
            f"SEGMENTED BY HASH(w{idx}_id) ALL NODES"
        )
        for start in range(0, wide, chunk):
            values = ", ".join(
                f"({i}, {i + idx})" for i in range(start, min(start + chunk, wide))
            )
            session.execute(f"INSERT INTO dwide{idx} VALUES {values}")
    sel = sizes["sel_rows"]
    session.execute(
        "CREATE TABLE dsel (sel_id INTEGER, sel_pay INTEGER) "
        "SEGMENTED BY HASH(sel_id) ALL NODES"
    )
    for start in range(0, sel, chunk):
        values = ", ".join(
            f"({i}, {i})" for i in range(start, min(start + chunk, sel))
        )
        session.execute(f"INSERT INTO dsel VALUES {values}")

    def fact_values(start, stop):
        return ", ".join(
            f"({i % wide}, {i % wide}, {i % wide}, {i % sel}, {float(i % 89)})"
            for i in range(start, stop)
        )

    analyzed = sizes["analyzed_rows"]
    for start in range(0, analyzed, chunk):
        session.execute("INSERT INTO sfact VALUES "
                        + fact_values(start, min(start + chunk, analyzed)))
    for idx in range(relations - 2):
        session.execute(f"ANALYZE dwide{idx}")
    session.execute("ANALYZE dsel")
    session.execute("ANALYZE sfact")  # deliberately before the bulk load
    for start in range(analyzed, fact_rows, chunk):
        session.execute("INSERT INTO sfact VALUES "
                        + fact_values(start, min(start + chunk, fact_rows)))
    return sizes


def star_join_sql(relations: int, sizes: Dict[str, int]) -> Tuple[str, int]:
    """The ``relations``-way star COUNT(*) and its expected value."""
    joins = [
        f"JOIN dwide{idx} ON {STAR_WIDE_KEYS[idx]} = w{idx}_id"
        for idx in range(relations - 2)
    ]
    joins.append("JOIN dsel ON kd = sel_id")
    sql = ("SELECT COUNT(*) FROM sfact " + " ".join(joins)
           + f" WHERE sel_pay < {sizes['sel_keep']}")
    return sql, sizes["expected_rows"]


def _run_join_reorder_cell(params: Dict[str, Any],
                           config: Dict[str, Any]) -> Dict[str, Any]:
    db = VerticaDatabase(num_nodes=config["num_nodes"])
    session = db.connect()
    fact_rows = params["fact_rows"]
    sizes = load_star_tables(session, fact_rows, params["relations"])
    sizes["expected_rows"] = sum(
        1 for i in range(fact_rows) if i % sizes["sel_rows"] < sizes["sel_keep"]
    )
    sql, expected = star_join_sql(params["relations"], sizes)
    if params["mode"] == "adaptive":
        session.execute("SET JOIN_REORDER on")
        session.execute("SET ADAPTIVE_EXECUTION on")
    # Cold PROFILE first: it captures the replans triggered by the stale
    # estimates before the feedback loop corrects them for the timed runs.
    report = session.execute("PROFILE " + sql)
    replans = len(report.profile.replans)
    shuffled = sum(
        op.stats.rows_shuffled for __, op in report.profile.operators()
    )
    best = float("inf")
    rows_out = None
    for __ in range(config["repeats"]):
        started = time.perf_counter()
        rows_out = session.execute(sql).scalar()
        best = min(best, time.perf_counter() - started)
    if rows_out != expected:
        raise GridCellError(
            f"star join returned {rows_out} rows, wanted {expected}"
        )
    return {"sim_seconds": None,
            "join_seconds": round(best, 4),
            "replans": replans,
            "rows_shuffled": shuffled,
            "rows_out": rows_out}


def _join_reorder_checks(cells: List[Dict[str, Any]]
                         ) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    times = {(c["params"]["relations"], c["params"]["mode"]):
             c["metrics"].get("join_seconds") for c in done}
    replans = {(c["params"]["relations"], c["params"]["mode"]):
               c["metrics"].get("replans") for c in done}
    for relations in sorted({r for r, __ in times}):
        binder = times.get((relations, "binder"))
        adaptive = times.get((relations, "adaptive"))
        if binder is None or adaptive is None:
            continue
        if relations >= 5:
            checks.append((
                f"adaptive >=3x faster than binder order ({relations}-way)",
                adaptive * 3.0 <= binder,
            ))
        else:
            checks.append((
                f"adaptive faster than binder order ({relations}-way)",
                adaptive < binder,
            ))
    for (relations, mode), count in sorted(replans.items()):
        if mode == "adaptive":
            checks.append((
                f"adaptive {relations}-way recorded >=1 replan",
                (count or 0) >= 1,
            ))
        else:
            checks.append((
                f"binder {relations}-way recorded no replans",
                (count or 0) == 0,
            ))
    return checks


# -- serving: caching tiers under a Zipf read-mostly mix -------------------------
def _run_serving_cell(params: Dict[str, Any],
                      config: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench.concurrent_serve import run_zipf_serve

    report = run_zipf_serve(
        clients=config["clients"],
        ops=config["ops"],
        skew=params["skew"],
        read_fraction=config["read_fraction"],
        result_cache=params["result_cache"],
        seed=config["seed"],
    )
    if not report.ok:
        raise GridCellError(
            f"serving invariants failed:\n{report.report.describe()}"
        )
    return {
        "sim_seconds": round(report.elapsed, 3),
        "read_p50": round(report.read_p50, 4),
        "read_p95": round(report.read_p95, 4),
        "result_hit_rate": round(report.result_hit_rate, 3),
        "plan_hit_rate": round(report.plan_hit_rate, 3),
    }


def _serving_checks(cells: List[Dict[str, Any]]) -> List[Tuple[str, bool]]:
    done = [c for c in cells if c["status"] == DONE]
    checks: List[Tuple[str, bool]] = [
        ("all cells DONE", len(done) == len(cells)),
    ]
    p50 = {(c["params"]["skew"], c["params"]["result_cache"]):
           c["metrics"].get("read_p50") for c in done}
    hits = {(c["params"]["skew"], c["params"]["result_cache"]):
            c["metrics"].get("result_hit_rate") for c in done}
    for skew in sorted({s for s, __ in p50}):
        if skew < 1.0:
            continue
        cold = p50.get((skew, False))
        warm = p50.get((skew, True))
        if cold is None or warm is None:
            continue
        checks.append((
            f"warm read p50 >=5x lower than cold at skew={skew:g}",
            warm * 5.0 <= cold,
        ))
        checks.append((
            f"warm result-cache hit rate > 0.5 at skew={skew:g}",
            (hits.get((skew, True)) or 0.0) > 0.5,
        ))
    return checks


AREAS: Dict[str, BenchArea] = {
    "fig06": BenchArea(
        "fig06",
        "Figure 6 parallelism bowl: V2S/S2V sim seconds vs partitions",
        axes={"direction": ("v2s", "s2v"),
              "partitions": (4, 8, 16, 32, 64, 128, 256)},
        smoke_axes={"direction": ("v2s", "s2v"),
                    "partitions": (4, 32, 128)},
        runner=_run_fig06_cell,
        config={"real_rows": 400},
        checks=_fig06_checks,
        gate={"sim_tolerance": 0.15},
    ),
    "scan_throughput": BenchArea(
        "scan_throughput",
        "Plan-pipeline scan throughput vs the legacy interpreter floor",
        axes={"workload": tuple(SCAN_QUERIES)},
        smoke_axes={"workload": tuple(SCAN_QUERIES)},
        runner=_run_scan_cell,
        config={"rows": 20_000, "num_nodes": 4, "repeats": 3},
        checks=_scan_checks,
        # wall-clock metrics are machine-dependent: gate on floors only
        gate={"floors": {"rows_per_sec": SCAN_FLOOR_ROWS_PER_SEC}},
    ),
    "agg": BenchArea(
        "agg",
        "Aggregate pushdown ablation: per-range partial GROUP BY vs driver",
        axes={"mode": ("pushdown", "driver")},
        smoke_axes={"mode": ("pushdown", "driver")},
        runner=_run_agg_cell,
        config={"real_rows": 2000, "partitions": 32},
        checks=_agg_checks,
        gate={"sim_tolerance": 0.15},
    ),
    "join": BenchArea(
        "join",
        "Join strategies: hash/merge vs nested loop, co-located vs shuffled",
        axes={"strategy": ("nested-loop", "hash", "merge"),
              "colocated": (True, False),
              "probe_rows": (100_000,),
              "build_rows": (1_000,)},
        smoke_axes={"strategy": ("nested-loop", "hash", "merge"),
                    "colocated": (True, False),
                    "probe_rows": (4_000,),
                    "build_rows": (200,)},
        runner=_run_join_cell,
        config={"num_nodes": 4, "repeats": 3},
        checks=_join_checks,
        # wall-clock ratios are checked per run; no sim time to band
        gate={},
    ),
    "join_reorder": BenchArea(
        "join_reorder",
        "Adaptive star joins: reorder + replanning vs the frozen binder order",
        axes={"relations": (3, 5),
              "mode": ("binder", "adaptive"),
              "fact_rows": (100_000,)},
        smoke_axes={"relations": (3, 5),
                    "mode": ("binder", "adaptive"),
                    "fact_rows": (4_000,)},
        runner=_run_join_reorder_cell,
        config={"num_nodes": 4, "repeats": 3},
        checks=_join_reorder_checks,
        # wall-clock ratios are checked per run; no sim time to band
        gate={},
    ),
    "serving": BenchArea(
        "serving",
        "Zipf read-mostly serving: caching tiers' hit rate vs read latency",
        axes={"skew": (0.0, 0.6, 1.2, 1.4),
              "result_cache": (False, True)},
        smoke_axes={"skew": (1.2,),
                    "result_cache": (False, True)},
        runner=_run_serving_cell,
        config={"clients": 6, "ops": 60, "read_fraction": 0.95, "seed": 11},
        checks=_serving_checks,
        gate={"sim_tolerance": 0.15},
    ),
    "staging": BenchArea(
        "staging",
        "Staged (distributed-FS) transport vs direct JDBC, both directions",
        axes={"direction": ("s2v", "v2s"),
              "transport": ("direct", "staged"),
              "partitions": (2, 4, 8, 16)},
        smoke_axes={"direction": ("s2v", "v2s"),
                    "transport": ("direct", "staged"),
                    "partitions": (4, 8, 16)},
        runner=_run_staging_cell,
        config={"real_rows": 400, "num_cols": 10, "seed": 7,
                "virtual_rows": 16_000_000, "gate_partitions": 8},
        checks=_staging_checks,
        gate={"sim_tolerance": 0.15},
    ),
}


# ------------------------------------------------------------------ artifacts
def build_area_report(area: BenchArea, store: ResultsStore,
                      smoke: bool) -> ExperimentReport:
    """Fold a store's cells into the area's ``BENCH_<area>`` report.

    The report's JSON sidecar *is* the artifact: per-cell records ride in
    the payload next to the grid and cost-model fingerprints the CI gate
    keys on.
    """
    cells = store.records()
    report = ExperimentReport(f"BENCH_{area.name}", area.title)
    axis_names = list(store.grid.axes)
    report.set_columns(axis_names + ["status", "sim (s)", "wall (s)", "metrics"])
    total_wall = 0.0
    total_sim = 0.0
    for record in cells:
        metrics = ", ".join(
            f"{k}={v}" for k, v in sorted(record["metrics"].items())
        )
        report.add(
            *[record["params"][a] for a in axis_names],
            record["status"],
            record["sim_seconds"],
            record["wall_seconds"],
            metrics or None,
        )
        total_wall += record["wall_seconds"] or 0.0
        total_sim += record["sim_seconds"] or 0.0
    for description, ok in area.checks(cells):
        report.check(description, ok)
    report.config = dict(area.config, area=area.name, smoke=smoke)
    report.timing(wall_seconds=round(total_wall, 3),
                  sim_seconds=round(total_sim, 3))
    report.payload = {
        "area": area.name,
        "grid": {"axes": {k: list(v) for k, v in store.grid.axes.items()},
                 "fingerprint": store.grid.fingerprint()},
        "cost_model_fingerprint": cost_model_fingerprint(),
        "gate": dict(area.gate),
        "cells": cells,
    }
    return report


def artifact_path(results_dir: str, area_name: str) -> str:
    return os.path.join(results_dir, f"BENCH_{area_name}.json")


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------- gate
def compare_artifacts(fresh: Dict[str, Any],
                      baseline: Dict[str, Any]) -> List[str]:
    """The perf gate: why a fresh artifact regressed from its baseline.

    Returns a list of human-readable failures (empty = gate passes):

    - schema / grid / cost-model fingerprints must match (a stale
      baseline is a failure, not a silent skip);
    - every baseline cell must be DONE in the fresh run;
    - sim seconds may not exceed baseline × (1 + ``sim_tolerance``) —
      sim time is deterministic, so the band is tight;
    - wall-clock metrics listed in ``gate.floors`` must stay above their
      floor (never banded: CI machines vary);
    - every check recorded in the fresh artifact must have passed.
    """
    failures: List[str] = []
    area = baseline.get("area", "?")
    if fresh.get("schema_version") != baseline.get("schema_version"):
        failures.append(
            f"{area}: artifact schema_version {fresh.get('schema_version')} "
            f"!= baseline {baseline.get('schema_version')}"
        )
        return failures
    if (fresh.get("grid", {}).get("fingerprint")
            != baseline.get("grid", {}).get("fingerprint")):
        failures.append(
            f"{area}: grid fingerprint changed — the baseline no longer "
            f"describes this grid; regenerate and commit it"
        )
        return failures
    if (fresh.get("cost_model_fingerprint")
            != baseline.get("cost_model_fingerprint")):
        failures.append(
            f"{area}: cost-model fingerprint changed — recalibrate the "
            f"baseline alongside the cost model"
        )
        return failures
    gate = baseline.get("gate", {})
    tolerance = gate.get("sim_tolerance")
    floors = gate.get("floors", {})
    fresh_cells = {c["cell_id"]: c for c in fresh.get("cells", [])}
    for base in baseline.get("cells", []):
        cell_id = base["cell_id"]
        cell = fresh_cells.get(cell_id)
        if cell is None:
            failures.append(f"{area}: cell {cell_id} missing from fresh run")
            continue
        if cell.get("status") != DONE:
            failures.append(
                f"{area}: cell {cell_id} is {cell.get('status')}, not DONE"
                + (f" ({cell.get('error')})" if cell.get("error") else "")
            )
            continue
        base_sim = base.get("sim_seconds")
        fresh_sim = cell.get("sim_seconds")
        if tolerance is not None and base_sim and fresh_sim is not None:
            limit = base_sim * (1.0 + tolerance)
            if fresh_sim > limit:
                failures.append(
                    f"{area}: cell {cell_id} regressed: {fresh_sim:.3f}s sim "
                    f"vs baseline {base_sim:.3f}s "
                    f"(+{100 * (fresh_sim / base_sim - 1):.1f}%, band "
                    f"{100 * tolerance:.0f}%)"
                )
        for metric, floor in floors.items():
            value = cell.get("metrics", {}).get(metric)
            if value is None or value < floor:
                failures.append(
                    f"{area}: cell {cell_id} metric {metric}={value} under "
                    f"the floor {floor}"
                )
    for check in fresh.get("checks", []):
        if not check.get("passed"):
            failures.append(
                f"{area}: check failed: {check.get('description')}"
            )
    return failures


def gate_areas(area_names: Sequence[str], results_dir: str,
               baseline_dir: str,
               log: Callable[[str], None] = print) -> List[str]:
    """Compare every area's fresh artifact against its committed baseline."""
    failures: List[str] = []
    for name in area_names:
        fresh_path = artifact_path(results_dir, name)
        base_path = artifact_path(baseline_dir, name)
        if not os.path.exists(base_path):
            failures.append(f"{name}: no committed baseline at {base_path}")
            continue
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: no fresh artifact at {fresh_path}; "
                            f"run the grid first")
            continue
        area_failures = compare_artifacts(
            load_artifact(fresh_path), load_artifact(base_path)
        )
        status = "PASS" if not area_failures else "FAIL"
        log(f"[gate] {name}: {status} "
            f"({fresh_path} vs {base_path})")
        failures.extend(area_failures)
    return failures


# ------------------------------------------------------------ trajectory view
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: the perf-history journal ``python -m repro.bench`` appends to
TRAJECTORY_BASENAME = "trajectory.jsonl"

#: sparklines show at most this many trailing runs per experiment
TRAJECTORY_WINDOW = 24


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Render a series as unicode block glyphs (blank for missing points)."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    low, high = min(present), max(present)
    span = high - low
    glyphs = []
    for value in values:
        if value is None:
            glyphs.append(" ")
        elif span == 0:
            glyphs.append(SPARK_GLYPHS[0])
        else:
            index = int((value - low) / span * (len(SPARK_GLYPHS) - 1))
            glyphs.append(SPARK_GLYPHS[index])
    return "".join(glyphs)


def trajectory_lines(records: Sequence[Mapping[str, Any]],
                     source: str) -> List[str]:
    """Fold trajectory records into a markdown table with sparklines."""
    by_experiment: Dict[str, List[Mapping[str, Any]]] = {}
    for record in records:
        if record.get("kind") != "experiment":
            continue
        by_experiment.setdefault(str(record.get("experiment")), []).append(record)
    lines = [
        "# Performance trajectory",
        "",
        f"Rendered from `{source}`; one row per experiment, sparkline over "
        f"the last {TRAJECTORY_WINDOW} recorded wall times (low → high).",
        "",
        "| experiment | runs | last wall (s) | best wall (s) | last sim (s) "
        "| last checks | wall trend |",
        "|---|---:|---:|---:|---:|---|---|",
    ]
    for name in sorted(by_experiment):
        runs = by_experiment[name]
        walls = [r.get("wall_seconds") for r in runs]
        present = [w for w in walls if w is not None]
        latest = runs[-1]
        sim = latest.get("sim_seconds")
        lines.append(
            "| {name} | {count} | {last} | {best} | {sim} | {checks} "
            "| `{trend}` |".format(
                name=name,
                count=len(runs),
                last=f"{walls[-1]:.2f}" if walls[-1] is not None else "-",
                best=f"{min(present):.2f}" if present else "-",
                sim=f"{sim:.1f}" if sim is not None else "-",
                checks="pass" if latest.get("checks_passed") else "FAIL",
                trend=sparkline(walls[-TRAJECTORY_WINDOW:]),
            )
        )
    if not by_experiment:
        lines.append("| (no experiment records yet) | | | | | | |")
    return lines


def render_trajectory(results_dir: str,
                      log: Callable[[str], None] = print) -> int:
    """``--trajectory``: write and print ``TRAJECTORY.md`` from the journal."""
    path = os.path.join(results_dir, TRAJECTORY_BASENAME)
    if not os.path.exists(path):
        log(f"no trajectory journal at {path}; run `python -m repro.bench` "
            f"first to record one")
        return 1
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a torn write never blocks the report
    lines = trajectory_lines(records, path)
    out_path = os.path.join(results_dir, "TRAJECTORY.md")
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        log(line)
    log(f"\nwrote {out_path}")
    return 0


# ------------------------------------------------------------------------ CLI
def journal_path(results_dir: str, area_name: str, smoke: bool) -> str:
    flavor = "smoke" if smoke else "full"
    return os.path.join(results_dir, f"grid_{area_name}.{flavor}.jsonl")


def run_area(area: BenchArea, results_dir: str, smoke: bool = True,
             resume: bool = True,
             log: Callable[[str], None] = print) -> Tuple[ResultsStore,
                                                          ExperimentReport]:
    """Run one area's grid (resuming), then emit its BENCH artifact."""
    grid = area.grid(smoke=smoke)
    store = ResultsStore(journal_path(results_dir, area.name, smoke), grid)
    runner = GridRunner(grid, area.run_cell, store, log=log)
    summary = runner.run(resume=resume)
    log(f"[{area.name}] {summary['run']} run, {summary['skipped']} resumed "
        f"(skipped), {summary['failed']} failed of {len(grid)} cells")
    report = build_area_report(area, store, smoke=smoke)
    report.save(results_dir)
    log(f"[{area.name}] wrote {artifact_path(results_dir, area.name)}")
    return store, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.grid",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("areas", nargs="*",
                        help=f"areas to run (default: all of "
                             f"{sorted(AREAS)})")
    parser.add_argument("--list", action="store_true",
                        help="list areas, axes and cell counts")
    parser.add_argument("--full", action="store_true",
                        help="run the full grids instead of the smoke subset")
    parser.add_argument("--fresh", action="store_true",
                        help="discard journals and restart the sweep")
    parser.add_argument("--results-dir", default="benchmarks/results")
    parser.add_argument("--baseline-dir", default="benchmarks/baselines")
    parser.add_argument("--gate", action="store_true",
                        help="compare existing artifacts against committed "
                             "baselines instead of running")
    parser.add_argument("--update-baselines", action="store_true",
                        help="after running, copy fresh artifacts into the "
                             "baseline directory")
    parser.add_argument("--no-publish", action="store_true",
                        help="skip publishing the trajectory into the "
                             "dogfood Vertica results table")
    parser.add_argument("--trajectory", action="store_true",
                        help="render the perf-history journal "
                             "(trajectory.jsonl) into TRAJECTORY.md")
    args = parser.parse_args(argv)

    if args.trajectory:
        return render_trajectory(args.results_dir)

    if args.list:
        for name, area in sorted(AREAS.items()):
            smoke = area.grid(True)
            full = area.grid(False)
            print(f"{name:18s} {area.title}")
            print(f"{'':18s} axes: {full.axes} "
                  f"({len(smoke)} smoke / {len(full)} full cells)")
        return 0

    unknown = [a for a in args.areas if a not in AREAS]
    if unknown:
        print(f"unknown areas {unknown}; known: {sorted(AREAS)}",
              file=sys.stderr)
        return 2
    selected = args.areas or sorted(AREAS)

    if args.gate:
        failures = gate_areas(selected, args.results_dir, args.baseline_dir)
        if failures:
            print("\nPERF GATE FAILURES:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"perf gate passed for {len(selected)} area(s)")
        return 0

    smoke = not args.full
    stores: List[ResultsStore] = []
    bad = False
    for name in selected:
        store, report = run_area(AREAS[name], args.results_dir, smoke=smoke,
                                 resume=not args.fresh)
        stores.append(store)
        counts = store.counts()
        if counts[FAILED] or counts[PENDING] or not report.all_checks_pass:
            bad = True
        for description in report.failed_checks():
            print(f"[{name}] CHECK FAILED: {description}", file=sys.stderr)
        if args.update_baselines:
            report.save_json(artifact_path(args.baseline_dir, name))
            print(f"[{name}] baseline updated: "
                  f"{artifact_path(args.baseline_dir, name)}")

    if not args.no_publish:
        fabric, written = publish_results(stores)
        readback = read_results(fabric)
        print(f"published {written} cell row(s) into {RESULTS_TABLE} via "
              f"S2V; V2S reads back {len(readback)} row(s)")
        if written != len(readback):
            print("dogfood store round-trip mismatch", file=sys.stderr)
            bad = True

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
