"""Statement execution: scans, DML, queries, and cost accounting.

Every executed statement returns a :class:`ResultSet` whose
:class:`CostReport` records how many rows were scanned on which node and
how many output bytes each node produced.  The simulation bridge uses that
locality information to decide which bytes cross the Vertica-internal
network (shuffle) versus flow straight out to the client — the effect at
the heart of the paper's locality-aware V2S design.

Notable behaviours:

- **Segment pruning** — a WHERE clause containing ``HASH(seg_cols) >= lo
  AND HASH(seg_cols) < hi`` conjuncts is recognised and nodes whose
  segment does not intersect ``[lo, hi)`` are skipped entirely, so a
  hash-range query touches exactly one node's storage.
- **Epoch snapshots** — ``AT EPOCH n SELECT ...`` reads the table as of
  epoch ``n``; otherwise a transaction's first read pins its snapshot.
- **Unsegmented tables** are replicated on every node; queries read the
  initiator node's copy (zero shuffle), DML touches every copy.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.vertica.errors import CatalogError, SqlError
from repro.vertica.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
)
from repro.vertica.hashring import HASH_SPACE
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.storage import RosContainer, take
from repro.vertica.txn import Transaction


class CostReport:
    """Rows/bytes touched by a statement, attributed to storage nodes."""

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_output = 0
        self.bytes_output = 0.0
        self.node_rows_scanned: Dict[str, int] = {}
        self.node_output_bytes: Dict[str, float] = {}
        self.node_rows_output: Dict[str, int] = {}
        self.rows_written = 0
        self.node_rows_written: Dict[str, int] = {}
        self.rows_aggregated = 0
        self.node_rows_aggregated: Dict[str, int] = {}
        #: seconds spent queued in WLM admission before execution began
        self.queue_wait_seconds = 0.0
        #: name of the resource pool the statement executed in (None when
        #: the cluster runs without WLM admission)
        self.resource_pool: Optional[str] = None
        #: True when the result cache served this statement.  The other
        #: fields are replayed from the memoised execution, so a hit's
        #: report is byte-identical to its cold replay modulo this flag —
        #: the JDBC bridge uses it to skip scan/aggregate CPU charges.
        self.cache_hit = False

    def scanned(self, node: str, rows: int = 1) -> None:
        self.rows_scanned += rows
        self.node_rows_scanned[node] = self.node_rows_scanned.get(node, 0) + rows

    def aggregated(self, node: str, rows: int = 1) -> None:
        """Rows consumed by a GROUP BY/aggregate, on their producing node."""
        self.rows_aggregated += rows
        self.node_rows_aggregated[node] = (
            self.node_rows_aggregated.get(node, 0) + rows
        )

    def output(self, node: str, nbytes: float, rows: int = 1) -> None:
        self.rows_output += rows
        self.bytes_output += nbytes
        self.node_output_bytes[node] = self.node_output_bytes.get(node, 0.0) + nbytes
        self.node_rows_output[node] = self.node_rows_output.get(node, 0) + rows

    def wrote(self, node: str, rows: int = 1) -> None:
        self.rows_written += rows
        self.node_rows_written[node] = self.node_rows_written.get(node, 0) + rows

    def merge(self, other: "CostReport") -> None:
        self.cache_hit = self.cache_hit or other.cache_hit
        self.rows_scanned += other.rows_scanned
        self.rows_output += other.rows_output
        self.bytes_output += other.bytes_output
        self.rows_written += other.rows_written
        self.rows_aggregated += other.rows_aggregated
        self.queue_wait_seconds += other.queue_wait_seconds
        if other.resource_pool is not None:
            self.resource_pool = other.resource_pool
        for node, rows in other.node_rows_aggregated.items():
            self.node_rows_aggregated[node] = (
                self.node_rows_aggregated.get(node, 0) + rows
            )
        for node, rows in other.node_rows_scanned.items():
            self.node_rows_scanned[node] = self.node_rows_scanned.get(node, 0) + rows
        for node, nbytes in other.node_output_bytes.items():
            self.node_output_bytes[node] = (
                self.node_output_bytes.get(node, 0.0) + nbytes
            )
        for node, rows in other.node_rows_output.items():
            self.node_rows_output[node] = self.node_rows_output.get(node, 0) + rows
        for node, rows in other.node_rows_written.items():
            self.node_rows_written[node] = self.node_rows_written.get(node, 0) + rows


class ResultSet:
    """Columns + rows + affected-row count + cost of one statement."""

    #: set by ``PROFILE <query>``: the PlanProfile with per-operator stats
    profile = None
    #: set by ``PROFILE <query>``: the profiled query's own ResultSet
    query_result = None
    #: set by SELECT execution: the snapshot epoch the rows were read at
    #: (what the chaos stale-read checker replays against)
    snapshot_epoch = None

    def __init__(
        self,
        columns: Optional[List[str]] = None,
        rows: Optional[List[Tuple[Any, ...]]] = None,
        rowcount: int = 0,
        cost: Optional[CostReport] = None,
    ):
        self.columns = columns or []
        self.rows = rows or []
        self.rowcount = rowcount if rowcount else len(self.rows)
        self.cost = cost or CostReport()

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result.

        Raises :class:`~repro.vertica.errors.SqlError` (a
        :class:`~repro.vertica.errors.VerticaError`) when the result is
        empty or not exactly one row by one column — never a bare
        ``IndexError``.
        """
        if not self.rows:
            raise SqlError(
                "scalar() on an empty result "
                "(expected exactly one row with one column)"
            )
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise SqlError(
                f"scalar() on a {len(self.rows)}x{len(self.rows[0])} result "
                "(expected exactly one row with one column)"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"


class HashRange:
    """An extracted ``[lo, hi)`` restriction on the segmentation hash."""

    def __init__(self, lo: int = 0, hi: int = HASH_SPACE):
        self.lo = lo
        self.hi = hi

    def intersects(self, lo: int, hi: int) -> bool:
        return self.lo < hi and lo < self.hi

    @property
    def is_full(self) -> bool:
        return self.lo <= 0 and self.hi >= HASH_SPACE


def _value_bytes(value: Any) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return 8


def extract_hash_range(
    where: Optional[Expression], segmentation_columns: Sequence[str]
) -> HashRange:
    """Find hash-range bounds over the segmentation columns in ``where``.

    Only top-level AND conjuncts are considered (a disjunction cannot be
    pruned safely).  Recognises ``HASH(cols) <op> literal`` in either
    orientation and ``HASH(cols) BETWEEN a AND b``.
    """
    hash_range = HashRange()
    if where is None or not segmentation_columns:
        return hash_range
    for conjunct in _conjuncts(where):
        _tighten(conjunct, list(segmentation_columns), hash_range)
    return hash_range


def _conjuncts(expression: Expression) -> Iterator[Expression]:
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        yield from _conjuncts(expression.left)
        yield from _conjuncts(expression.right)
    else:
        yield expression


def _is_seg_hash(expression: Expression, seg_cols: List[str]) -> bool:
    return (
        isinstance(expression, FunctionCall)
        and expression.name == "HASH"
        and all(isinstance(a, ColumnRef) for a in expression.args)
        and [a.name for a in expression.args] == seg_cols
    )


def _tighten(conjunct: Expression, seg_cols: List[str], hash_range: HashRange) -> None:
    if isinstance(conjunct, Between) and _is_seg_hash(conjunct.operand, seg_cols):
        if isinstance(conjunct.low, Literal) and isinstance(conjunct.low.value, int):
            hash_range.lo = max(hash_range.lo, conjunct.low.value)
        if isinstance(conjunct.high, Literal) and isinstance(conjunct.high.value, int):
            hash_range.hi = min(hash_range.hi, conjunct.high.value + 1)
        return
    if not isinstance(conjunct, BinaryOp):
        return
    op = conjunct.op
    left, right = conjunct.left, conjunct.right
    if _is_seg_hash(left, seg_cols) and isinstance(right, Literal):
        bound = right.value
    elif _is_seg_hash(right, seg_cols) and isinstance(left, Literal):
        bound = left.value
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        left = right
    else:
        return
    if not isinstance(bound, int):
        return
    if op == ">=":
        hash_range.lo = max(hash_range.lo, bound)
    elif op == ">":
        hash_range.lo = max(hash_range.lo, bound + 1)
    elif op == "<":
        hash_range.hi = min(hash_range.hi, bound)
    elif op == "<=":
        hash_range.hi = min(hash_range.hi, bound + 1)
    elif op == "=":
        hash_range.lo = max(hash_range.lo, bound)
        hash_range.hi = min(hash_range.hi, bound + 1)


class ScanRow:
    """One visible row with its physical location (for DML staging)."""

    __slots__ = ("node", "data", "container", "row_index")

    def __init__(
        self,
        node: str,
        data: Dict[str, Any],
        container: Optional[RosContainer] = None,
        row_index: int = -1,
    ):
        self.node = node
        self.data = data
        self.container = container
        self.row_index = row_index


class ScanChunk:
    """The visible rows of one ROS container (or WOS buffer) on one node.

    ``columns`` are the requested columns at full container length;
    ``positions`` picks the visible, in-range rows out of them (``None``:
    every row, so the lists can be used whole).  Consumers never mutate
    the lists — they are the container's own storage.
    """

    __slots__ = ("node", "container", "positions", "columns", "size")

    def __init__(
        self,
        node: str,
        container: Optional[RosContainer],
        positions: Optional[List[int]],
        columns: List[List[Any]],
        size: int,
    ):
        self.node = node
        #: the ROS container, or None for this transaction's WOS rows
        self.container = container
        self.positions = positions
        self.columns = columns
        #: rows this chunk yields (len(positions) when positions is set)
        self.size = size

    def sliced(self) -> List[List[Any]]:
        """The requested columns holding only this chunk's rows."""
        if self.positions is None:
            return self.columns
        return [take(column, self.positions) for column in self.columns]


class Engine:
    """Executes parsed statements against a database's storage."""

    def __init__(self,
                 database: "repro.vertica.database.VerticaDatabase"):  # noqa: F821
        self.database = database

    # ---------------------------------------------------------------- dispatch
    def execute(
        self,
        statement,
        txn: Transaction,
        initiator: str,
        copy_data=None,
        resource_pool: Optional[str] = None,
        use_result_cache: bool = False,
    ) -> Tuple[ResultSet, Optional[Any]]:
        """Run one parsed DML/query statement; returns (result, copy_result).

        The single entry point the session layer dispatches through, so
        every statement's :class:`CostReport` is stamped with the resource
        pool it ran in (``copy_result`` is non-None only for COPY).
        ``use_result_cache`` carries the session's RESULT_CACHE setting;
        only top-level SELECT/EXPLAIN/PROFILE consult the cache (never the
        inner query of INSERT ... SELECT, which must see staged writes).
        """
        copy_result = None
        if isinstance(statement, ast.Select):
            result = self.select(statement, txn, initiator, use_cache=use_result_cache)
        elif isinstance(statement, ast.Explain):
            result = self.explain(statement, txn, initiator, use_cache=use_result_cache)
        elif isinstance(statement, ast.Profile):
            result = self.profile(statement, txn, initiator, use_cache=use_result_cache)
        elif isinstance(statement, ast.InsertValues):
            result = self.insert_values(statement, txn, initiator)
        elif isinstance(statement, ast.InsertSelect):
            result = self.insert_select(statement, txn, initiator)
        elif isinstance(statement, ast.Update):
            result = self.update(statement, txn, initiator)
        elif isinstance(statement, ast.Delete):
            result = self.delete(statement, txn, initiator)
        elif isinstance(statement, ast.Analyze):
            result = self.analyze(statement)
        elif isinstance(statement, ast.CopyStatement):
            from repro.vertica.copyload import run_copy

            result, copy_result = run_copy(self, statement, txn, copy_data)
        else:
            raise SqlError(f"unhandled statement {type(statement).__name__}")
        result.cost.resource_pool = resource_pool
        return result, copy_result

    # ------------------------------------------------------------------ scans
    def scan(
        self,
        table_name: str,
        snapshot_epoch: int,
        txn: Optional[Transaction],
        initiator: str,
        hash_range: Optional[HashRange] = None,
        cost: Optional[CostReport] = None,
        for_update: bool = False,
    ) -> Iterator[ScanRow]:
        """Yield visible rows of a table at a snapshot.

        ``for_update`` scans every physical copy (so DML can touch each
        replica of an unsegmented table); plain reads scan the initiator's
        copy of unsegmented tables and all (pruned) segments of segmented
        tables.
        """
        db = self.database
        table = db.catalog.table(table_name)
        hash_range = hash_range or HashRange()
        if table.unsegmented:
            nodes = db.node_names if for_update else [initiator]
        else:
            nodes = []
            assert table.ring is not None
            for segment in table.ring.segments:
                if hash_range.intersects(segment.lo, segment.hi):
                    nodes.append(segment.node)
        for node in nodes:
            storage, attributed = self._storage_for(node, table_name)
            for container in storage:
                for row_index in container.live_rows(snapshot_epoch):
                    if txn is not None and txn.is_deleted_by_self(container, row_index):
                        continue
                    if cost is not None:
                        cost.scanned(attributed)
                    row_hash = container.row_hashes[row_index]
                    if not table.unsegmented and not (
                        hash_range.lo <= row_hash < hash_range.hi
                    ):
                        continue
                    yield ScanRow(attributed, container.row(row_index),
                                  container, row_index)
        # Read-your-writes: rows staged by this transaction.
        if txn is not None:
            pending_nodes = set(nodes)
            for (wos_table, node), buffer in list(txn.wos.items()):
                if wos_table != table.name or node not in pending_nodes:
                    continue
                for index, row in enumerate(buffer.rows):
                    if cost is not None:
                        cost.scanned(node)
                    row_hash = buffer.row_hashes[index]
                    if not table.unsegmented and not (
                        hash_range.lo <= row_hash < hash_range.hi
                    ):
                        continue
                    yield ScanRow(node, dict(zip(buffer.column_names, row)))

    def scan_chunks(
        self,
        table_name: str,
        snapshot_epoch: int,
        txn: Optional[Transaction],
        initiator: str,
        columns: Sequence[str],
        hash_range: Optional[HashRange] = None,
        cost: Optional[CostReport] = None,
        for_update: bool = False,
    ) -> Iterator[ScanChunk]:
        """The rows :meth:`scan` yields, one container at a time.

        Same nodes, containers, rows and order as :meth:`scan` (the
        reference the legacy oracle still reads), but column-major: each
        container contributes a live mask (its delete vector plus this
        transaction's staged deletes), then a hash-range mask over
        ``row_hashes``, and hands out only the requested ``columns``.
        ``cost.scanned`` is charged once per container with the same
        per-node totals, in the same node order, as the row scan's
        per-row charges.  Storage for every node — including buddy
        failover — is resolved before the first chunk, so a down node
        raises before any row is read, as in the legacy interpreter.
        """
        db = self.database
        table = db.catalog.table(table_name)
        hash_range = hash_range or HashRange()
        if table.unsegmented:
            nodes = db.node_names if for_update else [initiator]
        else:
            assert table.ring is not None
            nodes = [
                segment.node
                for segment in table.ring.segments
                if hash_range.intersects(segment.lo, segment.hi)
            ]
        sources = [self._storage_for(node, table_name) for node in nodes]
        # Row hashes lie in [0, HASH_SPACE): a full range filters nothing.
        filter_hashes = not table.unsegmented and not hash_range.is_full
        lo, hi = hash_range.lo, hash_range.hi
        for containers, attributed in sources:
            for container in containers:
                positions = container.live_positions(snapshot_epoch)
                staged = (
                    txn.deleted_by_self(container) if txn is not None else None
                )
                if staged:
                    positions = [
                        i
                        for i in (range(container.nrows) if positions is None
                                  else positions)
                        if i not in staged
                    ]
                visible = container.nrows if positions is None else len(positions)
                if not visible:
                    continue
                if cost is not None:
                    cost.scanned(attributed, visible)
                if filter_hashes:
                    hashes = container.row_hashes
                    positions = [
                        i
                        for i in (range(container.nrows) if positions is None
                                  else positions)
                        if lo <= hashes[i] < hi
                    ]
                layout = {n: i for i, n in enumerate(container.column_names)}
                yield ScanChunk(
                    attributed,
                    container,
                    positions,
                    [container.columns[layout[name]] for name in columns],
                    visible if positions is None else len(positions),
                )
        # Read-your-writes: rows staged by this transaction.
        if txn is not None:
            pending_nodes = set(nodes)
            for (wos_table, node), buffer in list(txn.wos.items()):
                if wos_table != table.name or node not in pending_nodes:
                    continue
                rows = buffer.rows
                if not rows:
                    continue
                if cost is not None:
                    cost.scanned(node, len(rows))
                positions = None
                if filter_hashes:
                    hashes = buffer.row_hashes
                    positions = [
                        i for i in range(len(rows)) if lo <= hashes[i] < hi
                    ]
                picked = rows if positions is None else [rows[i] for i in positions]
                layout = {n: i for i, n in enumerate(buffer.column_names)}
                yield ScanChunk(
                    node,
                    None,
                    None,
                    [[row[layout[name]] for row in picked] for name in columns],
                    len(picked),
                )

    def _storage_for(self, node: str, table_name: str):
        """Containers for ``table_name`` on ``node``, with failover.

        When the node is down and k-safety >= 1, the buddy node serves its
        replica containers; scanned rows are attributed to the buddy.
        """
        db = self.database
        key = table_name.upper()
        if db.node_states.get(node, "UP") == "UP":
            return db.storage[node].table_containers(key), node
        if db.k_safety >= 1:
            buddy = db.buddy_of(node)
            if db.node_states.get(buddy, "UP") == "UP":
                return db.storage[buddy].replica_containers(key), buddy
        raise CatalogError(
            f"node {node!r} is down and no replica is available (k-safety "
            f"{db.k_safety})"
        )

    # ------------------------------------------------------------------- SELECT
    def select(
        self,
        statement: ast.Select,
        txn: Transaction,
        initiator: str,
        cost: Optional[CostReport] = None,
        use_cache: bool = False,
    ) -> ResultSet:
        """Run one SELECT through the bind → optimize → execute pipeline."""
        return self._run_select(statement, txn, initiator, cost, use_cache)[0]

    def _cache_bypass_reason(
        self, txn: Transaction, canonical: str
    ) -> Optional[str]:
        """Why this SELECT must not touch the result cache (None = cacheable).

        Read-your-writes makes staged transaction state part of the
        query's input but not of its epoch; system tables change without
        epochs (node states, pool occupancy); UDx calls are opaque.
        """
        if txn.wos or txn.replica_wos or txn.deletes:
            return "txn_writes"
        if "V_CATALOG" in canonical or "V_MONITOR" in canonical:
            return "system_table"
        udx_names = self.database.udx.names()
        if udx_names:
            tokens = set(canonical.split(" "))
            if any(name in tokens for name in udx_names):
                return "udx"
        return None

    def _run_select(
        self,
        statement: ast.Select,
        txn: Transaction,
        initiator: str,
        cost: Optional[CostReport] = None,
        use_cache: bool = False,
    ):
        """Shared SELECT entry: returns (ResultSet, PipelineExecution).

        With ``use_cache`` the result cache is consulted under
        (canonical statement, snapshot epoch, catalog version); a hit
        replays the memoised rows and cost attribution without running
        any operator (the returned execution is ``None``).
        """
        cost = cost if cost is not None else CostReport()
        telemetry.counter("vertica.queries.select").inc()
        if statement.at_epoch is not None:
            telemetry.counter("vertica.epoch_reads").inc()
        if (
            statement.at_epoch is not None
            and statement.at_epoch < self.database.tuple_mover.ahm_epoch
        ):
            from repro.vertica.errors import TransactionError

            raise TransactionError(
                f"epoch {statement.at_epoch} is below the Ancient History "
                f"Mark ({self.database.tuple_mover.ahm_epoch}); its history "
                "has been merged out"
            )
        snapshot = txn.snapshot_epoch(statement.at_epoch)

        db = self.database
        cache = db.result_cache
        canonical = getattr(statement, "cache_key", None)
        cacheable = use_cache and canonical is not None
        if cacheable:
            reason = self._cache_bypass_reason(txn, canonical)
            if reason is not None:
                cache.bypass(reason)
                cacheable = False
        if cacheable:
            from repro.cache.result import replay_cost

            entry = cache.lookup(
                canonical, snapshot, db.catalog.version, statement
            )
            if entry is not None:
                replay_cost(entry.cost_snapshot, cost)
                cost.cache_hit = True
                result = ResultSet(
                    list(entry.columns), list(entry.rows), cost=cost
                )
                result.snapshot_epoch = snapshot
                return result, None

        # Imported lazily: plan modules import this module at their top.
        from repro.vertica.plan import execute_select

        result, execution = execute_select(
            self, statement, txn, initiator, snapshot, cost
        )
        result.snapshot_epoch = snapshot
        if cacheable:
            cache.store(
                canonical,
                snapshot,
                db.catalog.version,
                result.columns,
                result.rows,
                cost,
            )
        return result, execution

    def explain(
        self,
        statement: ast.Explain,
        txn: Transaction,
        initiator: str,
        use_cache: bool = False,
    ) -> ResultSet:
        """Render the optimized plan: access path, pruning, pushdowns.

        Binds and optimizes through the real pipeline but executes
        nothing (row estimates come from storage metadata only).  When
        the session has RESULT_CACHE on, a trailing line reports whether
        the query would be served from the result cache at the current
        snapshot (the probe neither stores nor touches LRU order).
        """
        from repro.vertica.plan import explain_lines

        lines = explain_lines(self, statement.query, initiator)
        canonical = getattr(statement.query, "cache_key", None)
        if use_cache and canonical is not None:
            from repro.cache.keys import statement_digest

            db = self.database
            query = statement.query
            probe_epoch = (
                query.at_epoch if query.at_epoch is not None else db.epochs.current
            )
            held = (canonical, probe_epoch, db.catalog.version) in db.result_cache
            lines.append(
                f"RESULT CACHE: {'hit' if held else 'miss'} "
                f"(digest {statement_digest(canonical)}, epoch {probe_epoch})"
            )
        return ResultSet(["QUERY_PLAN"], [(line,) for line in lines])

    def profile(
        self,
        statement: ast.Profile,
        txn: Transaction,
        initiator: str,
        use_cache: bool = False,
    ) -> ResultSet:
        """Execute the query and report per-operator execution stats.

        The report rows are the rendered profile; the profiled query's
        own result hangs off ``query_result`` and the structured stats
        off ``profile``.  The report carries the real query's
        CostReport, so WLM accounting charges PROFILE like the query it
        ran.  A result-cache hit has no operator tree: the report then
        shows the hit and the replayed cost summary (``profile`` stays
        ``None``).
        """
        from repro.vertica.plan.pipeline import PlanProfile

        telemetry.counter("vertica.queries.profile").inc()
        result, execution = self._run_select(
            statement.query, txn, initiator, use_cache=use_cache
        )
        if execution is None:
            cost = result.cost
            lines = [
                f"RESULT CACHE: hit (epoch {result.snapshot_epoch})",
                "COST: "
                f"rows scanned: {cost.rows_scanned}, "
                f"rows aggregated: {cost.rows_aggregated}, "
                f"rows output: {cost.rows_output}, "
                f"bytes output: {int(cost.bytes_output)}",
            ]
            report = ResultSet(["PROFILE"], [(line,) for line in lines], cost=cost)
            report.query_result = result
            return report
        prof = PlanProfile(execution, result)
        report = ResultSet(
            ["PROFILE"], [(line,) for line in prof.lines()], cost=result.cost
        )
        report.profile = prof
        report.query_result = result
        return report

    def analyze(self, statement: ast.Analyze) -> ResultSet:
        """Collect optimizer statistics for one table (``ANALYZE <table>``).

        Scans the committed data at the current epoch, rebuilds row/NDV/
        min-max/histogram statistics, and persists them in the catalog
        (visible through ``V_CATALOG.COLUMN_STATISTICS``).
        """
        from repro.vertica.stats import DEFAULT_BUCKETS, collect_table_stats

        db = self.database
        table = db.catalog.table(statement.table)
        buckets = (statement.buckets if statement.buckets is not None
                   else DEFAULT_BUCKETS)
        if buckets <= 0:
            raise SqlError(f"ANALYZE bucket count must be positive, got {buckets}")
        stats = collect_table_stats(db, table.name, buckets)
        db.catalog.statistics[table.name] = stats
        # Fresh statistics supersede any feedback correction accumulated
        # against the stale ones.
        corrections = getattr(db, "stats_corrections", None)
        if corrections is not None:
            corrections.forget(table.name)
        # New statistics change plan choice without advancing an epoch:
        # bump the catalog version so plan/result caches re-key.
        db.catalog.bump_version()
        telemetry.counter("vertica.queries.analyze").inc()
        return ResultSet(
            ["TABLE_NAME", "ROW_COUNT", "COLUMNS_ANALYZED"],
            [(table.name, stats.row_count, len(stats.columns))],
        )

    # ------------------------------------------------------------------- DML
    def insert_rows(
        self,
        table_name: str,
        rows: List[Dict[str, Any]],
        txn: Transaction,
        cost: Optional[CostReport] = None,
    ) -> int:
        """Stage coerced rows into the transaction's WOS, routed by segment."""
        db = self.database
        table = db.catalog.table(table_name)
        txn.lock(table.name, mode="I")
        cost = cost if cost is not None else CostReport()
        column_names = table.column_names()
        for row in rows:
            coerced = {}
            for column_def in table.columns:
                value = row.get(column_def.name)
                coerced[column_def.name] = column_def.sql_type.coerce(value)
            ordered = [coerced[c] for c in column_names]
            if table.unsegmented:
                for node in db.node_names:
                    txn.wos_for(table.name, node, column_names).append(ordered, 0)
                cost.wrote(db.node_names[0])
            else:
                row_hash = table.row_hash(coerced)
                assert table.ring is not None
                node = table.ring.node_for(row_hash)
                txn.wos_for(table.name, node, column_names).append(ordered, row_hash)
                cost.wrote(node)
                if db.k_safety >= 1:
                    buddy = db.buddy_of(node)
                    txn.replica_wos_for(table.name, buddy, column_names).append(
                        ordered, row_hash
                    )
        return len(rows)

    def insert_values(
        self, statement: ast.InsertValues, txn: Transaction, initiator: str
    ) -> ResultSet:
        table = self.database.catalog.table(statement.table)
        target_columns = (
            [c.upper() for c in statement.columns]
            if statement.columns
            else table.column_names()
        )
        telemetry.counter("vertica.queries.insert").inc()
        rows = []
        for value_exprs in statement.rows:
            if len(value_exprs) != len(target_columns):
                raise SqlError(
                    f"INSERT has {len(value_exprs)} values for "
                    f"{len(target_columns)} columns"
                )
            values = [e.evaluate({}) for e in value_exprs]
            rows.append(dict(zip(target_columns, values)))
        cost = CostReport()
        count = self.insert_rows(table.name, rows, txn, cost)
        return ResultSet(rowcount=count, cost=cost)

    def insert_select(
        self, statement: ast.InsertSelect, txn: Transaction, initiator: str
    ) -> ResultSet:
        table = self.database.catalog.table(statement.table)
        telemetry.counter("vertica.queries.insert").inc()
        cost = CostReport()
        result = self.select(statement.query, txn, initiator, cost=cost)
        target_columns = (
            [c.upper() for c in statement.columns]
            if statement.columns
            else table.column_names()
        )
        if result.columns and len(result.columns) != len(target_columns):
            raise SqlError(
                f"INSERT SELECT arity mismatch: query yields "
                f"{len(result.columns)} columns for {len(target_columns)}"
            )
        rows = [dict(zip(target_columns, row)) for row in result.rows]
        count = self.insert_rows(table.name, rows, txn, cost)
        return ResultSet(rowcount=count, cost=cost)

    def update(
        self, statement: ast.Update, txn: Transaction, initiator: str
    ) -> ResultSet:
        db = self.database
        table = db.catalog.table(statement.table)
        txn.lock(table.name)
        telemetry.counter("vertica.queries.update").inc()
        cost = CostReport()
        snapshot = db.epochs.current
        assignments = [(c.upper(), e) for c, e in statement.assignments]
        for column, __ in assignments:
            if not table.has_column(column):
                raise SqlError(f"table {table.name!r} has no column {column!r}")
        from repro.vertica.plan import dml_matching_rows

        matched: List[Dict[str, Any]] = []
        seen_keys = set()
        for container, row_index, data in dml_matching_rows(
            self, table.name, statement.where, txn, initiator, snapshot, cost
        ):
            if container is not None:
                txn.stage_delete(container, row_index)
            if table.unsegmented:
                # Replicated copies: update counts once per logical row.
                key = tuple(sorted(data.items()))
                if key in seen_keys:
                    continue
                seen_keys.add(key)
            updated = dict(data)
            for column, expression in assignments:
                updated[column] = expression.evaluate(data)
            matched.append(updated)
        if matched:
            self.insert_rows(table.name, matched, txn, cost)
        return ResultSet(rowcount=len(matched), cost=cost)

    def delete(
        self, statement: ast.Delete, txn: Transaction, initiator: str
    ) -> ResultSet:
        db = self.database
        table = db.catalog.table(statement.table)
        txn.lock(table.name)
        telemetry.counter("vertica.queries.delete").inc()
        cost = CostReport()
        snapshot = db.epochs.current
        from repro.vertica.plan import dml_matching_rows

        count = 0
        seen_keys = set()
        for container, row_index, data in dml_matching_rows(
            self, table.name, statement.where, txn, initiator, snapshot, cost
        ):
            if container is not None:
                txn.stage_delete(container, row_index)
            if table.unsegmented:
                key = tuple(sorted(data.items()))
                if key in seen_keys:
                    continue
                seen_keys.add(key)
            count += 1
        return ResultSet(rowcount=count, cost=cost)
