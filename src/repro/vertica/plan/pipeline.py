"""Glue for the layered pipeline: build, execute, EXPLAIN, PROFILE.

``execute_select`` is the one SELECT execution path: bind → optimize →
build physical operators → drain batches into a :class:`ResultSet`.
Everything the engine used to interpret row-by-row now flows through
here — views, V2S scans, aggregate-pushdown partials, the JDBC bridge
and WLM cost stamping all see the same operators and the same
:class:`~repro.vertica.engine.CostReport` the legacy interpreter
produced, byte for byte.

``explain_lines`` renders the *optimized* logical tree without executing
anything (binding touches only the catalog).  ``PlanProfile`` couples
that tree with per-operator execution stats for ``PROFILE <query>``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.vertica.engine import CostReport, HashRange, ResultSet
from repro.vertica.expr import Expression
from repro.vertica.plan import logical, physical
from repro.vertica.plan.adaptive import AdaptiveContext
from repro.vertica.plan.binder import bind_dml_scan, bind_select
from repro.vertica.plan.logical import LogicalPlan
from repro.vertica.plan.optimizer import optimize
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import Transaction


def build_operator(
    engine,
    node: logical.LogicalNode,
    txn: Transaction,
    initiator: str,
    snapshot: int,
    cost: CostReport,
    adaptive: Optional[AdaptiveContext] = None,
) -> physical.PhysicalOperator:
    """Translate one logical node (and its subtree) into operators."""

    def build(child: logical.LogicalNode) -> physical.PhysicalOperator:
        return build_operator(
            engine, child, txn, initiator, snapshot, cost, adaptive
        )

    if isinstance(node, logical.ConstantRelation):
        return physical.ConstantOp(node, initiator)
    if isinstance(node, logical.TableScan):
        return physical.TableScanOp(engine, node, txn, initiator, snapshot, cost)
    if isinstance(node, (logical.SystemTableScan, logical.StorageContainersScan)):
        return physical.SystemScanOp(engine, node, initiator)
    if isinstance(node, logical.ViewScan):
        return physical.ViewScanOp(engine, node, txn, initiator, snapshot, cost)
    if isinstance(node, logical.Join):
        left, right = build(node.left), build(node.right)
        if node.strategy == "hash":
            op: physical.PhysicalOperator = physical.HashJoinOp(
                node, left, right
            )
        elif node.strategy == "merge":
            op = physical.MergeJoinOp(node, left, right)
        else:
            return physical.JoinOp(node, left, right)
        op.adaptive = adaptive
        return op
    if isinstance(node, logical.Filter):
        return physical.FilterOp(node, build(node.child))
    if isinstance(node, logical.Project):
        return physical.ProjectOp(node, build(node.child), engine.database, cost)
    if isinstance(node, logical.Aggregate):
        return physical.AggregateOp(node, build(node.child), initiator, cost)
    if isinstance(node, logical.Sort):
        return physical.SortOp(node, build(node.child))
    if isinstance(node, logical.Limit):
        return physical.LimitOp(node, build(node.child))
    raise AssertionError(f"no physical operator for {type(node).__name__}")


class PipelineExecution:
    """A finished (or failed) run: the plan plus its operator tree."""

    def __init__(
        self,
        plan: LogicalPlan,
        root: physical.PhysicalOperator,
        adaptive: Optional[AdaptiveContext] = None,
    ):
        self.plan = plan
        self.root = root
        #: the query's adaptive-execution context (replan events live here)
        self.adaptive = adaptive

    def operators(self) -> List[Tuple[int, physical.PhysicalOperator]]:
        """(depth, operator) pairs, root first."""
        out: List[Tuple[int, physical.PhysicalOperator]] = []
        stack: List[Tuple[int, physical.PhysicalOperator]] = [(0, self.root)]
        while stack:
            depth, op = stack.pop()
            out.append((depth, op))
            for child in reversed(op.children):
                stack.append((depth + 1, child))
        return out


def optimized_plan(engine, statement: ast.Select) -> LogicalPlan:
    """Bind + optimize through the plan cache.

    Cached plans are keyed by (canonical statement, catalog version,
    join-strategy override, join-reorder flag, stats-corrections
    version).  Estimation reads only catalog statistics plus the
    feedback corrections — all covered by the versions in the key — so a
    cached plan is identical to a fresh optimize at the same key; the
    statement just skips bind → optimize.  Keying the corrections
    version separately means adaptive feedback never poisons the
    initially-cached plan: the version-0 entry survives untouched while
    better-estimated plans earn their own entries.  Statements without a
    stamped ``cache_key`` (built programmatically, not through a session
    parse) take the cold path every time.
    """
    db = engine.database
    cache = getattr(db, "plan_cache", None)
    version = db.catalog.version
    strategy = db.join_strategy
    reorder = bool(getattr(db, "join_reorder", False))
    corrections = getattr(db, "stats_corrections", None)
    corrections_version = 0 if corrections is None else corrections.version
    if cache is not None:
        plan = cache.lookup_plan(
            statement, version, strategy,
            join_reorder=reorder, corrections_version=corrections_version,
        )
        if plan is not None:
            return plan
    plan = optimize(bind_select(db, statement), db)
    if cache is not None:
        cache.store_plan(
            statement, version, strategy, plan,
            join_reorder=reorder, corrections_version=corrections_version,
        )
    return plan


def execute_select(
    engine,
    statement: ast.Select,
    txn: Transaction,
    initiator: str,
    snapshot: int,
    cost: CostReport,
) -> Tuple[ResultSet, PipelineExecution]:
    """Bind, optimize and run one SELECT through physical operators."""
    db = engine.database
    plan = optimized_plan(engine, statement)
    adaptive = AdaptiveContext(
        enabled=bool(getattr(db, "adaptive_execution", False)),
        strategy_override=getattr(db, "join_strategy", "auto"),
    )
    root = build_operator(
        engine, plan.root, txn, initiator, snapshot, cost, adaptive
    )
    rows: List[Tuple[Any, ...]] = []
    for batch in root.batches():
        rows.extend(batch.rows())
    execution = PipelineExecution(plan, root, adaptive)
    for __, op in execution.operators():
        if op.stats.rows_out:
            telemetry.counter(f"vertica.plan.{op.kind}.rows_out").inc(
                op.stats.rows_out
            )
        if op.stats.rows_shuffled:
            telemetry.counter("vertica.plan.join.rows_shuffled").inc(
                op.stats.rows_shuffled
            )
    if adaptive.enabled:
        _record_feedback(db, execution)
    return ResultSet(plan.output_columns, rows, cost=cost), execution


def _record_feedback(db, execution: PipelineExecution) -> None:
    """Feed each scan's estimated-vs-actual delta into the stats store.

    This is the loop's write side: PROFILE-grade observed row counts
    blend into per-table correction factors the estimator consults on
    the next optimize, so a repeat of the same query gets a strictly
    better-estimated plan even before anyone re-runs ANALYZE.
    """
    corrections = getattr(db, "stats_corrections", None)
    if corrections is None:
        return
    for __, op in execution.operators():
        if not isinstance(op, physical.TableScanOp):
            continue
        estimated = op.logical.estimated_rows
        if estimated is None:
            continue
        corrections.record(
            op.logical.table.name, estimated, op.stats.rows_out
        )


# ---------------------------------------------------------------------- DML
def dml_matching_rows(
    engine,
    table_name: str,
    where: Optional[Expression],
    txn: Transaction,
    initiator: str,
    snapshot: int,
    cost: CostReport,
) -> Iterator[Any]:
    """Matching rows of an UPDATE/DELETE, through the same pipeline.

    Yields ``(container, row index, row dict)`` per matching row (the
    caller stages delete vectors against the location; the container is
    None for this transaction's own WOS rows).  The scan visits every
    replica copy; the optimizer only constant-folds the predicate —
    pruning would change the statement's CostReport.
    """
    plan = optimize(
        bind_dml_scan(engine.database, table_name, where), engine.database
    )
    assert isinstance(plan.root, logical.TableScan)
    op = physical.DmlScanOp(engine, plan.root, txn, initiator, snapshot, cost)
    yield from op.matches()


# -------------------------------------------------------------------- EXPLAIN
def explain_lines(engine, query: ast.Select, initiator: str) -> List[str]:
    """Render the optimized plan tree; binds but never executes."""
    db = engine.database
    plan = optimized_plan(engine, query)
    snapshot = query.at_epoch if query.at_epoch is not None else db.epochs.current
    lines: List[str] = []

    def emit(node: logical.LogicalNode, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, logical.TableScan):
            lines.extend(pad + line for line in _scan_lines(
                db, node, query, initiator, snapshot
            ))
        else:
            label = node.label()
            if node.estimated_rows is not None:
                label += f" (estimated rows: {node.estimated_rows})"
            lines.append(pad + label)
            if isinstance(node, logical.Aggregate) and node.group_by:
                keys = ", ".join(e.sql() for e in node.group_by)
                lines.append(pad + f"  group by: {keys}")
        for child in node.children():
            emit(child, depth + 1)

    emit(plan.root, 0)
    lines.extend(_join_order_lines(plan))
    if query.at_epoch is not None:
        lines.append(f"snapshot: AT EPOCH {query.at_epoch}")
    if plan.rules_applied:
        lines.append("OPTIMIZER: " + ", ".join(plan.rules_applied))
    return lines


def _join_order_lines(plan: LogicalPlan) -> List[str]:
    """The chosen join order with per-step estimates, per reordered chain."""
    lines: List[str] = []
    for node in plan.nodes():
        if not isinstance(node, logical.Join) or node.restore_order is None:
            continue
        chain: List[logical.Join] = []
        walk: logical.LogicalNode = node
        while isinstance(walk, logical.Join):
            chain.append(walk)
            walk = walk.left
        chain.reverse()  # bottom-up: first join first
        order = [getattr(walk, "alias", "?")]
        order += [getattr(join.right, "alias", "?") for join in chain]
        lines.append(
            "JOIN ORDER: " + " x ".join(order)
            + " (reordered from " + ", ".join(node.restore_order) + ")"
        )
        for step, join in enumerate(chain, start=1):
            described = (
                f"{order[0]} x {order[1]}" if step == 1 else f"+ {order[step]}"
            )
            lines.append(
                f"  step {step}: {described} "
                f"(estimated rows: {join.estimated_rows})"
            )
    return lines


def _scan_lines(
    db, node: logical.TableScan, query: ast.Select, initiator: str, snapshot: int
) -> List[str]:
    lines: List[str] = []
    table = node.table
    if table.unsegmented:
        lines.append(f"SCAN {node.key} [unsegmented, local copy on {initiator}]")
        estimate = db.storage[initiator].live_row_count(node.key, snapshot)
    else:
        hash_range = node.hash_range or HashRange()
        assert table.ring is not None
        scanned = [
            s.node
            for s in table.ring.segments
            if hash_range.intersects(s.lo, s.hi)
        ]
        pruned = [n for n in table.ring.nodes if n not in scanned]
        lines.append(node.label())
        if hash_range.is_full:
            lines.append(f"  segments: all ({len(scanned)} nodes)")
        else:
            lines.append(f"  hash range: [{hash_range.lo}, {hash_range.hi})")
            lines.append(f"  segments scanned: {scanned}")
            if pruned:
                lines.append(f"  segments pruned: {pruned}")
        estimate = sum(
            db.storage[n].live_row_count(node.key, snapshot) for n in scanned
        )
    lines.append(f"  estimated rows: {estimate}")
    if node.predicate is not None:
        lines.append(f"  FILTER: {node.predicate.sql()} [pushed into scan]")
    if node.columns is not None:
        lines.append("  columns: " + ", ".join(node.columns) + " [pruned]")
    return lines


# -------------------------------------------------------------------- PROFILE
class PlanProfile:
    """Per-operator execution stats of one profiled query."""

    def __init__(self, execution: PipelineExecution, result: ResultSet):
        self.execution = execution
        self.result = result

    def operators(self) -> List[Tuple[int, physical.PhysicalOperator]]:
        return self.execution.operators()

    @property
    def replans(self) -> List[Any]:
        """Replan events the adaptive executor recorded for this query."""
        adaptive = getattr(self.execution, "adaptive", None)
        return list(adaptive.events) if adaptive is not None else []

    def operator_rows(self) -> List[Tuple[str, int, int]]:
        """(kind, rows_in, rows_out) per operator, root first."""
        return [
            (op.kind, op.stats.rows_in, op.stats.rows_out)
            for __, op in self.operators()
        ]

    def lines(self) -> List[str]:
        out: List[str] = []
        for depth, op in self.operators():
            stats = op.stats
            parts = [f"rows out: {stats.rows_out}"]
            if stats.rows_in:
                parts.insert(0, f"rows in: {stats.rows_in}")
            estimated = getattr(
                getattr(op, "logical", None), "estimated_rows", None
            )
            if estimated is not None:
                parts.append(f"est rows: {estimated}")
            if stats.rows_scanned:
                parts.append(f"rows scanned: {stats.rows_scanned}")
            if stats.rows_shuffled:
                parts.append(f"rows shuffled: {stats.rows_shuffled}")
            if stats.bytes_out:
                parts.append(f"bytes out: {int(stats.bytes_out)}")
            parts.append(f"batches: {stats.batches}")
            parts.append(f"time: {stats.elapsed_s * 1000.0:.3f} ms")
            out.append("  " * depth + f"{op.label()}  ({', '.join(parts)})")
        plan = self.execution.plan
        out.extend(_join_order_lines(plan))
        if plan.rules_applied:
            out.append("OPTIMIZER: " + ", ".join(plan.rules_applied))
        for event in self.replans:
            out.append("REPLAN: " + event.describe())
        cost = self.result.cost
        out.append(
            "COST: "
            f"rows scanned: {cost.rows_scanned}, "
            f"rows aggregated: {cost.rows_aggregated}, "
            f"rows output: {cost.rows_output}, "
            f"bytes output: {int(cost.bytes_output)}"
        )
        return out
