"""Physical operators executing column-major from storage to result.

A :class:`ColumnBatch` holds rows column-wise (``names[i]`` names the
parallel value list ``columns[i]``) plus a per-row producing-node list
that keeps the legacy CostReport's node attribution exact.
Alias-qualified column names (``P.ID``) share the *same* list objects as
their plain twins.  No operator mutates a column list it received: a
scan hands out the ROS container's own lists when every row is visible.

**Scan.**  ``TableScanOp`` reads one container at a time through
:meth:`~repro.vertica.engine.Engine.scan_chunks`: a live mask from the
delete vector and the transaction's staged deletes, a hash-range mask
from ``row_hashes``, then slices of only the columns the plan needs
(whole lists when nothing is masked), then this transaction's WOS rows.
Consecutive small containers of one node share a batch of up to about
:data:`BATCH_ROWS` rows.  ``CostReport.scanned`` is charged once per
container.  ``DmlScanOp`` uses the same scan and builds a row dict only
for a row that matches, because UPDATE assigns from it and staging
needs its (container, index).

**Expressions** are compiled once per statement
(:mod:`repro.vertica.plan.compiled`).  One that the type-aware
``_never_raises`` proves cannot raise — columns, literals, comparisons
over one comparable family, same-class ``+ - *``, ``BETWEEN``, ``IN``
over literals, ``LIKE``, ``IS NULL`` and AND/OR/NOT over those — runs
column-at-a-time.  Everything else (division, ``||``, functions, UDx
calls, mixed-type comparisons, unknown columns) runs row-major through
:meth:`~repro.vertica.expr.Expression.bind` closures, in the legacy
row-then-item order, so errors surface exactly where they always did.

**Operators** work on column lists and index lists: filters and scans
select positions, aggregates keep one position list per group, joins
build and probe over key columns and gather output columns by pair
index, and output bytes are summed per column.

**Cost order.**  The JDBC bridge spawns one simulated process per node
in the insertion order of the ``CostReport.node_*`` dicts, so that order
is part of the answer.  Every operator charges nodes in the order the
legacy row interpreter first touched them: scans in node → container →
WOS order, projections in output-row order, aggregates per input run.
The nested-loop join materializes its right input before its left one
(its scan charges land right-first); every other operator matches the
legacy interpreter's order exactly.

Fidelity notes (the differential suites enforce these):

- ``LimitOp`` drains its child fully before slicing — the legacy
  interpreter projected (and cost-charged) every row, then applied
  LIMIT, and ``CostReport`` must stay byte-identical.
- ``ProjectOp``/``AggregateOp`` materialize their input before
  evaluating, so evaluation errors and UDx resolution surface in the
  legacy order (scan errors first, then projection errors row-major).
- Aggregate output rows are attributed to the initiator, and the
  HAVING-bypassing "aggregate over empty input still returns one row"
  fallback is preserved bug-for-bug.

Every operator records :class:`OperatorStats` (rows in/out, bytes out,
inclusive wall time); the pipeline feeds them to ``PROFILE``,
``CostReport`` reconciliation, and ``telemetry``.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import chain, groupby, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ordering import null_last_key
from repro.vertica.engine import CostReport, ScanChunk, _value_bytes
from repro.vertica.errors import SqlError
from repro.vertica.expr import BinaryOp, ColumnRef, Expression, predicate_holds
from repro.vertica.plan import logical
from repro.vertica.plan.compiled import CompiledExpr, column_classes
from repro.vertica.plan.optimizer import _rebuild_and, _split_and
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.storage import RosContainer, take
from repro.vertica.txn import Transaction

BATCH_ROWS = 1024
#: candidate pairs a nested-loop join evaluates per step (bounds memory)
PAIR_CHUNK = 65536


class ColumnBatch:
    """Column-name → list-of-values chunk with per-row node attribution."""

    __slots__ = ("names", "columns", "nodes", "index")

    def __init__(
        self,
        names: List[str],
        columns: List[List[Any]],
        nodes: List[str],
    ):
        self.names = names
        self.columns = columns
        self.nodes = nodes
        self.index: Dict[str, int] = {}
        for i, name in enumerate(names):
            self.index[name] = i  # last occurrence wins, like dict(zip(...))

    @property
    def num_rows(self) -> int:
        return len(self.nodes)

    def rows(self) -> List[Tuple[Any, ...]]:
        """Materialize row tuples (used at pipeline edges only)."""
        if not self.columns:
            return [()] * len(self.nodes)
        return list(zip(*self.columns))

    def env(self) -> Dict[str, List[Any]]:
        """Column name → values, the form compiled expressions read."""
        return {name: self.columns[i] for name, i in self.index.items()}

    def column(self, name: str) -> List[Any]:
        return self.columns[self.index[name]]

    def take(self, positions: Sequence[int]) -> "ColumnBatch":
        """Select rows by position, preserving shared column-list identity."""
        cache: Dict[int, List[Any]] = {}
        columns: List[List[Any]] = []
        for column in self.columns:
            key = id(column)
            taken = cache.get(key)
            if taken is None:
                taken = cache[key] = take(column, positions)
            columns.append(taken)
        return ColumnBatch(self.names, columns, take(self.nodes, positions))


def concat_batches(batches: List[ColumnBatch]) -> ColumnBatch:
    """One batch holding every row of ``batches`` (one operator's output).

    Takes the last batch's names, as the legacy materializations did;
    columns shared within a batch stay shared in the result.
    """
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return ColumnBatch([], [], [])
    first = batches[0]
    slot_of: Dict[int, int] = {}
    columns: List[List[Any]] = []
    for j, column in enumerate(first.columns):
        k = slot_of.setdefault(id(column), j)
        if k != j:
            columns.append(columns[k])
            continue
        merged: List[Any] = []
        for batch in batches:
            merged.extend(batch.columns[j])
        columns.append(merged)
    nodes: List[str] = []
    for batch in batches:
        nodes.extend(batch.nodes)
    return ColumnBatch(batches[-1].names, columns, nodes)


class OperatorStats:
    """Per-operator execution counters, feeding PROFILE and telemetry."""

    __slots__ = ("rows_in", "rows_out", "rows_scanned", "batches", "bytes_out",
                 "elapsed_s", "rows_shuffled")

    def __init__(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        #: rows visited by the storage scan (pre hash-range filtering);
        #: mirrors what the scan charged into ``CostReport.rows_scanned``
        self.rows_scanned = 0
        self.batches = 0
        self.bytes_out = 0.0
        #: inclusive wall time (this operator plus everything below it)
        self.elapsed_s = 0.0
        #: build-side rows a distributed join would copy across nodes
        #: (0 for co-located joins — both sides identically segmented)
        self.rows_shuffled = 0


class PhysicalOperator:
    """Base operator: ``batches()`` wraps ``_run`` with stats timing."""

    kind = "op"

    def __init__(self) -> None:
        self.stats = OperatorStats()
        self.children: List["PhysicalOperator"] = []

    def label(self) -> str:
        raise NotImplementedError

    def batches(self) -> Iterator[ColumnBatch]:
        run = self._run()
        while True:
            started = time.perf_counter()
            try:
                batch = next(run)
            except StopIteration:
                self.stats.elapsed_s += time.perf_counter() - started
                return
            self.stats.elapsed_s += time.perf_counter() - started
            self.stats.batches += 1
            self.stats.rows_out += batch.num_rows
            yield batch

    def _run(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError


def _filter(batch: ColumnBatch, predicate: CompiledExpr) -> ColumnBatch:
    keep = predicate.select(batch.env(), batch.num_rows)
    if len(keep) == batch.num_rows:
        return batch
    return batch.take(keep)


def _runs(nodes: List[str]) -> List[Tuple[str, int]]:
    """(node, length) of each run of consecutive equal nodes, in order."""
    return [(node, len(list(run))) for node, run in groupby(nodes)]


def _total_bytes(columns: List[List[Any]]) -> int:
    """Wire bytes of whole output columns: ``_value_bytes`` summed."""
    total = 0
    for column in columns:
        kinds = set(map(type, column))
        if kinds <= {int, float}:
            total += 8 * len(column)
        elif kinds == {str}:  # UTF-8 lengths add up under concatenation
            total += len("".join(column).encode("utf-8"))
        else:
            total += sum(map(_value_bytes, column))
    return total


class ConstantOp(PhysicalOperator):
    """SELECT without FROM: one empty row on the initiator."""

    kind = "constant"

    def __init__(self, node: logical.ConstantRelation, initiator: str):
        super().__init__()
        self.logical = node
        self.initiator = initiator

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        yield ColumnBatch([], [], [self.initiator])


class TableScanOp(PhysicalOperator):
    """Segment-pruned, container-at-a-time storage scan.

    Visibility, the hash-range row filter, buddy failover and WOS
    read-your-writes all come from ``Engine.scan_chunks``; this operator
    slices the needed columns, coalesces small containers into batches,
    qualifies names and applies any pushed-down predicate.
    """

    kind = "scan"

    def __init__(
        self,
        engine,
        node: logical.TableScan,
        txn: Optional[Transaction],
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        plain = (
            node.columns
            if node.columns is not None
            else node.table.column_names()
        )
        names = list(plain)
        if node.qualify:
            names += [f"{node.alias}.{c}" for c in plain]
        predicate = (
            CompiledExpr(node.predicate, column_classes(node))
            if node.predicate is not None
            else None
        )
        scanned_before = self.cost.rows_scanned
        for group in _coalesce(self.engine.scan_chunks(
            node.key,
            self.snapshot,
            self.txn,
            self.initiator,
            plain,
            hash_range=node.hash_range,
            cost=self.cost,
            for_update=node.for_update,
        )):
            self.stats.rows_scanned += self.cost.rows_scanned - scanned_before
            scanned_before = self.cost.rows_scanned
            batch = self._batch(names, group, predicate)
            if batch.num_rows:
                yield batch
        self.stats.rows_scanned += self.cost.rows_scanned - scanned_before

    def _batch(
        self,
        names: List[str],
        group: List[ScanChunk],
        predicate: Optional[CompiledExpr],
    ) -> ColumnBatch:
        if len(group) == 1:
            columns = group[0].sliced()
        else:
            parts = [chunk.sliced() for chunk in group]
            columns = [
                list(chain.from_iterable(part[j] for part in parts))
                for j in range(len(parts[0]))
            ]
        nodes = [group[0].node] * sum(chunk.size for chunk in group)
        # Qualified names reference the same list objects: zero copies.
        batch = ColumnBatch(
            names, columns + columns if len(names) > len(columns) else columns,
            nodes,
        )
        self.stats.rows_in += batch.num_rows
        if predicate is not None:
            batch = _filter(batch, predicate)
        return batch


def _coalesce(chunks: Iterator[ScanChunk]) -> Iterator[List[ScanChunk]]:
    """Consecutive same-node chunks, grouped until they hold BATCH_ROWS rows.

    Small containers share a batch; batches never span nodes, so a
    projection charges each batch's output to one node in one call.
    """
    group: List[ScanChunk] = []
    rows = 0
    for chunk in chunks:
        if not chunk.size:
            continue
        if group and group[-1].node != chunk.node:
            yield group
            group, rows = [], 0
        group.append(chunk)
        rows += chunk.size
        if rows >= BATCH_ROWS:
            yield group
            group, rows = [], 0
    if group:
        yield group


class SystemScanOp(PhysicalOperator):
    """System-table rows, computed on (and attributed to) the initiator."""

    kind = "scan-system"

    def __init__(self, engine, node, initiator: str):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.initiator = initiator

    def label(self) -> str:
        return self.logical.label()

    def _rows(self) -> Tuple[List[str], List[Dict[str, Any]]]:
        db = self.engine.database
        if isinstance(self.logical, logical.StorageContainersScan):
            from repro.vertica.tuplemover import storage_container_stats

            names = ["NODE_NAME", "TABLE_NAME", "CONTAINER_COUNT", "LIVE_ROWS"]
            rows = [
                dict(zip(names, stat)) for stat in storage_container_stats(db)
            ]
            return names, rows
        names, sys_rows = db.catalog.system_table_rows(
            self.logical.key, db.epochs.current, db.node_states
        )
        return names, [dict(row) for row in sys_rows]

    def _run(self) -> Iterator[ColumnBatch]:
        plain, rows = self._rows()
        alias = self.logical.alias
        names = list(plain) + [f"{alias}.{c}" for c in plain if "." not in c]
        for start in range(0, len(rows), BATCH_ROWS):
            chunk = rows[start:start + BATCH_ROWS]
            columns = [[row[c] for row in chunk] for c in plain]
            qualified = [
                columns[plain.index(c)] for c in plain if "." not in c
            ]
            self.stats.rows_in += len(chunk)
            yield ColumnBatch(
                names, columns + qualified, [self.initiator] * len(chunk)
            )


class ViewScanOp(PhysicalOperator):
    """Expand a view through the full pipeline, synthetic-ring attributed.

    The inner SELECT runs through ``engine.select`` recursively — same
    CostReport, same epoch-read telemetry — exactly as the legacy
    ``_view_rows`` did; each output row is then attributed to the node
    owning its ``SYNTHETIC_HASH`` range.
    """

    kind = "scan-view"

    def __init__(
        self,
        engine,
        node: logical.ViewScan,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        from repro.vertica.hashring import synthetic_ring, vertica_hash

        db = self.engine.database
        view = db.catalog.view(self.logical.key)
        query = view.query
        if query.at_epoch is None and self.snapshot is not None:
            query = ast.Select(
                query.items,
                query.source,
                joins=query.joins,
                where=query.where,
                group_by=query.group_by,
                having=query.having,
                order_by=query.order_by,
                limit=query.limit,
                at_epoch=self.snapshot,
            )
        result = self.engine.select(
            query, self.txn, self.initiator, cost=self.cost
        )
        rows = result.rows
        if not rows:
            return
        ring = synthetic_ring(db.node_names)
        # A row reads as dict(zip(columns, row)): the last duplicate wins.
        last = {name: j for j, name in enumerate(result.columns)}
        plain = list(last)
        by_position = [list(column) for column in zip(*rows)]
        columns = [by_position[last[name]] for name in plain]
        hashed = [by_position[last[name]] for name in sorted(last)]
        nodes = (
            [ring.node_for(vertica_hash(*values)) for values in zip(*hashed)]
            if hashed else [self.initiator] * len(rows)
        )
        alias = self.logical.alias
        names = plain + [f"{alias}.{c}" for c in plain if "." not in c]
        qualified = [columns[plain.index(c)] for c in plain if "." not in c]
        self.stats.rows_in += len(rows)
        yield ColumnBatch(names, columns + qualified, nodes)


def _broadcast_rows(build_nodes: List[str], probe_nodes: set) -> int:
    """Row copies a broadcast of the build side to every probe node makes."""
    return sum(
        count * len(probe_nodes - {node})
        for node, count in Counter(build_nodes).items()
    )


def _merge_sources(
    left_names: List[str], right_names: List[str]
) -> List[Tuple[str, bool]]:
    """Joined names with the side each resolves to (True = left).

    The legacy merged row is right ∪ left with left winning on plain-name
    collisions and the right side's qualified names re-applied last.
    """
    left_set, right_set = set(left_names), set(right_names)
    names = list(right_names) + [n for n in left_names if n not in right_set]
    return [
        (name, name in left_set and not ("." in name and name in right_set))
        for name in names
    ]


def _gather(
    sources: List[Tuple[str, bool]],
    left: ColumnBatch,
    right: ColumnBatch,
    left_index: List[int],
    right_index: List[int],
) -> List[List[Any]]:
    """Joined output columns for the (left, right) row-position pairs."""
    cache: Dict[Tuple[int, bool], List[Any]] = {}
    columns: List[List[Any]] = []
    for name, from_left in sources:
        column = left.column(name) if from_left else right.column(name)
        key = (id(column), from_left)
        gathered = cache.get(key)
        if gathered is None:
            gathered = cache[key] = take(
                column, left_index if from_left else right_index
            )
        columns.append(gathered)
    return columns


class JoinOp(PhysicalOperator):
    """Nested-loop inner join with the legacy dict-merge semantics.

    The right side is materialized once; each left row pairs with every
    right row, and the condition evaluates on the merged row — right ∪
    left with left winning on plain-name collisions and right winning
    qualified ones — in left-major order.  Output rows inherit the
    *left* row's producing node.
    """

    kind = "join"

    def __init__(
        self,
        node: logical.Join,
        left: PhysicalOperator,
        right: PhysicalOperator,
    ):
        super().__init__()
        self.logical = node
        self.left = left
        self.right = right
        self.children = [left, right]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        right = concat_batches(list(self.right.batches()))
        self.stats.rows_in += right.num_rows
        condition = CompiledExpr(
            self.logical.condition, column_classes(self.logical)
        )
        width = right.num_rows
        sources: List[Tuple[str, bool]] = []
        names: List[str] = []
        left_node_set: set = set()
        for batch in self.left.batches():
            if not sources:
                sources = _merge_sources(batch.names, right.names)
                names = [name for name, __ in sources]
            self.stats.rows_in += batch.num_rows
            left_node_set.update(batch.nodes)
            if not width:
                continue
            step = max(1, PAIR_CHUNK // width)
            for start in range(0, batch.num_rows, step):
                stop = min(batch.num_rows, start + step)
                left_index = list(chain.from_iterable(
                    repeat(i, width) for i in range(start, stop)
                ))
                right_index = list(range(width)) * (stop - start)
                columns = _gather(sources, batch, right, left_index,
                                  right_index)
                keep = condition.select(dict(zip(names, columns)),
                                        len(left_index))
                if keep:
                    joined = ColumnBatch(
                        names, columns, take(batch.nodes, left_index)
                    )
                    yield joined.take(keep)
        # The nested loop broadcasts the (materialized) right side to every
        # node holding probe rows; co-located joins move nothing.
        if not self.logical.colocated:
            self.stats.rows_shuffled += _broadcast_rows(right.nodes,
                                                        left_node_set)


class _EquiJoinOp(PhysicalOperator):
    """Shared machinery for hash and merge equi-joins.

    Both materialize the two inputs, find matching ``(left, right)``
    position pairs over the equi-key columns (NULL keys never match),
    re-check only the *residual* condition — the conjuncts that are not
    equi-key equalities, which every key-matched pair already satisfies
    (the planner only picks these strategies for never-raising
    conditions) — and emit in left-major order (left stream order, right
    materialization order), exactly the order the legacy nested loop
    produced.  Output columns are gathered by pair position.

    Two optional layers ride on top of that core:

    - **Adaptive checkpoint** — after both inputs are materialized but
      before the join algorithm starts (its "unstarted subtree"), the
      operator consults the query's
      :class:`~repro.vertica.plan.adaptive.AdaptiveContext`, which may
      swap the build side or switch the algorithm based on *observed*
      row counts.  Output order is pair-sorted, so the decision cannot
      change the emitted bytes — only how much work finding them takes.
    - **Provenance tracking** — joins inside a cost-reordered chain
      (``logical.reorder_chain``) record, per output row, each base
      relation's materialization position.  The chain root uses them to
      sort its pairs back into the binder's lexicographic order and to
      re-attribute every output row to the binder-leftmost relation's
      producing node, keeping rows *and* per-node cost attribution
      byte-identical to the unreordered plan.
    """

    #: per-query adaptive-execution context, set by ``build_operator``
    adaptive = None
    #: the algorithm the planner picked (checkpoints may revise it)
    planned_strategy = "hash"

    def __init__(
        self,
        node: logical.Join,
        left: PhysicalOperator,
        right: PhysicalOperator,
    ):
        super().__init__()
        self.logical = node
        self.left = left
        self.right = right
        self.children = [left, right]
        #: reordered chains only: provenance work is skipped otherwise
        self.tracking = bool(getattr(node, "reorder_chain", False))
        #: alias -> leaf materialization position per output row (set
        #: once the join has emitted; chains only)
        self.output_provenance: Optional[Dict[str, List[int]]] = None
        #: alias -> that leaf scan's materialized node list (chains only)
        self.leaf_nodes: Dict[str, List[str]] = {}

    def label(self) -> str:
        return self.logical.label()

    def _materialize(
        self, operator: PhysicalOperator
    ) -> Tuple[ColumnBatch, Optional[Dict[str, List[int]]]]:
        batch = concat_batches(list(operator.batches()))
        self.stats.rows_in += batch.num_rows
        prov: Optional[Dict[str, List[int]]] = None
        if self.tracking:
            child_prov = getattr(operator, "output_provenance", None)
            if child_prov is not None:
                # a chain join below us: adopt its provenance wholesale
                prov = child_prov
                self.leaf_nodes.update(getattr(operator, "leaf_nodes", {}))
            else:
                alias = getattr(
                    getattr(operator, "logical", None), "alias", ""
                )
                prov = {alias: list(range(batch.num_rows))}
                self.leaf_nodes[alias] = batch.nodes
        return batch, prov

    @staticmethod
    def _keys(batch: ColumnBatch, refs: List[str]) -> List[Any]:
        """One join key per row: the value itself for a single key column,
        else a tuple; rows with a NULL or NaN key never match (see
        _matchable)."""
        if not batch.num_rows:
            return []
        if len(refs) == 1:
            return batch.column(refs[0])
        return list(zip(*(batch.column(ref) for ref in refs)))

    @staticmethod
    def _matchable(key: Any, composite: bool) -> bool:
        # SQL ``=`` is never true for NULL, nor for NaN (even the same NaN
        # object), while dict lookup and tuple equality pair a NaN object
        # with itself: such keys are dropped before building or sorting.
        if composite:
            return all(value is not None and value == value for value in key)
        return key is not None and key == key

    def _charge_shuffle(
        self, build_nodes: List[str], probe_nodes: List[str]
    ) -> None:
        """Broadcast-build cost: each build row is copied to every other
        node holding probe rows; a co-located join moves nothing."""
        if not self.logical.colocated:
            self.stats.rows_shuffled += _broadcast_rows(build_nodes,
                                                        set(probe_nodes))

    def _checkpoint(
        self, observed_left: int, observed_right: int
    ) -> Tuple[str, str]:
        """The runtime (build side, algorithm) decision for this join."""
        raise NotImplementedError

    def _run(self) -> Iterator[ColumnBatch]:
        keys = self.logical.equi_keys
        left, left_prov = self._materialize(self.left)
        right, right_prov = self._materialize(self.right)
        build_side, strategy = self._checkpoint(left.num_rows,
                                                right.num_rows)
        if build_side == "left":
            self._charge_shuffle(left.nodes, right.nodes)
        else:
            self._charge_shuffle(right.nodes, left.nodes)
        composite = len(keys) > 1
        left_keys = self._keys(left, [left_ref for left_ref, __ in keys])
        right_keys = self._keys(right, [right_ref for __, right_ref in keys])
        if strategy == "merge":
            pairs = self._merge_pairs(left_keys, right_keys, composite)
        else:
            pairs = self._hash_pairs(left_keys, right_keys, composite,
                                     build_side)
        self._order_pairs(pairs, left_prov, right_prov)
        batch = self._emit(pairs, left, right, left_prov, right_prov)
        if batch.num_rows:
            yield batch

    def _hash_pairs(
        self,
        left_keys: List[Any],
        right_keys: List[Any],
        composite: bool,
        build_side: str,
    ) -> List[Tuple[int, int]]:
        build_right = build_side != "left"
        build_keys, probe_keys = (
            (right_keys, left_keys) if build_right else (left_keys, right_keys)
        )
        table: Dict[Any, List[int]] = {}
        for index, key in enumerate(build_keys):
            bucket = table.get(key)
            if bucket is None:
                table[key] = [index]
            else:
                bucket.append(index)
        # NULL and NaN never equi-match: drop such build keys, and a probe
        # key holding one then finds no bucket.
        for key in [k for k in table if not self._matchable(k, composite)]:
            del table[key]
        buckets = list(map(table.get, probe_keys))
        matched = [i for i, bucket in enumerate(buckets) if bucket is not None]
        if build_right:
            return [(i, b) for i in matched for b in buckets[i]]
        return [(b, i) for i in matched for b in buckets[i]]

    def _merge_pairs(
        self, left_keys: List[Any], right_keys: List[Any], composite: bool
    ) -> List[Tuple[int, int]]:
        left_keyed = self._sorted_keys(left_keys, composite)
        right_keyed = self._sorted_keys(right_keys, composite)
        pairs: List[Tuple[int, int]] = []
        i = j = 0
        while i < len(left_keyed) and j < len(right_keyed):
            left_key = left_keyed[i][0]
            right_key = right_keyed[j][0]
            if left_key < right_key:
                i += 1
            elif right_key < left_key:
                j += 1
            else:
                group_end = j
                while (
                    group_end < len(right_keyed)
                    and right_keyed[group_end][0] == left_key
                ):
                    group_end += 1
                while i < len(left_keyed) and left_keyed[i][0] == left_key:
                    left_index = left_keyed[i][1]
                    for jj in range(j, group_end):
                        pairs.append((left_index, right_keyed[jj][1]))
                    i += 1
                j = group_end
        return pairs

    def _sorted_keys(
        self, keys: List[Any], composite: bool
    ) -> List[Tuple[Any, int]]:
        keyed = [
            (key, index)
            for index, key in enumerate(keys)
            if self._matchable(key, composite)
        ]
        keyed.sort(key=lambda item: item[0])
        return keyed

    def _order_pairs(
        self,
        pairs: List[Tuple[int, int]],
        left_prov: Optional[Dict[str, List[int]]],
        right_prov: Optional[Dict[str, List[int]]],
    ) -> None:
        restore = getattr(self.logical, "restore_order", None)
        if restore is None or left_prov is None or right_prov is None:
            pairs.sort()  # the nested loop's left-major output order
            return

        # Chain root: sort back into the binder's lexicographic order —
        # exactly the (a, b, c, ...) enumeration the legacy nested loops
        # over the original FROM order would have produced.
        provenance = [
            (right_prov[alias], 1) if alias in right_prov
            else (left_prov[alias], 0)
            for alias in restore
        ]
        pairs.sort(key=lambda pair: tuple(
            column[pair[side]] for column, side in provenance
        ))

    def _residual(self) -> Optional[Expression]:
        """The condition minus its equi-key conjuncts (None: nothing left)."""
        keys = set(self.logical.equi_keys)
        residual = [
            conjunct
            for conjunct in _split_and(self.logical.condition)
            if not (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
                and (
                    (conjunct.left.name, conjunct.right.name) in keys
                    or (conjunct.right.name, conjunct.left.name) in keys
                )
            )
        ]
        return _rebuild_and(residual) if residual else None

    def _emit(
        self,
        pairs: List[Tuple[int, int]],
        left: ColumnBatch,
        right: ColumnBatch,
        left_prov: Optional[Dict[str, List[int]]] = None,
        right_prov: Optional[Dict[str, List[int]]] = None,
    ) -> ColumnBatch:
        sources = _merge_sources(left.names, right.names)
        names = [name for name, __ in sources]
        left_index = [left_row for left_row, __ in pairs]
        right_index = [right_row for __, right_row in pairs]
        columns = _gather(sources, left, right, left_index, right_index)
        residual = self._residual()
        if residual is not None and pairs:
            keep = CompiledExpr(residual, column_classes(self.logical)).select(
                dict(zip(names, columns)), len(pairs)
            )
            if len(keep) < len(pairs):
                left_index = take(left_index, keep)
                right_index = take(right_index, keep)
                columns = [take(column, keep) for column in columns]
        nodes = take(left.nodes, left_index)
        if self.tracking and left_prov is not None and right_prov is not None:
            prov = {alias: take(column, left_index)
                    for alias, column in left_prov.items()}
            prov.update({alias: take(column, right_index)
                         for alias, column in right_prov.items()})
            self.output_provenance = prov
            restore = getattr(self.logical, "restore_order", None)
            anchor_nodes = self.leaf_nodes.get(restore[0]) if restore else None
            if anchor_nodes is not None:
                # legacy attribution: the binder-leftmost relation's row
                # produced the joined row
                nodes = take(anchor_nodes, prov[restore[0]])
        return ColumnBatch(names, columns, nodes)


class HashJoinOp(_EquiJoinOp):
    """Equi-join via a hash table on the (estimated) smaller build side."""

    kind = "join-hash"
    planned_strategy = "hash"

    def _checkpoint(
        self, observed_left: int, observed_right: int
    ) -> Tuple[str, str]:
        if self.adaptive is not None:
            return self.adaptive.checkpoint_hash(
                self.logical, observed_left, observed_right
            )
        return self.logical.build_side or "right", "hash"


class MergeJoinOp(_EquiJoinOp):
    """Equi-join by sorting both key arrays and merging equal-key groups.

    Chosen when the build side would overflow the hash-table memory
    budget; the planner guarantees both key columns share one type class,
    so the sorts cannot hit Python's mixed-type ordering ``TypeError``.
    """

    kind = "join-merge"
    planned_strategy = "merge"

    def _checkpoint(
        self, observed_left: int, observed_right: int
    ) -> Tuple[str, str]:
        if self.adaptive is not None:
            return self.adaptive.checkpoint_merge(
                self.logical, observed_left, observed_right
            )
        return self.logical.build_side or "right", "merge"


class FilterOp(PhysicalOperator):
    """Row filter over batches (joins, views, system tables, no-FROM)."""

    kind = "filter"

    def __init__(self, node: logical.Filter, child: PhysicalOperator):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        predicate = CompiledExpr(
            self.logical.predicate, column_classes(self.logical)
        )
        for batch in self.child.batches():
            self.stats.rows_in += batch.num_rows
            filtered = _filter(batch, predicate)
            if filtered.num_rows:
                yield filtered


class ProjectOp(PhysicalOperator):
    """Select-list evaluation; charges per-row output bytes to nodes.

    Plain column references and ``*`` expansion pass column lists by
    reference; never-raising expressions evaluate column-at-a-time; the
    rest (and UDx calls) evaluate row-major across items, preserving the
    legacy error order.
    """

    kind = "project"

    def __init__(
        self,
        node: logical.Project,
        child: PhysicalOperator,
        db,
        cost: CostReport,
    ):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]
        self.db = db
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        # Materialize first: scan/storage errors must surface before UDx
        # resolution and projection errors, as in the legacy interpreter.
        batches = list(self.child.batches())
        self.stats.rows_in = sum(b.num_rows for b in batches)
        classes = column_classes(node.child)
        # A ``*``-expanded column name, or an evaluable item.
        items: List[Any] = []
        for item in node.items:
            if item.star:
                items.extend(node.source_columns)
            elif item.udf:
                items.append(_UdxCall(self.db.udx.lookup(item.udf), item))
            else:
                items.append(CompiledExpr(item.expression, classes))
        for batch in batches:
            yield self._project_batch(batch, items)

    def _project_batch(self, batch: ColumnBatch,
                       items: List[Any]) -> ColumnBatch:
        n = batch.num_rows
        env = batch.env()
        values = iter(_row_values(
            [item for item in items if not isinstance(item, str)], env, n
        ))
        # Star expansion uses row.get(): absent columns yield NULL.
        out_columns = [
            next(values) if not isinstance(item, str)
            else env[item] if item in env else [None] * n
            for item in items
        ]
        self._charge_output(out_columns, batch.nodes)
        return ColumnBatch(list(self.logical.output_columns), out_columns,
                           batch.nodes)

    def _charge_output(self, out_columns: List[List[Any]],
                       nodes: List[str]) -> None:
        # Runs of same-node rows collapse into one CostReport call; all
        # increments are integer-valued, so totals stay byte-identical.
        start = 0
        for node, length in _runs(nodes):
            nbytes = _total_bytes(
                out_columns if length == len(nodes)
                else [column[start:start + length] for column in out_columns]
            )
            self.cost.output(node, nbytes, length)
            self.stats.bytes_out += nbytes
            start += length


class AggregateOp(PhysicalOperator):
    """GROUP BY / aggregates with the legacy grouped-list algorithm.

    Group keys keep insertion order, each group holding the positions of
    its input rows; DISTINCT dedups via ``dict.fromkeys``; HAVING
    evaluates against the output row (aliases); output rows are
    attributed (and their bytes charged) to the initiator.  The
    empty-input, no-GROUP-BY fallback row bypasses both HAVING and output
    cost — a legacy quirk the differential tests pin.
    """

    kind = "aggregate"

    def __init__(
        self,
        node: logical.Aggregate,
        child: PhysicalOperator,
        initiator: str,
        cost: CostReport,
    ):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]
        self.initiator = initiator
        self.cost = cost

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        node = self.logical
        batch = concat_batches(list(self.child.batches()))
        n = self.stats.rows_in = batch.num_rows
        # Input-side charge: what the wire would have carried without
        # pushdown, per producing node (run-length batched, same totals).
        for producing_node, length in _runs(batch.nodes):
            self.cost.aggregated(producing_node, length)

        env = batch.env()
        classes = column_classes(node.child)
        groups: Dict[Any, List[int]] = {}
        if node.group_by:
            keys = _row_values(
                [CompiledExpr(expr, classes) for expr in node.group_by], env, n
            )
            # One key column groups by its values: a 1-tuple key and its
            # value are equal and hash alike, NaN identity included.
            row_keys: Iterable[Any] = keys[0] if len(keys) == 1 else zip(*keys)
            for position, key in enumerate(row_keys):
                group = groups.get(key)
                if group is None:
                    groups[key] = [position]
                else:
                    group.append(position)
        else:
            groups[()] = list(range(n))

        # One evaluator per item, over a group's positions, called in the
        # legacy (group, item) order.
        evaluators = [
            _item_evaluator(item, env, n, classes) for item in node.items
        ]
        columns = node.output_columns
        out: List[Tuple[Any, ...]] = []
        for group in groups.values():
            row_tuple = tuple([evaluate(group) for evaluate in evaluators])
            if node.having is not None:
                output_row = dict(zip(columns, row_tuple))
                if not predicate_holds(node.having, output_row):
                    continue
            out.append(row_tuple)
        out_columns = [list(col) for col in zip(*out)] if columns else []
        if out:
            nbytes = _total_bytes(out_columns)
            self.cost.output(self.initiator, nbytes, len(out))
            self.stats.bytes_out += nbytes
        if not node.group_by and not out:
            # Aggregates over an empty input still return one row.
            out.append(tuple(
                _aggregator(item, list)([]) if item.aggregate else None
                for item in node.items
            ))
            out_columns = [list(col) for col in zip(*out)] if columns else []
        if out:
            yield ColumnBatch(
                list(columns), out_columns, [self.initiator] * len(out)
            )


class _UdxCall:
    """A UDx select item: opaque code, so always evaluated row-major."""

    def __init__(self, function, item: ast.SelectItem):
        self.function = function
        self.item = item

    def columnar(self, env: Dict[str, List[Any]]) -> bool:
        return False

    def bind(self, env: Dict[str, List[Any]]):
        function, parameters = self.function, self.item.parameters
        args = [arg.bind(env) for arg in self.item.udf_args]
        return lambda i: function([arg(i) for arg in args], parameters)


def _row_values(
    items: List[Any], env: Dict[str, List[Any]], n: int
) -> List[List[Any]]:
    """Each item's values over ``n`` rows, in legacy row-major order.

    Items are compiled expressions or UDx calls.  Column-at-a-time ones
    cannot raise, so computing them first is unobservable; the rest
    interleave row by row, item by item.
    """
    out: List[List[Any]] = []
    row_major: List[Tuple[List[Any], Any]] = []
    for item in items:
        if item.columnar(env):
            out.append(item.values(env, n))
        else:
            slot: List[Any] = []
            out.append(slot)
            row_major.append((slot, item.bind(env)))
    for i in range(n if row_major else 0):
        for slot, evaluate in row_major:
            slot.append(evaluate(i))
    return out


#: an aggregate's result over its non-NULL argument values (non-empty,
#: except for COUNT)
_FINISH: Dict[str, Callable[[List[Any]], Any]] = {
    "COUNT": len,
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


def _item_evaluator(
    item: ast.SelectItem,
    env: Dict[str, List[Any]],
    n: int,
    classes: Dict[str, str],
) -> Callable[[List[int]], Any]:
    """One select-list item of an aggregate, as a function of a group.

    Aggregate arguments are whole columns when never-raising, else they
    evaluate per group, row by row, in the legacy order.
    """
    if item.aggregate:
        argument = item.aggregate_arg
        if argument is None:
            return _aggregator(item, list)
        compiled = CompiledExpr(argument, classes)
        if compiled.columnar(env):
            column = compiled.values(env, n)
            return _aggregator(item, lambda group: (
                column if len(group) == len(column) else take(column, group)
            ))
        row = argument.bind(env)
        return _aggregator(item, lambda group: [row(i) for i in group])
    if item.expression is None:
        def star(group: List[int]) -> Any:
            raise SqlError("SELECT * cannot be combined with aggregates")

        return star
    row = item.expression.bind(env)
    return lambda group: row(group[0]) if group else None


def _aggregator(
    item: ast.SelectItem, argument: Callable[[List[int]], List[Any]]
) -> Callable[[List[int]], Any]:
    """One aggregate over a group's positions; ``argument(group)`` gives
    the argument's values for those positions."""
    name = item.aggregate
    if item.aggregate_arg is None:
        if name != "COUNT":
            def missing(group: List[int]) -> Any:
                raise SqlError(f"{name} requires an argument")

            return missing
        return len
    if name not in _FINISH:
        raise SqlError(f"unknown aggregate {name!r}")  # pragma: no cover
    finish, distinct = _FINISH[name], item.distinct

    def aggregate(group: List[int]) -> Any:
        values = argument(group) if group else []
        if None in values:
            values = [v for v in values if v is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        if not values and name != "COUNT":
            return None
        return finish(values)

    return aggregate


class SortOp(PhysicalOperator):
    """Stable sort by ORDER BY keys with shared NULLS-LAST semantics.

    Keys evaluate against the *output* row (select-list aliases); an
    unknown column yields NULL rather than an error, and NULLs sort last
    in both directions via :func:`repro.ordering.null_last_key`.  Key
    columns of one comparable kind sort natively, one stable pass per key
    from the last to the first, which orders rows exactly as the
    composite ``null_last_key`` tuple does.
    """

    kind = "sort"

    def __init__(self, node: logical.Sort, child: PhysicalOperator):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        batch = concat_batches(list(self.child.batches()))
        n = self.stats.rows_in = batch.num_rows
        if not n:
            return
        names = batch.names
        order_by = self.logical.order_by
        keys = list(zip(
            _sort_keys(order_by, dict(zip(names, batch.columns)), n),
            [order.descending for order in order_by],
        ))
        order = list(range(n))
        if all(_natively_sortable(values) for values, __ in keys):
            for values, descending in reversed(keys):
                order.sort(key=_native_key(values, descending),
                           reverse=descending)
        else:
            order.sort(key=lambda i: tuple(
                null_last_key(values[i], descending)
                for values, descending in keys
            ))
        columns = [take(column, order) for column in batch.columns]
        yield ColumnBatch(list(names), columns, take(batch.nodes, order))


def _sort_keys(
    order_by: List[ast.OrderItem], env: Dict[str, List[Any]], n: int
) -> List[List[Any]]:
    """Each ORDER BY key's value per row; an SqlError reads as NULL.

    Computed keys evaluate row by row, key by key, as the legacy sort
    key did, so any other error surfaces from the same row and key.
    """
    out: List[List[Any]] = []
    row_major: List[Tuple[List[Any], Any]] = []
    for order in order_by:
        expression = order.expression
        if isinstance(expression, ColumnRef):
            column = env.get(expression.name)
            out.append(column if column is not None else [None] * n)
        else:
            slot: List[Any] = []
            out.append(slot)
            row_major.append((slot, expression.bind(env)))
    for i in range(n if row_major else 0):
        for slot, row in row_major:
            try:
                slot.append(row(i))
            except SqlError:
                slot.append(None)
    return out


def _natively_sortable(values: List[Any]) -> bool:
    """True when the non-NULL values share one total order Python sorts
    directly: numbers (no NaN) or strings."""
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if kinds == {str}:
        return True
    if not kinds <= {int, float, bool}:
        return False
    return float not in kinds or all(v == v for v in values if v is not None)


def _native_key(values: List[Any], descending: bool):
    """A sort key putting NULLs last under ``reverse=descending``."""
    if None not in values:
        return values.__getitem__
    if descending:
        return lambda i: (values[i] is not None, values[i])
    return lambda i: (values[i] is None, values[i])


class LimitOp(PhysicalOperator):
    """LIMIT n.

    Drains the child fully before slicing: the legacy interpreter
    projected and cost-charged every row first, so an early-out would
    change the CostReport.
    """

    kind = "limit"

    def __init__(self, node: logical.Limit, child: PhysicalOperator):
        super().__init__()
        self.logical = node
        self.child = child
        self.children = [child]

    def label(self) -> str:
        return self.logical.label()

    def _run(self) -> Iterator[ColumnBatch]:
        remaining = self.logical.count
        for batch in self.child.batches():
            self.stats.rows_in += batch.num_rows
            if remaining <= 0:
                continue  # keep draining for cost fidelity
            if batch.num_rows <= remaining:
                remaining -= batch.num_rows
                yield batch
            else:
                sliced = batch.take(range(remaining))
                remaining = 0
                yield sliced


class DmlScanOp(PhysicalOperator):
    """Matching scan for UPDATE/DELETE: rows with physical locations.

    Runs the same container-at-a-time scan as ``TableScanOp`` over every
    replica copy (so it cost-charges exactly like the legacy DML path)
    and yields ``(container, row index, row dict)`` per matching row —
    the DML executor stages delete vectors against the location and
    UPDATE assigns from the dict.  A never-raising predicate selects a
    container's matches column-at-a-time; any other predicate evaluates
    row by row, interleaved with the caller's staging, as it always did.
    """

    kind = "scan-dml"

    def __init__(
        self,
        engine,
        node: logical.TableScan,
        txn: Transaction,
        initiator: str,
        snapshot: int,
        cost: CostReport,
    ):
        super().__init__()
        self.engine = engine
        self.logical = node
        self.txn = txn
        self.initiator = initiator
        self.snapshot = snapshot
        self.cost = cost

    def label(self) -> str:
        suffix = (
            f" | FILTER: {self.logical.predicate.sql()}"
            if self.logical.predicate is not None
            else ""
        )
        return f"DML {self.logical.label()}{suffix}"

    def matches(
        self,
    ) -> Iterator[Tuple[Optional[RosContainer], int, Dict[str, Any]]]:
        node = self.logical
        names = node.table.column_names()
        predicate = (
            CompiledExpr(node.predicate, column_classes(node))
            if node.predicate is not None
            else None
        )
        started = time.perf_counter()
        scanned_before = self.cost.rows_scanned
        for chunk in self.engine.scan_chunks(
            node.key,
            self.snapshot,
            self.txn,
            self.initiator,
            names,
            cost=self.cost,
            for_update=True,
        ):
            self.stats.rows_in += chunk.size
            positions = (
                chunk.positions if chunk.positions is not None
                else range(chunk.size)
            )
            env = dict(zip(names, chunk.columns))
            if predicate is None:
                matching: Iterator[int] = iter(positions)
            elif predicate.columnar(env):
                sliced = env if chunk.positions is None else {
                    ref: take(env[ref], chunk.positions)
                    for ref in predicate.refs
                }
                matching = iter(take(positions, predicate.select(
                    sliced, chunk.size
                )))
            else:
                row = predicate.expression.bind(env)
                matching = (p for p in positions if row(p) is True)
            for position in matching:
                self.stats.rows_out += 1
                data = {name: column[position]
                        for name, column in zip(names, chunk.columns)}
                yield chunk.container, position, data
        self.stats.rows_scanned += self.cost.rows_scanned - scanned_before
        self.stats.elapsed_s += time.perf_counter() - started
