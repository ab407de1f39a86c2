"""Table and column statistics for the cost-based optimizer.

Statistics are collected by a full scan of the committed data (``ANALYZE``,
or automatically at mergeout) and updated incrementally as ``COPY`` appends
rows.  They feed the optimizer's cardinality estimates: scan output rows,
filter selectivities, and join output sizes (which in turn pick the join
strategy and build side).

The numbers are advisory: an aborted transaction may leave the incremental
counters slightly high, and NDV/histograms only refresh on a full collect.
Correctness never depends on them -- only plan choice does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

DEFAULT_BUCKETS = 16

_NUMERIC_TYPES = (int, float)


def _is_numeric(value: Any) -> bool:
    return isinstance(value, _NUMERIC_TYPES) and not isinstance(value, bool)


@dataclass
class HistogramBucket:
    """One equi-width bucket over ``[lo, hi)`` (last bucket is inclusive)."""

    lo: float
    hi: float
    count: int = 0


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    column: str
    row_count: int = 0
    null_count: int = 0
    ndv: int = 0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    histogram: List[HistogramBucket] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        if self.row_count <= 0:
            return 0.0
        return self.null_count / self.row_count

    # -- incremental maintenance ---------------------------------------------------

    def observe(self, value: Any) -> None:
        """Fold one newly-loaded value into the running counters.

        Only row/null counts and min/max stay exact under incremental
        updates; NDV and the histogram refresh on the next full collect.
        """
        self.row_count += 1
        if value is None:
            self.null_count += 1
            return
        try:
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value
        except TypeError:
            pass  # mixed-type column snapshot; keep the old bounds

    # -- selectivity ---------------------------------------------------------------

    def equality_selectivity(self) -> float:
        if self.ndv <= 0:
            return 0.1
        return min(1.0, 1.0 / self.ndv)

    def range_selectivity(self, op: str, value: Any) -> float:
        """Estimated fraction of rows satisfying ``column <op> value``."""
        fraction = self._histogram_fraction(op, value)
        if fraction is not None:
            return fraction
        return 1.0 / 3.0

    def _histogram_fraction(self, op: str, value: Any) -> Optional[float]:
        if not self.histogram or not _is_numeric(value):
            return None
        total = sum(bucket.count for bucket in self.histogram)
        if total <= 0:
            return None
        below = 0.0  # estimated rows strictly below ``value``
        for bucket in self.histogram:
            if value >= bucket.hi:
                below += bucket.count
            elif value > bucket.lo:
                width = bucket.hi - bucket.lo
                if width > 0:
                    below += bucket.count * (value - bucket.lo) / width
        fraction_below = below / total
        if op in ("<", "<="):
            return min(1.0, fraction_below)
        if op in (">", ">="):
            return min(1.0, max(0.0, 1.0 - fraction_below))
        return None


@dataclass
class TableStats:
    """Statistics for one table, keyed into ``Catalog.statistics``."""

    table: str
    row_count: int = 0
    collected_epoch: int = 0
    buckets: int = DEFAULT_BUCKETS
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.upper())

    def observe_rows(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Incrementally fold newly-loaded rows (COPY path) into the stats."""
        count = 0
        for row in rows:
            count += 1
            for name, stats in self.columns.items():
                stats.observe(row.get(name))
        self.row_count += count


def _build_histogram(
    values: List[Any], buckets: int
) -> List[HistogramBucket]:
    numeric = [float(v) for v in values if _is_numeric(v)]
    if len(numeric) < 2 or buckets <= 0:
        return []
    lo, hi = min(numeric), max(numeric)
    if lo == hi:
        return [HistogramBucket(lo=lo, hi=hi, count=len(numeric))]
    width = (hi - lo) / buckets
    out = [
        HistogramBucket(lo=lo + i * width, hi=lo + (i + 1) * width)
        for i in range(buckets)
    ]
    for v in numeric:
        index = int((v - lo) / width)
        if index >= buckets:  # v == hi lands in the last (inclusive) bucket
            index = buckets - 1
        out[index].count += 1
    return out


def _column_stats(
    name: str, values: List[Any], buckets: int
) -> ColumnStats:
    non_null = [v for v in values if v is not None]
    stats = ColumnStats(
        column=name,
        row_count=len(values),
        null_count=len(values) - len(non_null),
        ndv=len(set(non_null)),
    )
    if non_null:
        try:
            stats.min_value = min(non_null)
            stats.max_value = max(non_null)
        except TypeError:
            pass  # heterogeneous values; leave bounds unknown
        stats.histogram = _build_histogram(non_null, buckets)
    return stats


def collect_table_stats(
    database: Any, table_name: str, buckets: int = DEFAULT_BUCKETS
) -> TableStats:
    """Full-scan statistics collection for one table (the ANALYZE path).

    Reads committed rows at the current epoch from the initiator's view of
    the cluster, one container at a time (live mask plus column slices);
    does not charge any query cost.
    """
    table = database.catalog.table(table_name)
    snapshot = database.epochs.current
    column_names: List[str] = list(table.column_names())
    values: Dict[str, List[Any]] = {name: [] for name in column_names}
    row_count = 0
    for chunk in database.engine.scan_chunks(
        table.name,
        snapshot,
        txn=None,
        initiator=database.node_names[0],
        columns=column_names,
    ):
        row_count += chunk.size
        for name, column in zip(column_names, chunk.sliced()):
            values[name].extend(column)
    stats = TableStats(
        table=table.name,
        row_count=row_count,
        collected_epoch=snapshot,
        buckets=buckets,
        columns={
            name: _column_stats(name, values[name], buckets)
            for name in column_names
        },
    )
    return stats


def update_stats_for_load(
    database: Any, table_name: str, rows: Iterable[Dict[str, Any]]
) -> None:
    """Fold freshly-loaded rows into existing stats (COPY/insert hook).

    A no-op when the table has never been analyzed: the first full collect
    establishes the baseline that incremental updates then maintain.
    """
    stats = database.catalog.statistics.get(table_name.upper())
    if stats is None:
        return
    stats.observe_rows(rows)


def system_table_rows(
    statistics: Dict[str, TableStats],
) -> Tuple[List[str], List[Dict[str, Any]]]:
    """Rows for ``V_CATALOG.COLUMN_STATISTICS``."""
    columns = [
        "TABLE_NAME",
        "COLUMN_NAME",
        "ROW_COUNT",
        "NULL_COUNT",
        "NDV",
        "MIN_VALUE",
        "MAX_VALUE",
        "HISTOGRAM_BUCKETS",
        "COLLECTED_EPOCH",
    ]
    rows: List[Dict[str, Any]] = []
    for table_name in sorted(statistics):
        table_stats = statistics[table_name]
        for column_name, cs in table_stats.columns.items():
            rows.append(
                {
                    "TABLE_NAME": table_name,
                    "COLUMN_NAME": column_name,
                    "ROW_COUNT": cs.row_count,
                    "NULL_COUNT": cs.null_count,
                    "NDV": cs.ndv,
                    "MIN_VALUE": cs.min_value,
                    "MAX_VALUE": cs.max_value,
                    "HISTOGRAM_BUCKETS": len(cs.histogram),
                    "COLLECTED_EPOCH": table_stats.collected_epoch,
                }
            )
    return columns, rows
