"""Columnar storage: ROS containers and per-node stores.

Vertica keeps committed data in Read Optimized Storage (ROS) containers —
immutable, column-major batches tagged with the epoch that committed them
— and marks deletions in per-container *delete vectors* rather than
rewriting data (§2.1.1; Lamb et al., VLDB'12).  Visibility at a snapshot
epoch ``e`` is therefore: container committed at or before ``e``, row not
deleted, or deleted strictly after ``e``.

Uncommitted writes live in a per-transaction WOS (Write Optimized
Storage) buffer that becomes one ROS container per (table, node) at
commit.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.vertica.errors import CatalogError


def take(column: Sequence[Any], positions: Sequence[int]) -> List[Any]:
    """``[column[i] for i in positions]`` at C speed."""
    if len(positions) > 1:
        return list(itemgetter(*positions)(column))
    return [column[i] for i in positions]


class RosContainer:
    """One immutable committed batch of rows on one node."""

    __slots__ = ("column_names", "columns", "commit_epoch", "delete_epochs",
                 "row_hashes")

    def __init__(
        self,
        column_names: Sequence[str],
        columns: Sequence[List[Any]],
        commit_epoch: int,
        row_hashes: Optional[List[int]] = None,
    ):
        if len(column_names) != len(columns):
            raise CatalogError("column name/data arity mismatch in ROS container")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise CatalogError("ragged columns in ROS container")
        self.column_names = list(column_names)
        self.columns = [list(c) for c in columns]
        self.commit_epoch = commit_epoch
        nrows = len(columns[0]) if columns else 0
        #: 0 = live; otherwise the epoch at which the row was deleted
        self.delete_epochs: List[int] = [0] * nrows
        self.row_hashes = list(row_hashes) if row_hashes is not None else [0] * nrows

    @property
    def nrows(self) -> int:
        return len(self.delete_epochs)

    def live_rows(self, snapshot_epoch: int) -> Iterator[int]:
        """Indices of rows visible at ``snapshot_epoch``."""
        if self.commit_epoch > snapshot_epoch:
            return
        for index, delete_epoch in enumerate(self.delete_epochs):
            if delete_epoch == 0 or delete_epoch > snapshot_epoch:
                yield index

    def live_positions(self, snapshot_epoch: int) -> Optional[List[int]]:
        """The live mask at ``snapshot_epoch`` as row indices, in order.

        ``None`` means every row is visible — the common case of a
        container with no delete vector entries — so callers can use the
        column lists whole instead of slicing them.
        """
        if self.commit_epoch > snapshot_epoch:
            return []
        delete_epochs = self.delete_epochs
        if not any(delete_epochs):
            return None
        return [
            index
            for index, delete_epoch in enumerate(delete_epochs)
            if delete_epoch == 0 or delete_epoch > snapshot_epoch
        ]

    def live_count(self, snapshot_epoch: int) -> int:
        """How many rows are visible at ``snapshot_epoch``."""
        positions = self.live_positions(snapshot_epoch)
        return self.nrows if positions is None else len(positions)

    def row(self, index: int) -> Dict[str, Any]:
        return {name: column[index]
                for name, column in zip(self.column_names, self.columns)}

    def row_tuple(self, index: int) -> Tuple[Any, ...]:
        return tuple(column[index] for column in self.columns)


class WosBuffer:
    """Per-transaction, per-(table, node) staged inserts (row-major)."""

    __slots__ = ("column_names", "rows", "row_hashes")

    def __init__(self, column_names: Sequence[str]):
        self.column_names = list(column_names)
        self.rows: List[List[Any]] = []
        self.row_hashes: List[int] = []

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def append(self, row: Sequence[Any], row_hash: int = 0) -> None:
        if len(row) != len(self.column_names):
            raise CatalogError(
                f"row arity {len(row)} does not match {len(self.column_names)} columns"
            )
        self.rows.append(list(row))
        self.row_hashes.append(row_hash)

    def to_container(self, commit_epoch: int) -> RosContainer:
        columns: List[List[Any]] = [[] for __ in self.column_names]
        for row in self.rows:
            for column, value in zip(columns, row):
                column.append(value)
        return RosContainer(
            self.column_names, columns, commit_epoch, row_hashes=self.row_hashes
        )


class NodeStorage:
    """All committed containers held by one node, keyed by table name."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self.containers: Dict[str, List[RosContainer]] = {}
        #: k-safety replicas of other nodes' segments: table -> buddy containers
        self.replicas: Dict[str, List[RosContainer]] = {}

    def add_container(self, table: str, container: RosContainer) -> None:
        self.containers.setdefault(table, []).append(container)

    def add_replica(self, table: str, container: RosContainer) -> None:
        self.replicas.setdefault(table, []).append(container)

    def table_containers(self, table: str) -> List[RosContainer]:
        return self.containers.get(table, [])

    def replica_containers(self, table: str) -> List[RosContainer]:
        return self.replicas.get(table, [])

    def drop_table(self, table: str) -> None:
        self.containers.pop(table, None)
        self.replicas.pop(table, None)

    def rename_table(self, table: str, new_name: str) -> None:
        if table in self.containers:
            self.containers[new_name] = self.containers.pop(table)
        if table in self.replicas:
            self.replicas[new_name] = self.replicas.pop(table)

    def live_row_count(self, table: str, snapshot_epoch: int) -> int:
        return sum(
            container.live_count(snapshot_epoch)
            for container in self.table_containers(table)
        )
