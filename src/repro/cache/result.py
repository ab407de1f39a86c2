"""The server-side query result cache.

Completed SELECT results are stored under ``(statement digest, snapshot
epoch, catalog version)``.  Epochs only move forward, so a cached entry
can never be served to a reader at a different snapshot — invalidation
is free and exactness is structural, not advisory.  The catalog version
covers the one mutation class that does *not* advance an epoch (DDL,
TRUNCATE, ANALYZE).

The cache is bounded by a byte budget with LRU eviction and can be
charged into a WLM pool's memory ledger through a
:class:`MemoryAccount`, so resident results genuinely compete with
query admission grants.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.cache.blocks import rows_nbytes

#: default byte budget (per database) for cached result sets
DEFAULT_RESULT_CACHE_BYTES = 8 * 1024 * 1024

_MB = 1024 * 1024

#: CostReport fields replayed on a hit so the report stays byte-identical
#: to the cold execution it memoised (modulo the ``cache_hit`` flag)
_COST_SCALARS = (
    "rows_scanned",
    "rows_output",
    "bytes_output",
    "rows_written",
    "rows_aggregated",
)
_COST_NODE_MAPS = (
    "node_rows_scanned",
    "node_output_bytes",
    "node_rows_output",
    "node_rows_written",
    "node_rows_aggregated",
)

CacheKey = Tuple[str, int, int]


def snapshot_cost(cost: Any) -> Dict[str, Any]:
    """Copy the attribution fields of a CostReport into plain data."""
    data: Dict[str, Any] = {f: getattr(cost, f) for f in _COST_SCALARS}
    for field in _COST_NODE_MAPS:
        data[field] = dict(getattr(cost, field))
    return data


def replay_cost(snapshot: Dict[str, Any], cost: Any) -> None:
    """Merge a stored cost snapshot into a fresh CostReport."""
    for field in _COST_SCALARS:
        setattr(cost, field, getattr(cost, field) + snapshot[field])
    for field in _COST_NODE_MAPS:
        target = getattr(cost, field)
        for node, amount in snapshot[field].items():
            target[node] = target.get(node, type(amount)()) + amount


class MemoryAccount:
    """Where the cache's resident bytes are charged (MB granularity).

    The WLM adapter (:meth:`repro.wlm.admission.AdmissionController.
    cache_account`) implements this against a resource pool's memory
    ledger; the default ``None`` account leaves the cache bounded only
    by its own byte budget.
    """

    def grow(self, mb: int) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def shrink(self, mb: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class CachedResult:
    """One memoised SELECT: columns, rows, and its cost attribution."""

    __slots__ = ("columns", "rows", "cost_snapshot", "statement", "nbytes",
                 "hits")

    def __init__(
        self,
        columns: List[str],
        rows: List[Tuple[Any, ...]],
        cost_snapshot: Dict[str, Any],
    ):
        self.columns = list(columns)
        self.rows = list(rows)
        self.cost_snapshot = cost_snapshot
        #: the parsed statement of the first hit (see ResultCache.statement);
        #: not charged to the byte budget
        self.statement: Any = None
        self.nbytes = rows_nbytes(self.rows) + rows_nbytes([tuple(self.columns)])
        self.hits = 0


class ResultCache:
    """Byte-bounded LRU of completed SELECT results, epoch-keyed."""

    def __init__(
        self,
        budget_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
        name: str = "vertica.cache.result",
    ):
        self.budget_bytes = budget_bytes
        self.name = name
        self._entries: "OrderedDict[CacheKey, CachedResult]" = OrderedDict()
        #: statement digest -> [parsed statement, resident entries holding it]
        self._statements: Dict[str, List[Any]] = {}
        self.used_bytes = 0
        self._account: Optional[MemoryAccount] = None
        self._reserved_mb = 0

    # -- accounting -----------------------------------------------------------
    def attach_account(self, account: Optional[MemoryAccount]) -> None:
        """Charge resident bytes into ``account`` from now on."""
        if self._account is not None and self._reserved_mb:
            self._account.shrink(self._reserved_mb)
            self._reserved_mb = 0
        self._account = account
        self._sync_account(self.used_bytes)

    @property
    def reserved_mb(self) -> int:
        return self._reserved_mb

    def _sync_account(self, target_bytes: int) -> bool:
        """Grow/shrink the account to cover ``target_bytes``; True on success."""
        if self._account is None:
            return True
        needed = (target_bytes + _MB - 1) // _MB
        if needed > self._reserved_mb:
            if not self._account.grow(needed - self._reserved_mb):
                return False
            self._reserved_mb = needed
        elif needed < self._reserved_mb:
            self._account.shrink(self._reserved_mb - needed)
            self._reserved_mb = needed
        return True

    # -- core operations --------------------------------------------------------
    def lookup(
        self,
        digest: str,
        epoch: int,
        catalog_version: int,
        statement: Any = None,
    ) -> Optional[CachedResult]:
        """The resident entry, or None.

        A hit keeps ``statement`` (the parsed statement being answered)
        reachable through :meth:`statement` while the entry is resident.
        """
        entry = self._entries.get((digest, epoch, catalog_version))
        if entry is None:
            telemetry.counter(f"{self.name}.misses").inc()
            return None
        self._entries.move_to_end((digest, epoch, catalog_version))
        entry.hits += 1
        if statement is not None and entry.statement is None:
            entry.statement = statement
            pin = self._statements.setdefault(digest, [statement, 0])
            pin[1] += 1
        telemetry.counter(f"{self.name}.hits").inc()
        return entry

    def store(
        self,
        digest: str,
        epoch: int,
        catalog_version: int,
        columns: List[str],
        rows: List[Tuple[Any, ...]],
        cost: Any,
    ) -> bool:
        """Memoise one completed SELECT; False when it cannot be held."""
        key = (digest, epoch, catalog_version)
        old = self._entries.pop(key, None)
        if old is not None:
            self._remove(key, old)
        entry = CachedResult(columns, rows, snapshot_cost(cost))
        if entry.nbytes > self.budget_bytes:
            telemetry.counter(f"{self.name}.rejected").inc()
            self._sync_account(self.used_bytes)
            self._observe()
            return False
        while self._entries and self.used_bytes + entry.nbytes > self.budget_bytes:
            self._evict_one()
        while not self._sync_account(self.used_bytes + entry.nbytes):
            if not self._entries:
                # The WLM pool cannot spare even the floor: refuse to store.
                telemetry.counter(f"{self.name}.rejected").inc()
                self._sync_account(self.used_bytes)
                self._observe()
                return False
            self._evict_one()
        self._entries[key] = entry
        self.used_bytes += entry.nbytes
        telemetry.counter(f"{self.name}.stores").inc()
        self._observe()
        return True

    def bypass(self, reason: str) -> None:
        """Record a statement that skipped the cache (and why)."""
        telemetry.counter(f"{self.name}.bypass").inc()
        telemetry.counter(f"{self.name}.bypass.{reason}").inc()

    def statement(self, digest: str) -> Optional[Any]:
        """The parsed statement of a resident, already hit entry for
        ``digest``.

        The plan cache's parse level asks for it on a miss, so a result
        that is being reused never costs a re-parse, however many other
        statements cycled through the parse LRU since.  Only entries
        that were hit keep one: a workload of one-shot statements holds
        no extra parsed statements.
        """
        pin = self._statements.get(digest)
        return None if pin is None else pin[0]

    def clear(self) -> None:
        self._entries.clear()
        self._statements.clear()
        self.used_bytes = 0
        self._sync_account(0)
        self._observe()

    def _evict_one(self) -> None:
        key, entry = self._entries.popitem(last=False)
        self._remove(key, entry)
        telemetry.counter(f"{self.name}.evictions").inc()

    def _remove(self, key: CacheKey, entry: CachedResult) -> None:
        """Release an entry that already left ``_entries``."""
        self.used_bytes -= entry.nbytes
        if entry.statement is not None:
            pin = self._statements[key[0]]
            pin[1] -= 1
            if not pin[1]:
                del self._statements[key[0]]

    def _observe(self) -> None:
        telemetry.gauge(f"{self.name}.bytes").set(self.used_bytes)
        telemetry.gauge(f"{self.name}.entries").set(len(self._entries))

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def keys(self) -> List[CacheKey]:
        return list(self._entries.keys())
