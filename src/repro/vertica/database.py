"""The database facade: a whole Vertica cluster in one object.

``VerticaDatabase`` owns the catalog, per-node storage, the epoch/lock
managers, the UDx registry and the internal DFS, and exposes
``connect()`` returning JDBC-like :class:`~repro.vertica.session.Session`
objects bound to a specific node (connection-per-node is what lets the
connector balance load and exploit locality).

DDL statements (CREATE/DROP/ALTER/TRUNCATE) auto-commit, as in Vertica.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache import PlanCache, ResultCache
from repro.vertica.catalog import Catalog
from repro.vertica.dfs import DistributedFileSystem
from repro.vertica.engine import Engine
from repro.vertica.errors import CatalogError, ConnectionLimitError, SqlError
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.txn import EpochManager, LockManager, Transaction
from repro.vertica.storage import NodeStorage
from repro.vertica.udx import UdxRegistry

#: the paper raised MAX-CLIENT-SESSIONS to 100 for its parallelism sweeps
DEFAULT_MAX_CLIENT_SESSIONS = 100


class VerticaDatabase:
    """An MPP cluster: nodes, catalog, storage, transactions."""

    def __init__(
        self,
        num_nodes: int = 4,
        node_names: Optional[List[str]] = None,
        k_safety: int = 0,
        max_client_sessions: int = DEFAULT_MAX_CLIENT_SESSIONS,
    ):
        if node_names is None:
            node_names = [f"node{i + 1:04d}" for i in range(num_nodes)]
        if not node_names:
            raise CatalogError("a cluster requires at least one node")
        if k_safety not in (0, 1):
            raise CatalogError(f"k-safety {k_safety} is not supported (0 or 1)")
        if k_safety == 1 and len(node_names) < 2:
            raise CatalogError("k-safety 1 requires at least two nodes")
        self.node_names = list(node_names)
        self.k_safety = k_safety
        self.max_client_sessions = max_client_sessions
        self.catalog = Catalog(self.node_names)
        self.storage: Dict[str, NodeStorage] = {
            name: NodeStorage(name) for name in self.node_names
        }
        self.epochs = EpochManager()
        self.locks = LockManager()
        self.engine = Engine(self)
        self.udx = UdxRegistry()
        self.dfs = DistributedFileSystem(self.node_names)
        self.node_states: Dict[str, str] = {name: "UP" for name in self.node_names}
        self._session_counts: Dict[str, int] = {name: 0 for name in self.node_names}
        #: join-strategy override (SET JOIN_STRATEGY): 'auto' lets the cost
        #: model pick; 'hash'/'merge'/'nested-loop' force one for debugging
        self.join_strategy = "auto"
        #: prepared-statement / optimized-plan cache (always on: keyed by
        #: canonical text + catalog version, so reuse is always exact)
        self.plan_cache = PlanCache(retained=self._reused_statement)
        #: server-side result cache, keyed by (digest, epoch, catalog version)
        self.result_cache = ResultCache()
        #: default RESULT_CACHE setting new sessions start with; individual
        #: sessions override it via ``SET RESULT_CACHE = 'on'|'off'``
        self.result_cache_default = False
        #: cost-based join reordering (SET JOIN_REORDER): replace the
        #: binder's left-deep join order with a greedy cheapest-pair order
        self.join_reorder = False
        #: adaptive execution (SET ADAPTIVE_EXECUTION): join operators may
        #: replan mid-query from observed row counts, and executed queries
        #: feed estimated-vs-actual deltas back into ``stats_corrections``
        self.adaptive_execution = False
        #: per-table cardinality correction factors from the feedback loop
        from repro.vertica.stats.feedback import CorrectionStore

        self.stats_corrections = CorrectionStore()
        from repro.vertica.tuplemover import TupleMover

        self.tuple_mover = TupleMover(self)

    def _reused_statement(self, canonical: str) -> Optional[ast.Select]:
        """The parsed statement the result cache keeps for ``canonical``.

        Read through ``self`` on every call: callers may swap in another
        ``result_cache``.
        """
        return self.result_cache.statement(canonical)

    # -- topology ------------------------------------------------------------
    def buddy_of(self, node: str) -> str:
        """The node holding ``node``'s k-safety replicas (next on the ring)."""
        index = self.node_names.index(node)
        return self.node_names[(index + 1) % len(self.node_names)]

    def fail_node(self, node: str) -> None:
        if node not in self.node_states:
            raise CatalogError(f"unknown node {node!r}")
        self.node_states[node] = "DOWN"

    def recover_node(self, node: str) -> None:
        if node not in self.node_states:
            raise CatalogError(f"unknown node {node!r}")
        self.node_states[node] = "UP"

    # -- connections -----------------------------------------------------------
    def _accepting(self, node: str) -> bool:
        """True when ``node`` is UP with a free MAX-CLIENT-SESSIONS slot."""
        return (
            self.node_states[node] == "UP"
            and self._session_counts[node] < self.max_client_sessions
        )

    def connect(
        self,
        node: Optional[str] = None,
        failover: bool = False,
        resource_pool: Optional[str] = None,
    ) -> "Session":
        """Open a session bound to ``node`` (default: the first node).

        With ``failover=True`` a connection aimed at a node that cannot
        accept it — DOWN, or already at ``max_client_sessions`` — is
        transparently redirected to the first node that can, modelling
        client-side connection failover — what keeps driver metadata
        queries and retried tasks alive while chaos restarts a node, and
        what spreads tenants off a saturated node under serving load.

        ``resource_pool`` pre-selects the session's WLM pool (as if the
        first statement were ``SET RESOURCE_POOL``); it must exist in the
        catalog.
        """
        from repro import telemetry
        from repro.vertica.session import Session

        target = node or self.node_names[0]
        if target not in self.node_states:
            raise CatalogError(f"unknown node {target!r}")
        if failover and not self._accepting(target):
            for candidate in self.node_names:
                if self._accepting(candidate):
                    target = candidate
                    break
        if self.node_states[target] != "UP":
            raise CatalogError(f"node {target!r} is down")
        if self._session_counts[target] >= self.max_client_sessions:
            raise ConnectionLimitError(
                f"node {target!r} is at MAX-CLIENT-SESSIONS "
                f"({self.max_client_sessions})"
            )
        self._session_counts[target] += 1
        telemetry.gauge(f"db.sessions.active.{target}").set(
            self._session_counts[target]
        )
        session = Session(self, target)
        if resource_pool is not None:
            session.set_resource_pool(resource_pool)
        return session

    def _release_connection(self, node: str) -> None:
        if self._session_counts.get(node, 0) > 0:
            self._session_counts[node] -= 1
            from repro import telemetry

            telemetry.gauge(f"db.sessions.active.{node}").set(
                self._session_counts[node]
            )

    def session_count(self, node: str) -> int:
        return self._session_counts.get(node, 0)

    # -- resource pools ---------------------------------------------------------
    def create_resource_pool(self, pool, or_replace: bool = False):
        """Register a WLM :class:`~repro.wlm.pools.ResourcePool`.

        Sessions select it with ``SET RESOURCE_POOL = '<name>'`` (or the
        connector's ``resource_pool`` option); it is visible through
        ``V_CATALOG.RESOURCE_POOLS``.
        """
        return self.catalog.create_resource_pool(pool, or_replace=or_replace)

    def begin(self) -> Transaction:
        return Transaction(self.epochs, self.locks)

    # -- DDL (auto-committing) ----------------------------------------------------
    def execute_ddl(self, statement) -> int:
        """Apply one DDL statement immediately; returns affected count."""
        if isinstance(statement, ast.CreateTable):
            created = self.catalog.create_table(
                statement.table,
                statement.columns,
                segmented_by=statement.segmented_by,
                unsegmented=statement.unsegmented,
                if_not_exists=statement.if_not_exists,
            )
            return 1 if created else 0
        if isinstance(statement, ast.DropTable):
            self._check_unlocked(statement.table)
            dropped = self.catalog.drop_table(statement.table, statement.if_exists)
            if dropped:
                for storage in self.storage.values():
                    storage.drop_table(statement.table.upper())
            return 1 if dropped else 0
        if isinstance(statement, ast.RenameTable):
            self._check_unlocked(statement.table)
            self._check_unlocked(statement.new_name)
            self.catalog.rename_table(statement.table, statement.new_name)
            for storage in self.storage.values():
                storage.rename_table(
                    statement.table.upper(), statement.new_name.upper()
                )
            return 1
        if isinstance(statement, ast.TruncateTable):
            self._check_unlocked(statement.table)
            table = self.catalog.table(statement.table)
            for storage in self.storage.values():
                storage.drop_table(table.name)
            # TRUNCATE discards rows without advancing an epoch, so the
            # epoch-keyed caches only stay exact through a version bump.
            self.catalog.bump_version()
            return 1
        if isinstance(statement, ast.CreateView):
            self.catalog.create_view(
                statement.view, statement.query, or_replace=statement.or_replace
            )
            return 1
        if isinstance(statement, ast.DropView):
            dropped = self.catalog.drop_view(statement.view, statement.if_exists)
            return 1 if dropped else 0
        raise SqlError(f"not a DDL statement: {type(statement).__name__}")

    def _check_unlocked(self, table: str) -> None:
        holder = self.locks.holder(table.upper())
        if holder is not None:
            from repro.vertica.errors import LockContention

            raise LockContention(table.upper(), holder, -1)

    # -- convenience -----------------------------------------------------------------
    def table_row_count(self, table: str) -> int:
        """Committed live row count (one logical copy) at the latest epoch."""
        table_def = self.catalog.table(table)
        epoch = self.epochs.current
        if table_def.unsegmented:
            first = self.storage[self.node_names[0]]
            return first.live_row_count(table_def.name, epoch)
        return sum(
            self.storage[node].live_row_count(table_def.name, epoch)
            for node in self.node_names
        )
