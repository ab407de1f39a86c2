"""Client sessions: the JDBC-like statement interface.

A session is bound to one node (the node a Spark task connects to) and
executes SQL text.  Without an explicit BEGIN, each statement runs in its
own transaction and commits on success / rolls back on error
(autocommit); BEGIN/COMMIT/ROLLBACK give explicit control, which the S2V
protocol uses for its "write + mark done under one transaction" phases.

Every executed statement leaves its :class:`ResultSet` (with cost report)
in ``last_result``, and COPY additionally fills ``last_copy_result``.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.vertica.copyload import CopyResult
from repro.vertica.engine import ResultSet
from repro.vertica.errors import SqlError, TransactionError, VerticaError
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.sql.parser import parse_statement
from repro.vertica.txn import ACTIVE, Transaction

_DDL_NODES = (
    ast.CreateTable,
    ast.DropTable,
    ast.RenameTable,
    ast.TruncateTable,
    ast.CreateView,
    ast.DropView,
)


class Session:
    """One client connection to one Vertica node."""

    def __init__(self,
                 database: "repro.vertica.database.VerticaDatabase",  # noqa: F821
                 node: str):
        self.database = database
        self.node = node
        self._txn: Optional[Transaction] = None
        self._explicit = False
        self._closed = False
        #: the WLM pool this session's statements admit through
        self.resource_pool = "GENERAL"
        #: whether SELECTs consult the server-side result cache
        #: (``SET RESULT_CACHE = 'on'|'off'``; default from the database)
        self.result_cache_enabled = database.result_cache_default
        self.last_result: Optional[ResultSet] = None
        self.last_copy_result: Optional[CopyResult] = None

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        if self._txn is not None and self._txn.status == ACTIVE:
            self._txn.abort()
        self._txn = None
        self._closed = True
        self.database._release_connection(self.node)

    def reset(self) -> None:
        """Return the session to its just-connected state (pool checkin).

        Aborts any open transaction and restores the default resource
        pool, so a pooled session handed to the next tenant carries no
        state from the previous one.
        """
        self._require_open()
        if self._txn is not None and self._txn.status == ACTIVE:
            self._txn.abort()
        self._txn = None
        self._explicit = False
        self.resource_pool = "GENERAL"
        self.result_cache_enabled = self.database.result_cache_default
        self.last_result = None
        self.last_copy_result = None

    def set_resource_pool(self, name: str) -> None:
        """Switch the session's WLM pool (``SET RESOURCE_POOL``)."""
        pool = self.database.catalog.resource_pool(name)  # validates
        self.resource_pool = pool.name

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def in_transaction(self) -> bool:
        return self._explicit and self._txn is not None and self._txn.status == ACTIVE

    def _require_open(self) -> None:
        if self._closed:
            raise TransactionError("session is closed")

    def _current_txn(self) -> Transaction:
        if self._txn is None or self._txn.status != ACTIVE:
            self._txn = self.database.begin()
        return self._txn

    # -- execution ------------------------------------------------------------
    def execute(
        self, sql: str, copy_data: Union[bytes, str, None] = None
    ) -> ResultSet:
        """Parse and run one statement; returns its result set."""
        self._require_open()
        # The plan cache's parse level memoises the parsed AST under the
        # canonical statement text (and stamps the normalization keys the
        # plan/result tiers share), so a repeated statement skips the
        # parser; a statement the result cache keeps answering keeps its
        # parsed form there.
        statement = self.database.plan_cache.parse(sql, parse_statement)

        if isinstance(statement, ast.BeginTransaction):
            if self.in_transaction:
                raise TransactionError("transaction already in progress")
            self._txn = self.database.begin()
            self._explicit = True
            self.last_result = ResultSet()
            return self.last_result
        if isinstance(statement, ast.CommitTransaction):
            self._finish(commit=True)
            self.last_result = ResultSet()
            return self.last_result
        if isinstance(statement, ast.RollbackTransaction):
            self._finish(commit=False)
            self.last_result = ResultSet()
            return self.last_result
        if isinstance(statement, ast.SetOption):
            self._set_option(statement)
            self.last_result = ResultSet()
            return self.last_result

        if isinstance(statement, _DDL_NODES):
            # DDL auto-commits any open transaction, as in Vertica.
            if self.in_transaction:
                self._finish(commit=True)
            count = self.database.execute_ddl(statement)
            self.last_result = ResultSet(rowcount=count)
            return self.last_result

        txn = self._current_txn()
        try:
            result, copy_result = self.database.engine.execute(
                statement,
                txn,
                self.node,
                copy_data=copy_data,
                resource_pool=self.resource_pool,
                use_result_cache=self.result_cache_enabled,
            )
            if copy_result is not None:
                self.last_copy_result = copy_result
        except VerticaError:
            if not self._explicit:
                if self._txn is not None and self._txn.status == ACTIVE:
                    self._txn.abort()
                self._txn = None
            raise
        if not self._explicit:
            self._finish(commit=True)
        self.last_result = result
        return result

    def _set_option(self, statement: ast.SetOption) -> None:
        name = statement.name.upper()
        if name == "RESOURCE_POOL":
            self.set_resource_pool(str(statement.value))
            return
        if name == "JOIN_STRATEGY":
            value = str(statement.value).lower()
            if value not in ("auto", "hash", "merge", "nested-loop"):
                raise SqlError(
                    f"invalid JOIN_STRATEGY {statement.value!r} "
                    "(expected auto, hash, merge, or nested-loop)"
                )
            self.database.join_strategy = value
            return
        if name == "RESULT_CACHE":
            value = str(statement.value).lower()
            if value not in ("on", "off"):
                raise SqlError(
                    f"invalid RESULT_CACHE {statement.value!r} "
                    "(expected 'on' or 'off')"
                )
            self.result_cache_enabled = value == "on"
            return
        if name == "JOIN_REORDER":
            value = str(statement.value).lower()
            if value not in ("on", "off"):
                raise SqlError(
                    f"invalid JOIN_REORDER {statement.value!r} "
                    "(expected 'on' or 'off')"
                )
            self.database.join_reorder = value == "on"
            return
        if name == "ADAPTIVE_EXECUTION":
            value = str(statement.value).lower()
            if value not in ("on", "off"):
                raise SqlError(
                    f"invalid ADAPTIVE_EXECUTION {statement.value!r} "
                    "(expected 'on' or 'off')"
                )
            self.database.adaptive_execution = value == "on"
            return
        raise SqlError(f"unknown session option {statement.name!r}")

    def _finish(self, commit: bool) -> None:
        txn = self._txn
        self._txn = None
        self._explicit = False
        if txn is None or txn.status != ACTIVE:
            if commit and txn is None:
                return  # COMMIT with no open transaction is a no-op
            return
        if commit:
            txn.commit(self.database.storage)
        else:
            txn.abort()

    # -- convenience ---------------------------------------------------------------
    def query(self, sql: str) -> ResultSet:
        """Alias of :meth:`execute` for read statements."""
        return self.execute(sql)

    def scalar(self, sql: str) -> Any:
        return self.execute(sql).scalar()

    def commit(self) -> None:
        self._require_open()
        self._finish(commit=True)

    def rollback(self) -> None:
        self._require_open()
        self._finish(commit=False)
