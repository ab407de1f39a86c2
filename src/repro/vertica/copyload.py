"""COPY: Vertica's bulk-load path.

Implements the ``COPY <table> FROM STDIN`` statement for CSV and Avro
payloads, with per-row rejection accounting: a malformed row does not fail
the load, it is *rejected*; if the count of rejected rows exceeds
``REJECTMAX`` the whole load fails (and the enclosing transaction aborts).
The paper's S2V leans on exactly this machinery — each Spark task streams
its partition as Avro into COPY, and the connector exposes the rejected-row
tolerance to the user (§3.2).

:class:`VerticaCopyStream` mirrors the Java API of the same name: a
programmatic handle for streaming chunks into one COPY statement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.avrolite import SchemaError, decode_rows
from repro.avrolite.schema import Schema
from repro.vertica.catalog import TableDef
from repro.vertica.errors import CopyRejectError, SqlError, TypeMismatchError
from repro.vertica.storage import take

#: how many rejected rows are kept as a sample for the user
REJECT_SAMPLE_SIZE = 10


class RejectedRow:
    """One rejected input row and the reason it was rejected."""

    __slots__ = ("line", "reason")

    def __init__(self, line: Any, reason: str):
        self.line = line
        self.reason = reason

    def __repr__(self) -> str:
        return f"RejectedRow({self.line!r}, {self.reason!r})"


class CopyResult:
    """Outcome of a COPY: loaded/rejected counts and a rejection sample."""

    def __init__(self, loaded: int, rejected: int, sample: List[RejectedRow]):
        self.loaded = loaded
        self.rejected = rejected
        self.sample = sample

    def __repr__(self) -> str:
        return f"CopyResult(loaded={self.loaded}, rejected={self.rejected})"


def avro_schema_for_table(table: TableDef) -> Schema:
    """The Avro record schema a COPY FORMAT AVRO payload must carry."""
    fields = [
        (column.name.lower(),
         Schema.primitive(column.sql_type.avro_kind, nullable=True))
        for column in table.columns
    ]
    return Schema.record(table.name.lower(), fields)


def _coerce_columns(
    table: TableDef,
    columns: Sequence[Sequence[Any]],
    reasons: Dict[int, str],
    text: bool = False,
) -> List[List[Any]]:
    """Coerce each column once, left to right, recording rejections.

    ``text`` columns hold CSV tokens (parsed by ``from_csv``), others
    decoded values (``coerce``).  A row's reason is its leftmost failing
    column's message, as coercing row by row would find it; once rejected, a
    row's later columns are not looked at.  A column whose whole-column
    pass fails is redone value by value, skipping rejected rows.
    """
    out = []
    for column_def, values in zip(table.columns, columns):
        sql_type = column_def.sql_type
        convert = sql_type.from_csv if text else sql_type.coerce
        try:
            out.append(list(map(convert, values)) if text
                       else sql_type.coerce_column(values))
            continue
        except Exception:  # noqa: BLE001 - redone value by value below
            pass
        coerced: List[Any] = []
        for index, value in enumerate(values):
            if index not in reasons:
                try:
                    value = convert(value)
                except TypeMismatchError as exc:
                    reasons[index] = str(exc)
            coerced.append(value)
        out.append(coerced)
    return out


def _split(
    table: TableDef, lines: Sequence[Any], columns: List[List[Any]],
    reasons: Dict[int, str],
) -> Tuple[Dict[str, List[Any]], List[RejectedRow]]:
    """The good rows as a column mapping, and the rejections in row order."""
    bad = [RejectedRow(lines[index], reasons[index]) for index in sorted(reasons)]
    if reasons:
        keep = [index for index in range(len(lines)) if index not in reasons]
        columns = [take(column, keep) for column in columns]
    return dict(zip(table.column_names(), columns)), bad


def _decoded_columns(
    table: TableDef, rows: Sequence[Any], reasons: Dict[int, str]
) -> List[List[Any]]:
    """Decoded record tuples as coerced columns; a row that is not a tuple
    of the table's width is rejected before any column is looked at."""
    width = len(table.columns)
    if not (set(map(type, rows)) <= {tuple} and set(map(len, rows)) <= {width}):
        for index, values in enumerate(rows):
            if not isinstance(values, tuple) or len(values) != width:
                reasons[index] = f"expected {width} fields"
        rows = [(None,) * width if index in reasons else values
                for index, values in enumerate(rows)]
    columns = list(zip(*rows)) if rows else [()] * width
    return _coerce_columns(table, columns, reasons)


def parse_csv_rows(
    table: TableDef, text: str, delimiter: str = ","
) -> Tuple[Dict[str, List[Any]], List[RejectedRow]]:
    """Parse delimited text into coerced columns plus rejections."""
    width = len(table.columns)
    lines = [line for line in text.splitlines() if line.strip()]
    reasons: Dict[int, str] = {}
    tokens = []
    for index, line in enumerate(lines):
        fields = line.split(delimiter)
        if len(fields) != width:
            reasons[index] = f"expected {width} fields, got {len(fields)}"
            fields = [""] * width
        tokens.append(fields)
    columns = list(zip(*tokens)) if tokens else [()] * width
    coerced = _coerce_columns(table, columns, reasons, text=True)
    return _split(table, lines, coerced, reasons)


def parse_avro_rows(
    table: TableDef, payload: bytes
) -> Tuple[Dict[str, List[Any]], List[RejectedRow]]:
    """Decode an Avro container into coerced columns plus rejections."""
    try:
        rows = decode_rows(payload)
    except SchemaError as exc:
        raise SqlError(f"COPY: cannot decode Avro payload: {exc}") from exc
    reasons: Dict[int, str] = {}
    return _split(table, rows, _decoded_columns(table, rows, reasons), reasons)


def parse_columnar_rows(
    table: TableDef, payload: bytes
) -> Tuple[Dict[str, List[Any]], List[RejectedRow]]:
    """Decode concatenated columnar frames into coerced columns.

    The staging transport's bulk loads concatenate many task-attempt files
    into one COPY payload, so the decoder must read *every* frame.
    """
    from repro.hdfs.columnar import read_columnar_concat

    try:
        __, rows = read_columnar_concat(payload)
    except SchemaError as exc:
        raise SqlError(f"COPY: cannot decode columnar payload: {exc}") from exc
    reasons: Dict[int, str] = {}
    return _split(table, rows, _decoded_columns(table, rows, reasons), reasons)


def run_copy(
    engine: "repro.vertica.engine.Engine",  # noqa: F821
    statement,
    txn,
    payload: Union[bytes, str, None],
) -> Tuple[Any, CopyResult]:
    """Execute a parsed COPY statement with its out-of-band payload.

    The payload is decoded to columns and each column is coerced once;
    rows that fail are rejected (in row order, each with its leftmost bad
    column's message) before anything is staged.  Returns
    ``(ResultSet, CopyResult)``.  Raises :class:`CopyRejectError` if
    rejections exceed REJECTMAX (default: zero tolerance).
    """
    from repro import telemetry
    from repro.vertica.engine import CostReport, ResultSet

    table = engine.database.catalog.table(statement.table)
    if payload is None:
        raise SqlError("COPY FROM STDIN requires a data payload")
    telemetry.counter("vertica.copy.statements").inc()
    telemetry.counter("vertica.copy.bytes").inc(
        len(payload) if isinstance(payload, (bytes, bytearray, str)) else 0
    )
    if statement.file_format == "AVRO":
        if not isinstance(payload, (bytes, bytearray)):
            raise SqlError("COPY FORMAT AVRO requires a bytes payload")
        good, bad = parse_avro_rows(table, bytes(payload))
    elif statement.file_format == "COLUMNAR":
        if not isinstance(payload, (bytes, bytearray)):
            raise SqlError("COPY FORMAT COLUMNAR requires a bytes payload")
        good, bad = parse_columnar_rows(table, bytes(payload))
    else:
        if isinstance(payload, (bytes, bytearray)):
            payload = bytes(payload).decode("utf-8")
        good, bad = parse_csv_rows(table, payload, statement.delimiter)

    limit = statement.reject_max if statement.reject_max is not None else 0
    telemetry.counter("vertica.copy.rows_rejected").inc(len(bad))
    if len(bad) > limit:
        raise CopyRejectError(len(bad), limit, bad[:REJECT_SAMPLE_SIZE])

    cost = CostReport()
    loaded = engine.insert_rows(table.name, good, txn, cost)
    telemetry.counter("vertica.copy.rows_loaded").inc(loaded)
    # Keep optimizer statistics roughly current as loads stream in; only
    # tables that have been ANALYZEd carry stats worth maintaining.
    from repro.vertica.stats import update_stats_for_load

    update_stats_for_load(engine.database, table.name, good)
    result = ResultSet(
        columns=["ROWS_LOADED"], rows=[(loaded,)], rowcount=loaded, cost=cost
    )
    return result, CopyResult(loaded, len(bad), bad[:REJECT_SAMPLE_SIZE])


class VerticaCopyStream:
    """Programmatic access to COPY, like the VerticaCopyStream Java API.

    Buffers one or more Avro containers (or CSV chunks) and executes a
    single COPY statement over them inside the session's transaction::

        stream = VerticaCopyStream(session, "staging", reject_max=10)
        stream.add_avro(container_bytes)
        result = stream.execute()
    """

    def __init__(
        self,
        session: "repro.vertica.session.Session",  # noqa: F821
        table: str,
        reject_max: Optional[int] = None,
        file_format: str = "AVRO",
    ):
        if file_format not in ("AVRO", "CSV"):
            raise SqlError(f"unsupported copy stream format {file_format!r}")
        self.session = session
        self.table = table
        self.reject_max = reject_max
        self.file_format = file_format
        self._avro_chunks: List[bytes] = []
        self._csv_chunks: List[str] = []
        self.result: Optional[CopyResult] = None

    def add_avro(self, payload: bytes) -> None:
        if self.file_format != "AVRO":
            raise SqlError("this stream is not in AVRO format")
        self._avro_chunks.append(bytes(payload))

    def add_csv(self, text: str) -> None:
        if self.file_format != "CSV":
            raise SqlError("this stream is not in CSV format")
        self._csv_chunks.append(text)

    def execute(self) -> CopyResult:
        """Run the buffered COPY; returns the cumulative result."""
        reject_clause = (
            f" REJECTMAX {self.reject_max}" if self.reject_max is not None else ""
        )
        sql = (
            f"COPY {self.table} FROM STDIN FORMAT {self.file_format}"
            f"{reject_clause} DIRECT"
        )
        total_loaded = 0
        total_rejected = 0
        sample: List[RejectedRow] = []
        chunks: Sequence[Union[bytes, str]]
        if self.file_format == "AVRO":
            chunks = self._avro_chunks
        else:
            chunks = self._csv_chunks
        if not chunks:
            raise SqlError("copy stream has no buffered data")
        for chunk in chunks:
            self.session.execute(sql, copy_data=chunk)
            copy_result = self.session.last_copy_result
            assert copy_result is not None
            total_loaded += copy_result.loaded
            total_rejected += copy_result.rejected
            sample.extend(copy_result.sample)
        self._avro_chunks = []
        self._csv_chunks = []
        self.result = CopyResult(
            total_loaded, total_rejected, sample[:REJECT_SAMPLE_SIZE]
        )
        return self.result
