"""A parquet-like columnar file format for DataFrame rows.

Layout: magic, schema JSON (reusing the Avro-like schema language), row
count, then one deflate-compressed column chunk per field.  This is the
format Spark's native HDFS source reads/writes in the Figure 12 baseline
("Spark's native read/write methods for parquet files using DataFrames").

Chunks are encoded and decoded a whole column at a time by each field's
compiled codec (:mod:`repro.avrolite.io`): fixed-width columns pack and
unpack with one ``struct`` call per chunk, so a file costs little more
than its zlib pass.  Writing gathers column ``i`` from every row, then
encodes it; if either step raises, the column is redone row by row, so
the error is the one the first bad row of the first bad column raises.
"""

from __future__ import annotations

import zlib
from operator import itemgetter
from typing import Any, List, Sequence, Tuple

from repro.avrolite.io import BinaryDecoder, BinaryEncoder, compile_schema
from repro.avrolite.schema import Schema, SchemaError

MAGIC = b"PQL1"


def _encode_column(schema: Schema, rows: Sequence[Any], position: int) -> bytes:
    codec = compile_schema(schema)
    try:
        return codec.encode_column(list(map(itemgetter(position), rows)))
    except Exception:  # noqa: BLE001 - redone row by row for the exact error
        encode = codec.encode_values
        return b"".join(encode([row[position]])[0] for row in rows)


def write_columnar(schema: Schema, rows: Sequence[Tuple[Any, ...]]) -> bytes:
    """Encode rows (tuples matching a record schema) into a columnar file."""
    if schema.kind != "record":
        raise SchemaError("columnar files require a record schema")
    header = BinaryEncoder()
    header.write_raw(MAGIC)
    header.write_string(schema.dumps())
    header.write_long(len(rows))
    chunks: List[bytes] = []
    for position, (name, field_schema) in enumerate(schema.fields):
        compressed = zlib.compress(
            _encode_column(field_schema, rows, position), 6)
        chunk_header = BinaryEncoder()
        chunk_header.write_string(name)
        chunk_header.write_long(len(compressed))
        chunks.append(chunk_header.getvalue() + compressed)
    return header.getvalue() + b"".join(chunks)


def _read_frame(dec: BinaryDecoder) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    if dec.read_raw(4) != MAGIC:
        raise SchemaError("not a columnar file (bad magic)")
    schema = Schema.loads(dec.read_string())
    nrows = dec.read_long()
    columns: List[List[Any]] = []
    for name, field_schema in schema.fields:
        chunk_name = dec.read_string()
        if chunk_name != name:
            raise SchemaError(
                f"column chunk order mismatch: expected {name!r}, got {chunk_name!r}"
            )
        size = dec.read_long()
        payload = zlib.decompress(dec.read_raw(size))
        column, __ = compile_schema(field_schema).decode_column(
            payload, 0, nrows)
        columns.append(column)
    if not columns:
        return schema, [()] * max(0, nrows)
    return schema, list(zip(*columns))


def read_columnar(data: bytes) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    """Decode a columnar file back into (schema, rows)."""
    return _read_frame(BinaryDecoder(data))


def read_columnar_concat(data: bytes) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    """Decode back-to-back concatenated columnar frames into one row list.

    Task-attempt files are plain byte strings, so a bulk loader can
    concatenate many of them into one payload; this reads every frame (a
    single :func:`read_columnar` would silently stop after the first) and
    requires all frames to carry the same schema.
    """
    dec = BinaryDecoder(data)
    schema: Schema = None  # type: ignore[assignment]
    rows: List[Tuple[Any, ...]] = []
    while not dec.exhausted:
        frame_schema, frame_rows = _read_frame(dec)
        if schema is None:
            schema = frame_schema
        elif frame_schema != schema:
            raise SchemaError(
                "concatenated columnar frames disagree on schema: "
                f"{schema.dumps()} vs {frame_schema.dumps()}"
            )
        rows.extend(frame_rows)
    if schema is None:
        raise SchemaError("empty columnar payload (no frames)")
    return schema, rows
