"""A frozen copy of the interpretive Avro/columnar codecs.

These are the per-value ``DatumWriter``/``DatumReader`` (one kind
dispatch per value), the block container and the columnar file
functions as they stood before the codecs were compiled per schema,
ported verbatim and kept here as the **differential oracle** for
``tests/test_codec_differential.py``: the compiled codecs must produce
the same bytes, decode the same values and raise the same exception
type and message on the same input.

Do not "fix" behaviour here; its quirks are the specification.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.avrolite.codec import compress_block, decompress_block
from repro.avrolite.schema import Schema, SchemaError

_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")

#: Avro int/long are 64-bit two's complement on the wire
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def zigzag_encode(value: int) -> int:
    # Python's arithmetic right shift makes this work for both signs.
    return (value << 1) ^ (value >> 63)


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class BinaryEncoder:
    """Appends Avro-encoded primitives to an internal buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def write_raw(self, data: bytes) -> None:
        self._buffer.extend(data)

    def write_long(self, value: int) -> None:
        # zigzag then base-128 varint, little-endian groups of 7 bits
        encoded = (value << 1) ^ (value >> 63)
        encoded &= (1 << 64) - 1
        while True:
            byte = encoded & 0x7F
            encoded >>= 7
            if encoded:
                self._buffer.append(byte | 0x80)
            else:
                self._buffer.append(byte)
                break

    def write_boolean(self, value: bool) -> None:
        self._buffer.append(1 if value else 0)

    def write_float(self, value: float) -> None:
        self._buffer.extend(_FLOAT.pack(value))

    def write_double(self, value: float) -> None:
        self._buffer.extend(_DOUBLE.pack(value))

    def write_bytes(self, value: bytes) -> None:
        self.write_long(len(value))
        self._buffer.extend(value)

    def write_string(self, value: str) -> None:
        self.write_bytes(value.encode("utf-8"))


class BinaryDecoder:
    """Reads Avro-encoded primitives from a bytes buffer."""

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def read_raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SchemaError("unexpected end of Avro data")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_long(self) -> int:
        shift = 0
        accum = 0
        while True:
            if self._pos >= len(self._data):
                raise SchemaError("unexpected end of varint")
            byte = self._data[self._pos]
            self._pos += 1
            accum |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise SchemaError("varint too long")
        return (accum >> 1) ^ -(accum & 1)

    def read_boolean(self) -> bool:
        return self.read_raw(1) != b"\x00"

    def read_float(self) -> float:
        return _FLOAT.unpack(self.read_raw(4))[0]

    def read_double(self) -> float:
        return _DOUBLE.unpack(self.read_raw(8))[0]

    def read_bytes(self) -> bytes:
        length = self.read_long()
        if length < 0:
            raise SchemaError(f"negative bytes length: {length}")
        return self.read_raw(length)

    def read_string(self) -> str:
        return self.read_bytes().decode("utf-8")


class DatumWriter:
    """Writes arbitrary data matching a :class:`Schema`."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def write(self, datum: Any, encoder: BinaryEncoder) -> None:
        self._write(self.schema, datum, encoder)

    def _write(self, schema: Schema, datum: Any, enc: BinaryEncoder) -> None:
        if schema.nullable:
            if datum is None:
                enc.write_long(0)
                return
            enc.write_long(1)
        elif datum is None and schema.kind != "null":
            raise SchemaError(f"None is not valid for non-nullable {schema.kind}")
        kind = schema.kind
        if kind == "null":
            return
        if kind == "boolean":
            enc.write_boolean(bool(datum))
        elif kind in ("int", "long"):
            value = int(datum)
            # The wire format is 64-bit: the encoder masks to 64 bits, so an
            # out-of-range value would silently wrap and decode as a
            # *different* number.  Refuse it here instead — a loud write-time
            # error is symmetric, a corrupted round trip is not.
            if not INT64_MIN <= value <= INT64_MAX:
                raise SchemaError(
                    f"value {value} out of 64-bit range for kind {kind!r}"
                )
            enc.write_long(value)
        elif kind == "float":
            enc.write_float(float(datum))
        elif kind == "double":
            enc.write_double(float(datum))
        elif kind == "bytes":
            enc.write_bytes(bytes(datum))
        elif kind == "string":
            enc.write_string(str(datum))
        elif kind == "record":
            values = schema._record_values(datum)
            for (__, field_schema), value in zip(schema.fields, values):
                self._write(field_schema, value, enc)
        elif kind == "array":
            assert schema.items is not None
            items = list(datum)
            if items:
                enc.write_long(len(items))
                for item in items:
                    self._write(schema.items, item, enc)
            enc.write_long(0)
        else:  # pragma: no cover - schema kinds are validated at construction
            raise SchemaError(f"cannot encode kind {kind!r}")


class DatumReader:
    """Reads data written by :class:`DatumWriter` with the same schema."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def read(self, decoder: BinaryDecoder) -> Any:
        return self._read(self.schema, decoder)

    def _read(self, schema: Schema, dec: BinaryDecoder) -> Any:
        if schema.nullable:
            branch = dec.read_long()
            if branch == 0:
                return None
            if branch != 1:
                raise SchemaError(f"invalid union branch: {branch}")
        kind = schema.kind
        if kind == "null":
            return None
        if kind == "boolean":
            return dec.read_boolean()
        if kind in ("int", "long"):
            return dec.read_long()
        if kind == "float":
            return dec.read_float()
        if kind == "double":
            return dec.read_double()
        if kind == "bytes":
            return dec.read_bytes()
        if kind == "string":
            return dec.read_string()
        if kind == "record":
            return tuple(
                self._read(field_schema, dec) for __, field_schema in schema.fields
            )
        if kind == "array":
            assert schema.items is not None
            out: List[Any] = []
            while True:
                count = dec.read_long()
                if count == 0:
                    break
                if count < 0:
                    # Avro allows negative counts followed by a byte size.
                    count = -count
                    dec.read_long()
                for __ in range(count):
                    out.append(self._read(schema.items, dec))
            return out
        raise SchemaError(f"cannot decode kind {kind!r}")  # pragma: no cover


# ---------------------------------------------------------- container
CONTAINER_MAGIC = b"Obj\x01"
DEFAULT_BLOCK_ROWS = 4096


def _sync_marker(schema: Schema, codec: str) -> bytes:
    digest = hashlib.sha256(schema.dumps().encode() + codec.encode()).digest()
    return digest[:16]


class ContainerWriter:
    """Builds a container file in memory, block by block."""

    def __init__(
        self,
        schema: Schema,
        codec: str = "null",
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ):
        if block_rows <= 0:
            raise SchemaError(f"block_rows must be positive: {block_rows}")
        self.schema = schema
        self.codec = codec
        self.block_rows = block_rows
        self._writer = DatumWriter(schema)
        self._sync = _sync_marker(schema, codec)
        self._header = self._build_header()
        self._blocks: List[bytes] = []
        self._pending = BinaryEncoder()
        self._pending_rows = 0
        self.rows_written = 0

    def _build_header(self) -> bytes:
        enc = BinaryEncoder()
        enc.write_raw(CONTAINER_MAGIC)
        meta = {
            "avro.schema": self.schema.dumps().encode(),
            "avro.codec": self.codec.encode(),
        }
        enc.write_long(len(meta))
        for key, value in sorted(meta.items()):
            enc.write_string(key)
            enc.write_bytes(value)
        enc.write_long(0)  # end of metadata map
        enc.write_raw(self._sync)
        return enc.getvalue()

    def append(self, datum: Any) -> None:
        self._writer.write(datum, self._pending)
        self._pending_rows += 1
        self.rows_written += 1
        if self._pending_rows >= self.block_rows:
            self._flush_block()

    def extend(self, data: Iterable[Any]) -> None:
        for datum in data:
            self.append(datum)

    def _flush_block(self) -> None:
        if self._pending_rows == 0:
            return
        payload = compress_block(self.codec, self._pending.getvalue())
        enc = BinaryEncoder()
        enc.write_long(self._pending_rows)
        enc.write_long(len(payload))
        enc.write_raw(payload)
        enc.write_raw(self._sync)
        self._blocks.append(enc.getvalue())
        self._pending = BinaryEncoder()
        self._pending_rows = 0

    def getvalue(self) -> bytes:
        self._flush_block()
        return self._header + b"".join(self._blocks)


class ContainerReader:
    """Reads a container file produced by :class:`ContainerWriter`."""

    def __init__(self, data: bytes):
        dec = BinaryDecoder(data)
        if dec.read_raw(4) != CONTAINER_MAGIC:
            raise SchemaError("not an Avro container file (bad magic)")
        meta = {}
        while True:
            count = dec.read_long()
            if count == 0:
                break
            if count < 0:
                count = -count
                dec.read_long()
            for __ in range(count):
                key = dec.read_string()
                meta[key] = dec.read_bytes()
        try:
            self.schema = Schema.loads(meta["avro.schema"].decode())
        except KeyError:
            raise SchemaError("container missing avro.schema metadata") from None
        self.codec = meta.get("avro.codec", b"null").decode()
        self._sync = dec.read_raw(16)
        self._dec = dec
        self._reader = DatumReader(self.schema)

    def __iter__(self) -> Iterator[Any]:
        dec = self._dec
        while not dec.exhausted:
            count = dec.read_long()
            size = dec.read_long()
            payload = decompress_block(self.codec, dec.read_raw(size))
            if dec.read_raw(16) != self._sync:
                raise SchemaError("sync marker mismatch (corrupt container)")
            block = BinaryDecoder(payload)
            for __ in range(count):
                yield self._reader.read(block)

    def read_all(self) -> List[Any]:
        return list(self)


def encode_rows(
    schema: Schema,
    rows: Sequence[Any],
    codec: str = "deflate",
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> bytes:
    """Encode ``rows`` into a complete container file."""
    writer = ContainerWriter(schema, codec=codec, block_rows=block_rows)
    writer.extend(rows)
    return writer.getvalue()


def decode_rows(data: bytes, expected_schema: Optional[Schema] = None) -> List[Any]:
    """Decode every row of a container file, optionally checking its schema."""
    reader = ContainerReader(data)
    if expected_schema is not None and reader.schema != expected_schema:
        raise SchemaError(
            f"container schema {reader.schema.dumps()} does not match "
            f"expected {expected_schema.dumps()}"
        )
    return reader.read_all()


# ---------------------------------------------------------- columnar
COLUMNAR_MAGIC = b"PQL1"


def write_columnar(schema: Schema, rows: Sequence[Tuple[Any, ...]]) -> bytes:
    """Encode rows (tuples matching a record schema) into a columnar file."""
    if schema.kind != "record":
        raise SchemaError("columnar files require a record schema")
    header = BinaryEncoder()
    header.write_raw(COLUMNAR_MAGIC)
    header.write_string(schema.dumps())
    header.write_long(len(rows))
    chunks: List[bytes] = []
    for position, (name, field_schema) in enumerate(schema.fields):
        writer = DatumWriter(field_schema)
        enc = BinaryEncoder()
        for row in rows:
            writer.write(row[position], enc)
        compressed = zlib.compress(enc.getvalue(), 6)
        chunk_header = BinaryEncoder()
        chunk_header.write_string(name)
        chunk_header.write_long(len(compressed))
        chunks.append(chunk_header.getvalue() + compressed)
    return header.getvalue() + b"".join(chunks)


def _read_frame(dec: BinaryDecoder) -> Tuple[Schema, List[Tuple[Any, ...]]]:
    if dec.read_raw(4) != COLUMNAR_MAGIC:
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
        reader = DatumReader(field_schema)
        chunk_dec = BinaryDecoder(payload)
        columns.append([reader.read(chunk_dec) for __ in range(nrows)])
    rows = [tuple(column[i] for column in columns) for i in range(nrows)]
    return schema, rows


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
