"""Binary encoding and decoding, following the Avro wire format.

Integers use zigzag-then-varint encoding; floats/doubles are IEEE 754
little-endian; bytes and strings are length-prefixed; record fields are
concatenated in schema order; arrays are written as a single block with a
count followed by a zero terminator; nullable values are unions encoded as
a branch index (0 = null, 1 = value).

**Compiled codecs.**  A :class:`Schema` is compiled once into a
:class:`Codec`, a set of closures chosen by kind, and the codec is held on
the schema object itself (no cache outside it).  There is no per-value
kind dispatch left:

- ``encode_values``/``encode_column`` encode a list of values of the
  schema at a time.  A record's ``encode_column`` is a whole block of
  rows: it transposes the rows, encodes each field's column and
  interleaves the pieces back into row order.  Fixed-width columns pack
  with one ``struct`` call per chunk (``'<nd'``); a nullable double
  column with no NULL then gets its branch bytes interleaved by strided
  slice copies.
- ``decode``/``decode_column`` read one value or ``n`` values from
  ``(data, pos)``.  A nullable double chunk whose branch bytes
  ``payload[0::9]`` are all ``0x02`` drops them by strided copies and
  unpacks with one ``'<nd'`` call, and varints take a one-byte fast
  path.  Formats stay one code long, so ``struct``'s format cache holds
  nothing the size of a chunk.

Every encoder converts and checks each value as a value-by-value
writer would (``int()``/``float()``/``str()``/``bytes()``, the 64-bit
range, ``None`` in a non-nullable field), in value order, so it raises
the same error for the same first bad value.  A fast path that cannot
vouch for its input (a non-float in a double column, rows that are not
plain tuples of the record's width, any error) falls back to the
value-ordered encoding, and a block of rows falls back to row-major
order, so an error surfaces at the row and field a row-by-row writer
would reach first.
Decoders raise the same :class:`SchemaError` messages for truncation,
an overlong varint and an invalid union branch.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from typing import Any, Callable, List, Sequence, Tuple

from repro.avrolite.schema import Schema, SchemaError

_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")

#: Avro int/long are 64-bit two's complement on the wire
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

#: one-byte varints (zigzag values below 0x80), bare and after branch 1
_ONE_BYTE = [bytes((value,)) for value in range(0x80)]
_BRANCHED_ONE_BYTE = [b"\x02" + one for one in _ONE_BYTE]

#: (data, pos) -> (value, new pos)
Decode = Callable[[Any, int], Tuple[Any, int]]
#: (data, pos, n) -> (n values, new pos)
DecodeColumn = Callable[[Any, int, int], Tuple[List[Any], int]]


def zigzag_encode(value: int) -> int:
    # Python's arithmetic right shift makes this work for both signs.
    return (value << 1) ^ (value >> 63)


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _varint(encoded: int) -> bytes:
    """Base-128 varint of a non-negative (zigzagged) value."""
    if encoded < 0x80:
        return _ONE_BYTE[encoded]
    if encoded < 0x4000:
        return bytes((encoded & 0x7F | 0x80, encoded >> 7))
    if encoded < 0x200000:
        return bytes((encoded & 0x7F | 0x80, encoded >> 7 & 0x7F | 0x80,
                      encoded >> 14))
    out = bytearray()
    while encoded > 0x7F:
        out.append((encoded & 0x7F) | 0x80)
        encoded >>= 7
    out.append(encoded)
    return bytes(out)


def long_bytes(value: int) -> bytes:
    """The Avro encoding of a long: zigzag, masked to 64 bits, varint."""
    return _varint(((value << 1) ^ (value >> 63)) & _MASK64)


def read_long(data: Any, pos: int) -> Tuple[int, int]:
    """Decode the varint long at ``pos``; returns (value, new pos)."""
    if pos < len(data):
        byte = data[pos]
        if byte < 0x80:
            return (byte >> 1) ^ -(byte & 1), pos + 1
    shift = 0
    accum = 0
    size = len(data)
    while True:
        if pos >= size:
            raise SchemaError("unexpected end of varint")
        byte = data[pos]
        pos += 1
        accum |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > 70:
            raise SchemaError("varint too long")
    return (accum >> 1) ^ -(accum & 1), pos


def _truncated() -> SchemaError:
    return SchemaError("unexpected end of Avro data")


def _read_branch(data: Any, pos: int) -> Tuple[bool, int]:
    """A nullable value's union branch: (value present?, new pos)."""
    if pos < len(data):
        byte = data[pos]
        if byte == 2:
            return True, pos + 1
        if byte == 0:
            return False, pos + 1
    branch, pos = read_long(data, pos)
    if branch == 0:
        return False, pos
    if branch != 1:
        raise SchemaError(f"invalid union branch: {branch}")
    return True, pos


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
        self._buffer.extend(long_bytes(value))

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
            raise _truncated()
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_long(self) -> int:
        value, self._pos = read_long(self._data, self._pos)
        return value

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


# ------------------------------------------------------------ compiled codecs
class Codec:
    """One schema compiled to closures (see the module docstring)."""

    __slots__ = ("encode_values", "encode_column", "decode", "decode_column")

    def __init__(
        self,
        encode_values: Callable[[Sequence[Any]], List[bytes]],
        decode: Decode,
        encode_column: Callable[[Sequence[Any]], bytes] = None,  # type: ignore[assignment]
        decode_column: DecodeColumn = None,  # type: ignore[assignment]
    ):
        #: values -> the encoding of each value, raising in value order
        self.encode_values = encode_values
        #: values -> their concatenated encoding (a column chunk, or for a
        #: record schema a block of rows)
        self.encode_column = encode_column or (
            lambda values: b"".join(encode_values(values)))
        self.decode = decode
        self.decode_column = decode_column or _repeat_decode(decode)


def compile_schema(schema: Schema) -> Codec:
    """The schema's codec, compiled on first use and kept on the schema."""
    codec = schema.__dict__.get("_codec")
    if codec is None:
        codec = schema.__dict__["_codec"] = _compile(schema)
    return codec


def _repeat_decode(decode: Decode) -> DecodeColumn:
    def decode_column(data: Any, pos: int, n: int) -> Tuple[List[Any], int]:
        out = []
        append = out.append
        for __ in range(n):
            value, pos = decode(data, pos)
            append(value)
        return out, pos

    return decode_column


def _compile(schema: Schema) -> Codec:
    kind = schema.kind
    nullable = schema.nullable
    if kind == "null":
        return _null_codec(nullable)
    if kind in ("int", "long"):
        return _long_codec(kind, nullable)
    if kind in ("float", "double"):
        return _real_codec(kind, nullable)
    if kind in ("bytes", "string"):
        return _sized_codec(kind, nullable)
    if kind == "boolean":
        return _boolean_codec(nullable)
    if kind == "record":
        return _nullable(schema, _record_codec(schema))
    if kind == "array":
        return _nullable(schema, _array_codec(schema))
    raise SchemaError(f"cannot encode kind {kind!r}")  # pragma: no cover


def _none_error(kind: str) -> SchemaError:
    return SchemaError(f"None is not valid for non-nullable {kind}")


def _null_codec(nullable: bool) -> Codec:
    def encode_values(values: Sequence[Any]) -> List[bytes]:
        if nullable:
            return [b"\x00" if value is None else b"\x02" for value in values]
        return [b""] * len(values)

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        if nullable:
            __, pos = _read_branch(data, pos)
        return None, pos

    return Codec(encode_values, decode)


def _long_codec(kind: str, nullable: bool) -> Codec:
    ones = _BRANCHED_ONE_BYTE if nullable else _ONE_BYTE
    prefix = b"\x02" if nullable else b""

    def encode_values(values: Sequence[Any]) -> List[bytes]:
        if (values and set(map(type, values)) == {int}
                and INT64_MIN <= min(values) and max(values) <= INT64_MAX):
            # Plain in-range ints: the checks below, made once per column.
            return [ones[encoded] if encoded < 0x80
                    else prefix + _varint(encoded)
                    for encoded in [(v << 1) ^ (v >> 63) for v in values]]
        out = []
        append = out.append
        for value in values:
            if value is None:
                if nullable:
                    append(b"\x00")
                    continue
                raise _none_error(kind)
            if type(value) is not int:
                value = int(value)
            # The wire format is 64-bit: an out-of-range value would wrap
            # and decode as a *different* number, so refuse it here.
            if not INT64_MIN <= value <= INT64_MAX:
                raise SchemaError(
                    f"value {value} out of 64-bit range for kind {kind!r}"
                )
            encoded = (value << 1) ^ (value >> 63)
            append(ones[encoded] if encoded < 0x80
                   else prefix + _varint(encoded))
        return out

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        if nullable:
            present, pos = _read_branch(data, pos)
            if not present:
                return None, pos
        return read_long(data, pos)

    def decode_column(data: Any, pos: int, n: int) -> Tuple[List[Any], int]:
        out: List[Any] = []
        append = out.append
        size = len(data)
        for __ in range(n):
            if nullable:
                byte = data[pos] if pos < size else -1
                if byte == 2:
                    pos += 1
                elif byte == 0:
                    append(None)
                    pos += 1
                    continue
                else:
                    present, pos = _read_branch(data, pos)
                    if not present:
                        append(None)
                        continue
            if pos < size:
                byte = data[pos]
                if byte < 0x80:
                    append((byte >> 1) ^ -(byte & 1))
                    pos += 1
                    continue
            value, pos = read_long(data, pos)
            append(value)
        return out, pos

    return Codec(encode_values, decode, decode_column=decode_column)


def _real_codec(kind: str, nullable: bool) -> Codec:
    """float (4-byte) and double (8-byte) IEEE 754, little-endian."""
    code = "f" if kind == "float" else "d"
    width = 4 if kind == "float" else 8
    single = struct.Struct("<" + code)
    branched = struct.Struct("<B" + code)
    pack, unpack_from = single.pack, single.unpack_from
    step = width + 1 if nullable else width

    def encode_values(values: Sequence[Any]) -> List[bytes]:
        if set(map(type, values)) <= {float}:
            if nullable:
                return list(map(branched.pack, repeat(2, len(values)), values))
            return list(map(pack, values))
        out = []
        append = out.append
        for value in values:
            if value is None:
                if nullable:
                    append(b"\x00")
                    continue
                raise _none_error(kind)
            append(branched.pack(2, float(value)) if nullable
                   else pack(float(value)))
        return out

    def encode_column(values: Sequence[Any]) -> bytes:
        n = len(values)
        if n and set(map(type, values)) == {float}:
            try:
                packed = struct.pack(f"<{n}{code}", *values)
            except (struct.error, OverflowError):
                pass  # the value-ordered path raises the exact error
            else:
                if not nullable:
                    return packed
                # Interleave a branch byte before each value: one strided
                # copy per byte of the width.
                chunk = bytearray(step * n)
                chunk[0::step] = b"\x02" * n
                for offset in range(width):
                    chunk[1 + offset::step] = packed[offset::width]
                return bytes(chunk)
        return b"".join(encode_values(values))

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        if nullable:
            present, pos = _read_branch(data, pos)
            if not present:
                return None, pos
        end = pos + width
        if end > len(data):
            raise _truncated()
        return unpack_from(data, pos)[0], end

    def decode_column(data: Any, pos: int, n: int) -> Tuple[List[Any], int]:
        end = pos + step * n
        if n > 0 and end <= len(data):
            if not nullable:
                return list(struct.unpack_from(f"<{n}{code}", data, pos)), end
            chunk = data[pos:end]
            if chunk[0::step] == b"\x02" * n:
                # No NULL: drop the branch bytes (one strided copy per
                # byte of the width), then unpack every value at once.
                packed = bytearray(width * n)
                for offset in range(width):
                    packed[offset::width] = chunk[1 + offset::step]
                return list(struct.unpack(f"<{n}{code}", packed)), end
        return _repeat_decode(decode)(data, pos, n)

    return Codec(encode_values, decode, encode_column, decode_column)


def _sized_codec(kind: str, nullable: bool) -> Codec:
    """bytes and string: a varint length, then the (UTF-8) bytes."""
    ones = _BRANCHED_ONE_BYTE if nullable else _ONE_BYTE
    prefix = b"\x02" if nullable else b""
    text = kind == "string"

    def encode_values(values: Sequence[Any]) -> List[bytes]:
        out = []
        append = out.append
        for value in values:
            if value is None:
                if nullable:
                    append(b"\x00")
                    continue
                raise _none_error(kind)
            if text:
                data = (value if type(value) is str else str(value)).encode(
                    "utf-8")
            else:
                data = bytes(value)
            encoded = len(data) << 1
            append((ones[encoded] if encoded < 0x80
                    else prefix + _varint(encoded)) + data)
        return out

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        if nullable:
            present, pos = _read_branch(data, pos)
            if not present:
                return None, pos
        length, pos = read_long(data, pos)
        if length < 0:
            raise SchemaError(f"negative bytes length: {length}")
        end = pos + length
        if end > len(data):
            raise _truncated()
        raw = data[pos:end]
        return (raw.decode("utf-8") if text else raw), end

    return Codec(encode_values, decode)


def _boolean_codec(nullable: bool) -> Codec:
    true, false = (b"\x02\x01", b"\x02\x00") if nullable else (b"\x01", b"\x00")

    def encode_values(values: Sequence[Any]) -> List[bytes]:
        out = []
        append = out.append
        for value in values:
            if value is None:
                if nullable:
                    append(b"\x00")
                    continue
                raise _none_error("boolean")
            append(true if value else false)
        return out

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        if nullable:
            present, pos = _read_branch(data, pos)
            if not present:
                return None, pos
        if pos + 1 > len(data):
            raise _truncated()
        return data[pos] != 0, pos + 1

    return Codec(encode_values, decode)


def _nullable(schema: Schema, inner: Codec) -> Codec:
    """Wrap a record/array codec in the ``["null", T]`` union if needed."""
    if not schema.nullable:
        return inner
    encode_inner, decode_inner = inner.encode_values, inner.decode

    def encode_values(values: Sequence[Any]) -> List[bytes]:
        return [b"\x00" if value is None else b"\x02" + encode_inner([value])[0]
                for value in values]

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        present, pos = _read_branch(data, pos)
        if not present:
            return None, pos
        return decode_inner(data, pos)

    return Codec(encode_values, decode)


def _fixed_code(schema: Schema) -> str:
    """The ``struct`` code of a float/double field, else ''."""
    return {"float": "f", "double": "d"}.get(schema.kind, "")


def _runs(schema: Schema) -> List[Tuple[int, int]]:
    """``(start, stop)`` field spans for a record's row codec.

    Two or more adjacent float/double fields of one nullability form a
    *run*, coded with one ``struct`` per row; every other field is a span
    of its own.
    """
    spans: List[Tuple[int, int]] = []
    fields = [field for __, field in schema.fields]
    start = 0
    while start < len(fields):
        stop = start + 1
        if _fixed_code(fields[start]):
            while (stop < len(fields) and _fixed_code(fields[stop])
                   and fields[stop].nullable == fields[start].nullable):
                stop += 1
        if stop - start < 2:
            stop = start + 1
        spans.append((start, stop))
        start = stop
    return spans


def _run_struct(fields: Sequence[Schema]) -> struct.Struct:
    """One row's worth of a run: ``B`` (branch 1) before each value when
    the run is nullable."""
    prefix = "B" if fields[0].nullable else ""
    return struct.Struct("<" + "".join(prefix + _fixed_code(f) for f in fields))


def _record_codec(schema: Schema) -> Codec:
    fields = [compile_schema(field) for __, field in schema.fields]
    width = len(fields)
    encoders = [field.encode_values for field in fields]
    decoders = [field.decode for field in fields]
    shapes = {tuple, list}
    kind = schema.kind
    spans = _runs(schema)
    field_schemas = [field for __, field in schema.fields]

    def run_encoder(start: int, stop: int) -> Callable[[List[Sequence[Any]]],
                                                      List[bytes]]:
        if stop - start == 1:
            encode = encoders[start]
            return lambda columns: encode(columns[start])
        packer = _run_struct(field_schemas[start:stop]).pack
        nullable = field_schemas[start].nullable
        run_encoders = encoders[start:stop]

        def encode_run(columns: List[Sequence[Any]]) -> List[bytes]:
            run = columns[start:stop]
            if all(set(map(type, column)) == {float} for column in run):
                if nullable:
                    twos = repeat(2)
                    args: List[Any] = []
                    for column in run:
                        args += [twos, column]
                    return list(map(packer, *args))
                return list(map(packer, *run))
            # Value checks and conversions, field by field.
            pieces = [encode(column) for encode, column in zip(run_encoders, run)]
            return list(map(b"".join, zip(*pieces)))

        return encode_run

    def run_decoder(start: int, stop: int) -> Tuple[bool, Decode]:
        if stop - start == 1:
            return False, decoders[start]
        layout = _run_struct(field_schemas[start:stop])
        unpack_from, size = layout.unpack_from, layout.size
        nullable = field_schemas[start].nullable
        twos = (2,) * (stop - start)
        run_decoders = decoders[start:stop]

        def decode_run(data: Any, pos: int) -> Tuple[Any, int]:
            end = pos + size
            if end <= len(data):
                values = unpack_from(data, pos)
                if not nullable:
                    return values, end
                if values[0::2] == twos:
                    return values[1::2], end
            out = []
            for read in run_decoders:
                value, pos = read(data, pos)
                out.append(value)
            return out, pos

        return True, decode_run

    run_encoders = [run_encoder(start, stop) for start, stop in spans]
    steps = [run_decoder(start, stop) for start, stop in spans]

    def encode_values(rows: Sequence[Any]) -> List[bytes]:
        """Row-major, value by value: the order errors must surface in."""
        out = []
        for row in rows:
            if row is None:
                raise _none_error(kind)
            values = schema._record_values(row)
            out.append(b"".join(
                encode([value])[0] for encode, value in zip(encoders, values)
            ))
        return out

    def encode_column(rows: Sequence[Any]) -> bytes:
        """A block of rows: each span's column(s) at once, then interleaved."""
        if (rows and width and set(map(type, rows)) <= shapes
                and set(map(len, rows)) == {width}):
            columns = list(zip(*rows))
            try:
                pieces = [encode(columns) for encode in run_encoders]
            except Exception:  # noqa: BLE001 - re-raised in row order below
                pass
            else:
                return b"".join(chain.from_iterable(zip(*pieces)))
        return b"".join(encode_values(rows))

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        rows, pos = decode_column(data, pos, 1)
        return rows[0], pos

    def decode_column(data: Any, pos: int, n: int) -> Tuple[List[Any], int]:
        out = []
        append = out.append
        for __ in range(n):
            values: List[Any] = []
            for is_run, read in steps:
                value, pos = read(data, pos)
                if is_run:
                    values.extend(value)
                else:
                    values.append(value)
            append(tuple(values))
        return out, pos

    return Codec(encode_values, decode, encode_column, decode_column)


def _array_codec(schema: Schema) -> Codec:
    assert schema.items is not None
    items_codec = compile_schema(schema.items)
    encode_items, decode_item = items_codec.encode_values, items_codec.decode

    def encode_values(values: Sequence[Any]) -> List[bytes]:
        out = []
        for value in values:
            if value is None:
                raise _none_error("array")
            items = list(value)
            if items:
                out.append(long_bytes(len(items))
                           + b"".join(encode_items(items)) + b"\x00")
            else:
                out.append(b"\x00")
        return out

    def decode(data: Any, pos: int) -> Tuple[Any, int]:
        out: List[Any] = []
        while True:
            count, pos = read_long(data, pos)
            if count == 0:
                break
            if count < 0:
                # Avro allows negative counts followed by a byte size.
                count = -count
                __, pos = read_long(data, pos)
            for __ in range(count):
                item, pos = decode_item(data, pos)
                out.append(item)
        return out, pos

    return Codec(encode_values, decode)


class DatumWriter:
    """Writes arbitrary data matching a :class:`Schema`."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._codec = compile_schema(schema)

    def write(self, datum: Any, encoder: BinaryEncoder) -> None:
        encoder.write_raw(self._codec.encode_values([datum])[0])


class DatumReader:
    """Reads data written by :class:`DatumWriter` with the same schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._codec = compile_schema(schema)

    def read(self, decoder: BinaryDecoder) -> Any:
        value, decoder._pos = self._codec.decode(decoder._data, decoder._pos)
        return value
