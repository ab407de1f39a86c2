"""Differential proof that the schema-compiled codecs equal the frozen ones.

``tests.reference_codecs`` is a verbatim copy of the per-value
interpretive codecs.  For hypothesis-generated schemas and data, every
test here demands the same outcome from both sides:

- the same bytes from ``DatumWriter``, ``encode_rows`` (multi-block
  containers with small ``block_rows``, both block codecs) and
  ``write_columnar``;
- the same decoded values, compared type-exactly (``1``, ``1.0`` and
  ``True`` stay apart; floats by their bit pattern, so NaN, infinities
  and ``-0.0`` count);
- on invalid input — data that violates the schema, truncated or
  corrupted payloads, concatenated frames — the same exception type and
  message.
"""

import math
import struct
import zlib

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tests.reference_codecs as ref
from repro.avrolite import (
    BinaryDecoder,
    BinaryEncoder,
    ContainerReader,
    DatumReader,
    DatumWriter,
    Schema,
    decode_rows,
    encode_rows,
)
from repro.hdfs.columnar import read_columnar, read_columnar_concat, write_columnar

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

SCALAR_KINDS = ["null", "boolean", "int", "long", "float", "double", "bytes",
                "string"]
#: kinds a columnar/COPY field usually carries
FIELD_KINDS = ["boolean", "int", "long", "float", "double", "bytes", "string"]


def canon(value):
    """Type-exact, NaN-safe rendering of a decoded value."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(item) for item in value])
    return (type(value).__name__, value)


def outcome(fn, *args, **kwargs):
    """("ok", canonical result) or ("err", exception type, message)."""
    try:
        return ("ok", canon(fn(*args, **kwargs)))
    except Exception as error:  # noqa: BLE001 - compared structurally
        return ("err", type(error).__name__, str(error))


# ------------------------------------------------------------- strategies
longs = st.one_of(
    st.sampled_from([0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192,
                     2**31 - 1, -(2**31), INT64_MAX, INT64_MIN,
                     INT64_MAX - 1, INT64_MIN + 1]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
doubles = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.25,
                     1e308, 5e-324]),
    st.floats(),
)
floats32 = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.5]),
    st.floats(width=32),
)

VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "int": longs,
    "long": longs,
    "float": floats32,
    "double": doubles,
    "bytes": st.binary(max_size=20),
    "string": st.text(max_size=12),
}


@st.composite
def primitive_schemas(draw, kinds=SCALAR_KINDS):
    return Schema.primitive(draw(st.sampled_from(kinds)),
                            nullable=draw(st.booleans()))


@st.composite
def record_schemas(draw, nested=True):
    count = draw(st.integers(min_value=1, max_value=6))
    fields = []
    for index in range(count):
        if nested and draw(st.integers(min_value=0, max_value=9)) == 0:
            field = Schema.array(draw(primitive_schemas()))
        else:
            # doubles and floats weigh extra: adjacent ones form the
            # fixed-width runs a record codes with one struct per row
            field = draw(primitive_schemas(
                FIELD_KINDS + ["null", "double", "double", "float"]))
        fields.append((f"f{index}", field))
    return Schema.record("row", fields)


def datum_strategy(schema):
    """Valid data for ``schema``."""
    if schema.kind == "record":
        inner = st.tuples(*[datum_strategy(s) for __, s in schema.fields])
    elif schema.kind == "array":
        inner = st.lists(datum_strategy(schema.items), max_size=4)
    else:
        inner = VALUES[schema.kind]
    return st.one_of(st.none(), inner) if schema.nullable else inner


#: values that break some schema: out-of-range ints, wrong types, strings
#: that do or do not parse, None where it is not allowed
WILD = st.one_of(
    st.none(),
    st.sampled_from([INT64_MAX + 1, INT64_MIN - 1, 1 << 70, "12", "x", "1.5",
                     b"ab", True, 2.5, float("nan"), 1e300, [1, 2], (1,),
                     -7, 3]),
    st.integers(), st.floats(), st.text(max_size=4),
)


def wild_datum(schema):
    """Mostly valid data for ``schema``, with wild values mixed in."""
    if schema.kind == "record":
        inner = st.one_of(
            st.tuples(*[wild_datum(s) for __, s in schema.fields]),
            st.lists(WILD, max_size=len(schema.fields) + 1),
        )
    elif schema.kind == "array":
        inner = st.lists(wild_datum(schema.items), max_size=3)
    else:
        inner = VALUES[schema.kind]
    return st.one_of(inner, WILD)


@st.composite
def schema_and_rows(draw, nested=True, max_rows=30, wild=False):
    schema = draw(record_schemas(nested=nested))
    rows = draw(st.lists((wild_datum if wild else datum_strategy)(schema),
                         max_size=max_rows))
    return schema, rows


# ------------------------------------------------------------------- datum
def encode_datums(writer_cls, encoder_cls, schema, datums):
    encoder = encoder_cls()
    writer = writer_cls(schema)
    for datum in datums:
        writer.write(datum, encoder)
    return encoder.getvalue()


def decode_datums(reader_cls, decoder_cls, schema, data, count):
    decoder = decoder_cls(data)
    reader = reader_cls(schema)
    values = [reader.read(decoder) for __ in range(count)]
    return values + [decoder.pos]


@st.composite
def any_schema_and_datums(draw):
    kind = draw(st.sampled_from(["primitive", "record", "array"]))
    if kind == "primitive":
        schema = draw(primitive_schemas())
    elif kind == "record":
        schema = draw(record_schemas())
    else:
        schema = Schema.array(draw(st.one_of(primitive_schemas(),
                                             record_schemas(nested=False))))
    datums = draw(st.lists(datum_strategy(schema), max_size=8))
    return schema, datums


class TestDatum:
    @given(any_schema_and_datums())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bytes_and_values_match(self, case):
        schema, datums = case
        expected = outcome(encode_datums, ref.DatumWriter, ref.BinaryEncoder,
                           schema, datums)
        actual = outcome(encode_datums, DatumWriter, BinaryEncoder, schema,
                         datums)
        assert actual == expected
        if expected[0] == "ok":
            data = encode_datums(ref.DatumWriter, ref.BinaryEncoder, schema,
                                 datums)
            assert outcome(decode_datums, DatumReader, BinaryDecoder, schema,
                           data, len(datums)) == outcome(
                decode_datums, ref.DatumReader, ref.BinaryDecoder, schema,
                data, len(datums))

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_invalid_data_raises_the_same(self, data):
        schema = data.draw(st.one_of(primitive_schemas(), record_schemas()))
        datums = data.draw(st.lists(wild_datum(schema), min_size=1,
                                    max_size=4))
        assert outcome(encode_datums, DatumWriter, BinaryEncoder, schema,
                       datums) == outcome(encode_datums, ref.DatumWriter,
                                          ref.BinaryEncoder, schema, datums)

    @given(any_schema_and_datums(), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_corrupt_payload_decodes_the_same(self, case, data):
        schema, datums = case
        assume(datums)
        payload = corrupt(data, encode_datums(ref.DatumWriter,
                                              ref.BinaryEncoder, schema, datums))
        count = len(datums) + data.draw(st.integers(min_value=0, max_value=2))
        assert outcome(decode_datums, DatumReader, BinaryDecoder, schema,
                       payload, count) == outcome(
            decode_datums, ref.DatumReader, ref.BinaryDecoder, schema,
            payload, count)


def corrupt(data, payload):
    """Truncate, flip a byte, splice in overlong varints, or append junk."""
    how = data.draw(st.sampled_from(["truncate", "flip", "varint", "append",
                                     "keep"]))
    if how == "keep" or not payload:
        return payload
    at = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    if how == "truncate":
        return payload[:at]
    if how == "flip":
        byte = data.draw(st.integers(min_value=0, max_value=255))
        return payload[:at] + bytes([byte]) + payload[at + 1:]
    if how == "varint":
        run = data.draw(st.integers(min_value=1, max_value=12))
        return payload[:at] + b"\xff" * run + payload[at:]
    return payload + data.draw(st.binary(min_size=1, max_size=8))


# --------------------------------------------------------------- container
class TestContainer:
    @given(schema_and_rows(), st.sampled_from([1, 2, 3, 7, 4096]),
           st.sampled_from(["null", "deflate"]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bytes_and_rows_match(self, case, block_rows, codec):
        schema, rows = case
        expected = outcome(ref.encode_rows, schema, rows, codec=codec,
                           block_rows=block_rows)
        assert outcome(encode_rows, schema, rows, codec=codec,
                       block_rows=block_rows) == expected
        payload = ref.encode_rows(schema, rows, codec=codec,
                                  block_rows=block_rows)
        assert outcome(decode_rows, payload) == outcome(ref.decode_rows,
                                                        payload)
        assert outcome(decode_rows, payload, schema) == outcome(
            ref.decode_rows, payload, schema)
        assert outcome(lambda: list(ContainerReader(payload))) == outcome(
            lambda: list(ref.ContainerReader(payload)))

    @given(schema_and_rows(wild=True, max_rows=8), st.sampled_from([1, 3]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_invalid_rows_raise_the_same(self, case, block_rows):
        schema, rows = case
        assert outcome(encode_rows, schema, rows, codec="null",
                       block_rows=block_rows) == outcome(
            ref.encode_rows, schema, rows, codec="null",
            block_rows=block_rows)

    @given(schema_and_rows(max_rows=12), st.sampled_from([1, 5]),
           st.sampled_from(["null", "deflate"]), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_corrupt_container_decodes_the_same(self, case, block_rows,
                                                codec, data):
        schema, rows = case
        payload = corrupt(data, ref.encode_rows(schema, rows, codec=codec,
                                                block_rows=block_rows))
        assert outcome(decode_rows, payload) == outcome(ref.decode_rows,
                                                        payload)

    def test_mismatched_expected_schema(self):
        schema = Schema.record("r", [("a", Schema.primitive("long"))])
        other = Schema.record("r", [("a", Schema.primitive("string"))])
        payload = ref.encode_rows(schema, [(1,)])
        assert outcome(decode_rows, payload, other) == outcome(
            ref.decode_rows, payload, other)
        assert outcome(decode_rows, b"Obj\x02") == outcome(
            ref.decode_rows, b"Obj\x02")


# ---------------------------------------------------------------- columnar
@st.composite
def frames(draw):
    schema = draw(record_schemas())
    parts = draw(st.lists(st.lists(datum_strategy(schema), max_size=10),
                          min_size=1, max_size=4))
    # empty partitions are common: a task with no rows writes a frame
    return schema, [[tuple(r) for r in part] for part in parts]


class TestColumnar:
    @given(frames())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bytes_and_rows_match(self, case):
        schema, parts = case
        for rows in parts:
            expected = outcome(ref.write_columnar, schema, rows)
            assert outcome(write_columnar, schema, rows) == expected
        payloads = [ref.write_columnar(schema, rows) for rows in parts]
        for payload in payloads:
            assert outcome(read_columnar, payload) == outcome(
                ref.read_columnar, payload)
        joined = b"".join(payloads)
        assert outcome(read_columnar_concat, joined) == outcome(
            ref.read_columnar_concat, joined)

    @given(schema_and_rows(wild=True, max_rows=8))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_invalid_rows_raise_the_same(self, case):
        schema, rows = case
        assert outcome(write_columnar, schema, rows) == outcome(
            ref.write_columnar, schema, rows)

    @given(frames(), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_corrupt_frames_decode_the_same(self, case, data):
        schema, parts = case
        joined = corrupt(data, b"".join(
            ref.write_columnar(schema, rows) for rows in parts))
        assert outcome(read_columnar_concat, joined) == outcome(
            ref.read_columnar_concat, joined)
        assert outcome(read_columnar, joined) == outcome(
            ref.read_columnar, joined)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tampered_chunks_decode_the_same(self, data):
        """Chunks re-compressed around altered content: branch bytes,
        short chunks, a renamed column and mismatched frame schemas."""
        kind = data.draw(st.sampled_from(["double", "float", "long",
                                          "string", "boolean", "bytes"]))
        nullable = data.draw(st.booleans())
        schema = Schema.record("row", [
            ("a", Schema.primitive(kind, nullable=nullable)),
            ("b", Schema.primitive("long", nullable=True)),
        ])
        rows = data.draw(st.lists(st.tuples(
            datum_strategy(schema.fields[0][1]),
            datum_strategy(schema.fields[1][1])), min_size=1, max_size=8))
        enc = ref.BinaryEncoder()
        enc.write_raw(b"PQL1")
        enc.write_string(schema.dumps())
        enc.write_long(len(rows) + data.draw(st.integers(0, 2)))
        for position, (name, field) in enumerate(schema.fields):
            chunk = ref.BinaryEncoder()
            writer = ref.DatumWriter(field)
            for row in rows:
                writer.write(row[position], chunk)
            raw = corrupt(data, chunk.getvalue())
            if data.draw(st.booleans()) and position == 1:
                name = "renamed"
            compressed = zlib.compress(raw, 6)
            enc.write_string(name)
            enc.write_long(len(compressed))
            enc.write_raw(compressed)
        payload = enc.getvalue()
        other = ref.write_columnar(
            Schema.record("row", [("a", Schema.primitive("string"))]), [("x",)])
        for blob in (payload, payload + payload, payload + other):
            assert outcome(read_columnar_concat, blob) == outcome(
                ref.read_columnar_concat, blob)
        assert outcome(read_columnar_concat, b"") == outcome(
            ref.read_columnar_concat, b"")
