"""An Avro-like binary serialization format, implemented from scratch.

The paper's S2V path encodes each task's rows in Apache Avro before
streaming them to Vertica's COPY interface (§3.2.2): a binary,
self-describing, delimiter-free format with optional compression.  This
package reproduces the parts of the Avro 1.x specification the connector
needs:

- :mod:`repro.avrolite.schema` — primitive/record/array/nullable schemas
  with JSON round-trips,
- :mod:`repro.avrolite.codec` — null and deflate block codecs,
- :mod:`repro.avrolite.io` — zigzag/varint binary encoding and decoding,
  with each schema compiled once into a codec of per-kind closures that
  encode and decode whole columns and row blocks,
- :mod:`repro.avrolite.container` — blocked object container files with
  sync markers.
"""

from repro.avrolite.schema import Schema, SchemaError
from repro.avrolite.io import BinaryDecoder, BinaryEncoder, DatumReader, DatumWriter
from repro.avrolite.codec import CODECS, CodecError, decompress_block, compress_block
from repro.avrolite.container import ContainerReader, ContainerWriter, encode_rows, decode_rows

__all__ = [
    "BinaryDecoder",
    "BinaryEncoder",
    "CODECS",
    "CodecError",
    "ContainerReader",
    "ContainerWriter",
    "DatumReader",
    "DatumWriter",
    "Schema",
    "SchemaError",
    "compress_block",
    "decode_rows",
    "decompress_block",
    "encode_rows",
]
