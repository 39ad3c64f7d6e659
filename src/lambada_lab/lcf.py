"""LCF: a little columnar format with row groups, chunk stats and a footer.

Files are laid out as ``[row group chunks]* [footer] [footer_len: u32 LE]
[magic "LCF1"]``; everything is little-endian.  See FORMAT.md for a
hex-annotated example.  Every column is INT64, with no nulls: a footer
that names any other column type is corrupt.
"""

from __future__ import annotations

import functools
import struct
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from . import errors

MAGIC = b"LCF1"
FORMAT_VERSION = 1
FOOTER_TAIL_WINDOW = 64 * 1024

INT64 = 0  # the only column type; the footer keeps a byte for it

ENC_PLAIN = 0  # the only encoding; the footer keeps a byte for it

_LITTLE_ENDIAN_HOST = sys.byteorder == "little"
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Schema:
    names: tuple[str, ...]  # every column is INT64

    def __post_init__(self):
        if not self.names:
            raise ValueError("schema needs at least one column")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate column names")

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise errors.UnknownColumn(name) from None

    def __len__(self) -> int:
        return len(self.names)


class ColumnChunkMeta(NamedTuple):
    offset: int
    compressed_len: int
    encoding: int
    min_value: int
    max_value: int


class RowGroupMeta(NamedTuple):
    row_count: int
    chunks: tuple[ColumnChunkMeta, ...]


@dataclass(frozen=True)
class FileFooter:
    schema: Schema
    row_groups: tuple[RowGroupMeta, ...]


def _check_values(name: str, values) -> None:
    """Raise TypeMismatch, naming the column, at the first value INT64 cannot hold."""
    for value in values:
        if not isinstance(value, int):
            raise errors.TypeMismatch(
                f"column {name!r}: expected int for INT64 column, got {value!r}"
            )
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise errors.TypeMismatch(f"column {name!r}: {value!r} is outside the INT64 range")


def encode_chunk(values) -> bytes:
    """Plain encoding: the values' little-endian bytes, back to back."""
    return struct.pack(f"<{len(values)}q", *values)


def decode_chunk(
    meta: ColumnChunkMeta, data: bytes, row_count: int, rows: tuple[int, int] | None = None
) -> list:
    """Inverse of `encode_chunk`; yields exactly `row_count` values, or
    with `rows=(a, b)` only rows a to b - 1 of them.  The whole chunk is
    checked either way."""
    if len(data) != meta.compressed_len:
        raise errors.CorruptChunk(
            f"chunk has {len(data)} bytes, metadata says {meta.compressed_len}"
        )
    if meta.encoding != ENC_PLAIN:
        raise errors.CorruptChunk(f"unknown encoding id {meta.encoding}")
    if len(data) != 8 * row_count:
        raise errors.CorruptChunk("plain chunk length does not match row count")
    a, b = (0, row_count) if rows is None else rows
    if _LITTLE_ENDIAN_HOST:
        # a cast view decodes without a temporary copy of the chunk;
        # such copies raised the process's peak memory over many scans
        return memoryview(data).cast("q")[a:b].tolist()
    return list(struct.unpack_from(f"<{b - a}q", data, 8 * a))


def write_file(schema: Schema, row_groups) -> bytes:
    """Serialize column-major row groups into one LCF byte string.

    `row_groups` is a list of tables; each table is a list of per-column value
    lists in schema order.  Every chunk is plain-encoded.
    """
    body = bytearray()
    metas = []
    for table in row_groups:
        if len(table) != len(schema):
            raise errors.TypeMismatch(
                f"row group has {len(table)} columns, schema has {len(schema)}"
            )
        row_count = len(table[0])
        if row_count == 0:
            raise errors.EmptyRowGroup("row groups must be non-empty")
        chunks = []
        for name, values in zip(schema.names, table):
            if len(values) != row_count:
                raise errors.TypeMismatch("ragged row group")
            if not all(map(isinstance, values, repeat(int))):
                _check_values(name, values)
            min_value, max_value = min(values), max(values)
            if not _INT64_MIN <= min_value <= max_value <= _INT64_MAX:
                _check_values(name, values)
            encoded = encode_chunk(values)
            chunks.append(ColumnChunkMeta(len(body), len(encoded), ENC_PLAIN, min_value, max_value))
            body.extend(encoded)
        metas.append(RowGroupMeta(row_count=row_count, chunks=tuple(chunks)))
    footer = encode_footer(FileFooter(schema, tuple(metas)))
    return bytes(body) + footer + struct.pack("<I", len(footer)) + MAGIC


_FOOTER_HEAD = struct.Struct("<HH")
_NAME_LEN = struct.Struct("<H")
_GROUP_COUNT = struct.Struct("<I")


@functools.lru_cache(maxsize=64)
def _row_group_struct(ncols: int) -> struct.Struct:
    """One row group's footer entry: its row count, then per column the
    chunk's offset, lengths and encoding, and its min and max.  Readers
    skip the uncompressed length; writers write the chunk's length there."""
    return struct.Struct("<Q" + "QQQBqq" * ncols)


@functools.lru_cache(maxsize=64)
def _decode_schema(head: bytes) -> Schema:
    """The schema of a footer whose bytes up to its row-group count are
    `head`; the files of one table share it, so it is parsed once."""
    names = []
    pos = _FOOTER_HEAD.size
    while pos < len(head):
        (name_len,) = _NAME_LEN.unpack_from(head, pos)
        end = pos + 2 + name_len
        try:
            name = head[pos + 2 : end].decode("utf-8")
        except UnicodeDecodeError as err:
            raise errors.CorruptFooter(f"column name is not UTF-8: {err}")
        if head[end] != INT64:
            raise errors.CorruptFooter(f"unknown column type {head[end]}")
        names.append(name)
        pos = end + 1
    try:
        return Schema(tuple(names))
    except ValueError as err:
        raise errors.CorruptFooter(str(err))


def encode_footer(footer: FileFooter) -> bytes:
    out = bytearray(_FOOTER_HEAD.pack(FORMAT_VERSION, len(footer.schema)))
    for name in footer.schema.names:
        raw = name.encode("utf-8")
        out += _NAME_LEN.pack(len(raw)) + raw + bytes((INT64,))
    out += _GROUP_COUNT.pack(len(footer.row_groups))
    entry = _row_group_struct(len(footer.schema))
    for rg in footer.row_groups:
        fields = [rg.row_count]
        for offset, clen, encoding, min_v, max_v in rg.chunks:
            fields += (offset, clen, clen, encoding, min_v, max_v)
        out += entry.pack(*fields)
    return bytes(out)


def decode_footer(raw: bytes, data_end: int | None = None) -> FileFooter:
    """Decode a footer; with `data_end`, the footer's offset in its file,
    a column chunk that runs past it raises CorruptFooter."""
    return _decode_footer(bytes(raw), data_end)


# Replicas of a file share its footer bytes, so a worker whose footer was
# decoded before pays a lookup.  The key is the footer alone, never the
# 64 KiB tail around it, plus `data_end`, which the overlap check reads.
# A query over replicas cycles through its distinct footers, and an LRU
# cycled over more keys than it holds never hits: the bound must stay
# above the distinct footers of one query (32 files by default).
@functools.lru_cache(maxsize=256)
def _decode_footer(raw: bytes, data_end: int | None) -> FileFooter:
    if len(raw) < _FOOTER_HEAD.size:
        raise errors.CorruptFooter("footer truncated")
    version, ncols = _FOOTER_HEAD.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise errors.CorruptFooter(f"unsupported format version {version}")
    # each column is its name's length, its name and its type byte
    pos = _FOOTER_HEAD.size
    for _ in range(ncols):
        if pos + 2 > len(raw):
            raise errors.CorruptFooter("footer truncated")
        (name_len,) = _NAME_LEN.unpack_from(raw, pos)
        pos += 3 + name_len
        if pos > len(raw):
            raise errors.CorruptFooter("footer truncated")
    schema = _decode_schema(raw[:pos])
    if pos + _GROUP_COUNT.size > len(raw):
        raise errors.CorruptFooter("footer truncated")
    (ngroups,) = _GROUP_COUNT.unpack_from(raw, pos)
    pos += _GROUP_COUNT.size
    entry = _row_group_struct(ncols)
    size = ngroups * entry.size
    if pos + size > len(raw):
        raise errors.CorruptFooter("footer truncated")
    if pos + size < len(raw):
        raise errors.CorruptFooter("trailing bytes after footer")
    # the metadata tuples are made by tuple.__new__, which skips each
    # named tuple's Python-level constructor: the footer's fields, less
    # the skipped length, are already in field order
    new = tuple.__new__
    groups = []
    prev_end = 0
    for fields in entry.iter_unpack(memoryview(raw)[pos:]):
        chunks = []
        it = iter(fields)
        row_count = next(it)
        for offset, clen, _, encoding, min_v, max_v in zip(it, it, it, it, it, it):
            if min_v > max_v:
                raise errors.CorruptFooter("chunk stats have min > max")
            if offset < prev_end:
                raise errors.CorruptFooter("column chunks overlap")
            prev_end = offset + clen
            if data_end is not None and prev_end > data_end:
                raise errors.CorruptFooter("column chunk runs into the footer")
            chunks.append(new(ColumnChunkMeta, (offset, clen, encoding, min_v, max_v)))
        groups.append(new(RowGroupMeta, (row_count, tuple(chunks))))
    return FileFooter(schema, tuple(groups))


def split_trailer(tail: bytes, file_size: int) -> tuple[int, int]:
    """Validate magic and return (footer_offset, footer_len) within the file."""
    if len(tail) < 8 or tail[-4:] != MAGIC:
        raise errors.BadMagic("missing LCF1 magic")
    (footer_len,) = struct.unpack("<I", tail[-8:-4])
    if footer_len + 8 > file_size:
        raise errors.CorruptFooter("footer length exceeds file size")
    return file_size - 8 - footer_len, footer_len


def read_footer_ranged(sim, ctx, bucket: str, key: str):
    """Read a footer through the object store using the tail window.

    Issues exactly one suffix-range GET for footers smaller than the window
    and one extra GET otherwise.  Returns (footer, tail, tail_start): the
    window's bytes and their offset in the file, so that column chunks
    inside the window can be read from the same snapshot as the footer
    without another GET.
    """
    tail = yield from sim.store.get_object(
        ctx, bucket, key, (-FOOTER_TAIL_WINDOW, None)
    )
    tail = bytes(tail)
    size = len(sim.store.bucket(bucket).objects[key])
    footer_off, footer_len = split_trailer(tail, size)
    tail_start = size - len(tail)
    if footer_off >= tail_start:
        raw = tail[footer_off - tail_start : footer_off - tail_start + footer_len]
    else:
        raw = yield from sim.store.get_object(
            ctx, bucket, key, (footer_off, footer_off + footer_len)
        )
        raw = bytes(raw)
    return decode_footer(raw, footer_off), tail, tail_start
