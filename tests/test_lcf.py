import re
import struct
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambada_lab import errors, lcf
from lambada_lab.config import SimConfig
from lambada_lab.scan import PredicateSet, execute_scan
from lambada_lab.substrate import CloudSim

from helpers import read_footer, read_table


SCHEMA_XY = lcf.Schema(("x", "y"))


def golden_single_column_bytes():
    """Independently constructed serialization of one INT64 column [1, 2]."""
    body = struct.pack("<qq", 1, 2)
    footer = b"".join([
        struct.pack("<H", 1),            # format version
        struct.pack("<H", 1),            # column count
        struct.pack("<H", 1) + b"x" + struct.pack("<B", lcf.INT64),
        struct.pack("<I", 1),            # row group count
        struct.pack("<Q", 2),            # rows in group 0
        struct.pack("<QQQB", 0, 16, 16, lcf.ENC_PLAIN),
        struct.pack("<q", 1),            # min
        struct.pack("<q", 2),            # max
    ])
    return body + footer + struct.pack("<I", len(footer)) + lcf.MAGIC


class TestGolden:
    def test_writer_matches_hand_built_bytes(self):
        schema = lcf.Schema(("x",))
        data = lcf.write_file(schema, [[[1, 2]]])
        assert data == golden_single_column_bytes()

    def test_trailer_layout(self):
        data = lcf.write_file(lcf.Schema(("x",)), [[[1, 2]]])
        assert data[-4:] == b"LCF1"
        (footer_len,) = struct.unpack("<I", data[-8:-4])
        assert footer_len == len(data) - 16 - 8  # body is 16 bytes


FORMAT_MD = Path(__file__).resolve().parent.parent / "FORMAT.md"


def format_doc_example() -> bytes:
    """The bytes of FORMAT.md's worked example: each dump line is an offset,
    then bytes as two hex digits, ``00*8`` meaning eight zero bytes, then,
    after two or more spaces, a note.  Each offset must follow on."""
    doc = FORMAT_MD.read_text(encoding="utf-8")
    dump = doc.split("## Worked example", 1)[1].split("```")[1]
    out = bytearray()
    for line in dump.strip().splitlines():
        offset, rest = line.split(None, 1)
        assert int(offset, 16) == len(out), line
        for token in re.split(r"\s{2,}", rest, maxsplit=1)[0].split():
            byte, _, count = token.partition("*")
            out += bytes([int(byte, 16)]) * int(count or 1)
    return bytes(out)


class TestFormatDoc:
    def test_worked_example_is_what_the_writer_writes(self):
        data = lcf.write_file(lcf.Schema(("x",)), [[[1, 2]]])
        assert format_doc_example() == data
        assert len(data) == 85


class TestRoundTrip:
    def test_two_columns_two_groups(self):
        groups = [
            [[1, 2, 3], [10, 25, -30]],
            [[4, 5], [0, 95]],
        ]
        data = lcf.write_file(SCHEMA_XY, groups)
        assert read_table(data) == [[1, 2, 3, 4, 5], [10, 25, -30, 0, 95]]

    def test_footer_stats(self):
        data = lcf.write_file(SCHEMA_XY, [[[5, -2, 9], [7, 7, 7]]])
        footer = read_footer(data)
        x, y = footer.row_groups[0].chunks
        assert (x.min_value, x.max_value) == (-2, 9)
        assert (y.min_value, y.max_value) == (7, 7)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                min_size=1,
                max_size=40,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_property(self, group_values):
        schema = lcf.Schema(("v",))
        groups = [[values] for values in group_values]
        data = lcf.write_file(schema, groups)
        assert read_table(data) == [sum(group_values, [])]


class TestPlainCodec:
    """The plain encoding is the values' little-endian bytes, back to back."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40), st.data()
    )
    def test_int64_matches_struct(self, values, data):
        encoded = lcf.encode_chunk(values)
        assert encoded == b"".join(struct.pack("<q", v) for v in values)
        meta = lcf.ColumnChunkMeta(0, len(encoded), lcf.ENC_PLAIN, 0, 0)
        a = data.draw(st.integers(0, len(values)))
        b = data.draw(st.integers(a, len(values)))
        for little_endian_host in (True, False):  # both decode paths
            with mock.patch.object(lcf, "_LITTLE_ENDIAN_HOST", little_endian_host):
                assert lcf.decode_chunk(meta, encoded, len(values)) == values
                assert lcf.decode_chunk(meta, encoded, len(values), (a, b)) == values[a:b]


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(errors.BadMagic):
            read_footer(b"not a columnar file")

    def test_truncated_footer(self):
        data = lcf.write_file(lcf.Schema(("x",)), [[[1, 2]]])
        mangled = data[:20] + data[24:]  # drop 4 bytes inside the footer
        with pytest.raises((errors.CorruptFooter, errors.BadMagic)):
            read_footer(mangled)

    def test_footer_len_past_file_start(self):
        bad = struct.pack("<I", 100) + lcf.MAGIC
        with pytest.raises(errors.CorruptFooter):
            read_footer(bad)

    def test_stats_min_above_max_rejected(self):
        data = bytearray(lcf.write_file(lcf.Schema(("x",)), [[[1, 2]]]))
        # golden layout: min starts 16 bytes before the max field's end
        footer_start = 16
        min_off = footer_start + 2 + 2 + (2 + 1 + 1) + 4 + 8 + 25
        struct.pack_into("<q", data, min_off, 99)
        with pytest.raises(errors.CorruptFooter):
            read_footer(bytes(data))

    def test_chunk_length_mismatch(self):
        data = lcf.write_file(lcf.Schema(("x",)), [[[1, 2]]])
        footer = read_footer(data)
        chunk = footer.row_groups[0].chunks[0]
        with pytest.raises(errors.CorruptChunk):
            lcf.decode_chunk(chunk, b"\x00" * 7, 2)

    def test_type_mismatch_on_write(self):
        with pytest.raises(errors.TypeMismatch):
            lcf.write_file(SCHEMA_XY, [[[1], [2.0]]])

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[1, 1.5], [1, 2]], "column 'x': expected int for INT64 column, got 1.5"),
            ([[1, 2.0], [1, 2]], "expected int for INT64 column, got 2.0"),
        ],
    )
    def test_type_mismatch_names_the_value(self, table, message):
        # struct.pack('<q', 2.0) raises struct.error; the writer names the column
        with pytest.raises(errors.TypeMismatch, match=message):
            lcf.write_file(SCHEMA_XY, [table])

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
    def test_int64_out_of_range_names_the_column(self, value):
        schema = lcf.Schema(("a",))
        with pytest.raises(errors.TypeMismatch, match=f"column 'a': {value} is outside"):
            lcf.write_file(schema, [[[0, value]]])

    def test_int64_range_ends_round_trip(self):
        schema = lcf.Schema(("a",))
        values = [-(2**63), 2**63 - 1, -(2**63)]
        data = lcf.write_file(schema, [[values]])
        assert read_table(data) == [values]

    @pytest.mark.parametrize(
        "table, column",
        [([[1, 2.5], [1, 2]], "x"), ([[1, 2], [1, 2.0]], "y")],
    )
    def test_type_mismatch_names_the_column(self, table, column):
        with pytest.raises(errors.TypeMismatch, match=f"column '{column}'"):
            lcf.write_file(SCHEMA_XY, [table])

    def test_bool_is_accepted_as_int64(self):
        data = lcf.write_file(lcf.Schema(("a",)), [[[True, 5, False]]])
        assert read_table(data) == [[1, 5, 0]]

    def test_empty_row_group_rejected(self):
        with pytest.raises(errors.EmptyRowGroup):
            lcf.write_file(lcf.Schema(("x",)), [[[]]])

    def test_unknown_column_lookup(self):
        with pytest.raises(errors.UnknownColumn):
            SCHEMA_XY.index_of("z")


def file_with_encoding(encoding: int) -> bytes:
    """The golden file, its one chunk's footer encoding byte set to `encoding`."""
    data = bytearray(golden_single_column_bytes())
    # body 16 bytes, then version, column count, the column and group count,
    # the row count, and the chunk's offset and two lengths
    at = 16 + 2 + 2 + (2 + 1 + 1) + 4 + 8 + 24
    assert data[at] == lcf.ENC_PLAIN
    data[at] = encoding
    return bytes(data)


class TestUnknownEncoding:
    """Plain is the only encoding; any other id in the footer is corruption,
    wherever the chunk is decoded."""

    @pytest.mark.parametrize("encoding", [1, 255])
    def test_decode_chunk_rejects_it(self, encoding):
        meta = lcf.ColumnChunkMeta(0, 16, encoding, 1, 2)
        with pytest.raises(errors.CorruptChunk, match=f"unknown encoding id {encoding}"):
            lcf.decode_chunk(meta, struct.pack("<qq", 1, 2), 2)

    @pytest.mark.parametrize("encoding", [1, 255])
    def test_read_table_rejects_it(self, encoding):
        data = file_with_encoding(encoding)
        assert read_footer(data).row_groups[0].chunks[0].encoding == encoding
        with pytest.raises(errors.CorruptChunk, match=f"unknown encoding id {encoding}"):
            read_table(data)

    @pytest.mark.parametrize("encoding", [1, 255])
    def test_scan_rejects_it(self, encoding):
        sim = CloudSim(SimConfig())
        sim.store.seed_object("data", "part.lcf", file_with_encoding(encoding))
        predicates = PredicateSet((), ("x",))

        def main():
            return (yield from execute_scan(sim, sim.driver(), "data", ["part.lcf"], predicates))

        with pytest.raises(errors.CorruptChunk, match=f"unknown encoding id {encoding}"):
            sim.loop.run_task(main())


def naive_decode_footer(raw: bytes) -> lcf.FileFooter:
    """Oracle: a cursor that unpacks one field at a time, checking each read."""
    pos = 0

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(raw):
            raise errors.CorruptFooter("footer truncated")
        values = struct.unpack_from(fmt, raw, pos)
        pos += size
        return values if len(values) > 1 else values[0]

    def take_bytes(n):
        nonlocal pos
        if pos + n > len(raw):
            raise errors.CorruptFooter("footer truncated")
        pos += n
        return raw[pos - n : pos]

    version = take("<H")
    if version != lcf.FORMAT_VERSION:
        raise errors.CorruptFooter(f"unsupported format version {version}")
    names = []
    for _ in range(take("<H")):
        name = take_bytes(take("<H")).decode("utf-8")
        typ = take("<B")
        if typ != lcf.INT64:
            raise errors.CorruptFooter(f"unknown column type {typ}")
        names.append(name)
    try:
        schema = lcf.Schema(tuple(names))
    except ValueError as err:
        raise errors.CorruptFooter(str(err))
    groups = []
    prev_end = 0
    for _ in range(take("<I")):
        row_count = take("<Q")
        chunks = []
        for _ in schema.names:
            offset, clen, _ulen, encoding = take("<QQQB")  # readers skip the length
            min_v, max_v = take("<q"), take("<q")
            if min_v > max_v:
                raise errors.CorruptFooter("chunk stats have min > max")
            if offset < prev_end:
                raise errors.CorruptFooter("column chunks overlap")
            prev_end = offset + clen
            chunks.append(lcf.ColumnChunkMeta(offset, clen, encoding, min_v, max_v))
        groups.append(lcf.RowGroupMeta(row_count, tuple(chunks)))
    if pos != len(raw):
        raise errors.CorruptFooter("trailing bytes after footer")
    return lcf.FileFooter(schema, tuple(groups))


INT64_STATS = st.one_of(
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
U64 = st.integers(min_value=0, max_value=2**40)


@st.composite
def footers(draw):
    """A valid footer: 1-6 columns, 1-5 row groups, stats at INT64's edges."""
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True))
    groups = []
    end = 0
    for _ in range(draw(st.integers(1, 5))):
        chunks = []
        for _ in names:
            a, b = sorted(draw(st.tuples(INT64_STATS, INT64_STATS)))
            offset = end + draw(st.integers(0, 3))
            clen = draw(st.integers(1, 2**20))
            end = offset + clen
            chunks.append(lcf.ColumnChunkMeta(offset, clen, draw(st.integers(0, 255)), a, b))
        groups.append(lcf.RowGroupMeta(draw(U64), tuple(chunks)))
    return lcf.FileFooter(lcf.Schema(tuple(names)), tuple(groups))


@st.composite
def written_files(draw):
    """The LCF bytes of a table of 1-4 columns in 1-4 row groups."""
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 6))
        groups.append(
            [draw(st.lists(INT64_STATS, min_size=rows, max_size=rows)) for _ in names]
        )
    return lcf.write_file(lcf.Schema(tuple(names)), groups)


def both_reject(raw: bytes) -> None:
    for decode in (lcf.decode_footer, naive_decode_footer):
        with pytest.raises(errors.CorruptFooter):
            decode(raw)


class TestFooterDecoder:
    """`decode_footer` unpacks a row group with one struct; the oracle reads
    one field at a time.  They must agree on every footer, valid or not."""

    @settings(max_examples=150, deadline=None)
    @given(footers())
    def test_valid_footers_decode_equal(self, footer):
        raw = lcf.encode_footer(footer)
        decoded = lcf.decode_footer(raw)
        assert decoded == naive_decode_footer(raw) == footer
        assert all(isinstance(rg, lcf.RowGroupMeta) for rg in decoded.row_groups)

    @settings(max_examples=100, deadline=None)
    @given(written_files())
    def test_written_footers_round_trip_byte_for_byte(self, data):
        """Memory keeps no type, version or uncompressed length, and loses
        no byte of a footer the writer makes."""
        footer_off, footer_len = lcf.split_trailer(data[-8:], len(data))
        raw = data[footer_off : footer_off + footer_len]
        footer = lcf.decode_footer(raw, footer_off)
        assert lcf.encode_footer(footer) == raw
        assert naive_decode_footer(raw) == footer
        # each chunk's uncompressed-length slot holds its compressed length
        ncols = len(footer.schema)
        entry = struct.Struct("<Q" + "QQQBqq" * ncols)
        entries = raw[len(raw) - len(footer.row_groups) * entry.size :]
        for fields in entry.iter_unpack(entries):
            for c in range(ncols):
                _, clen, ulen, *_ = fields[1 + 6 * c : 7 + 6 * c]
                assert ulen == clen == 8 * fields[0]

    def test_uncompressed_length_slot_is_skipped(self):
        data = bytearray(golden_single_column_bytes())
        # body, version, column count, the column, group count, row count, offset, length
        at = 16 + 2 + 2 + (2 + 1 + 1) + 4 + 8 + 8 + 8
        assert struct.unpack_from("<Q", data, at) == (16,)
        struct.pack_into("<Q", data, at, 2**64 - 1)
        assert read_footer(bytes(data)) == read_footer(golden_single_column_bytes())
        assert read_table(bytes(data)) == [[1, 2]]

    @settings(max_examples=30, deadline=None)
    @given(footers())
    def test_every_proper_prefix_and_a_trailing_byte_are_rejected(self, footer):
        raw = lcf.encode_footer(footer)
        for end in range(len(raw)):
            both_reject(raw[:end])
        both_reject(raw + b"\x00")

    @settings(max_examples=50, deadline=None)
    @given(footers(), st.data())
    def test_min_above_max_is_rejected(self, footer, data):
        g = data.draw(st.integers(0, len(footer.row_groups) - 1))
        c = data.draw(st.integers(0, len(footer.schema) - 1))
        rg = footer.row_groups[g]
        chunk = rg.chunks[c]._replace(min_value=2, max_value=1)
        chunks = rg.chunks[:c] + (chunk,) + rg.chunks[c + 1 :]
        groups = footer.row_groups[:g] + (rg._replace(chunks=chunks),) + footer.row_groups[g + 1 :]
        both_reject(lcf.encode_footer(lcf.FileFooter(footer.schema, groups)))

    @settings(max_examples=50, deadline=None)
    @given(footers(), st.data())
    def test_overlapping_chunk_is_rejected(self, footer, data):
        flat = [c for rg in footer.row_groups for c in rg.chunks]
        assume(len(flat) > 1)
        k = data.draw(st.integers(1, len(flat) - 1))
        prev = flat[k - 1]
        back = data.draw(st.integers(1, prev.compressed_len))
        flat[k] = flat[k]._replace(offset=prev.offset + prev.compressed_len - back)
        ncols = len(footer.schema)
        groups = tuple(
            rg._replace(chunks=tuple(flat[g * ncols : (g + 1) * ncols]))
            for g, rg in enumerate(footer.row_groups)
        )
        both_reject(lcf.encode_footer(lcf.FileFooter(footer.schema, groups)))

    @settings(max_examples=50, deadline=None)
    @given(footers(), st.integers(0, 0xFFFF).filter(lambda v: v != lcf.FORMAT_VERSION))
    def test_bad_version_is_rejected(self, footer, version):
        raw = lcf.encode_footer(footer)
        both_reject(struct.pack("<H", version) + raw[2:])

    # type 1 was FLOAT64; INT64 is the only column type
    @pytest.mark.parametrize("columns", [(), (("x", 7),), (("x", 0), ("x", 1)), (("x", 1),)])
    def test_bad_schema_is_rejected(self, columns):
        raw = struct.pack("<HH", lcf.FORMAT_VERSION, len(columns))
        for name, typ in columns:
            raw += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", typ)
        both_reject(raw + struct.pack("<I", 0))

    def test_column_name_that_is_not_utf8_is_rejected(self):
        raw = struct.pack("<HHH", lcf.FORMAT_VERSION, 1, 1) + b"\xff" + struct.pack("<BI", 0, 0)
        with pytest.raises(errors.CorruptFooter, match="not UTF-8"):
            lcf.decode_footer(raw)

    # a decoded footer is cached by its bytes and `data_end`, and a parsed
    # schema by its bytes: a rejected one must be rejected again, not
    # remembered
    @pytest.mark.parametrize(
        "columns, message",
        [
            ([struct.pack("<H", 50) + b"ab"], "truncated"),
            ([struct.pack("<H", 1) + b"\xff\x00"], "not UTF-8"),
            ([struct.pack("<H", 1) + b"x\x00"] * 2, "duplicate"),
            ([struct.pack("<H", 1) + b"x\x01"], "unknown column type 1"),
        ],
        ids=["truncated-name", "not-utf8", "duplicate-names", "type-byte-1"],
    )
    def test_bad_schema_is_rejected_on_every_decode(self, columns, message):
        raw = struct.pack("<HH", lcf.FORMAT_VERSION, len(columns))
        raw += b"".join(columns) + struct.pack("<I", 0)
        for _ in range(2):
            with pytest.raises(errors.CorruptFooter, match=message):
                lcf.decode_footer(raw)

    @pytest.mark.parametrize(
        "first, second, data_end, message",
        [
            ((0, 16, 2, 1), (16, 16, 3, 4), None, "min > max"),
            ((0, 16, 1, 2), (8, 16, 3, 4), None, "overlap"),
            ((0, 16, 1, 2), (16, 16, 3, 4), 31, "runs into the footer"),
        ],
        ids=["min-above-max", "overlapping-chunks", "chunk-into-footer"],
    )
    def test_bad_footer_is_rejected_on_every_decode(self, first, second, data_end, message):
        groups = tuple(
            lcf.RowGroupMeta(2, (lcf.ColumnChunkMeta(offset, clen, lcf.ENC_PLAIN, lo, hi),))
            for offset, clen, lo, hi in (first, second)
        )
        raw = lcf.encode_footer(lcf.FileFooter(lcf.Schema(("x",)), groups))
        for _ in range(2):
            with pytest.raises(errors.CorruptFooter, match=message):
                lcf.decode_footer(raw, data_end)

    def test_equal_footer_bytes_are_decoded_once(self):
        data = lcf.write_file(SCHEMA_XY, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        footer_off, footer_len = lcf.split_trailer(data[-8:], len(data))
        raw = data[footer_off : footer_off + footer_len]
        lcf._decode_footer.cache_clear()
        first = lcf.decode_footer(raw, footer_off)
        # equal bytes in a fresh object, as a replica brings them, or in a
        # bytearray or memoryview, find the first decode
        for copy in (bytes(bytearray(raw)), bytearray(raw), memoryview(raw)):
            assert lcf.decode_footer(copy, footer_off) == first
        info = lcf._decode_footer.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert first == read_footer(data)

    @pytest.mark.parametrize(
        "first, second",
        [
            (("a", "b"), ("a", "c")),
            (("a", "b"), ("b", "a")),
            (("a",), ("a", "b")),
            (("ab",), ("a", "b")),
        ],
    )
    def test_footers_with_different_schemas_decode_to_different_schemas(self, first, second):
        decoded = []
        for names in (first, second, first):
            footer = lcf.FileFooter(lcf.Schema(names), ())
            assert lcf.decode_footer(lcf.encode_footer(footer)) == footer
            decoded.append(lcf.decode_footer(lcf.encode_footer(footer)).schema)
        assert decoded[0] != decoded[1] and decoded[0] == decoded[2]


class TestRangedFooterRead:
    def _seeded_sim(self, data):
        sim = CloudSim(SimConfig())
        sim.store.seed_object("data", "part.lcf", data)
        return sim

    def _read(self, sim):
        def main():
            ctx = sim.driver()
            return (yield from lcf.read_footer_ranged(sim, ctx, "data", "part.lcf"))

        return sim.loop.run_task(main())

    def test_small_footer_needs_one_request(self):
        data = lcf.write_file(SCHEMA_XY, [[[1, 2], [3, 4]]])
        sim = self._seeded_sim(data)
        footer, tail, tail_start = self._read(sim)
        assert sim.ledger.count("read") == 1
        assert footer == read_footer(data)
        # a file smaller than the window comes back whole
        assert (tail, tail_start) == (data, 0)

    def test_tail_is_the_window_and_its_file_offset(self):
        schema = lcf.Schema(("x",))
        data = lcf.write_file(schema, [[list(range(10_000))]])
        sim = self._seeded_sim(data)
        _, tail, tail_start = self._read(sim)
        assert sim.ledger.count("read") == 1
        assert len(tail) == lcf.FOOTER_TAIL_WINDOW
        assert tail_start == len(data) - lcf.FOOTER_TAIL_WINDOW
        assert tail == data[tail_start:]

    def test_oversized_footer_needs_second_request(self):
        # thousands of row groups push the footer past the 64 KiB tail window
        schema = lcf.Schema(("x",))
        groups = [[[i]] for i in range(2000)]
        data = lcf.write_file(schema, groups)
        footer_off, footer_len = lcf.split_trailer(data[-8:], len(data))
        assert footer_len > lcf.FOOTER_TAIL_WINDOW - 8
        sim = self._seeded_sim(data)
        footer, tail, tail_start = self._read(sim)
        assert sim.ledger.count("read") == 2
        assert len(footer.row_groups) == 2000
        # the window holds footer bytes only: no chunk lies inside it
        assert tail == data[tail_start:] and footer_off < tail_start

    def test_files_with_equal_footers_share_one_decode(self):
        # the bodies, and so the tails read, differ; the footers do not
        first = lcf.write_file(SCHEMA_XY, [[[1, 2], [3, 4]]])
        second = lcf.write_file(SCHEMA_XY, [[[2, 1], [4, 3]]])
        assert first[:32] != second[:32] and first[32:] == second[32:]
        lcf._decode_footer.cache_clear()
        footers = [self._read(self._seeded_sim(data))[0] for data in (first, second)]
        info = lcf._decode_footer.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert footers[0] == footers[1] == read_footer(first)


def file_with_chunk_in_footer():
    """A two-group file whose last chunk points at the footer's own offset."""
    schema = lcf.Schema(("x",))
    data = lcf.write_file(schema, [[[1, 2]], [[3, 4]]])
    footer_off, footer_len = lcf.split_trailer(data[-8:], len(data))
    footer = read_footer(data)
    last = footer.row_groups[1]
    bad = last._replace(chunks=(last.chunks[0]._replace(offset=footer_off),))
    raw = lcf.encode_footer(lcf.FileFooter(schema, (footer.row_groups[0], bad)))
    assert len(raw) == footer_len
    return data[:footer_off] + raw + data[footer_off + footer_len :]


class TestChunkInsideFooter:
    def test_whole_file_read_rejects_it(self):
        data = file_with_chunk_in_footer()
        with pytest.raises(errors.CorruptFooter, match="runs into the footer"):
            read_footer(data)
        # before the check the footer bytes decoded as values:
        # [1, 2, 33777001500311553, 8589934594]
        with pytest.raises(errors.CorruptFooter):
            read_table(data)

    def test_ranged_read_rejects_it(self):
        sim = CloudSim(SimConfig())
        sim.store.seed_object("data", "part.lcf", file_with_chunk_in_footer())

        def main():
            return (yield from lcf.read_footer_ranged(sim, sim.driver(), "data", "part.lcf"))

        with pytest.raises(errors.CorruptFooter, match="runs into the footer"):
            sim.loop.run_task(main())

    def test_chunk_ending_at_the_footer_is_accepted(self):
        schema = lcf.Schema(("x",))
        data = lcf.write_file(schema, [[[1, 2]], [[3, 4]]])
        footer_off, footer_len = lcf.split_trailer(data[-8:], len(data))
        raw = data[footer_off : footer_off + footer_len]
        assert lcf.decode_footer(raw, footer_off) == read_footer(data)
        with pytest.raises(errors.CorruptFooter):
            lcf.decode_footer(raw, footer_off - 1)
