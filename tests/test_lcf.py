import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import errors, lcf
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim


SCHEMA_XY = lcf.Schema((("x", lcf.INT64), ("y", lcf.FLOAT64)))


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
        schema = lcf.Schema((("x", lcf.INT64),))
        data = lcf.write_file(schema, [[[1, 2]]])
        assert data == golden_single_column_bytes()

    def test_trailer_layout(self):
        data = lcf.write_file(lcf.Schema((("x", lcf.INT64),)), [[[1, 2]]])
        assert data[-4:] == b"LCF1"
        (footer_len,) = struct.unpack("<I", data[-8:-4])
        assert footer_len == len(data) - 16 - 8  # body is 16 bytes

    def test_rle_chunk_bytes(self):
        encoded = lcf.encode_chunk([7, 7, 7, 9], lcf.INT64, lcf.ENC_RLE)
        assert encoded == struct.pack("<qI", 7, 3) + struct.pack("<qI", 9, 1)


class TestRoundTrip:
    def test_two_columns_two_groups(self):
        groups = [
            [[1, 2, 3], [1.0, 2.5, -3.0]],
            [[4, 5], [0.0, 9.5]],
        ]
        data = lcf.write_file(SCHEMA_XY, groups)
        assert lcf.read_table(data) == [[1, 2, 3, 4, 5], [1.0, 2.5, -3.0, 0.0, 9.5]]

    def test_footer_stats(self):
        data = lcf.write_file(SCHEMA_XY, [[[5, -2, 9], [0.5, 0.5, 0.5]]])
        footer = lcf.read_footer(data)
        assert footer.row_groups[0].chunks[0].stats == lcf.ColumnStats(-2, 9)
        assert footer.row_groups[0].chunks[1].stats == lcf.ColumnStats(0.5, 0.5)

    def test_rle_round_trip(self):
        values = [3] * 1000 + [4] * 500
        data = lcf.write_file(lcf.Schema((("x", lcf.INT64),)), [[values]], rle_columns=("x",))
        footer = lcf.read_footer(data)
        chunk = footer.row_groups[0].chunks[0]
        assert chunk.encoding == lcf.ENC_RLE
        assert chunk.compressed_len == 24  # two runs
        assert chunk.uncompressed_len == 8 * 1500
        assert lcf.read_table(data) == [values]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    min_size=1,
                    max_size=40,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_property(self, groups_and_flags):
        schema = lcf.Schema((("v", lcf.INT64),))
        rle = any(flag for _, flag in groups_and_flags)
        groups = [[values] for values, _ in groups_and_flags]
        data = lcf.write_file(schema, groups, rle_columns=("v",) if rle else ())
        assert lcf.read_table(data) == [sum((g[0] for g in groups), [])]


class TestPlainCodec:
    """The plain encoding is the values' little-endian bytes, back to back."""

    def _check(self, values, typ):
        fmt = "<q" if typ == lcf.INT64 else "<d"
        encoded = lcf.encode_chunk(values, typ, lcf.ENC_PLAIN)
        assert encoded == b"".join(struct.pack(fmt, v) for v in values)
        meta = lcf.ColumnChunkMeta(0, len(encoded), len(encoded), lcf.ENC_PLAIN,
                                   lcf.ColumnStats(0, 0))
        for little_endian_host in (True, False):  # both decode paths
            with mock.patch.object(lcf, "_LITTLE_ENDIAN_HOST", little_endian_host):
                decoded = lcf.decode_chunk(meta, encoded, typ, len(values))
            assert [struct.pack(fmt, v) for v in decoded] == [
                struct.pack(fmt, v) for v in values
            ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40))
    def test_int64_matches_struct(self, values):
        self._check(values, lcf.INT64)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([-0.0, float("inf"), float("-inf")]),
                # any bit pattern, NaN payloads included
                st.integers(min_value=0, max_value=2**64 - 1).map(
                    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
                ),
            ),
            max_size=40,
        )
    )
    def test_float64_matches_struct(self, values):
        self._check(values, lcf.FLOAT64)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(errors.BadMagic):
            lcf.read_footer(b"not a columnar file")

    def test_truncated_footer(self):
        data = lcf.write_file(lcf.Schema((("x", lcf.INT64),)), [[[1, 2]]])
        mangled = data[:20] + data[24:]  # drop 4 bytes inside the footer
        with pytest.raises((errors.CorruptFooter, errors.BadMagic)):
            lcf.read_footer(mangled)

    def test_footer_len_past_file_start(self):
        bad = struct.pack("<I", 100) + lcf.MAGIC
        with pytest.raises(errors.CorruptFooter):
            lcf.read_footer(bad)

    def test_stats_min_above_max_rejected(self):
        data = bytearray(lcf.write_file(lcf.Schema((("x", lcf.INT64),)), [[[1, 2]]]))
        # golden layout: min starts 16 bytes before the max field's end
        footer_start = 16
        min_off = footer_start + 2 + 2 + (2 + 1 + 1) + 4 + 8 + 25
        struct.pack_into("<q", data, min_off, 99)
        with pytest.raises(errors.CorruptFooter):
            lcf.read_footer(bytes(data))

    def test_chunk_length_mismatch(self):
        data = lcf.write_file(lcf.Schema((("x", lcf.INT64),)), [[[1, 2]]])
        footer = lcf.read_footer(data)
        chunk = footer.row_groups[0].chunks[0]
        with pytest.raises(errors.CorruptChunk):
            lcf.decode_chunk(chunk, b"\x00" * 7, lcf.INT64, 2)

    def test_type_mismatch_on_write(self):
        with pytest.raises(errors.TypeMismatch):
            lcf.write_file(SCHEMA_XY, [[[1], [2]]])

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[1, 2], [1.0, 2]], "expected float for FLOAT64 column, got 2"),
            ([[1, 2.0], [1.0, 2.0]], "expected int for INT64 column, got 2.0"),
        ],
    )
    def test_type_mismatch_names_the_value(self, table, message):
        # struct.pack('<d', 2) would take the int silently; the writer must not
        with pytest.raises(errors.TypeMismatch, match=message):
            lcf.write_file(SCHEMA_XY, [table])

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
    @pytest.mark.parametrize("rle", [False, True])
    def test_int64_out_of_range_names_the_column(self, value, rle):
        schema = lcf.Schema((("a", lcf.INT64),))
        with pytest.raises(errors.TypeMismatch, match=f"column 'a': {value} is outside"):
            lcf.write_file(schema, [[[0, value]]], rle_columns=("a",) if rle else ())

    @pytest.mark.parametrize("rle", [False, True])
    def test_int64_range_ends_round_trip(self, rle):
        schema = lcf.Schema((("a", lcf.INT64),))
        values = [-(2**63), 2**63 - 1, -(2**63)]
        data = lcf.write_file(schema, [[values]], rle_columns=("a",) if rle else ())
        assert lcf.read_table(data) == [values]

    @pytest.mark.parametrize(
        "table, column",
        [([[1, 2.5], [1.0, 2.0]], "x"), ([[1, 2], [1.0, 2]], "y")],
    )
    def test_type_mismatch_names_the_column(self, table, column):
        with pytest.raises(errors.TypeMismatch, match=f"column '{column}'"):
            lcf.write_file(SCHEMA_XY, [table])

    def test_bool_is_accepted_as_int64(self):
        data = lcf.write_file(lcf.Schema((("a", lcf.INT64),)), [[[True, 5, False]]])
        assert lcf.read_table(data) == [[1, 5, 0]]

    def test_empty_row_group_rejected(self):
        with pytest.raises(errors.EmptyRowGroup):
            lcf.write_file(lcf.Schema((("x", lcf.INT64),)), [[[]]])

    def test_unknown_column_lookup(self):
        with pytest.raises(errors.UnknownColumn):
            SCHEMA_XY.index_of("z")


class TestRangedFooterRead:
    def _seeded_sim(self, data):
        sim = CloudSim(SimConfig())
        sim.store.seed_object("data", "part.lcf", data)
        return sim

    def test_small_footer_needs_one_request(self):
        data = lcf.write_file(SCHEMA_XY, [[[1, 2], [3.0, 4.0]]])
        sim = self._seeded_sim(data)

        def main():
            ctx = sim.driver()
            return (yield from lcf.read_footer_ranged(sim, ctx, "data", "part.lcf"))

        footer, requests = sim.loop.run_task(main())
        assert requests == 1
        assert footer == lcf.read_footer(data)
        assert sim.ledger.count("read") == 1

    def test_oversized_footer_needs_second_request(self):
        # thousands of row groups push the footer past the 64 KiB tail window
        schema = lcf.Schema((("x", lcf.INT64),))
        groups = [[[i]] for i in range(2000)]
        data = lcf.write_file(schema, groups)
        _, footer_len = lcf.split_trailer(data[-8:], len(data))
        assert footer_len > lcf.FOOTER_TAIL_WINDOW - 8
        sim = self._seeded_sim(data)

        def main():
            ctx = sim.driver()
            return (yield from lcf.read_footer_ranged(sim, ctx, "data", "part.lcf"))

        footer, requests = sim.loop.run_task(main())
        assert requests == 2
        assert len(footer.row_groups) == 2000
