import hashlib
import struct
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import errors, lcf, scan
from lambada_lab.billing import READ, BillingLedger, request_price
from lambada_lab.clock import AllOf
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, HostContext

from helpers import read_footer, read_table

MIB = 1024 * 1024


def make_file(groups, names=("a", "b")):
    schema = lcf.Schema(tuple(names))
    return lcf.write_file(schema, groups), schema


def clear_of_tail(data):
    """The same file with a tail window of zeros between its last chunk and
    its footer: the footer's offsets still hold, and no chunk lies inside
    the footer's tail read, so every chunk the scan needs costs a GET."""
    footer_off, _ = lcf.split_trailer(data[-8:], len(data))
    return data[:footer_off] + bytes(lcf.FOOTER_TAIL_WINDOW) + data[footer_off:]


def record_ranges(sim):
    """Byte ranges of the GETs `sim`'s store serves from now on, in call order."""
    ranges = []
    get_object = sim.store.get_object

    def recording(ctx, bucket, key, byte_range=None):
        ranges.append(byte_range)
        return get_object(ctx, bucket, key, byte_range)

    sim.store.get_object = recording
    return ranges


def filtered_rows(data, intervals):
    """The rows of `read_table(data)` inside every (column index, lo, hi)."""
    rows = zip(*read_table(data))
    return [r for r in rows if all(lo <= r[c] <= hi for c, lo, hi in intervals)]


def rows_of(batches):
    return [row for batch in batches for row in zip(*batch)]


def run_scan(sim, paths, predicates, prune=True, bucket="data"):
    def main():
        return (yield from scan.execute_scan(sim, sim.driver(), bucket, paths, predicates, prune))

    return sim.loop.run_task(main())


def seeded_sim(files):
    sim = CloudSim(SimConfig())
    for key, data in files.items():
        sim.store.seed_object("data", key, data)
    return sim


class TestPruning:
    def test_disjoint_interval_prunes_group(self):
        data, _ = make_file([[[10, 20], [0, 0]], [[25, 30], [0, 0]]])
        footer = read_footer(data)
        preds = scan.PredicateSet((("a", 25, 30),), ("a",))
        assert scan.prune_row_groups(footer, preds) == [1]

    def test_empty_predicates_keep_everything(self):
        data, _ = make_file([[[1], [2]], [[3], [4]]])
        footer = read_footer(data)
        preds = scan.PredicateSet((), ("a",))
        assert scan.prune_row_groups(footer, preds) == [0, 1]

    def test_unknown_predicate_column(self):
        data, _ = make_file([[[1], [2]]])
        footer = read_footer(data)
        with pytest.raises(errors.UnknownColumn):
            scan.prune_row_groups(footer, scan.PredicateSet((("z", 0, 1),), ("a",)))

    def test_boundary_touching_interval_survives(self):
        data, _ = make_file([[[10, 20], [0, 0]]])
        footer = read_footer(data)
        preds = scan.PredicateSet((("a", 20, 99),), ("a",))
        assert scan.prune_row_groups(footer, preds) == [0]


class TestPlanner:
    def _footer(self, n_groups, n_cols, rows=4):
        names = tuple(f"c{i}" for i in range(n_cols))
        groups = [
            [[g * 100 + i for i in range(rows)] for _ in names] for g in range(n_groups)
        ]
        data, _ = make_file(groups, names)
        return read_footer(data), names

    def test_pipelined_groups_read_each_chunk_whole(self):
        footer, names = self._footer(8, 4)
        plan = scan.plan_downloads(footer, list(range(8)), names)
        assert len(plan) == 8
        for rg, reads in zip(footer.row_groups, plan):
            assert reads == [(n, c.offset, c.compressed_len) for n, c in zip(names, rg.chunks)]

    def test_single_group_reads_one_range_per_column(self):
        footer, names = self._footer(1, 4)
        plan = scan.plan_downloads(footer, [0], names)
        chunks = footer.row_groups[0].chunks
        assert plan == [[(n, c.offset, c.compressed_len) for n, c in zip(names, chunks)]]

    def test_idle_connections_trigger_chunk_splitting(self):
        chunk_len = MIB
        footer = lcf.FileFooter(
            lcf.Schema(("x",)),
            (
                lcf.RowGroupMeta(
                    chunk_len // 8,
                    (
                        lcf.ColumnChunkMeta(0, chunk_len, lcf.ENC_PLAIN, 0, 0),
                    ),
                ),
            ),
        )
        with mock.patch.object(scan, "CHUNK_SIZE_BYTES", 256 * 1024):
            [reads] = scan.plan_downloads(footer, [0], ("x",))
        assert len(reads) == 4
        assert [start for _, start, _ in reads] == [0, 256 * 1024, 512 * 1024, 768 * 1024]
        assert {length for _, _, length in reads} == {256 * 1024}

    def test_saturated_levels_suppress_splitting(self):
        footer, names = self._footer(8, 4)
        with mock.patch.object(scan, "CHUNK_SIZE_BYTES", 64 * 1024):
            plan = scan.plan_downloads(footer, list(range(8)), names)
        assert sum(map(len, plan)) == 32
        for rg, reads in zip(footer.row_groups, plan):
            assert [start for _, start, _ in reads] == [c.offset for c in rg.chunks]


class TestExecute:
    def test_matches_direct_reader_without_predicates(self):
        groups = [[[1, 2, 3], [4, 5, 6]], [[7, 8], [9, 10]]]
        data = clear_of_tail(make_file(groups)[0])
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((), ("a", "b"))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        merged = [sum((b[i] for b in batches), []) for i in range(2)]
        assert merged == read_table(data)
        assert report.rows == 5
        assert sim.ledger.count(READ) == 1 + 4  # footer + 2 groups x 2 columns

    def test_residual_row_filter(self):
        data = clear_of_tail(make_file([[[1, 5, 9], [10, 20, 30]]])[0])
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("a", 4, 6),), ("b",))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        assert batches == [[[20]]]
        assert report.rows == 1
        # the stats [1, 9] leave [4, 6] open, so a is fetched to check rows
        assert sim.ledger.count(READ) == 1 + 2

    def test_proven_filter_only_column_is_not_fetched(self):
        groups = [[[3, 4], [1, 2]], [[5, 3], [7, 8]]]
        data = clear_of_tail(make_file(groups)[0])
        footer = read_footer(data)
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("a", 0, 10),), ("b",))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        assert batches == [[[1, 2]], [[7, 8]]]
        # the footer and b's two chunks; a is never bought
        assert sim.ledger.count(READ) == 1 + 2
        b = footer.schema.index_of("b")
        assert report.bytes == sum(rg.chunks[b].compressed_len for rg in footer.row_groups)

    def test_column_with_one_open_interval_of_two_is_fetched(self):
        groups = [
            [[1, 5, 9], [10, 20, 30]],  # [0, 100] proven, [4, 6] open
            [[4, 5, 6], [40, 50, 60]],  # both proven
        ]
        data = clear_of_tail(make_file(groups)[0])
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("a", 0, 100), ("a", 4, 6)), ("b",))
        batches, _ = run_scan(sim, ["f.lcf"], preds)
        assert batches == [[[20]], [[40, 50, 60]]]
        assert sim.ledger.count(READ) == 1 + 2 + 1

    def test_proven_filter_column_still_counts_toward_split_budget(self):
        # three 128 KiB projected chunks plus a proven filter-only column fill
        # the four connections, so no chunk is split even though only three
        # columns are fetched
        rows = 16 * 1024
        names = ("c0", "c1", "c2", "f")
        data, _ = make_file([[list(range(rows)) for _ in names]], names)
        footer = read_footer(data)
        assert all(c.compressed_len == 2 * 64 * 1024 for c in footer.row_groups[0].chunks)
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("f", 0, rows),), ("c0", "c1", "c2"))
        with mock.patch.object(scan, "CHUNK_SIZE_BYTES", 64 * 1024):
            batches, _ = run_scan(sim, ["f.lcf"], preds)
        assert batches == [[list(range(rows))] * 3]
        assert sim.ledger.count(READ) == 1 + 3

    def test_int_stats_skip_only_groups_wholly_inside(self):
        groups = [
            [[3, 4], [1, 2]],  # both columns inside: no row check
            [[4, 9], [3, 4]],  # a overlaps partly
            [[1, 5], [5, 2]],  # a overlaps partly, b inside
            [[3, 3], [9, 1]],  # a inside, b overlaps partly
            [[4, 1], [9, 2]],  # every row fails, the stats do not show it
        ]
        data, _ = make_file(groups)
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("a", 3, 5), ("b", 0, 6)), ("a", "b"))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        assert batches == [[[3, 4], [1, 2]], [[4], [3]], [[5], [2]], [[3], [1]], [[], []]]
        assert report.rows == 5

    def test_fully_pruned_file_costs_footer_only(self):
        data, _ = make_file([[[10, 20], [0, 0]]])
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("a", 500, 600),), ("a",))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        assert batches == []
        assert sim.ledger.count(READ) == 1
        assert report.groups_pruned == 1

    def test_concurrent_scans_bill_only_their_own_requests(self):
        data = clear_of_tail(make_file([[[1, 2], [3, 4]]])[0])
        sim = seeded_sim({"f.lcf": data, "g.lcf": data})
        preds = scan.PredicateSet((), ("a", "b"))
        hosts = [
            HostContext(sim, f"h{i}", ledger=BillingLedger(sim.cfg, parent=sim.ledger))
            for i in range(2)
        ]

        def main():
            tasks = [
                sim.loop.spawn(scan.execute_scan(sim, host, "data", [path], preds))
                for host, path in zip(hosts, ("f.lcf", "g.lcf"))
            ]
            return (yield AllOf(tasks))

        sim.loop.run_task(main())
        # one footer GET and two column-chunk GETs each, as when run alone
        counts = [host.ledger.count(READ) for host in hosts]
        assert counts == [3, 3]
        assert sum(counts) == sim.ledger.count(READ)

    def test_thousand_chunk_request_cost(self):
        # 64 MiB single plain chunk of zeros scanned at the 64 KiB floor:
        # 1024 data requests at $0.4/M is $4.096e-4 on the nose.
        chunk_len = 64 * MIB
        footer = lcf.FileFooter(
            lcf.Schema(("x",)),
            (
                lcf.RowGroupMeta(
                    chunk_len // 8,
                    (
                        lcf.ColumnChunkMeta(0, chunk_len, lcf.ENC_PLAIN, 0, 0),
                    ),
                ),
            ),
        )
        raw_footer = lcf.encode_footer(footer)
        data = bytes(chunk_len) + raw_footer + struct.pack("<I", len(raw_footer)) + lcf.MAGIC
        sim = seeded_sim({"big.lcf": data})
        preds = scan.PredicateSet((), ("x",))
        with mock.patch.object(scan, "CHUNK_SIZE_BYTES", 64 * 1024):
            run_scan(sim, ["big.lcf"], preds)
        data_requests = sim.ledger.count(READ) - 1
        assert data_requests == 1024
        price = request_price(sim.cfg, READ)
        assert data_requests * price == Fraction("4.096e-4")

    def test_requests_monotone_in_chunk_size(self):
        chunk_len = MIB
        values = list(range(chunk_len // 8))
        data = lcf.write_file(lcf.Schema(("x",)), [[values]])
        counts = []
        for size in (64 * 1024, 128 * 1024, 256 * 1024):
            sim = seeded_sim({"f.lcf": data})
            preds = scan.PredicateSet((), ("x",))
            with mock.patch.object(scan, "CHUNK_SIZE_BYTES", size):
                run_scan(sim, ["f.lcf"], preds)
            counts.append(sim.ledger.count(READ))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_duration_monotone_in_connections(self):
        groups = [[[g] * 4096 for _ in range(4)] for g in range(4)]
        names = ("c0", "c1", "c2", "c3")
        data, _ = make_file(groups, names)
        durations = []
        for conns in (1, 2, 4):
            sim = seeded_sim({"f.lcf": data})
            preds = scan.PredicateSet((), names)
            with mock.patch.object(scan, "MAX_CONNECTIONS", conns):
                _, report = run_scan(sim, ["f.lcf"], preds)
            durations.append(report.duration_us)
        assert durations == sorted(durations, reverse=True)

    def test_decode_cost_slows_scan(self):
        data, _ = make_file([[[1] * 1000, [2] * 1000]])
        preds = scan.PredicateSet((), ("a", "b"))
        fast = seeded_sim({"f.lcf": data})
        _, fast_report = run_scan(fast, ["f.lcf"], preds)
        slow = CloudSim(SimConfig(decode_cycles_per_byte=Fraction(100)))
        slow.store.seed_object("data", "f.lcf", data)
        _, slow_report = run_scan(slow, ["f.lcf"], preds)
        assert slow_report.duration_us > fast_report.duration_us

    def test_wrong_length_projection_chunk_raises_on_the_run_path(self):
        # b's chunk holds 7 values for 8 rows; the check on a keeps rows 2
        # and 3, so the run path would decode only b's rows 2 and 3
        schema = lcf.Schema(("a", "b"))
        data = lcf.write_file(schema, [[list(range(8)), list(range(10, 18))]])
        footer_off, footer_len = lcf.split_trailer(data[-8:], len(data))
        footer = read_footer(data)
        rg = footer.row_groups[0]
        short = rg.chunks[1]._replace(compressed_len=56)
        raw = lcf.encode_footer(
            lcf.FileFooter(schema, (rg._replace(chunks=(rg.chunks[0], short)),))
        )
        bad = clear_of_tail(data[:footer_off] + raw + data[footer_off + footer_len :])
        sim = seeded_sim({"f.lcf": bad})
        windows = []
        decode_chunk = lcf.decode_chunk

        def recording(meta, data, row_count, rows=None):
            windows.append(rows)
            return decode_chunk(meta, data, row_count, rows)

        preds = scan.PredicateSet((("a", 2, 3),), ("b",))
        with mock.patch.object(lcf, "decode_chunk", recording):
            with pytest.raises(errors.CorruptChunk, match="does not match row count"):
                run_scan(sim, ["f.lcf"], preds)
        assert windows == [None, (2, 4)]

    @settings(max_examples=25, deadline=None)
    @given(
        groups=st.lists(
            st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
            min_size=1,
            max_size=3,
        ),
        lo=st.integers(min_value=0, max_value=20),
        width=st.integers(min_value=0, max_value=10),
    )
    def test_pruning_never_changes_output(self, groups, lo, width):
        data, _ = make_file([[g, [v * 2 for v in g]] for g in groups])
        preds = scan.PredicateSet((("a", lo, lo + width),), ("a", "b"))

        def rows(prune):
            sim = seeded_sim({"f.lcf": data})
            batches, _ = run_scan(sim, ["f.lcf"], preds, prune=prune)
            return sorted(zip(*[sum((b[i] for b in batches), []) for i in range(2)]))

        assert rows(True) == rows(False)


def per_row_filter(table, names, projection, checks):
    """Oracle: the projected values of each row inside every (column, lo, hi)."""
    col = dict(zip(names, table))
    rows = [
        r for r in range(len(table[0])) if all(lo <= col[n][r] <= hi for n, lo, hi in checks)
    ]
    return [[col[c][r] for r in rows] for c in projection]


def one_run(values, lo, hi):
    """(a, b) when the rows below lo, inside [lo, hi] and above hi come in
    that order, so the rows inside are exactly values[a:b]; else None."""
    side = [0 if v < lo else 1 if v <= hi else 2 for v in values]
    if side != sorted(side):
        return None
    a = side.count(0)
    return a, a + side.count(1)


INT64_EDGES = st.sampled_from([-(2**63), 2**63 - 1])


@st.composite
def shaped_column(draw, n):
    """n INT64 values: sorted, reverse-sorted, constant, full of duplicates or random."""
    shape = draw(st.sampled_from(["sorted", "reversed", "constant", "duplicates", "random"]))
    if shape == "constant":
        return [draw(st.integers(-20, 20) | INT64_EDGES)] * n
    if shape == "duplicates":
        values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        return draw(st.sampled_from([sorted, lambda v: v]))(values)
    values = draw(st.lists(st.integers(-20, 20) | INT64_EDGES, min_size=n, max_size=n))
    if shape == "sorted":
        return sorted(values)
    if shape == "reversed":
        return sorted(values, reverse=True)
    return values


class TestRunSelection:
    """A group's rows are selected from the first check's column by one
    run when bisection's run is proven, by a per-row filter otherwise."""

    NAMES = ("a", "b", "c")
    BOUND = st.integers(-25, 25) | INT64_EDGES

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_selection_equals_per_row_filter(self, data):
        n = data.draw(st.integers(1, 40))
        table = [data.draw(shaped_column(n)) for _ in self.NAMES]
        checks = []
        for _ in range(data.draw(st.integers(1, 3))):
            lo, hi = sorted((data.draw(self.BOUND), data.draw(self.BOUND)))
            checks.append((data.draw(st.sampled_from(self.NAMES)), lo, hi))
        projection = tuple(
            data.draw(st.lists(st.sampled_from(self.NAMES), min_size=1, max_size=3, unique=True))
        )
        raw, _ = make_file([table], self.NAMES)
        rg = read_footer(raw).row_groups[0]
        chunks = {
            name: (meta, raw[meta.offset : meta.offset + meta.compressed_len])
            for name, meta in zip(self.NAMES, rg.chunks)
        }
        name_of = {meta: name for name, meta in zip(self.NAMES, rg.chunks)}
        decodes = []  # (column, values decoded) per decode_chunk call
        decode_chunk = lcf.decode_chunk

        def recording(meta, *args, **kwargs):
            values = decode_chunk(meta, *args, **kwargs)
            decodes.append((name_of[meta], len(values)))
            return values

        with mock.patch.object(lcf, "decode_chunk", recording):
            batch = scan._filter_group(rg, chunks, projection, checks)
        assert batch == per_row_filter(table, self.NAMES, projection, checks)

        first = checks[0][0]
        needed = {first, *projection, *(name for name, _, _ in checks)}
        # each needed column is decoded once, the first check's whole
        assert sorted(name for name, _ in decodes) == sorted(needed)
        assert decodes[0] == (first, n)
        # on the run path every other column is decoded over the run only
        run = one_run(table[self.NAMES.index(first)], *checks[0][1:])
        width = n if run is None else run[1] - run[0]
        assert all(count == width for _, count in decodes[1:])


class TestTailReads:
    """A planned range wholly inside the footer's 64 KiB tail read is cut
    from those bytes; every other range costs its own GET."""

    def test_last_group_inside_the_tail_is_never_requested(self):
        # group 0's two 64 KiB chunks start before the tail (b's runs into
        # it), group 1 lies wholly inside it
        big = 8 * 1024
        groups = [[list(range(big)), [v % 5 for v in range(big)]], [[7, 3, 9], [1, 2, 3]]]
        data, _ = make_file(groups)
        footer = read_footer(data)
        tail_start = len(data) - lcf.FOOTER_TAIL_WINDOW
        assert all(c.offset < tail_start for c in footer.row_groups[0].chunks)
        assert all(c.offset >= tail_start for c in footer.row_groups[1].chunks)
        sim = seeded_sim({"f.lcf": data})
        ranges = record_ranges(sim)
        preds = scan.PredicateSet((("a", 5, big - 10), ("b", 0, 3)), ("a", "b"))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        assert rows_of(batches) == filtered_rows(data, [(0, 5, big - 10), (1, 0, 3)])
        assert ranges[0] == (-lcf.FOOTER_TAIL_WINDOW, None)
        assert sorted(ranges[1:]) == [
            (c.offset, c.offset + c.compressed_len) for c in footer.row_groups[0].chunks
        ]
        assert sim.ledger.count(READ) == 1 + 2
        assert report.bytes == 2 * 8 * big
        assert report.groups_read == 2

    def test_chunk_straddling_the_tail_start_costs_one_get(self):
        # a's 64 KiB chunk lies before the tail, b's runs across its start
        rows = 8 * 1024
        data, _ = make_file([[list(range(rows)), list(range(rows))]])
        a, b = read_footer(data).row_groups[0].chunks
        tail_start = len(data) - lcf.FOOTER_TAIL_WINDOW
        assert a.offset + a.compressed_len <= tail_start
        assert b.offset < tail_start < b.offset + b.compressed_len
        sim = seeded_sim({"f.lcf": data})
        ranges = record_ranges(sim)
        batches, _ = run_scan(sim, ["f.lcf"], scan.PredicateSet((), ("a", "b")))
        assert batches == [[list(range(rows)), list(range(rows))]]
        assert ranges.count((b.offset, b.offset + b.compressed_len)) == 1
        assert sim.ledger.count(READ) == 1 + 2

    def test_footer_larger_than_the_window_serves_nothing_from_it(self):
        # the footer fills the window, so every surviving chunk is fetched
        schema = lcf.Schema(("x",))
        data = lcf.write_file(schema, [[[i]] for i in range(2000)])
        footer_off, _ = lcf.split_trailer(data[-8:], len(data))
        assert footer_off < len(data) - lcf.FOOTER_TAIL_WINDOW
        sim = seeded_sim({"f.lcf": data})
        preds = scan.PredicateSet((("x", 1990, 2100),), ("x",))
        batches, report = run_scan(sim, ["f.lcf"], preds)
        assert rows_of(batches) == [(x,) for x in range(1990, 2000)]
        assert 2 + 10 == sim.ledger.count(READ)
        assert report.bytes == 10 * 8

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=12_000), min_size=1, max_size=4),
        lo=st.integers(min_value=0, max_value=30_000),
        width=st.integers(min_value=0, max_value=30_000),
        chunk_size=st.sampled_from([64 * 1024, MIB]),
    )
    def test_requests_are_footer_plus_items_starting_before_the_tail(
        self, sizes, lo, width, chunk_size
    ):
        groups, start = [], 0
        for n in sizes:
            a = list(range(start, start + n))
            groups.append([a, [v % 7 for v in a]])
            start += n
        data, _ = make_file(groups)
        footer = read_footer(data)
        preds = scan.PredicateSet((("a", lo, lo + width),), ("a", "b"))
        tail_start = max(0, len(data) - lcf.FOOTER_TAIL_WINDOW)
        surviving = scan.prune_row_groups(footer, preds)
        sim = seeded_sim({"f.lcf": data})
        with mock.patch.object(scan, "CHUNK_SIZE_BYTES", chunk_size):
            plan = scan.plan_downloads(footer, surviving, ("a", "b")) if surviving else []
            batches, report = run_scan(sim, ["f.lcf"], preds)
        bought = [length for reads in plan for _, start, length in reads if start < tail_start]
        assert sim.ledger.count(READ) == 1 + len(bought)
        assert report.bytes == sum(bought)
        assert rows_of(batches) == filtered_rows(data, [(0, lo, lo + width)])


class TestGetSchedule:
    """The virtual-time schedule of every GET of three scans at the default
    chunk size, connection count and row-group prefetch."""

    CONNECTIONS = 4  # a scan's connections for chunk GETs

    @staticmethod
    def record_gets(sim):
        """(virtual start, virtual end, key, range) of each GET, in completion order."""
        gets = []
        get_object = sim.store.get_object

        def recording(ctx, bucket, key, byte_range=None):
            start = sim.loop.now
            data = yield from get_object(ctx, bucket, key, byte_range)
            gets.append((start, sim.loop.now, key, byte_range))
            return data

        sim.store.get_object = recording
        return gets

    def test_get_schedule_is_pinned(self):
        names = ("c0", "c1", "c2", "c3")
        # (a) four 16 KiB columns: two groups of four GETs in flight. Five
        # copies are scanned at once: a fifth footer that waited for a
        # connection would start late and hold one against the chunk GETs
        groups = [[[g * 4096 + i for i in range(2048)] for _ in names] for g in range(4)]
        wide = clear_of_tail(make_file(groups, names)[0])
        # (b) one group whose single 1.2 MB chunk is split into ranged GETs
        big = lcf.write_file(lcf.Schema(("x",)), [[list(range(150_000))]])
        # (c) f is filter-only: proven in group 0, pruned in group 1, open in
        # groups 2 to 4; group 4 lies inside the footer's tail. Groups 0 and
        # 2 in flight need three GETs, so a third group launched early would
        # take the idle connection
        rows = 8 * 1024
        tail = make_file(
            [
                [list(range(rows)), [v % 100 for v in range(rows)]],
                [[1, 2], [500, 600]],
                [list(range(rows)), [v % 150 for v in range(rows)]],
                [list(range(rows, 2 * rows)), [v % 150 for v in range(rows)]],
                [[7, 8, 9], [5, 200, 50]],
            ],
            ("a", "f"),
        )[0]
        footer = read_footer(tail)
        assert footer.row_groups[4].chunks[0].offset >= len(tail) - lcf.FOOTER_TAIL_WINDOW
        assert footer.row_groups[3].chunks[1].offset < len(tail) - lcf.FOOTER_TAIL_WINDOW
        wides = [f"wide{i}.lcf" for i in range(5)]
        scans = [
            (wides, wide, scan.PredicateSet((), names), []),
            (["big.lcf"], big, scan.PredicateSet((), ("x",)), []),
            (["tail.lcf"], tail, scan.PredicateSet((("f", 0, 100),), ("a",)), [(1, 0, 100)]),
        ]
        # decoding takes virtual time, so the schedule shows that the next
        # group is launched before the current one is decoded
        sim = CloudSim(SimConfig(decode_cycles_per_byte=Fraction(1000)))
        for paths, data, _, _ in scans:
            for path in paths:
                sim.store.seed_object("data", path, data)
        gets = self.record_gets(sim)
        durations = []
        for paths, data, preds, intervals in scans:
            batches, report = run_scan(sim, paths, preds)
            rows_kept = [r[: len(preds.projection)] for r in filtered_rows(data, intervals)]
            assert rows_of(batches) == rows_kept * len(paths)
            durations.append(report.duration_us)

        footer_range = (-lcf.FOOTER_TAIL_WINDOW, None)
        chunk_gets = [g for g in gets if g[3] != footer_range]
        assert sorted(g[2] for g in gets if g[3] == footer_range) == ["big.lcf", "tail.lcf"] + wides
        # 16 whole chunks a copy, the 1 MiB piece and its rest, a's group-0
        # chunk and both chunks of groups 2 and 3
        assert len(chunk_gets) == 5 * 16 + 2 + 5
        assert sorted(g[3] for g in chunk_gets if g[2] == "big.lcf") == [
            (0, MIB),
            (MIB, 8 * 150_000),
        ]
        # an interval is [start, end): at one instant, ends count before starts
        edges = sorted(
            [(end, -1) for _, end, _, _ in chunk_gets] + [(s, 1) for s, _, _, _ in chunk_gets]
        )
        open_gets, peak = 0, 0
        for _, step in edges:
            open_gets += step
            peak = max(peak, open_gets)
        assert peak == self.CONNECTIONS
        digest = hashlib.sha256(repr((gets, durations)).encode()).hexdigest()
        assert digest == "c288e55344f1db40f261704a1e39987124ae2943f514e0cbd6be0b8a7a401498"
