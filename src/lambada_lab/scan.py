"""Object-store scan operator: stats pruning plus a fixed download order.

A worker spends its connections in priority order. Each file's footer is
fetched up front, outside the `MAX_CONNECTIONS` chunk connections. Then a
window of `ROW_GROUP_PREFETCH` row groups is in flight, and each group's
column chunks are fetched in parallel; the next group is launched once the
current group's chunks arrive, before it is decoded. Each needed chunk is
one GET of the whole chunk: a host's NIC carries one transfer at a time at
one rate, so ranged pieces of a chunk would end no sooner and cost more
requests.

One walk over a row group's stats prunes it, or lists the intervals its
rows must be checked against. A column that only the filter reads is not
bought for a group whose stats prove every value inside its intervals. A
chunk that lies wholly inside the 64 KiB tail, fetched with the footer, is
cut from those bytes instead of bought again.

A group's rows are chosen before its columns are decoded: when the first
row check keeps one proven run of rows, every other column is decoded over
that run only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

from . import lcf
from .clock import Future

MAX_CONNECTIONS = 4  # a scan's concurrent chunk GETs
ROW_GROUP_PREFETCH = 2  # row groups in flight


@dataclass(frozen=True)
class PredicateSet:
    """Conjunction of closed per-column intervals plus a projection."""

    intervals: tuple[tuple[str, int, int], ...]
    projection: tuple[str, ...]

    def __post_init__(self):
        if not self.projection:
            raise ValueError("projection must name at least one column")
        for name, lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"empty interval on {name}: [{lo}, {hi}]")


def _bounds(footer: lcf.FileFooter, predicates: PredicateSet) -> list[tuple]:
    """(column position, name, lo, hi) of each predicate interval."""
    return [(footer.schema.index_of(name), name, lo, hi) for name, lo, hi in predicates.intervals]


def _row_checks(rg: lcf.RowGroupMeta, bounds: list[tuple], prune: bool = True) -> list | None:
    """The (column, lo, hi) intervals a row group's rows must be checked
    against, the ones its stats do not prove; None when `prune` is set and
    its stats miss an interval."""
    checks = []
    for ci, name, lo, hi in bounds:
        chunk = rg.chunks[ci]
        if prune and (chunk.max_value < lo or chunk.min_value > hi):
            return None
        if chunk.min_value < lo or chunk.max_value > hi:
            checks.append((name, lo, hi))
    return checks


def prune_row_groups(footer: lcf.FileFooter, predicates: PredicateSet) -> list[int]:
    """Indices of row groups whose stats intersect every predicate interval."""
    bounds = _bounds(footer, predicates)
    return [g for g, rg in enumerate(footer.row_groups) if _row_checks(rg, bounds) is not None]


def _run_of(values: list, lo: int, hi: int) -> tuple[int, int] | None:
    """(a, b) when the values inside [lo, hi] are exactly values[a:b], else None.

    Bisection finds the run a sorted column would have; C-level min/max
    passes then prove it on `values` as they are, sorted or not.
    """
    a = bisect_left(values, lo)
    b = bisect_right(values, hi, a)
    run = values[a:b]
    if (
        lo <= min(run, default=lo)
        and max(run, default=hi) <= hi
        and max(values[:a], default=lo - 1) < lo
        and min(values[b:], default=hi + 1) > hi
    ):
        return a, b
    return None


def _filter_group(rg: lcf.RowGroupMeta, chunks: dict, projection, checks) -> list[list]:
    """Projected columns of a row group's rows inside every (column, lo, hi) check.

    `chunks` maps each needed column to (chunk metadata, bytes).  The first
    check's column is decoded whole.  When its rows inside the interval are
    one run, every other column is decoded over that run only; otherwise
    the first check builds a selection vector of row indices and every
    column is decoded whole.  Each further check narrows the selection.
    """
    window = None
    decoded = {}

    def column(name):
        if name not in decoded:
            meta, raw = chunks[name]
            decoded[name] = lcf.decode_chunk(meta, raw, rg.row_count, window)
        return decoded[name]

    if not checks:
        return [column(c) for c in projection]
    (name, lo, hi), rest = checks[0], checks[1:]
    values = column(name)
    window = _run_of(values, lo, hi)
    if window is None:
        selected = [i for i, v in enumerate(values) if lo <= v <= hi]
    else:
        decoded[name] = values[window[0] : window[1]]
        selected = range(window[1] - window[0])
    for name, lo, hi in rest:
        values = column(name)
        selected = [i for i in selected if lo <= values[i] <= hi]
    if isinstance(selected, range):
        return [column(c) for c in projection]
    return [list(map(column(c).__getitem__, selected)) for c in projection]


@dataclass
class ScanReport:
    """One scan's figures.  `bytes` counts the bytes the chunk GETs bought:
    a range read from the footer's tail adds nothing.  The host's ledger
    counts the scan's GETs."""

    bytes: int = 0
    rows: int = 0
    groups_read: int = 0
    groups_pruned: int = 0
    duration_us: int = 0


class _Gate:
    """Counting semaphore for a worker's logical connections."""

    def __init__(self, slots: int):
        self.free = slots
        self.waiters: deque[Future] = deque()

    def acquire(self):
        if self.free > 0:
            self.free -= 1
            return
        fut = Future()
        self.waiters.append(fut)
        yield fut

    def release(self) -> None:
        if self.waiters:
            self.waiters.popleft().set_result(None)
        else:
            self.free += 1


def execute_scan(
    sim, ctx, bucket: str, paths: list[str], predicates: PredicateSet, prune: bool = True
):
    """Scan LCF files, yielding (batches, report).

    Batches are column-major tables in projection order, one per surviving
    row group, already filtered at row granularity.
    """
    report = ScanReport()
    start_us = sim.loop.now
    gate = _Gate(MAX_CONNECTIONS)
    # footers are spawned up front and take no connection
    footer_tasks = {
        path: sim.loop.spawn(lcf.read_footer_ranged(sim, ctx, bucket, path)) for path in paths
    }
    projection = predicates.projection
    filter_only = tuple(
        dict.fromkeys(name for name, _, _ in predicates.intervals if name not in projection)
    )

    def fetch(path, chunk):
        yield from gate.acquire()
        try:
            end = chunk.offset + chunk.compressed_len
            data = yield from sim.store.get_object(ctx, bucket, path, (chunk.offset, end))
            return bytes(data)
        finally:
            gate.release()

    batches = []
    for path in paths:
        # popped, so the finished task does not keep the tail alive
        footer, tail, tail_start = yield footer_tasks.pop(path)
        bounds = _bounds(footer, predicates)
        columns = [(name, footer.schema.index_of(name)) for name in projection + filter_only]
        todo = deque()  # (row group, row checks, [(column, chunk, tail bytes or None)])
        for rg in footer.row_groups:
            checks = _row_checks(rg, bounds, prune)
            if checks is None:
                continue
            # a proven filter-only column is not read, and a chunk wholly
            # inside the tail is cut from it instead of bought
            needed = set(projection).union(name for name, _, _ in checks)
            reads = []
            for name, ci in columns:
                if name in needed:
                    chunk = rg.chunks[ci]
                    at = chunk.offset - tail_start
                    data = tail[at : at + chunk.compressed_len] if at >= 0 else None
                    reads.append((name, chunk, data))
            todo.append((rg, checks, reads))
        del tail
        report.groups_read += len(todo)
        report.groups_pruned += len(footer.row_groups) - len(todo)

        in_flight = deque()

        def launch():
            """Spawn the next groups' GETs, in plan order, up to the prefetch window."""
            while todo and len(in_flight) < ROW_GROUP_PREFETCH:
                rg, checks, reads = todo.popleft()
                parts = [
                    (name, chunk, sim.loop.spawn(fetch(path, chunk)) if data is None else data)
                    for name, chunk, data in reads
                ]
                in_flight.append((rg, checks, parts))

        launch()
        while in_flight:
            rg, checks, parts = in_flight.popleft()
            chunks = {}
            for name, chunk, part in parts:
                if not isinstance(part, bytes):
                    part = yield part
                    report.bytes += len(part)
                chunks[name] = (chunk, part)
            launch()
            batch = _filter_group(rg, chunks, projection, checks)
            cycles = sim.cfg.decode_cycles_per_byte * sum(len(raw) for _, raw in chunks.values())
            if cycles:
                yield from ctx.compute(cycles)
            report.rows += len(batch[0])
            batches.append(batch)

    report.duration_us = sim.loop.now - start_us
    return batches, report
