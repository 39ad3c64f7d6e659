"""Object-store scan operator: stats pruning plus a fixed download order.

A worker spends its connections in priority order. Each file's footer is
fetched up front, outside the `MAX_CONNECTIONS` chunk connections. Then a
window of min(`ROW_GROUP_PREFETCH`, surviving groups) row groups is in
flight, and each group's column chunks are fetched in parallel; the next
group is launched once the current group's parts arrive, before it is
decoded. A chunk over `CHUNK_SIZE_BYTES` is split into ranged GETs only
when the window's chunks leave connections idle, since splitting inflates
the request bill.

Each surviving row group is planned once, as one list of reads. A column
that only the filter reads is dropped from a group whose stats prove
every value inside its intervals: the rows need no check and the chunk is
not bought. It still counts toward the split budget. A read that lies
wholly inside the 64 KiB tail, fetched with the footer, is cut from those
bytes instead of bought again.

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

CHUNK_SIZE_BYTES = 1024 * 1024  # the size of a split chunk's ranged GETs
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


def prune_row_groups(footer: lcf.FileFooter, predicates: PredicateSet) -> list[int]:
    """Indices of row groups whose stats intersect every predicate interval."""
    col_idx = {name: footer.schema.index_of(name) for name, _, _ in predicates.intervals}
    surviving = []
    for g, rg in enumerate(footer.row_groups):
        keep = True
        for name, lo, hi in predicates.intervals:
            chunk = rg.chunks[col_idx[name]]
            if chunk.max_value < lo or chunk.min_value > hi:
                keep = False
                break
        if keep:
            surviving.append(g)
    return surviving


def _stats_prove(schema: lcf.Schema, rg: lcf.RowGroupMeta, name: str, lo, hi) -> bool:
    """True when every value of a row group's column provably lies in [lo, hi]."""
    chunk = rg.chunks[schema.index_of(name)]
    return lo <= chunk.min_value and chunk.max_value <= hi


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


def plan_downloads(
    footer: lcf.FileFooter, surviving: list[int], columns: tuple[str, ...]
) -> list[list[tuple[str, int, int]]]:
    """One list of (column, start, length) reads per surviving group.

    A chunk is one read unless the in-flight groups' chunks leave some of
    the `MAX_CONNECTIONS` idle; then a chunk over `CHUNK_SIZE_BYTES` is
    split into ranged reads of that size, in offset order.
    """
    if not surviving:
        raise ValueError("plan needs at least one surviving group")
    col_idx = [footer.schema.index_of(c) for c in columns]
    window = min(ROW_GROUP_PREFETCH, len(surviving))
    split = len(columns) * window < MAX_CONNECTIONS
    plan = []
    for g in surviving:
        reads = []
        for name, ci in zip(columns, col_idx):
            chunk = footer.row_groups[g].chunks[ci]
            if split and chunk.compressed_len > CHUNK_SIZE_BYTES:
                for off in range(0, chunk.compressed_len, CHUNK_SIZE_BYTES):
                    length = min(CHUNK_SIZE_BYTES, chunk.compressed_len - off)
                    reads.append((name, chunk.offset + off, length))
            else:
                reads.append((name, chunk.offset, chunk.compressed_len))
        plan.append(reads)
    return plan


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

    def fetch(path, start, length):
        yield from gate.acquire()
        try:
            data = yield from sim.store.get_object(ctx, bucket, path, (start, start + length))
            return bytes(data)
        finally:
            gate.release()

    batches = []
    for path in paths:
        # popped, so the finished task does not keep the tail alive
        footer, tail, tail_start = yield footer_tasks.pop(path)
        surviving = prune_row_groups(footer, predicates) if prune else list(
            range(len(footer.row_groups))
        )
        report.groups_pruned += len(footer.row_groups) - len(surviving)
        report.groups_read += len(surviving)
        if not surviving:
            continue
        # the split budget counts every filter-only column; a group then
        # drops the reads of those whose intervals its stats prove, and a
        # read wholly inside the tail is cut from it instead of bought
        plan = plan_downloads(footer, surviving, projection + filter_only)
        todo = deque()  # (row group, row checks, [(column, start, length, tail bytes or None)])
        for g, planned in zip(surviving, plan):
            rg = footer.row_groups[g]
            checks = [iv for iv in predicates.intervals if not _stats_prove(footer.schema, rg, *iv)]
            needed = set(projection).union(name for name, _, _ in checks)
            reads = []
            for name, start, length in planned:
                if name in needed:
                    at = start - tail_start
                    reads.append((name, start, length, tail[at : at + length] if at >= 0 else None))
            todo.append((rg, checks, reads))
        del tail

        in_flight = deque()

        def launch():
            """Spawn the next groups' GETs, in plan order, up to the prefetch window."""
            while todo and len(in_flight) < ROW_GROUP_PREFETCH:
                rg, checks, reads = todo.popleft()
                parts = [
                    (name, sim.loop.spawn(fetch(path, start, length)) if data is None else data)
                    for name, start, length, data in reads
                ]
                in_flight.append((rg, checks, parts))

        launch()
        while in_flight:
            rg, checks, parts = in_flight.popleft()
            # splits of one chunk arrive in offset order
            col_bytes: dict[str, list[bytes]] = {}
            for name, part in parts:
                if not isinstance(part, bytes):
                    part = yield part
                    report.bytes += len(part)
                col_bytes.setdefault(name, []).append(part)
            launch()
            chunks = {
                name: (rg.chunks[footer.schema.index_of(name)], b"".join(pieces))
                for name, pieces in col_bytes.items()
            }
            batch = _filter_group(rg, chunks, projection, checks)
            cycles = sim.cfg.decode_cycles_per_byte * sum(len(raw) for _, raw in chunks.values())
            if cycles:
                yield from ctx.compute(cycles)
            report.rows += len(batch[0])
            batches.append(batch)

    report.duration_us = sim.loop.now - start_us
    return batches, report
