"""Object-store scan operator: stats pruning plus a leveled download planner.

Concurrency is spent in priority order: file metadata on its own logical
connection (level 4), pipelining across row groups (level 3), parallel column
chunks within a group (level 2), and splitting single chunks into ranged
requests (level 1) only when the higher levels leave connections idle, since
splitting inflates the request bill.

A column that only the filter reads is fetched for a row group only when the
group's INT64 stats leave one of its intervals open; where the stats prove
every value inside, the rows need no check and the chunk is not bought.

A planned range that lies wholly inside the 64 KiB tail, read with the
footer, is cut from those bytes instead of bought again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import lcf
from .clock import Future

MIN_CHUNK_SIZE = 64 * 1024
ROW_GROUP_PREFETCH = 2  # row groups in flight at level 3


@dataclass(frozen=True)
class ScanConfig:
    chunk_size_bytes: int = 1024 * 1024
    max_connections: int = 4

    def __post_init__(self):
        if self.chunk_size_bytes < MIN_CHUNK_SIZE:
            raise ValueError("chunk size below 64 KiB floor")
        if self.max_connections < 1:
            raise ValueError("need at least one connection")


@dataclass(frozen=True)
class PredicateSet:
    """Conjunction of closed per-column intervals plus a projection."""

    intervals: tuple[tuple[str, int | float, int | float], ...]
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
            stats = rg.chunks[col_idx[name]].stats
            if stats.max_value < lo or stats.min_value > hi:
                keep = False
                break
        if keep:
            surviving.append(g)
    return surviving


def _stats_prove(schema: lcf.Schema, rg: lcf.RowGroupMeta, name: str, lo, hi) -> bool:
    """True when every value of a row group's column provably lies in [lo, hi].

    Only INT64 stats are trusted: ``min()``/``max()`` skip a NaN that is not
    a FLOAT64 chunk's first value, so its stats can sit inside an interval
    that the NaN row fails.
    """
    ci = schema.index_of(name)
    stats = rg.chunks[ci].stats
    if schema.columns[ci][1] != lcf.INT64:
        return False
    return lo <= stats.min_value and stats.max_value <= hi


def _filter_batch(decoded: dict, projection, checks) -> list[list]:
    """Projected columns of the rows inside every (column, lo, hi) check.

    The first check builds a selection vector of row indices and each further
    check narrows it; with no checks the decoded columns are the batch.
    """
    if not checks:
        return [decoded[c] for c in projection]
    (values, lo, hi), rest = checks[0], checks[1:]
    selected = [i for i, v in enumerate(values) if lo <= v <= hi]
    for values, lo, hi in rest:
        selected = [i for i in selected if lo <= values[i] <= hi]
    return [list(map(decoded[c].__getitem__, selected)) for c in projection]


@dataclass(frozen=True)
class PlanItem:
    level: int
    group: int
    column: str
    start: int
    length: int


def plan_downloads(
    footer: lcf.FileFooter,
    surviving: list[int],
    columns: tuple[str, ...],
    config: ScanConfig,
) -> list[PlanItem]:
    """Static data-request plan for one file's surviving groups."""
    if not surviving:
        raise ValueError("plan needs at least one surviving group")
    col_idx = [footer.schema.index_of(c) for c in columns]
    level = 2 if len(surviving) == 1 else 3
    in_flight_groups = 1 if level == 2 else min(ROW_GROUP_PREFETCH, len(surviving))
    budget = len(columns) * in_flight_groups
    allow_split = budget < config.max_connections
    items: list[PlanItem] = []
    for g in surviving:
        rg = footer.row_groups[g]
        for name, ci in zip(columns, col_idx):
            chunk = rg.chunks[ci]
            if allow_split and chunk.compressed_len > config.chunk_size_bytes:
                for off in range(0, chunk.compressed_len, config.chunk_size_bytes):
                    length = min(config.chunk_size_bytes, chunk.compressed_len - off)
                    items.append(PlanItem(1, g, name, chunk.offset + off, length))
            else:
                items.append(PlanItem(level, g, name, chunk.offset, chunk.compressed_len))
    return items


@dataclass
class ScanReport:
    """One scan's figures.  `requests` counts footer and chunk GETs and
    `bytes` the bytes the chunk GETs bought: a range read from the footer's
    tail adds to neither."""

    requests: int = 0
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
    sim,
    ctx,
    bucket: str,
    paths: list[str],
    predicates: PredicateSet,
    config: ScanConfig | None = None,
    prune: bool = True,
):
    """Scan LCF files, yielding (batches, report).

    Batches are column-major tables in projection order, one per surviving
    row group, already filtered at row granularity.
    """
    config = config or ScanConfig()
    report = ScanReport()
    start_us = sim.loop.now
    gate = _Gate(config.max_connections)

    # level 4: footers travel on their own logical connection
    footer_tasks = {
        path: sim.loop.spawn(lcf.read_footer_ranged(sim, ctx, bucket, path)) for path in paths
    }

    projection = predicates.projection
    filter_only = tuple(
        dict.fromkeys(name for name, _, _ in predicates.intervals if name not in projection)
    )

    def fetch_item(path, item):
        yield from gate.acquire()
        try:
            data = yield from sim.store.get_object(
                ctx, bucket, path, (item.start, item.start + item.length)
            )
            return bytes(data)
        finally:
            gate.release()

    batches = []
    for path in paths:
        # popped, so the finished task does not keep the tail alive
        footer, footer_requests, tail, tail_start = yield footer_tasks.pop(path)
        report.requests += footer_requests
        surviving = prune_row_groups(footer, predicates) if prune else list(
            range(len(footer.row_groups))
        )
        report.groups_pruned += len(footer.row_groups) - len(surviving)
        report.groups_read += len(surviving)
        if not surviving:
            continue
        # the level and split budget count every filter column, as if each
        # group fetched it; the plan then drops a filter-only column from the
        # groups whose stats prove its intervals
        plan = plan_downloads(footer, surviving, projection + filter_only, config)
        reads: dict[int, tuple[tuple[str, ...], list]] = {}  # group -> (columns, checks)
        by_group: dict[int, list[PlanItem]] = {g: [] for g in surviving}
        for g in surviving:
            rg = footer.row_groups[g]
            # the intervals the stats leave open: the rows need these checks
            checks = [iv for iv in predicates.intervals if not _stats_prove(footer.schema, rg, *iv)]
            opened = {name for name, _, _ in checks}
            reads[g] = (projection + tuple(c for c in filter_only if c in opened), checks)
        # a range wholly inside the footer's tail read is cut from those
        # bytes and bought with no GET; one that straddles the tail's start
        # is fetched whole
        served: dict[PlanItem, bytes] = {}
        for item in plan:
            if item.column in reads[item.group][0]:
                by_group[item.group].append(item)
                if item.start >= tail_start:
                    at = item.start - tail_start
                    served[item] = tail[at : at + item.length]
        del tail

        pending: deque[tuple[int, list]] = deque()
        group_iter = iter(surviving)

        def launch_next_group():
            g = next(group_iter, None)
            if g is None:
                return False
            tasks = [
                None if it in served else sim.loop.spawn(fetch_item(path, it))
                for it in by_group[g]
            ]
            pending.append((g, tasks))
            return True

        window = 1 if len(surviving) == 1 else ROW_GROUP_PREFETCH
        for _ in range(window):
            if not launch_next_group():
                break
        while pending:
            g, tasks = pending.popleft()
            parts = []
            for item, task in zip(by_group[g], tasks):
                parts.append(served.pop(item) if task is None else (yield task))
            launch_next_group()
            rg = footer.row_groups[g]
            columns, checks = reads[g]
            # reassemble per column (level-1 splits arrive in offset order)
            col_bytes: dict[str, list[bytes]] = {c: [] for c in columns}
            for item, task, raw in zip(by_group[g], tasks, parts):
                col_bytes[item.column].append(raw)
                if task is not None:
                    report.requests += 1
                    report.bytes += len(raw)
            decoded = {}
            total_encoded = 0
            for name in columns:
                ci = footer.schema.index_of(name)
                chunk = rg.chunks[ci]
                raw = b"".join(col_bytes[name])
                total_encoded += len(raw)
                decoded[name] = lcf.decode_chunk(
                    chunk, raw, footer.schema.columns[ci][1], rg.row_count
                )
            cycles = sim.cfg.decode_cycles_per_byte * total_encoded
            if cycles:
                yield from ctx.compute(cycles)
            batch = _filter_batch(
                decoded, projection, [(decoded[name], lo, hi) for name, lo, hi in checks]
            )
            report.rows += len(batch[0])
            batches.append(batch)

    report.duration_us = sim.loop.now - start_us
    return batches, report
