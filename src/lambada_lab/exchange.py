"""Object-store exchange operators.

Workers repartition records by writing files into shared buckets and reading
the files addressed to them; no worker-to-worker connections exist.  A k-level
variant views worker ids as k base-s digits and exchanges one digit per round,
trading extra data scans for far fewer requests.  Write combining packs all of
a sender's partitions into one object per round, with slice offsets either in
a companion object or encoded into the key name.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .billing import LIST, READ, WRITE, format_usd
from .clock import AllOf, Sleep, US_PER_MS
from .substrate import HostContext, ZeroBlob

WC_OFF = "off"
WC_OFFSETS_FILE = "offsets_file"
WC_OFFSETS_IN_NAME = "offsets_in_name"
_WC_MODES = (WC_OFF, WC_OFFSETS_FILE, WC_OFFSETS_IN_NAME)


def ceil_root(P: int, k: int) -> int:
    """Smallest s with s**k >= P (grid side length)."""
    s = 1
    while s**k < P:
        s += 1
    return s


def digit(x: int, level: int, s: int) -> int:
    return x // s**level % s


def route(p: int, level: int, c: int, s: int, P: int) -> int | None:
    """Worker that holds digit `c` at `level` for records currently at `p`.

    Prefers the peer agreeing with p in all other digits; when that id does
    not exist (ragged P) it falls back to the destination's digit prefix.
    Returns None when no destination with this digit can reach p's digit
    suffix at all — such a partition is provably empty and never shipped.
    """
    base = s**level
    natural = p - p % (base * s) + c * base + p % base
    if natural < P:
        return natural
    fallback = c * base + p % base
    return fallback if fallback < P else None


def sender_map(P: int, level: int, s: int) -> dict[int, list[tuple[int, int]]]:
    """receiver -> [(sender, digit class)] for one exchange round."""
    receivers: dict[int, list[tuple[int, int]]] = {p: [] for p in range(P)}
    for q in range(P):
        for c in range(s):
            target = route(q, level, c, s, P)
            if target is not None:
                receivers[target].append((q, c))
    return receivers


@dataclass(frozen=True)
class ExchangeConfig:
    levels: int = 1
    write_combining: str = WC_OFF
    num_buckets: int = 1
    group_side: int | None = None
    bucket_prefix: str = "xchg"
    poll: bool = False  # bill NotFound probes instead of subscribing

    def __post_init__(self):
        if self.levels not in (1, 2, 3):
            raise ValueError("levels must be 1, 2 or 3")
        if self.write_combining not in _WC_MODES:
            raise ValueError(f"write_combining must be one of {_WC_MODES}")
        if self.num_buckets < 1:
            raise ValueError("need at least one bucket")
        if self.poll and self.write_combining == WC_OFFSETS_IN_NAME:
            raise ValueError("offsets_in_name discovers keys by listing; poll does not apply")

    def side(self, P: int) -> int:
        s = self.group_side if self.group_side is not None else ceil_root(P, self.levels)
        if s**self.levels < P:
            raise ValueError(f"grid {s}^{self.levels} does not cover {P} workers")
        return s


class NamingScheme:
    """Bucket sharding + key templates for exchange files."""

    def __init__(self, prefix: str, num_buckets: int):
        self.prefix = prefix
        self.num_buckets = num_buckets

    def bucket(self, owner: int) -> str:
        return f"{self.prefix}-{owner % self.num_buckets}"

    def all_buckets(self) -> list[str]:
        return [f"{self.prefix}-{i}" for i in range(self.num_buckets)]

    def plain_key(self, level: int, sender: int, receiver: int) -> str:
        return f"l{level}/s{sender}/r{receiver}"

    def combined_key(self, level: int, sender: int) -> str:
        return f"l{level}/s{sender}"

    def offsets_key(self, level: int, sender: int) -> str:
        return f"l{level}/s{sender}-off"

    def in_name_key(self, level: int, sender: int, offsets: list[int]) -> str:
        return f"l{level}/s{sender}-" + "_".join(str(o) for o in offsets) + "-off"

    @staticmethod
    def parse_in_name(key: str) -> tuple[int, list[int]]:
        """(sender, offsets) from an offsets-in-name key."""
        stem = key.rsplit("/", 1)[1]
        if not stem.startswith("s") or not stem.endswith("-off"):
            raise ValueError(f"not an offsets-in-name key: {key}")
        sender_part, offsets_part = stem[1:-4].split("-", 1)
        return int(sender_part), [int(o) for o in offsets_part.split("_")]


def encode_records(records: list[tuple[int, bytes]]) -> bytes:
    out = bytearray()
    for key, value in records:
        out += struct.pack("<qI", key, len(value))
        out += value
    return bytes(out)


def decode_records(data: bytes) -> list[tuple[int, bytes]]:
    records = []
    pos = 0
    while pos < len(data):
        key, vlen = struct.unpack_from("<qI", data, pos)
        pos += 12
        records.append((key, bytes(data[pos : pos + vlen])))
        pos += vlen
    return records


@dataclass
class PhaseTrace:
    worker: int
    level: int
    partition_us: int
    write_us: int
    wait_us: int
    read_us: int


TRACE_CSV_HEADER = "worker,level,partition_us,write_us,wait_us,read_us"


def trace_to_csv(rows: list[PhaseTrace]) -> str:
    lines = [TRACE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.worker},{r.level},{r.partition_us},{r.write_us},{r.wait_us},{r.read_us}"
        )
    return "\n".join(lines) + "\n"


def _wait_for_prefix_count(sim, bucket: str, prefix: str, n: int):
    """Free existence wait until >= n keys with `prefix` are present."""
    b = sim.store.bucket(bucket)
    while sum(1 for k in b.objects if k.startswith(prefix)) < n:
        yield Sleep(5 * US_PER_MS)


class _ExchangeRun:
    """The exchange's round loop, shared by record-carrying and synthetic runs."""

    def __init__(self, sim, P: int, cfg: ExchangeConfig):
        self.sim = sim
        self.P = P
        self.cfg = cfg
        self.s = cfg.side(P)
        self.naming = NamingScheme(cfg.bucket_prefix, cfg.num_buckets)
        for name in self.naming.all_buckets():
            sim.store.create_bucket(name)
        self.senders = [sender_map(P, level, self.s) for level in range(cfg.levels)]
        self.owners = Counter(self.naming.bucket(q) for q in range(P))  # senders per bucket
        self.trace: list[PhaseTrace] = []

    def rounds(self, payloads: dict, split, merge, ctx_factory=None):
        """Run every worker's rounds; returns (final payloads, trace, makespan_us).

        Worker p starts with ``payloads[p]``.  Each round, ``split(p, level,
        payload)`` gives one object holding the s digit classes' slices back
        to back plus their s+1 offsets, and ``merge(blobs)`` turns the slices
        received into the next round's payload.
        """
        sim, finals = self.sim, {}

        def worker(p: int):
            ctx = ctx_factory(p) if ctx_factory else HostContext(
                sim, f"xw{p}", invoke_rate_per_s=sim.cfg.worker_invoke_rate_per_s
            )
            payload = payloads[p]
            for level in range(self.cfg.levels):
                t0 = sim.loop.now
                data, offsets = split(p, level, payload)
                t1 = sim.loop.now
                yield from self.send_level(ctx, p, level, data, offsets)
                t2 = sim.loop.now
                inbound, wait_us = yield from self.receive_level(ctx, p, level)
                t3 = sim.loop.now
                payload = merge(inbound)
                self.trace.append(
                    PhaseTrace(p, level, t1 - t0, t2 - t1, wait_us, t3 - t2 - wait_us)
                )
            finals[p] = payload

        start = sim.loop.now
        yield AllOf([sim.loop.spawn(worker(p), name=f"xw{p}") for p in range(self.P)])
        return finals, self.trace, sim.loop.now - start

    def send_level(self, ctx, p: int, level: int, data, offsets: list[int]):
        """Write this worker's s partition slices for one round.

        Slice c is ``data[offsets[c]:offsets[c + 1]]``.
        """
        cfg, naming, store = self.cfg, self.naming, self.sim.store
        if cfg.write_combining == WC_OFF:
            for c in range(self.s):
                target = route(p, level, c, self.s, self.P)
                if target is None:
                    continue  # unreachable digit class, provably empty
                key = naming.plain_key(level, p, target)
                blob = data[offsets[c] : offsets[c + 1]]
                yield from store.put_object(ctx, naming.bucket(target), key, blob)
            return
        bucket = naming.bucket(p)
        if cfg.write_combining == WC_OFFSETS_IN_NAME:
            key = naming.in_name_key(level, p, offsets)
            yield from store.put_object(ctx, bucket, key, data)
        else:
            yield from store.put_object(ctx, bucket, naming.combined_key(level, p), data)
            yield from store.put_object(
                ctx,
                bucket,
                naming.offsets_key(level, p),
                struct.pack(f"<{len(offsets)}Q", *offsets),
            )

    def receive_level(self, ctx, p: int, level: int):
        """Wait for and read this worker's inbound payloads; returns blobs.

        Also returns the time spent in the free wait phase (for the trace).
        """
        cfg, naming, sim = self.cfg, self.naming, self.sim
        my_senders = self.senders[level][p]
        wait_us = 0
        blobs = []
        if cfg.write_combining == WC_OFF:
            keys = [
                (naming.bucket(p), naming.plain_key(level, q, p)) for q, _ in my_senders
            ]
            if not cfg.poll:
                t0 = sim.loop.now
                for bucket, key in keys:
                    yield from sim.store.wait_for_object(bucket, key)
                wait_us = sim.loop.now - t0
            for bucket, key in keys:
                blob, _ = yield from sim.store.get_object_when_ready(
                    ctx, bucket, key, poll=cfg.poll
                )
                blobs.append(blob)
            return blobs, wait_us
        if cfg.write_combining == WC_OFFSETS_FILE:
            for q, c in my_senders:
                bucket, key = naming.bucket(q), naming.offsets_key(level, q)
                t0 = sim.loop.now
                if not cfg.poll:
                    yield from sim.store.wait_for_object(bucket, key)
                wait_us += sim.loop.now - t0
                raw, _ = yield from sim.store.get_object_when_ready(
                    ctx, bucket, key, poll=cfg.poll
                )
                offsets = struct.unpack(f"<{len(raw) // 8}Q", bytes(raw))
                blob, _ = yield from sim.store.get_object(
                    ctx, bucket, naming.combined_key(level, q), (offsets[c], offsets[c + 1])
                )
                blobs.append(blob)
            return blobs, wait_us
        # offsets in name: wait until every sender sharing a bucket with one
        # of ours has written, list the bucket, then issue ranged reads
        prefix = f"l{level}/s"
        t0 = sim.loop.now
        listed: list[str] = []
        for bucket in sorted({naming.bucket(q) for q, _ in my_senders}):
            yield from _wait_for_prefix_count(sim, bucket, prefix, self.owners[bucket])
            keys, _ = yield from sim.store.list_objects(ctx, bucket, prefix)
            listed.extend(keys)
        wait_us = sim.loop.now - t0
        found = {}
        for key in listed:
            q, offsets = NamingScheme.parse_in_name(key)
            found[q] = key, offsets
        for q, c in my_senders:
            key, offsets = found[q]
            blob, _ = yield from sim.store.get_object(
                ctx, naming.bucket(q), key, (offsets[c], offsets[c + 1])
            )
            blobs.append(blob)
        return blobs, wait_us


def run_exchange(
    sim,
    inputs: dict[int, list[tuple[int, bytes]]],
    cfg: ExchangeConfig,
    partitioner=None,
    ctx_factory=None,
):
    """Repartition records so worker w ends with {r : partition(key) == w}.

    `inputs` maps worker id -> list of (key, value) records.  Returns
    (outputs, trace); run it with ``sim.loop.run_task``.  Raises ValueError
    if `partitioner` sends a key outside workers 0..P-1.
    """
    P = len(inputs)
    partitioner = partitioner or (lambda key: key % P)
    stray = [k for recs in inputs.values() for k, _ in recs if not 0 <= partitioner(k) < P]
    if stray:
        raise ValueError(f"partitioner sends key {stray[0]} outside workers 0..{P - 1}")
    run = _ExchangeRun(sim, P, cfg)
    s = run.s

    def split(p, level, records):
        base = s**level
        parts: list[list[tuple[int, bytes]]] = [[] for _ in range(s)]
        for rec in records:
            parts[partitioner(rec[0]) // base % s].append(rec)
        blobs = [encode_records(part) for part in parts]
        return b"".join(blobs), list(accumulate(map(len, blobs), initial=0))

    def merge(blobs):
        return [rec for blob in blobs for rec in decode_records(bytes(blob))]

    def main():
        outputs, trace, _ = yield from run.rounds(inputs, split, merge, ctx_factory)
        return outputs, trace

    return main()


def run_synthetic_exchange(
    sim,
    P: int,
    total_bytes: int,
    cfg: ExchangeConfig,
    ctx_factory=None,
):
    """Exchange of sized-but-empty payloads for large-scale timing studies.

    Each worker starts with total_bytes/P and each round splits it evenly
    over the digit classes that have a destination, so every byte arrives
    for any P.  It runs the record-carrying operator's round loop, with the
    same request pattern.  Returns (per_worker_bytes, trace, makespan_us).
    """
    run = _ExchangeRun(sim, P, cfg)
    s = run.s

    def split(p, level, size):
        # only digit classes with a destination get bytes (all on a full grid)
        live = [c for c in range(s) if route(p, level, c, s, P) is not None]
        share, extra = divmod(size, len(live))
        lens = [0] * s
        for i, c in enumerate(live):
            lens[c] = share + (1 if i < extra else 0)
        return ZeroBlob(size), list(accumulate(lens, initial=0))

    sizes = {p: total_bytes // P + (1 if p < total_bytes % P else 0) for p in range(P)}
    return run.rounds(sizes, split, lambda blobs: sum(map(len, blobs)), ctx_factory)


@dataclass(frozen=True)
class CostModelRow:
    variant: str
    reads: int
    writes: int
    lists: int
    scans: int
    request_usd: Fraction

    def to_csv_row(self) -> str:
        return (
            f"{self.variant},{self.reads},{self.writes},{self.lists},"
            f"{self.scans},{format_usd(self.request_usd)}"
        )


COST_CSV_HEADER = "variant,reads,writes,lists,scans,request_usd"
VARIANTS = ("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc")


def exchange_cost(P: int, variant: str, prices) -> CostModelRow:
    """Closed-form request counts and bill for one exchange variant.

    Write-combined variants assume offsets-in-name, which needs one listing
    per receiver per round; a solo worker knows its own file and lists
    nothing.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant}")
    k = int(variant[0])
    combined = variant.endswith("-wc")
    s = P if k == 1 else ceil_root(P, k)
    reads = k * P * s
    writes = k * P if combined else k * P * s
    lists = k * P if combined and P > 1 else 0
    usd = (
        reads * prices.request_price(READ)
        + writes * prices.request_price(WRITE)
        + lists * prices.request_price(LIST)
    )
    return CostModelRow(variant, reads, writes, lists, k, usd)


def exchange_worker_cost(
    P: int,
    total_bytes: int,
    mib_per_s: Fraction,
    prices,
    memory_mib: int = 2048,
    levels: int = 1,
) -> Fraction:
    """Worker-time bill: each round reads and writes the full input once."""
    per_worker_bytes = Fraction(total_bytes, P)
    seconds = 2 * levels * per_worker_bytes / (mib_per_s * 1024 * 1024)
    return P * seconds * prices.worker_rate(memory_mib)


def per_bucket_rate(P: int, s: int, B: int) -> Fraction:
    """Peak requests/s/bucket estimate for one round (pre-flight check)."""
    if B < 1:
        raise ValueError("B must be >= 1")
    return Fraction(P * s, B)
