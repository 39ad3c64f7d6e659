"""Object-store exchange operators.

Workers repartition records by writing files into shared buckets and reading
the files addressed to them; no worker-to-worker connections exist.  A k-level
variant views worker ids as k base-s digits and exchanges one digit per round,
trading extra data scans for far fewer requests.  Write combining packs all of
a sender's partitions into one object per round, with the slice offsets
encoded into the key name; receivers find those keys with a LIST.  Each run
is numbered on its sim, and every key starts with that number.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .billing import LIST, READ, WRITE, request_price, worker_rate
from .clock import AllOf, Future
from .config import SimConfig
from .substrate import HostContext, ZeroBlob

WC_OFF = "off"
WC_OFFSETS_IN_NAME = "offsets_in_name"
_WC_MODES = (WC_OFF, WC_OFFSETS_IN_NAME)


def ceil_root(P: int, k: int) -> int:
    """Smallest s with s**k >= P (grid side length)."""
    s = 1
    while s**k < P:
        s += 1
    return s


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

    def __post_init__(self):
        if self.levels not in (1, 2, 3):
            raise ValueError("levels must be 1, 2 or 3")
        if self.write_combining not in _WC_MODES:
            raise ValueError(f"write_combining must be one of {_WC_MODES}")
        if self.num_buckets < 1:
            raise ValueError("need at least one bucket")


class NamingScheme:
    """Bucket sharding + key templates for one exchange run's files.

    Every key starts with ``x{run}/``, the run's number on its sim, so a
    LIST never returns another run's files from the shared buckets.
    """

    def __init__(self, run: int, num_buckets: int):
        self.run = run
        self.num_buckets = num_buckets

    def bucket(self, owner: int) -> str:
        return f"xchg-{owner % self.num_buckets}"

    def all_buckets(self) -> list[str]:
        return [f"xchg-{i}" for i in range(self.num_buckets)]

    def level_prefix(self, level: int) -> str:
        """Prefix of every offsets-in-name key of one round."""
        return f"x{self.run}/l{level}/s"

    def plain_key(self, level: int, sender: int, receiver: int) -> str:
        return f"x{self.run}/l{level}/s{sender}/r{receiver}"

    def in_name_key(self, level: int, sender: int, offsets: list[int]) -> str:
        return self.level_prefix(level) + f"{sender}-" + "_".join(map(str, offsets)) + "-off"

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
    write_us: int
    wait_us: int
    read_us: int


class _ExchangeRun:
    """The exchange's round loop, shared by record-carrying and synthetic runs."""

    def __init__(self, sim, P: int, cfg: ExchangeConfig):
        self.sim = sim
        self.P = P
        self.cfg = cfg
        self.s = ceil_root(P, cfg.levels)
        self.naming = NamingScheme(next(sim.run_ids), cfg.num_buckets)
        for name in self.naming.all_buckets():
            sim.store.create_bucket(name)
        self.senders = [sender_map(P, level, self.s) for level in range(cfg.levels)]
        self.bucket_of = [self.naming.bucket(q) for q in range(P)]  # worker -> its bucket
        # puts still to come per destination: (level, receiver) without write
        # combining, (level, bucket) with offsets in the name; its Future
        # resolves at the last put, which ends the receivers' free wait
        if cfg.write_combining == WC_OFF:
            self.pending = {(level, p): len(m[p]) for level, m in enumerate(self.senders) for p in m}
        else:
            owners = Counter(self.bucket_of)
            self.pending = {(level, b): n for level in range(cfg.levels) for b, n in owners.items()}
        self.arrived = {dest: Future() for dest in self.pending}
        self.listed: dict = {}  # (level, bucket) -> {sender: (key, offsets)}
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
                data, offsets = split(p, level, payload)
                t0 = sim.loop.now
                yield from self.send_level(ctx, p, level, data, offsets)
                t1 = sim.loop.now
                inbound, wait_us = yield from self.receive_level(ctx, p, level)
                payload = merge(inbound)
                self.trace.append(
                    PhaseTrace(p, level, t1 - t0, wait_us, sim.loop.now - t1 - wait_us)
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
                yield from store.put_object(ctx, self.bucket_of[target], key, blob)
                self._put_done((level, target))
            return
        bucket = self.bucket_of[p]
        key = naming.in_name_key(level, p, offsets)
        yield from store.put_object(ctx, bucket, key, data)
        self._put_done((level, bucket))

    def _put_done(self, dest) -> None:
        self.pending[dest] -= 1
        if not self.pending[dest]:
            self.arrived[dest].set_result(None)

    def receive_level(self, ctx, p: int, level: int):
        """Wait for and read this worker's inbound payloads; returns blobs.

        Also returns the time spent in the free wait phase (for the trace).
        """
        cfg, naming, sim, bucket_of = self.cfg, self.naming, self.sim, self.bucket_of
        my_senders = self.senders[level][p]
        blobs = []
        if cfg.write_combining == WC_OFF:
            bucket = bucket_of[p]
            t0 = sim.loop.now
            if not self.arrived[level, p].done:
                yield self.arrived[level, p]
            wait_us = sim.loop.now - t0
            for q, _ in my_senders:
                key = naming.plain_key(level, q, p)
                blobs.append((yield from sim.store.get_object(ctx, bucket, key)))
            return blobs, wait_us
        # offsets in name: wait until every sender sharing a bucket with one
        # of ours has written, list the bucket, then issue ranged reads; the
        # first complete listing of a bucket in a round is parsed for everyone
        prefix = naming.level_prefix(level)
        t0 = sim.loop.now
        for bucket in sorted({bucket_of[q] for q, _ in my_senders}):
            if not self.arrived[level, bucket].done:
                yield self.arrived[level, bucket]
            keys = yield from sim.store.list_objects(ctx, bucket, prefix)
            if (level, bucket) not in self.listed:
                index = self.listed[level, bucket] = {}
                for key in keys:
                    q, offsets = NamingScheme.parse_in_name(key)
                    index[q] = key, offsets
        wait_us = sim.loop.now - t0
        for q, c in my_senders:
            bucket = bucket_of[q]
            key, offsets = self.listed[level, bucket][q]
            blob = yield from sim.store.get_object(
                ctx, bucket, key, (offsets[c], offsets[c + 1])
            )
            blobs.append(blob)
        return blobs, wait_us


def run_exchange(
    sim,
    inputs: dict[int, list[tuple[int, bytes]]],
    cfg: ExchangeConfig,
    ctx_factory=None,
):
    """Repartition records so worker w ends with {r : r.key % P == w}.

    `inputs` maps worker id -> list of (key, value) records.  Returns
    (outputs, trace); run it with ``sim.loop.run_task``.
    """
    P = len(inputs)
    run = _ExchangeRun(sim, P, cfg)
    s = run.s

    def split(p, level, records):
        base = s**level
        parts: list[list[tuple[int, bytes]]] = [[] for _ in range(s)]
        for rec in records:
            parts[rec[0] % P // base % s].append(rec)
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


VARIANTS = ("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc")


def exchange_cost(P: int, variant: str, cfg: SimConfig, num_buckets: int = 1) -> CostModelRow:
    """Closed-form request counts and bill for one exchange variant.

    Write-combined variants assume offsets-in-name: each round a receiver
    lists every bucket that holds one of its senders' files, a solo worker
    included.  Sender q writes to bucket q mod B (`num_buckets`), so on a
    full grid (P = s**k) the senders of one round, s**level apart, fill
    min(s, B / gcd(s**level, B)) buckets.  With ragged P a provably empty
    digit class is never shipped or read, so only the (sender, digit class)
    pairs that `route` maps somewhere count, and each receiver's buckets
    are counted one by one.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant}")
    if num_buckets < 1:
        raise ValueError("need at least one bucket")
    k = int(variant[0])
    combined = variant.endswith("-wc")
    s = P if k == 1 else ceil_root(P, k)
    if P == s**k:
        reads = k * P * s
        lists = P * sum(min(s, num_buckets // gcd(s**level, num_buckets)) for level in range(k))
    else:
        reads = lists = 0
        for level in range(k):
            listed = [set() for _ in range(P)]  # receiver -> its senders' buckets
            for q in range(P):
                for c in range(s):
                    target = route(q, level, c, s, P)
                    if target is not None:
                        reads += 1
                        listed[target].add(q % num_buckets)
            lists += sum(map(len, listed))
    writes = k * P if combined else reads
    if not combined:
        lists = 0
    usd = (
        reads * request_price(cfg, READ)
        + writes * request_price(cfg, WRITE)
        + lists * request_price(cfg, LIST)
    )
    return CostModelRow(variant, reads, writes, lists, k, usd)


def exchange_worker_cost(
    P: int,
    total_bytes: int,
    mib_per_s: Fraction,
    cfg: SimConfig,
    memory_mib: int = 2048,
    levels: int = 1,
) -> Fraction:
    """Worker-time bill: each round reads and writes the full input once."""
    per_worker_bytes = Fraction(total_bytes, P)
    seconds = 2 * levels * per_worker_bytes / (mib_per_s * 1024 * 1024)
    return P * seconds * worker_rate(cfg, memory_mib)
