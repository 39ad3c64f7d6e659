"""The benchmark's three workloads and the checks on every operation's output.

One operation is one simulated query, or one shuffle, on a fresh `CloudSim`:
`QueryReport` reads the whole ledger, so a reused simulation would report the
dollars of every earlier query too.

Each workload has four steps:

- `make_inputs()` generates the inputs (timed as set-up);
- `seeded_sim(inputs)` builds a fresh simulation holding them (timed as part
  of set-up, and again, untimed, before each operation);
- `prepare(inputs)` builds the query and its oracle answer (never timed);
- `run(sim)` is the operation; `check(sim, result)` raises `CheckFailed` on a
  wrong output and otherwise returns the operation's simulated figures.

The seed picks the table's values and, so that the simulated figures differ
between seeds, a small part of each input's size: up to 511 extra rows in
the table, up to 2 fewer files for q6-narrow, up to 1 MiB more for the
shuffle.  Within one seed every operation simulates exactly the same thing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from lambada_lab import datagen, engine, exchange, invoke
from lambada_lab.billing import LIST, READ, WRITE
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, HostContext

MIB = 1 << 20
DATA_BUCKET = "data"


class CheckFailed(Exception):
    """An operation's output disagrees with the oracle or a required property."""


@dataclass(frozen=True)
class SimFigures:
    """The simulated outcome of one operation; identical for every operation of a run."""

    latency_us: int
    usd: Fraction
    requests: int


def request_counts(ledger) -> tuple[int, int, int]:
    """(GET, PUT, LIST) requests billed so far."""
    return ledger.count(READ), ledger.count(WRITE), ledger.count(LIST)


def priced_requests_usd(cfg: SimConfig, ledger) -> Fraction:
    """The ledger's request counts times the per-request prices in `cfg`."""
    per_million = {
        READ: cfg.read_req_usd_per_million,
        WRITE: cfg.write_req_usd_per_million,
        LIST: cfg.list_req_usd_per_million,
    }
    total = sum(
        (n * per_million[category] for (category, _), n in ledger.request_counts.items()),
        Fraction(0),
    )
    return total / 1_000_000


# ------------------------------------------------------------------ queries


def weighted_oracle(tables, multiplicity: list[int], plan) -> list:
    """Answer of an additive-aggregate plan over `tables[i]` repeated `multiplicity[i]` times.

    Each file's answer comes from the single-node oracle; replicas add the
    same answer again.
    """
    totals: dict[tuple, list[int]] = {}
    for table, times in zip(tables, multiplicity):
        if not times:
            continue
        for key, values in engine.reference_execute([table], datagen.COLUMNS, plan):
            acc = totals.setdefault(tuple(key), [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += times * v
    return sorted([list(k), v] for k, v in totals.items())


class Query:
    """A plan over the lineitem-like table in `BASE_FILES` files, one worker per file."""

    name = ""
    BASE_FILES = 32
    TABLE_BYTES = 8 * MIB
    EXTRA_ROWS = 512  # the seed adds fewer than this many rows
    cfg = SimConfig()
    strategy = invoke.DIRECT

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        extra_rows = self.rng.randrange(self.EXTRA_ROWS)
        self.spec = datagen.GenSpec(
            scale_bytes=self.TABLE_BYTES + extra_rows * datagen.ROW_BYTES,
            files=self.BASE_FILES,
        )
        self.workers = self.choose_workers()
        self.plan = None
        self.expected = None

    def choose_workers(self) -> int:
        return self.BASE_FILES

    def make_inputs(self):
        """Generate the table and encode it; file j is a copy of base file j mod BASE_FILES."""
        tables = datagen.generate_tables(self.spec, self.seed)
        base = datagen.encode_files(self.spec, self.seed)
        files = []
        for j in range(self.workers):
            key, data = base[j % len(base)]
            files.append((f"r{j // len(base):03d}/{key}", data))
        return tables, files

    def seeded_sim(self, inputs) -> CloudSim:
        sim = CloudSim(self.cfg)
        for key, data in inputs[1]:
            sim.store.seed_object(DATA_BUCKET, key, data)
        return sim

    def build_plan(self, tables):
        raise NotImplementedError

    def prepare(self, inputs) -> None:
        tables, files = inputs
        self.keys = sorted(key for key, _ in files)
        self.plan = self.build_plan(tables)
        multiplicity = [0] * len(tables)
        for j in range(len(files)):
            multiplicity[j % len(tables)] += 1
        self.expected = weighted_oracle(tables, multiplicity, self.plan)

    def run(self, sim):
        return sim.loop.run_task(
            engine.execute(sim, self.plan, self.keys, strategy=self.strategy, bucket=DATA_BUCKET)
        )

    def check(self, sim, result) -> SimFigures:
        rows, report = result
        if rows != self.expected:
            raise CheckFailed(f"{self.name}: rows {rows!r} differ from the oracle's {self.expected!r}")
        request_usd = priced_requests_usd(self.cfg, sim.ledger)
        if report.request_usd != request_usd:
            raise CheckFailed(
                f"{self.name}: request_usd {report.request_usd} != priced requests {request_usd}"
            )
        if report.total_usd != report.request_usd + report.worker_usd:
            raise CheckFailed(f"{self.name}: total_usd is not request_usd + worker_usd")
        return SimFigures(report.latency_us, report.total_usd, sum(request_counts(sim.ledger)))


class Q1Wide(Query):
    """Q1-style group-by over ~98% of the rows, decode-cost model on."""

    name = "q1-wide"
    cfg = SimConfig(decode_cycles_per_byte=Fraction(100))

    def build_plan(self, tables):
        return engine.q1_plan(datagen.percentile_value(tables, "shipdate", 0.98))


class Q6Narrow(Query):
    """Q6-style 2% shipdate window over a few hundred copies of the table's files."""

    name = "q6-narrow"
    REPLICAS = 16
    FEWER_FILES = 3  # the seed leaves out fewer than this many copies
    strategy = invoke.TWO_LEVEL

    def choose_workers(self) -> int:
        return self.BASE_FILES * self.REPLICAS - self.rng.randrange(self.FEWER_FILES)

    def build_plan(self, tables):
        lo = datagen.percentile_value(tables, "shipdate", 0.49)
        hi = datagen.percentile_value(tables, "shipdate", 0.51)
        return engine.q6_plan(lo, hi)


# ------------------------------------------------------------------ shuffle


def expected_lists(workers: int, side: int, levels: int, buckets: int) -> int:
    """LISTs of an offsets-in-name exchange over a full grid (workers == side**levels).

    In round `level` a receiver's senders differ from it only in digit
    `level`; it lists each bucket that holds one of their files, and sender
    q writes to bucket q mod `buckets`.
    """
    total = 0
    for level in range(levels):
        base = side**level
        for p in range(workers):
            zeroed = p - (p // base % side) * base
            total += len({(zeroed + c * base) % buckets for c in range(side)})
    return total


class Shuffle:
    """Synthetic 100 GB two-level write-combined exchange at W=256 over 10 buckets."""

    name = "shuffle"
    WORKERS = 256
    LEVELS = 2
    BUCKETS = 10
    TOTAL_BYTES = 100 * 10**9
    cfg = SimConfig()

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.total_bytes = self.TOTAL_BYTES + rng.randrange(MIB)
        self.xcfg = exchange.ExchangeConfig(
            levels=self.LEVELS,
            write_combining=exchange.WC_OFFSETS_IN_NAME,
            num_buckets=self.BUCKETS,
        )
        self.side = math.isqrt(self.WORKERS)
        if self.side**self.LEVELS != self.WORKERS:
            raise ValueError("the shuffle's checks assume a full grid of workers")

    def make_inputs(self):
        """A synthetic exchange has no input data beyond its size."""
        return None

    def seeded_sim(self, inputs) -> CloudSim:
        """A fresh simulation with the exchange's worker hosts provisioned.

        `run` uses the hosts of the simulation built last.
        """
        sim = CloudSim(self.cfg)
        self.hosts = [
            HostContext(sim, f"xw{p}", invoke_rate_per_s=self.cfg.worker_invoke_rate_per_s)
            for p in range(self.WORKERS)
        ]
        return sim

    def prepare(self, inputs) -> None:
        W, s = self.WORKERS, self.side
        self.expected_requests = (
            self.LEVELS * W * s,
            self.LEVELS * W,
            expected_lists(W, s, self.LEVELS, self.BUCKETS),
        )

    def run(self, sim):
        return sim.loop.run_task(
            exchange.run_synthetic_exchange(
                sim, self.WORKERS, self.total_bytes, self.xcfg, ctx_factory=self.hosts.__getitem__
            )
        )

    def check(self, sim, result) -> SimFigures:
        final_bytes, _trace, makespan_us = result
        W, s, total = self.WORKERS, self.side, self.total_bytes
        if sorted(final_bytes) != list(range(W)):
            raise CheckFailed(f"shuffle: results for {len(final_bytes)} of {W} workers")
        moved = sum(final_bytes.values())
        if moved != total:
            raise CheckFailed(f"shuffle: workers hold {moved} bytes, input was {total}")
        for p, size in final_bytes.items():
            if abs(size * W - total) > s * W:
                raise CheckFailed(f"shuffle: worker {p} holds {size} bytes, total/W is {total / W}")
        counts = request_counts(sim.ledger)
        if counts != self.expected_requests:
            raise CheckFailed(
                f"shuffle: (GET, PUT, LIST) = {counts}, expected {self.expected_requests}"
            )
        return SimFigures(makespan_us, sim.ledger.total_usd, sum(counts))


WORKLOADS = {w.name: w for w in (Q1Wide, Q6Narrow, Shuffle)}
