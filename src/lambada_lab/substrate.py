"""In-process simulation of the serverless cloud substrate.

Object store, FaaS service and message queues move real bytes; time and money
are virtual.  All operations are generators meant to be driven with
``yield from`` inside tasks running on the :class:`~lambada_lab.clock.SimLoop`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Generator

from . import errors
from .billing import BillingLedger, LIST, READ, WRITE
from .clock import Future, SimLoop, Sleep, Task, US_PER_MS, US_PER_S
from .config import MIB, SimConfig

VCPU_BASELINE_MIB = 1792
MEMORY_MIB_MIN = 128
MEMORY_MIB_MAX = 3008
WARM_PERF_FACTOR = Fraction(1)
# A cold container runs its first invocation this much slower than a warm one.
COLD_START_PENALTY_FACTOR = Fraction(6, 5)
RECEIVE_MAX_MESSAGES = 10  # SQS ReceiveMessage's MaxNumberOfMessages cap


def cpu_throughput(memory_mib: int, threads: int) -> Fraction:
    """Relative compute throughput (1 = one vCPU at 1792 MiB)."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return min(Fraction(threads), Fraction(memory_mib, VCPU_BASELINE_MIB))


@dataclass(frozen=True)
class FunctionSpec:
    memory_mib: int = 2048

    def __post_init__(self):
        if not MEMORY_MIB_MIN <= self.memory_mib <= MEMORY_MIB_MAX:
            raise ValueError(
                f"memory_mib must be in [{MEMORY_MIB_MIN}, {MEMORY_MIB_MAX}]"
            )


class ZeroBlob:
    """Bytes-like placeholder carrying only a length.

    Large-scale benchmarks shuffle terabytes of virtual data; a ZeroBlob lets
    the substrate account for transfer time and billing without allocating
    the payload.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be >= 0")
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, item: slice) -> "ZeroBlob":
        start, stop, step = item.indices(self.size)
        if step != 1:
            raise ValueError("ZeroBlob slices must be contiguous")
        blob = object.__new__(ZeroBlob)  # the size is known to be valid
        blob.size = max(0, stop - start)
        return blob

    def __repr__(self) -> str:
        return f"ZeroBlob({self.size})"


class NicShaping:
    """Traffic-shaping constants of one configuration, shared by all its NICs.

    Rates are exact bytes per microsecond.  A transfer drains at
    ``burst_rate`` while the host has burst credit and at ``steady`` once it
    is spent; the credit refills at ``steady``.  When the credit never
    drains (no credit, or a burst-time rate at most the refill rate, as in
    the default configuration), every transfer runs at one rate, kept in
    ``constant`` as (numerator, denominator).
    """

    __slots__ = ("steady", "burst_rate", "drain", "credit_cap", "constant")

    def __init__(self, cfg: SimConfig):
        to_bytes_per_us = Fraction(MIB, US_PER_S)
        self.steady = cfg.steady_mib_per_s * to_bytes_per_us
        per_conn = cfg.per_connection_mib_per_s * to_bytes_per_us
        self.burst_rate = min(per_conn, cfg.burst_cap_mib_per_s * to_bytes_per_us)
        self.drain = self.burst_rate - self.steady  # credit spent per us of burst
        self.credit_cap = Fraction(cfg.burst_credit_mib * MIB)
        if min(self.steady, self.burst_rate) <= 0 or self.credit_cap < 0:
            raise errors.ConfigError("NIC rates must be positive and burst credit non-negative")
        if self.credit_cap == 0 or self.drain <= 0:
            rate = self.burst_rate if self.credit_cap else min(per_conn, self.steady)
            self.constant = (rate.numerator, rate.denominator)
        else:
            self.constant = None


class Nic:
    """Traffic shaper for one direction of one host.

    Concurrent transfers are serialized FIFO; each data phase drains at
    ``min(per_connection, burst-while-credit, ...)``.  With the default
    configuration (per-connection rate equal to the steady rate) the
    aggregate ingress never exceeds the steady limit, which is what the
    latency model assumes for sustained scans.
    """

    def __init__(self, shaping: NicShaping):
        self.shaping = shaping
        self.tokens: Fraction = shaping.credit_cap
        self.free_at: int = 0

    def reserve(self, nbytes: int, ready_us: int) -> int:
        """Reserve the pipe for `nbytes`; returns the virtual finish time."""
        start = max(ready_us, self.free_at)
        sh = self.shaping
        if sh.constant is not None:
            num, den = sh.constant
            finish = start - (-nbytes * den // num)
        else:
            # the credit refills from the previous finish up to this start;
            # the transfer bursts while it lasts and sends the rest at steady
            tokens = min(sh.credit_cap, self.tokens + sh.steady * (start - self.free_at))
            burst_us = min(tokens / sh.drain, Fraction(nbytes) / sh.burst_rate)
            self.tokens = tokens - sh.drain * burst_us
            rest_us = (nbytes - sh.burst_rate * burst_us) / sh.steady
            finish = start + math.ceil(burst_us + rest_us)
        self.free_at = finish
        return finish


class HostContext:
    """A network endpoint in the simulation: the driver or one worker.  It
    bills `ledger`, the simulation's unless it is given another, and issues
    invocations at `invoke_rate_per_s`, the driver rate unless given."""

    def __init__(
        self,
        sim: "CloudSim",
        name: str,
        spec: FunctionSpec | None = None,
        invoke_rate_per_s: Fraction | None = None,
        perf_factor: Fraction = WARM_PERF_FACTOR,
        ledger: BillingLedger | None = None,
    ):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.ledger = ledger if ledger is not None else sim.ledger
        self.ingress = Nic(sim.nic_shaping)
        self.egress = Nic(sim.nic_shaping)
        # the sim's figure, held per host so that one host can be made slower
        self.first_byte_latency_us = sim.first_byte_latency_us
        self.invoke_interval_us = sim.invoke_interval_us(
            sim.cfg.driver_invoke_rate_per_s if invoke_rate_per_s is None else invoke_rate_per_s
        )
        self.perf_factor = perf_factor
        self._next_invoke_slot = 0

    def compute(self, cycles: int | Fraction):
        """Burn virtual CPU time for `cycles` cycles at this host's share."""
        if cycles <= 0:
            return
        if self.spec is None:
            throughput = Fraction(1)
        else:
            throughput = cpu_throughput(self.spec.memory_mib, 1)
        seconds = Fraction(cycles) / (self.sim.cfg.vcpu_hz * throughput)
        yield Sleep(math.ceil(seconds * self.perf_factor * US_PER_S))


class RateLimiter:
    """Sliding one-second window: admitted requests per window <= limit."""

    def __init__(self, limit_per_second: int):
        self.limit_per_second = limit_per_second
        self._window: deque[int] = deque()

    def try_admit(self, now_us: int) -> bool:
        cutoff = now_us - US_PER_S
        while self._window and self._window[0] <= cutoff:
            self._window.popleft()
        if len(self._window) >= self.limit_per_second:
            return False
        self._window.append(now_us)
        return True


class Bucket:
    def __init__(self, name: str, cfg: SimConfig):
        self.name = name
        self.objects: dict[str, Any] = {}
        self.keys: list[str] = []  # the keys of `objects`, sorted: the LIST index
        self.read_limiter = RateLimiter(cfg.bucket_read_limit_per_s)
        self.write_limiter = RateLimiter(cfg.bucket_write_limit_per_s)

    def write(self, key: str, data) -> None:
        """Store `data` under `key` and index a new key."""
        if key not in self.objects:
            insort(self.keys, key)
        self.objects[key] = data

    def delete(self, key: str) -> None:
        """Drop `key` and its index entry.  Not billed and takes no virtual
        time: a DELETE is free, and its caller issues it after its read."""
        del self.objects[key]
        del self.keys[bisect_left(self.keys, key)]


class ObjectStore:
    def __init__(self, sim: "CloudSim"):
        self.sim = sim
        self.buckets: dict[str, Bucket] = {}

    def create_bucket(self, name: str) -> Bucket:
        if name not in self.buckets:
            self.buckets[name] = Bucket(name, self.sim.cfg)
        return self.buckets[name]

    def bucket(self, name: str) -> Bucket:
        try:
            return self.buckets[name]
        except KeyError:
            raise errors.NoSuchBucket(name)

    def seed_object(self, bucket: str, key: str, data) -> None:
        """Install an object without spending virtual time or money.

        Models data that was uploaded before the measured run.
        """
        b = self.create_bucket(bucket)
        self._check_key(key)
        b.write(key, data)

    def _check_key(self, key: str) -> None:
        size = len(key.encode("utf-8"))
        if size > self.sim.cfg.max_key_bytes:
            raise errors.KeyTooLong(f"key is {size} bytes, limit is {self.sim.cfg.max_key_bytes}")

    def _admit(self, ctx: HostContext, b: Bucket, category: str) -> bool:
        """Try to admit one request at the current time; bill it if admitted.

        Every store call takes this path, and retries with `_retry_admission`
        only when it fails.  An admitted request is billed to the host's
        ledger.  It does not wait for its first byte: the caller sleeps once
        from the admission, to the end of its transfer (GET, PUT) or to its
        first byte (LIST).  Reserving a NIC at admission, for a transfer that
        starts at the first byte, keeps the order of its reservations: a NIC
        carries one host's transfers, and they share one first-byte latency.
        """
        limiter = b.write_limiter if category == WRITE else b.read_limiter
        if not limiter.try_admit(self.sim.loop.now):
            return False
        ctx.ledger.charge_request(category, b.name)
        return True

    def _retry_admission(self, ctx: HostContext, b: Bucket, category: str) -> Generator:
        """Retry a request that `_admit` just throttled until it is admitted.

        That failed attempt is the first throttle; each further one sleeps
        the retry delay, and one more than `throttle_max_retries` raises
        Throttled.
        """
        cfg = self.sim.cfg
        retries = 0
        while True:
            ctx.ledger.record_throttle()
            if retries >= cfg.throttle_max_retries:
                raise errors.Throttled(
                    f"request still throttled after {cfg.throttle_max_retries} retries"
                )
            retries += 1
            yield Sleep(cfg.throttle_retry_delay_ms * US_PER_MS)
            if self._admit(ctx, b, category):
                return

    def put_object(self, ctx: HostContext, bucket: str, key: str, data) -> Generator:
        """Write an object. Overwrites atomically once the upload finishes.

        The upload starts on the host's egress NIC at the first byte and the
        request sleeps once, to its end.
        """
        b = self.bucket(bucket)
        self._check_key(key)
        if not self._admit(ctx, b, WRITE):
            yield from self._retry_admission(ctx, b, WRITE)
        now = self.sim.loop.now
        yield Sleep(ctx.egress.reserve(len(data), now + ctx.first_byte_latency_us) - now)
        b.write(key, data)

    def get_object(
        self,
        ctx: HostContext,
        bucket: str,
        key: str,
        byte_range: tuple[int, int | None] | None = None,
    ) -> Generator:
        """Read an object or a byte range of it; returns the bytes.

        A range with a negative start addresses the object's tail (suffix
        read), mirroring HTTP suffix ranges.  The key and the range are
        checked at admission; a missing key (NotFound) or a bad range
        (InvalidRange) is billed like any other request and raises at the
        first byte.  Otherwise the transfer starts on the host's ingress NIC
        at the first byte and the request sleeps once, to its end.  It
        returns the bytes of the version present at admission, sliced at
        the end of the transfer, so an overwrite while it runs cannot change
        them.
        """
        b = self.bucket(bucket)
        if not self._admit(ctx, b, READ):
            yield from self._retry_admission(ctx, b, READ)
        obj = b.objects.get(key)
        if obj is None:
            yield Sleep(ctx.first_byte_latency_us)
            raise errors.NotFound(f"{bucket}/{key}")
        size = len(obj)
        if byte_range is None:
            lo, hi = 0, size
        else:
            lo, hi = byte_range
            if lo < 0:
                lo, hi = max(0, size + lo), size
            else:
                hi = size if hi is None else min(hi, size)
            if lo > size or hi < lo:
                yield Sleep(ctx.first_byte_latency_us)
                raise errors.InvalidRange(f"range [{lo}, {hi}) of object of size {size}")
        now = self.sim.loop.now
        yield Sleep(ctx.ingress.reserve(hi - lo, now + ctx.first_byte_latency_us) - now)
        return obj[lo:hi]

    def list_objects(self, ctx: HostContext, bucket: str, prefix: str = "") -> Generator:
        """List keys with `prefix`, lexicographically sorted. Billed as a write.

        Reads the bucket's sorted key index with two binary searches and
        returns a new list.
        """
        b = self.bucket(bucket)
        if not self._admit(ctx, b, LIST):
            yield from self._retry_admission(ctx, b, LIST)
        yield Sleep(ctx.first_byte_latency_us)
        keys = b.keys
        lo = bisect_left(keys, prefix)
        # every key with the prefix sorts below the prefix's successor: drop
        # trailing U+10FFFF (no code point follows it), then bump the last one
        stem = prefix.rstrip("\U0010ffff")
        if not stem:
            return keys[lo:]
        upper = stem[:-1] + chr(ord(stem[-1]) + 1)
        return keys[lo : bisect_left(keys, upper, lo)]


class MessageQueue:
    """FIFO queue with virtual receive latency (result-queue style).

    A receive returns a batch of up to `RECEIVE_MAX_MESSAGES` messages,
    oldest first, for one `queue_poll_latency_ms`, as an SQS ReceiveMessage
    with MaxNumberOfMessages does.
    """

    def __init__(self, sim: "CloudSim"):
        self.sim = sim
        self._messages: deque = deque()
        self._receives: deque[Future] = deque()

    def send(self, ctx: HostContext, message) -> Generator:
        yield Sleep(self.sim.cfg.queue_poll_latency_ms * US_PER_MS)
        if self._receives:
            self._receives.popleft().set_result(message)
        else:
            self._messages.append(message)

    def poll(self, ctx: HostContext) -> Generator:
        """Receive a list of messages, oldest first; returns the list.

        On an empty queue the receive waits for the first message.  It then
        takes the latency and fills the batch with whatever is queued by
        then.  The list is empty only if another receiver drained the queue
        during the latency.
        """
        batch = []
        if not self._messages:
            fut = Future()
            self._receives.append(fut)
            batch.append((yield fut))
        yield Sleep(self.sim.cfg.queue_poll_latency_ms * US_PER_MS)
        messages = self._messages
        for _ in range(min(RECEIVE_MAX_MESSAGES - len(batch), len(messages))):
            batch.append(messages.popleft())
        return batch


class FaaSService:
    """Simulated FaaS: paced invocations, concurrency limit, cold starts."""

    def __init__(self, sim: "CloudSim"):
        self.sim = sim
        self.running = 0
        self._pending: deque[Task] = deque()  # admitted, waiting for a free slot
        self._warm = False  # the first invocation starts cold
        self.peak_concurrency = 0

    def invoke(
        self,
        ctx: HostContext,
        spec: FunctionSpec,
        payload: bytes,
        handler: Callable[[HostContext, bytes], Generator],
        worker_name: str = "",
    ) -> Generator:
        """Issue one invocation from `ctx`; returns the worker's task.

        The issuing task is paced at its context's aggregate invocation rate;
        the per-call network latency is pipelined and does not block it, so
        the call is initiated at the instant this returns.  The worker bills
        the invoker's ledger.
        """
        cfg = self.sim.cfg
        if len(payload) > cfg.max_payload_bytes:
            raise errors.PayloadTooLarge(
                f"payload of {len(payload)} bytes exceeds {cfg.max_payload_bytes}"
            )
        now = self.sim.loop.now
        slot = max(now, ctx._next_invoke_slot)
        ctx._next_invoke_slot = slot + ctx.invoke_interval_us
        if slot > now:
            yield Sleep(slot - now)
        initiated_at = self.sim.loop.now

        perf = WARM_PERF_FACTOR if self._warm else COLD_START_PENALTY_FACTOR
        self._warm = True
        worker_ctx = HostContext(
            self.sim,
            worker_name or f"worker-{initiated_at}",
            spec=spec,
            invoke_rate_per_s=cfg.worker_invoke_rate_per_s,
            perf_factor=perf,
            ledger=ctx.ledger,
        )

        worker = Task(self._run_worker(worker_ctx, spec, payload, handler), name=worker_ctx.name)
        admit_at = initiated_at + self.sim.invoke_latency_us
        self.sim.loop.call_at(admit_at, partial(self._admit, worker))
        return worker

    def _admit(self, worker: Task) -> None:
        if self.running < self.sim.cfg.concurrency_limit:
            self._start(worker)
        else:
            self._pending.append(worker)

    def _start(self, worker: Task) -> None:
        self.running += 1
        self.peak_concurrency = max(self.peak_concurrency, self.running)
        self.sim.loop.start(worker)

    def _run_worker(self, ctx, spec, payload, handler) -> Generator:
        start_us = self.sim.loop.now
        try:
            return (yield from handler(ctx, payload))
        finally:
            self.running -= 1
            ctx.ledger.charge_worker(spec.memory_mib, self.sim.loop.now - start_us)
            if self._pending:
                self._start(self._pending.popleft())


# A limit below 1 admits nothing, so a run waits forever; a clock below
# 1 Hz or a rate of 0 divides by zero when a host computes or is made; a
# negative time cannot be slept, so a run fails at its first use; a negative
# retry budget or decode cost means nothing; a negative payload or key limit
# fails every invocation or every key; a negative price bills a credit
AT_LEAST_ONE_CONFIG_KEYS = (
    "concurrency_limit",
    "bucket_read_limit_per_s",
    "bucket_write_limit_per_s",
    "vcpu_hz",
)
POSITIVE_CONFIG_KEYS = ("driver_invoke_rate_per_s", "worker_invoke_rate_per_s")
NON_NEGATIVE_CONFIG_KEYS = (
    "first_byte_latency_ms",
    "invoke_latency_ms",
    "queue_poll_latency_ms",
    "throttle_retry_delay_ms",
    "throttle_max_retries",
    "decode_cycles_per_byte",
    "max_payload_bytes",
    "max_key_bytes",
    "read_req_usd_per_million",
    "write_req_usd_per_million",
    "list_req_usd_per_million",
    "worker_usd_per_gib_second",
)


def check_config(cfg: SimConfig) -> None:
    """Raise ConfigError for a config that could only hang or fail mid-run."""
    for key in AT_LEAST_ONE_CONFIG_KEYS:
        if getattr(cfg, key) < 1:
            raise errors.ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    for key in POSITIVE_CONFIG_KEYS:
        if getattr(cfg, key) <= 0:
            raise errors.ConfigError(f"{key} must be positive, got {getattr(cfg, key)}")
    for key in NON_NEGATIVE_CONFIG_KEYS:
        if getattr(cfg, key) < 0:
            raise errors.ConfigError(f"{key} must not be negative, got {getattr(cfg, key)}")


class CloudSim:
    """Bundle of loop, config, billing and services for one simulation run.

    It derives the config's whole-microsecond latencies once, and each
    invocation rate's pacing interval at its first use, for every host.
    """

    def __init__(self, cfg: SimConfig | None = None):
        self.cfg = cfg = cfg or SimConfig()
        check_config(cfg)
        self.loop = SimLoop()
        self.nic_shaping = NicShaping(cfg)
        self.first_byte_latency_us = round(cfg.first_byte_latency_ms * US_PER_MS)
        self.invoke_latency_us = round(cfg.invoke_latency_ms * US_PER_MS)
        self._invoke_intervals: dict[Fraction, int] = {}  # rate per s -> us
        self.ledger = BillingLedger(cfg)
        self.store = ObjectStore(self)
        self.faas = FaaSService(self)
        # numbers queries and exchange runs; the number scopes their keys
        self.run_ids = itertools.count(1)

    def invoke_interval_us(self, rate_per_s: Fraction) -> int:
        """The pacing of one host's invocations at `rate_per_s`, in whole us."""
        interval = self._invoke_intervals.get(rate_per_s)
        if interval is None:
            interval = math.ceil(Fraction(US_PER_S) / rate_per_s)
            self._invoke_intervals[rate_per_s] = interval
        return interval

    def driver(self, name: str = "driver") -> HostContext:
        return HostContext(self, name, invoke_rate_per_s=self.cfg.driver_invoke_rate_per_s)
