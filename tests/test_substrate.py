import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambada_lab import errors
from lambada_lab.billing import READ, WRITE, LIST, BillingLedger
from lambada_lab.clock import AllOf, Sleep, US_PER_S
from lambada_lab.config import MIB, SimConfig
from lambada_lab.substrate import (
    RECEIVE_MAX_MESSAGES,
    CloudSim,
    FunctionSpec,
    HostContext,
    MessageQueue,
    Nic,
    NicShaping,
    ZeroBlob,
    cpu_throughput,
)

from helpers import ledger_csv


def run(sim, gen):
    return sim.loop.run_task(gen)


def make_sim(**overrides):
    return CloudSim(SimConfig().updated(**overrides))


class TestZeroBlob:
    bound = st.one_of(st.none(), st.integers(min_value=-300, max_value=300))

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(min_value=0, max_value=200), lo=bound, hi=bound)
    def test_slice_has_the_length_of_the_same_bytes_slice(self, size, lo, hi):
        part = ZeroBlob(size)[lo:hi]
        assert type(part) is ZeroBlob
        assert len(part) == len(bytes(size)[lo:hi])

    @pytest.mark.parametrize("step", [2, -1])
    def test_slice_with_a_step_is_rejected(self, step):
        with pytest.raises(ValueError):
            ZeroBlob(10)[::step]


class TestObjectStore:
    def test_put_one_mib_duration_and_billing(self):
        # closed form: 20 ms first byte + 1 MiB / 90 MiB/s
        sim = make_sim()
        ctx = sim.driver()
        sim.store.create_bucket("b")

        def main():
            yield from sim.store.put_object(ctx, "b", "k", bytes(MIB))

        run(sim, main())
        expected = 20_000 + math.ceil(MIB / (90 * MIB / US_PER_S))
        assert sim.loop.now == expected
        assert abs(sim.loop.now / 1000 - 31.1) < 0.2
        assert sim.ledger.request_counts[(WRITE, "b")] == 1

    def test_key_too_long_rejected(self):
        sim = make_sim()
        ctx = sim.driver()
        sim.store.create_bucket("b")

        def put(key):
            yield from sim.store.put_object(ctx, "b", key, b"x")

        with pytest.raises(errors.KeyTooLong, match="key is 1025 bytes, limit is 1024"):
            run(sim, put("k" * 1025))
        # the limit and the message count UTF-8 bytes, not characters
        with pytest.raises(errors.KeyTooLong, match="key is 1200 bytes, limit is 1024"):
            run(sim, put("é" * 600))

        def ok():
            yield from sim.store.put_object(ctx, "b", "k" * 1024, b"x")

        run(sim, ok())

    def test_get_range_contract(self):
        sim = make_sim()
        ctx = sim.driver()
        payload = bytes(range(256)) * 4096  # 1 MiB
        sim.store.seed_object("b", "big", payload)

        def main():
            return (yield from sim.store.get_object(ctx, "b", "big", (0, 1024)))

        data = run(sim, main())
        assert data == payload[:1024]
        assert sim.loop.now == 20_000 + math.ceil(1024 / (90 * MIB / US_PER_S))
        assert sim.ledger.request_counts[(READ, "b")] == 1

    def test_suffix_range(self):
        sim = make_sim()
        ctx = sim.driver()
        sim.store.seed_object("b", "k", b"0123456789")

        def main():
            data = yield from sim.store.get_object(ctx, "b", "k", (-4, None))
            return data

        assert run(sim, main()) == b"6789"

    def test_missing_key_billed_and_raises(self):
        # the error surfaces one first-byte latency after the call
        sim = make_sim()
        ctx = sim.driver()
        sim.store.create_bucket("b")

        def main():
            yield from sim.store.get_object(ctx, "b", "nope")

        with pytest.raises(errors.NotFound):
            run(sim, main())
        assert sim.ledger.request_counts[(READ, "b")] == 1
        assert sim.loop.now == ctx.first_byte_latency_us == 20_000

    def test_range_past_the_end_billed_and_raises(self):
        sim = make_sim()
        ctx = sim.driver()
        sim.store.seed_object("b", "k", b"0123456789")

        def main():
            yield from sim.store.get_object(ctx, "b", "k", (11, 20))

        with pytest.raises(errors.InvalidRange):
            run(sim, main())
        assert sim.ledger.request_counts[(READ, "b")] == 1
        assert sim.loop.now == ctx.first_byte_latency_us == 20_000

    def test_sequential_vs_concurrent_gib_download(self):
        # 1024 x 1 MiB on one connection ~= 31.9 s; 4 connections ~= 11.4 s
        def download(conns):
            sim = make_sim()
            ctx = sim.driver()
            sim.store.seed_object("b", "obj", ZeroBlob(1024 * MIB))
            per_conn = 1024 // conns

            def connection(c):
                for i in range(per_conn):
                    off = (c * per_conn + i) * MIB
                    yield from sim.store.get_object(ctx, "b", "obj", (off, off + MIB))

            def main():
                tasks = [sim.loop.spawn(connection(c)) for c in range(conns)]
                yield AllOf(tasks)
                return sim.loop.now

            return run(sim, main()) / US_PER_S

        assert download(1) == pytest.approx(31.9, abs=0.2)
        assert download(4) == pytest.approx(11.4, abs=0.3)

    def test_list_sorted_and_billed_at_write_price(self):
        sim = make_sim()
        ctx = sim.driver()
        for i in (3, 1, 2):
            sim.store.seed_object("b", f"snd{i}-off0", b"")
        sim.store.seed_object("b", "other", b"")

        def main():
            keys = yield from sim.store.list_objects(ctx, "b", "snd")
            return keys

        keys = run(sim, main())
        assert keys == ["snd1-off0", "snd2-off0", "snd3-off0"]
        assert sim.ledger.request_usd == Fraction(5, 1_000_000)

    def test_empty_bucket_list(self):
        sim = make_sim()
        ctx = sim.driver()
        sim.store.create_bucket("b")

        def main():
            keys = yield from sim.store.list_objects(ctx, "b")
            return keys

        assert run(sim, main()) == []

    def test_rate_limited_writes_stay_within_window(self, admission_log):
        sim = make_sim(bucket_write_limit_per_s=100)
        sim.store.create_bucket("b")

        def writer(w):
            ctx = sim.driver(f"w{w}")
            for i in range(64):
                yield from sim.store.put_object(ctx, "b", f"w{w}-{i}", b"")

        def main():
            yield AllOf([sim.loop.spawn(writer(w)) for w in range(64)])

        run(sim, main())
        bucket = sim.store.bucket("b")
        assert len(admission_log.times[bucket.write_limiter]) == 64 * 64
        assert admission_log.peak(bucket.write_limiter) <= 100
        assert sim.ledger.throttle_events > 0

    def test_throttled_after_retry_budget(self):
        sim = make_sim(bucket_write_limit_per_s=1, throttle_max_retries=3)
        sim.store.create_bucket("b")
        ctx = sim.driver()

        def hammer():
            # one put per limiter window is admitted; the rest burn retries
            tasks = [
                sim.loop.spawn(sim.store.put_object(ctx, "b", f"k{i}", b""))
                for i in range(20)
            ]
            yield AllOf(tasks)

        with pytest.raises(errors.Throttled):
            run(sim, hammer())


class TestBandwidth:
    def test_single_connection_chunk_throughput(self):
        # 16 MiB chunks on one connection reach >= 85% of the steady limit
        sim = make_sim()
        ctx = sim.driver()
        total = 1024 * MIB
        sim.store.seed_object("b", "obj", ZeroBlob(total))

        def main():
            for off in range(0, total, 16 * MIB):
                yield from sim.store.get_object(ctx, "b", "obj", (off, off + 16 * MIB))
            return sim.loop.now

        elapsed = run(sim, main()) / US_PER_S
        mib_per_s = 1024 / elapsed
        assert mib_per_s >= 0.85 * 90

    def test_four_connections_small_chunks(self):
        sim = make_sim()
        ctx = sim.driver()
        total = 1024 * MIB
        sim.store.seed_object("b", "obj", ZeroBlob(total))

        def connection(c):
            for i in range(256):
                off = (c * 256 + i) * MIB
                yield from sim.store.get_object(ctx, "b", "obj", (off, off + MIB))

        def main():
            yield AllOf([sim.loop.spawn(connection(c)) for c in range(4)])
            return sim.loop.now

        elapsed = run(sim, main()) / US_PER_S
        assert 1024 / elapsed >= 0.95 * 90

    def test_ingress_soundness_bound(self):
        # total ingress bytes / elapsed <= steady + credit/elapsed
        sim = make_sim()
        ctx = sim.driver()
        sim.store.seed_object("b", "obj", ZeroBlob(256 * MIB))

        def connection(c):
            for i in range(32):
                off = (c * 32 + i) * 2 * MIB
                yield from sim.store.get_object(ctx, "b", "obj", (off, off + 2 * MIB))

        def main():
            yield AllOf([sim.loop.spawn(connection(c)) for c in range(4)])
            return sim.loop.now

        elapsed_s = run(sim, main()) / US_PER_S
        rate = 4 * 32 * 2 / elapsed_s  # MiB read by the four connections
        cfg = sim.cfg
        assert rate <= float(cfg.steady_mib_per_s) + float(cfg.burst_credit_mib) / elapsed_s


class NaiveNic:
    """The shaper as a step loop over exact fractions: the oracle for `Nic`."""

    def __init__(self, cfg: SimConfig):
        to_bytes_per_us = Fraction(MIB, US_PER_S)
        self.steady = cfg.steady_mib_per_s * to_bytes_per_us
        self.burst = cfg.burst_cap_mib_per_s * to_bytes_per_us
        self.per_conn = cfg.per_connection_mib_per_s * to_bytes_per_us
        self.credit_cap = cfg.burst_credit_mib * MIB
        self.tokens: Fraction = Fraction(self.credit_cap)
        self.free_at: int = 0
        self._last_update: int = 0

    def reserve(self, nbytes: int, ready_us: int) -> int:
        """Reserve the pipe for `nbytes`; returns the virtual finish time."""
        start = max(ready_us, self.free_at)
        self.tokens = min(
            Fraction(self.credit_cap),
            self.tokens + self.steady * (start - self._last_update),
        )
        remaining = Fraction(nbytes)
        t = Fraction(start)
        while remaining > 0:
            cap = self.burst if self.tokens > 0 else self.steady
            rate = min(self.per_conn, cap)
            if rate > self.steady and self.tokens > 0:
                seg = min(self.tokens / (rate - self.steady), remaining / rate)
            else:
                seg = remaining / rate
            sent = rate * seg
            self.tokens = min(
                Fraction(self.credit_cap), self.tokens + self.steady * seg - sent
            )
            remaining -= sent
            t += seg
        finish = math.ceil(t)
        self.free_at = finish
        self._last_update = finish
        return finish


mib_per_s = st.builds(
    Fraction, st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=7)
)


class TestConfigChecks:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("concurrency_limit", 0),
            ("bucket_read_limit_per_s", 0),
            ("bucket_write_limit_per_s", 0),
            ("first_byte_latency_ms", Fraction(-1, 3)),
            ("invoke_latency_ms", Fraction(-1)),
            ("queue_poll_latency_ms", -1),
            ("throttle_retry_delay_ms", -1),
            ("throttle_max_retries", -1),
            ("vcpu_hz", 0),
            ("driver_invoke_rate_per_s", Fraction(0)),
            ("worker_invoke_rate_per_s", Fraction(0)),
            ("worker_invoke_rate_per_s", Fraction(-80)),
            ("decode_cycles_per_byte", Fraction(-1, 3)),
            ("max_payload_bytes", -1),
            ("max_key_bytes", -1),
            ("read_req_usd_per_million", Fraction(-1)),
            ("write_req_usd_per_million", Fraction(-1, 10)),
            ("list_req_usd_per_million", Fraction(-5)),
            ("worker_usd_per_gib_second", Fraction(-1)),
        ],
    )
    def test_config_that_can_only_hang_or_fail_late_is_rejected(self, field, value):
        with pytest.raises(errors.ConfigError, match=field):
            make_sim(**{field: value})

    def test_smallest_accepted_values_run(self):
        sim = make_sim(
            concurrency_limit=1,
            bucket_read_limit_per_s=1,
            bucket_write_limit_per_s=1,
            first_byte_latency_ms=Fraction(0),
            invoke_latency_ms=Fraction(0),
            queue_poll_latency_ms=0,
            throttle_retry_delay_ms=0,
            throttle_max_retries=0,
            vcpu_hz=1,
            driver_invoke_rate_per_s=Fraction(1, 10**6),
            worker_invoke_rate_per_s=Fraction(1, 10**6),
            decode_cycles_per_byte=Fraction(0),
        )
        sim.store.create_bucket("b")
        ctx = sim.driver()

        def handler(wctx, payload):
            # one cycle at 1 Hz on one vCPU, 6/5 slower on a cold start
            yield from wctx.compute(1)
            return sim.loop.now

        def main():
            yield from sim.store.put_object(ctx, "b", "k", b"abc")
            data = yield from sim.store.get_object(ctx, "b", "k")
            worker = yield from sim.faas.invoke(ctx, FunctionSpec(memory_mib=1792), b"", handler)
            return data, (yield worker)

        # the PUT and the GET take 1 us each
        assert run(sim, main()) == (b"abc", 2 + 1_200_000)


class TestNicShaper:
    def test_default_config_runs_at_one_constant_rate(self):
        assert NicShaping(SimConfig()).constant is not None
        assert NicShaping(SimConfig(per_connection_mib_per_s=Fraction(300))).constant is None

    @pytest.mark.parametrize(
        "field,value",
        [("per_connection_mib_per_s", 0), ("steady_mib_per_s", 0), ("burst_credit_mib", -1)],
    )
    def test_nonsense_rates_rejected(self, field, value):
        with pytest.raises(errors.ConfigError):
            CloudSim(SimConfig().updated(**{field: Fraction(value)}))

    @settings(max_examples=200, deadline=None)
    @given(
        steady=mib_per_s,
        burst=mib_per_s,
        per_conn=mib_per_s,
        credit=st.builds(
            Fraction, st.integers(min_value=0, max_value=900), st.integers(min_value=1, max_value=3)
        ),
        transfers=st.lists(
            st.tuples(
                st.one_of(
                    st.just(0),
                    st.integers(min_value=1, max_value=4096),
                    st.integers(min_value=0, max_value=2 << 30),
                ),
                st.integers(min_value=-(10**7), max_value=10**7),
            ),
            max_size=25,
        ),
    )
    def test_reserve_equals_step_loop(self, steady, burst, per_conn, credit, transfers):
        # per_conn above steady exercises the burst branch
        cfg = SimConfig(
            steady_mib_per_s=steady,
            burst_cap_mib_per_s=burst,
            per_connection_mib_per_s=per_conn,
            burst_credit_mib=credit,
        )
        oracle, nic = NaiveNic(cfg), Nic(NicShaping(cfg))
        for nbytes, gap in transfers:
            ready = max(0, oracle.free_at + gap)  # negative gaps queue behind free_at
            assert nic.reserve(nbytes, ready) == oracle.reserve(nbytes, ready)
            assert nic.free_at == oracle.free_at
            assert nic.tokens == oracle.tokens


def naive_list(objects: dict, prefix: str) -> list[str]:
    """LIST as a filter and sort over every key: the oracle for the key index."""
    return sorted(k for k in objects if k.startswith(prefix))


MAX_CHAR = "\U0010ffff"
# few characters, so keys collide (overwrites) and share prefixes; the
# largest code point and its predecessor probe the index's upper bound
store_keys = st.text(st.sampled_from(["a", "b", "/", "é", "\U0010fffe", MAX_CHAR]), max_size=4)


class TestListIndex:
    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "seed", "overwrite", "delete"]),
                store_keys,
                st.integers(min_value=0, max_value=50),
            ),
            max_size=30,
        ),
        extra=st.lists(store_keys, max_size=5),
    )
    def test_list_equals_filter_and_sort(self, ops, extra):
        sim = make_sim()
        store, ctx = sim.store, sim.driver()
        store.create_bucket("b")
        objects = store.bucket("b").objects

        def check(prefix):
            listed = yield from store.list_objects(ctx, "b", prefix)
            assert listed == naive_list(objects, prefix)
            listed.append("a")
            listed.reverse()
            again = yield from store.list_objects(ctx, "b", prefix)
            assert again == naive_list(objects, prefix)

        def main():
            for op, key, n in ops:
                if op in ("overwrite", "delete") and objects:
                    key = sorted(objects)[n % len(objects)]
                if op == "delete":
                    if key in objects:
                        store.bucket("b").delete(key)
                elif op == "seed":
                    store.seed_object("b", key, b"x" * n)
                else:
                    yield from store.put_object(ctx, "b", key, b"x" * n)
                prefixes = {key[:i] for i in range(len(key) + 1)} | {key + MAX_CHAR}
                for prefix in sorted(prefixes | set(extra)):
                    yield from check(prefix)

        run(sim, main())
        assert store.bucket("b").keys == sorted(objects)

    def test_prefix_ending_in_the_largest_code_point(self):
        # prefix + U+10FFFF is no upper bound: for "a" it would drop every key
        # from "a\U0010ffff" on
        sim = make_sim()
        keys = ["a", "a" + MAX_CHAR, "a" + MAX_CHAR * 2, "a" + MAX_CHAR + "b", "aé", "b", MAX_CHAR]
        for key in keys:
            sim.store.seed_object("b", key, b"")
        ctx = sim.driver()
        for prefix in ["", "a", "a" + MAX_CHAR, "a" + MAX_CHAR * 2, MAX_CHAR, "é"]:
            listed = run(sim, sim.store.list_objects(ctx, "b", prefix))
            assert listed == naive_list(dict.fromkeys(keys), prefix)


class TestCompute:
    def test_cpu_throughput_baseline(self):
        assert cpu_throughput(1792, 1) == 1

    def test_cpu_throughput_max(self):
        assert float(cpu_throughput(3008, 2)) == pytest.approx(1.678, abs=0.001)

    def test_cpu_throughput_small_memory_two_threads(self):
        assert cpu_throughput(896, 2) == Fraction(1, 2)

    @given(
        mem=st.integers(min_value=128, max_value=3008),
        threads=st.integers(min_value=1, max_value=8),
    )
    def test_cpu_throughput_monotone_and_capped(self, mem, threads):
        t = cpu_throughput(mem, threads)
        assert t <= Fraction(mem, 1792)
        assert cpu_throughput(mem, threads + 1) >= t
        if mem < 3008:
            assert cpu_throughput(mem + 1, threads) >= t


class TestFaaS:
    def test_invocation_pacing_1000_at_250_per_s(self):
        sim = make_sim()
        ctx = sim.driver()
        initiated = []

        def handler(wctx, payload):
            yield Sleep(0)

        def main():
            spec = FunctionSpec(memory_mib=2048)
            for i in range(1000):
                yield from sim.faas.invoke(ctx, spec, b"", handler)
                initiated.append(sim.loop.now)

        run(sim, main())
        assert len(initiated) == 1000
        assert initiated[-1] / US_PER_S == pytest.approx(4.0, abs=0.1)

    @given(rate=st.fractions(min_value=Fraction(1, 1000), max_value=10**7))
    def test_pacing_interval_is_the_exact_interval_ceiled(self, rate):
        sim = make_sim()
        expected = math.ceil(Fraction(US_PER_S) / rate)
        assert sim.invoke_interval_us(rate) == expected
        assert sim.invoke_interval_us(rate) == expected  # memoised
        assert HostContext(sim, "h", invoke_rate_per_s=rate).invoke_interval_us == expected
        assert sim.driver().invoke_interval_us == 4000  # 250/s

    def test_single_invocation_eu_latency(self):
        sim = CloudSim(SimConfig().with_region("eu"))
        ctx = sim.driver()

        def handler(wctx, payload):
            started = sim.loop.now
            yield Sleep(0)
            return started

        def main():
            worker = yield from sim.faas.invoke(ctx, FunctionSpec(), b"", handler)
            initiated = sim.loop.now
            return initiated, (yield worker)

        assert run(sim, main()) == (0, 36_000)

    def test_zero_invocations_cost_nothing(self):
        sim = make_sim()
        sim.loop.run()
        assert sim.ledger.total_usd == 0

    def test_payload_too_large(self):
        sim = make_sim()
        ctx = sim.driver()

        def handler(wctx, payload):
            yield Sleep(0)

        def main():
            yield from sim.faas.invoke(ctx, FunctionSpec(), bytes(256 * 1024 + 1), handler)

        with pytest.raises(errors.PayloadTooLarge):
            run(sim, main())

    def test_concurrency_limit_queues_excess(self):
        sim = make_sim(concurrency_limit=2)
        ctx = sim.driver()
        running = []

        def handler(wctx, payload):
            running.append(sim.faas.running)
            yield Sleep(100_000)

        def main():
            workers = []
            for _ in range(6):
                workers.append((yield from sim.faas.invoke(ctx, FunctionSpec(), b"", handler)))
            yield AllOf(workers)

        run(sim, main())
        assert max(running) <= 2
        assert sim.faas.peak_concurrency <= 2

    def test_worker_billing_by_memory_and_duration(self):
        sim = make_sim()
        ctx = sim.driver()

        def handler(wctx, payload):
            yield Sleep(US_PER_S)  # one virtual second

        def main():
            yield (yield from sim.faas.invoke(ctx, FunctionSpec(memory_mib=2048), b"", handler))

        run(sim, main())
        assert sim.ledger.worker_usd == Fraction("3.3e-5")

    def test_cold_start_slows_compute(self):
        durations = {}
        for label in ("cold", "hot"):
            sim = make_sim()
            ctx = sim.driver()

            def handler(wctx, payload):
                t0 = sim.loop.now
                yield from wctx.compute(10_000_000)
                durations[label] = sim.loop.now - t0

            def main(lbl=label):
                if lbl == "hot":  # warm the function first
                    yield (yield from sim.faas.invoke(ctx, FunctionSpec(memory_mib=1792), b"", handler))
                yield (yield from sim.faas.invoke(ctx, FunctionSpec(memory_mib=1792), b"", handler))

            run(sim, main())
        assert durations["cold"] == pytest.approx(durations["hot"] * 1.2, rel=1e-6)


class TestQueue:
    LATENCY_US = 10_000  # queue_poll_latency_ms

    def test_send_then_poll_roundtrip(self):
        sim = make_sim()
        ctx = sim.driver()
        q = MessageQueue(sim)

        def main():
            yield from q.send(ctx, b"payload")
            msg = yield from q.poll(ctx)
            return msg

        assert run(sim, main()) == [b"payload"]
        assert sim.ledger.total_usd == 0  # queue traffic is not billed

    def test_fifo_delivery_across_many_senders(self):
        sim = make_sim()
        q = MessageQueue(sim)
        sent = []

        def sender(i):
            ctx = sim.driver(f"w{i}")
            yield Sleep(i * 17)
            sent.append(i)
            yield from q.send(ctx, i)

        def main():
            for i in range(320):
                sim.loop.spawn(sender(i))
            batches = []
            ctx = sim.driver()
            while sum(map(len, batches)) < 320:
                batches.append((yield from q.poll(ctx)))
            return batches

        batches = run(sim, main())
        assert [m for b in batches for m in b] == sent
        assert max(map(len, batches)) == RECEIVE_MAX_MESSAGES

    def test_waking_message_counts_toward_the_batch(self):
        # the receive waits on an empty queue; 12 messages land at once and
        # the one that wakes it fills the batch along with 9 of the rest
        sim = make_sim()
        q = MessageQueue(sim)

        def sender(i):
            yield from q.send(sim.driver(f"w{i}"), i)

        def main():
            ctx = sim.driver()
            for i in range(12):
                sim.loop.spawn(sender(i))
            first = yield from q.poll(ctx)
            second = yield from q.poll(ctx)
            return first, second, sim.loop.now

        first, second, now = run(sim, main())
        assert (first, second) == (list(range(10)), [10, 11])
        assert now == 3 * self.LATENCY_US  # send, then two receives

    @pytest.mark.parametrize("queued", [1, 10, 25, 30])
    def test_draining_a_full_queue_takes_one_latency_per_batch(self, queued):
        sim = make_sim()
        q = MessageQueue(sim)
        ctx = sim.driver()

        def main():
            for i in range(queued):
                sim.loop.spawn(q.send(sim.driver(f"w{i}"), i))
            yield Sleep(self.LATENCY_US + 1)  # every message is queued now
            assert len(q._messages) == queued
            start, got, receives = sim.loop.now, [], 0
            while len(got) < queued:
                batch = yield from q.poll(ctx)
                assert len(batch) <= RECEIVE_MAX_MESSAGES
                got.extend(batch)
                receives += 1
            return got, receives, sim.loop.now - start

        got, receives, elapsed = run(sim, main())
        assert got == list(range(queued))
        assert receives == math.ceil(queued / RECEIVE_MAX_MESSAGES)
        assert elapsed == receives * self.LATENCY_US


class TestLedger:
    def test_total_recomputable_from_counters(self):
        sim = make_sim()
        ctx = sim.driver()
        sim.store.create_bucket("b")

        def main():
            for i in range(7):
                yield from sim.store.put_object(ctx, "b", f"k{i}", b"x")
            for i in range(5):
                yield from sim.store.get_object(ctx, "b", "k0")
            yield from sim.store.list_objects(ctx, "b")

        run(sim, main())
        expected = (
            7 * Fraction(5, 10**6) + 5 * Fraction(2, 5 * 10**6) + Fraction(5, 10**6)
        )
        assert sim.ledger.request_usd == expected
        assert sim.ledger.total_usd == expected

    def test_child_ledger_charges_reach_its_parent_only(self):
        parent = BillingLedger(make_sim().cfg)
        child = BillingLedger(parent.cfg, parent=parent)
        child.charge_request(READ, "b")
        child.charge_worker(1024, 500)
        child.record_throttle()
        parent.charge_request(WRITE, "b")
        parent.charge_worker(2048, 7)
        parent.record_throttle()
        assert child.request_counts == {(READ, "b"): 1}
        assert child.worker_us == {1024: 500}
        assert child.throttle_events == 1
        assert parent.request_counts == {(READ, "b"): 1, (WRITE, "b"): 1}
        assert parent.worker_us == {1024: 500, 2048: 7}
        assert parent.throttle_events == 2

    def test_csv_export_shape(self):
        sim = make_sim()
        ctx = sim.driver()
        sim.store.create_bucket("b")

        def main():
            yield from sim.store.put_object(ctx, "b", "k", b"x")

        run(sim, main())
        csv = ledger_csv(sim.ledger)
        lines = csv.strip().splitlines()
        assert lines[0] == "category,bucket,count,unit_price,usd"
        assert lines[1].startswith("write,b,1,")

    def test_function_spec_bounds(self):
        with pytest.raises(ValueError):
            FunctionSpec(memory_mib=64)
        with pytest.raises(ValueError):
            FunctionSpec(memory_mib=4096)
