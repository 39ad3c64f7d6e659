import weakref

import pytest

from lambada_lab import datagen, engine, errors, exchange, invoke
from lambada_lab.billing import LIST, READ, WRITE
from lambada_lab.clock import AllOf, Future, SimLoop, Sleep, US_PER_S
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, ZeroBlob


def test_sleep_advances_virtual_time():
    loop = SimLoop()

    def main():
        yield Sleep(1500)
        return loop.now

    assert loop.run_task(main()) == 1500


def test_equal_time_events_fire_in_insertion_order():
    loop = SimLoop()
    order = []

    def tagged(tag):
        yield Sleep(10)
        order.append(tag)

    for tag in range(5):
        loop.spawn(tagged(tag))
    loop.run()
    assert order == [0, 1, 2, 3, 4]


def test_task_join_returns_value():
    loop = SimLoop()

    def child():
        yield Sleep(5)
        return 42

    def parent():
        task = loop.spawn(child())
        value = yield task
        return value, loop.now

    assert loop.run_task(parent()) == (42, 5)


def test_all_of_waits_for_slowest():
    loop = SimLoop()

    def child(d):
        yield Sleep(d)
        return d

    def parent():
        tasks = [loop.spawn(child(d)) for d in (30, 10, 20)]
        results = yield AllOf(tasks)
        return results, loop.now

    results, now = loop.run_task(parent())
    assert results == [30, 10, 20]
    assert now == 30


def test_exception_propagates_to_joiner():
    loop = SimLoop()

    def child():
        yield Sleep(1)
        raise ValueError("boom")

    def parent():
        try:
            yield loop.spawn(child())
        except ValueError as err:
            return str(err)

    assert loop.run_task(parent()) == "boom"


def test_future_resolution_resumes_waiter():
    loop = SimLoop()
    fut = Future()

    def resolver():
        yield Sleep(7)
        fut.set_result("ready")

    def waiter():
        value = yield fut
        return value, loop.now

    loop.spawn(resolver())
    assert loop.run_task(waiter()) == ("ready", 7)


def test_determinism_of_event_trace():
    def run_once():
        loop = SimLoop()
        trace = []

        def worker(i):
            for _ in range(3):
                yield Sleep(11 * (i + 1))
                trace.append((loop.now, i))

        for i in range(4):
            loop.spawn(worker(i))
        loop.run()
        return trace

    assert run_once() == run_once()


def test_all_of_nothing_resolves_without_advancing_time():
    loop = SimLoop()

    def main():
        yield Sleep(3)
        results = yield AllOf([])
        return results, loop.now

    assert loop.run_task(main()) == ([], 3)


def test_all_of_takes_members_that_are_already_done():
    loop = SimLoop()
    early = Future()
    early.set_result("early")

    def child():
        yield Sleep(4)
        return "late"

    def main():
        alone = yield AllOf([early])
        mixed = yield AllOf([loop.spawn(child()), early])
        return alone, mixed, loop.now

    assert loop.run_task(main()) == (["early"], ["late", "early"], 4)


def test_all_of_raises_the_first_error_in_list_order():
    loop = SimLoop()

    def child(delay, tag):
        yield Sleep(delay)
        raise ValueError(tag)

    def ok():
        yield Sleep(1)
        return "ok"

    def main():
        tasks = [
            loop.spawn(ok()),
            loop.spawn(child(20, "first in list")),
            loop.spawn(child(10, "first in time")),
        ]
        try:
            yield AllOf(tasks)
        except ValueError as err:
            return str(err), loop.now

    # catching the AllOf's error also observes the sibling's: nothing is re-raised
    assert loop.run_task(main()) == ("first in list", 20)


def test_unawaited_task_error_is_raised_naming_the_task():
    loop = SimLoop()

    def child():
        yield Sleep(1)
        raise KeyError("lost")

    def main():
        loop.spawn(child(), name="orphan")
        yield Sleep(5)
        return "done"

    with pytest.raises(RuntimeError, match="orphan") as info:
        loop.run_task(main())
    assert isinstance(info.value.__cause__, KeyError)


def test_deadlock_is_chained_to_the_error_that_caused_it():
    loop = SimLoop()
    fut = Future()

    def resolver():
        yield Sleep(1)
        raise KeyError("lost")

    def main():
        return (yield fut)

    loop.spawn(resolver(), name="resolver")
    with pytest.raises(RuntimeError, match="never completed") as info:
        loop.run_task(main())
    assert isinstance(info.value.__cause__, KeyError)


def test_done_future_resumes_after_the_events_already_queued():
    loop = SimLoop()
    done = Future()
    done.set_result("v")
    order = []

    def first():
        order.append(("first", (yield done)))

    def second():
        order.append(("second", None))
        yield Sleep(0)

    loop.spawn(first())
    loop.spawn(second())
    loop.run()
    assert order == [("second", None), ("first", "v")]
    assert loop.now == 0


def test_future_error_is_thrown_at_the_yield_and_counts_as_observed():
    loop = SimLoop()
    fut = Future()
    boom = ValueError("boom")

    def child():
        yield Sleep(1)
        raise KeyError("child")

    def main():
        task = loop.spawn(child(), name="child")
        fut.set_error(boom)
        try:
            yield fut
        except ValueError as err:
            caught = err
        yield Sleep(5)  # the child has failed by now
        try:
            yield task
        except KeyError:
            return caught

    assert loop.run_task(main()) is boom


def test_unsupported_yield_fails_the_task_with_type_error():
    loop = SimLoop()

    def recovers():
        try:
            yield 42
        except TypeError as err:
            yield Sleep(2)
            return str(err), loop.now

    def gives_up():
        yield "not an event"

    assert loop.run_task(recovers()) == ("task yielded unsupported value: 42", 2)
    with pytest.raises(TypeError, match="not an event"):
        loop.run_task(gives_up())


def test_task_does_not_keep_the_value_it_was_sent():
    loop = SimLoop()

    class Payload:
        pass

    refs = []

    def producer(fut):
        payload = Payload()
        refs.append(weakref.ref(payload))
        yield Sleep(1)
        fut.set_result(payload)

    def consumer():
        fut = Future()
        loop.spawn(producer(fut))
        yield fut  # the value is dropped at once
        del fut
        yield Sleep(1)
        return refs[0]() is None

    assert loop.run_task(consumer())


class TestEventCount:
    """Every event passes through `SimLoop.call_at`, as perfbench counts them.

    Pins the number of events and a SHA-256 over their scheduled times in
    order, so a faster loop must neither add, drop nor reorder events.  The
    query and invocation runs also pin a SHA-256 over the (time, woken
    task) pairs, so swapping which task runs at an instant shows too.
    """

    @staticmethod
    def run_exchange(mode):
        sim = CloudSim(SimConfig())
        cfg = exchange.ExchangeConfig(levels=2, write_combining=mode, num_buckets=3)
        sim.loop.run_task(exchange.run_synthetic_exchange(sim, 16, 10**9, cfg))

    def test_offsets_in_name_exchange(self, scheduled):
        self.run_exchange(exchange.WC_OFFSETS_IN_NAME)
        assert len(scheduled) == 302
        assert scheduled.times_digest() == (
            "8ab65ae9aa3cc6b1a365dd670e67b8b965f097235809e3835e3da9b5e633ff96"
        )

    def test_wc_off_exchange(self, scheduled):
        self.run_exchange(exchange.WC_OFF)
        assert len(scheduled) == 274
        assert scheduled.times_digest() == (
            "1954db4c0c0223ded642ee0fe960106a6fb27004d9db97ba848fcc2f35dddcc2"
        )

    def test_two_level_query(self, scheduled):
        # 2000 rows (112 KB of chunks) per file: the groups before each
        # file's 64 KiB footer tail cost chunk GETs
        spec = datagen.GenSpec(scale_bytes=datagen.ROW_BYTES * 16000, files=8, rows_per_group=100)
        sim = CloudSim(SimConfig())
        keys = datagen.gen(sim, spec, 7)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        sim.loop.run_task(engine.execute(sim, plan, keys, strategy=invoke.TWO_LEVEL))
        assert len(scheduled) == 895
        assert scheduled.times_digest() == (
            "67700c4708d06f65b759b545c6ff5d98756482ec8c55317ff802a4d3462b41a7"
        )
        assert scheduled.wakes_digest() == (
            "50abbe6b86ec924fe1bd70b4c00aec8939d6a6069dfdeb3881df62819b743342"
        )

    def test_two_level_invocation(self, scheduled):
        sim = CloudSim(SimConfig())
        plan = invoke.build_plan(256, invoke.TWO_LEVEL)
        sim.loop.run_task(invoke.run_plan(sim.driver(), plan))
        assert len(scheduled) == 1010
        assert scheduled.wakes_digest() == (
            "787dfdfde6800eddf1a581eb682d0c7f6d3fe7b95f99142ba0f5fd6c9588120b"
        )

    def test_throttle_storm(self, scheduled):
        # eight clients, 37 ms apart, each issue a PUT, a ranged GET and a
        # LIST against a bucket that admits 4 reads and 2 writes per second;
        # two LISTs run out of their 12 retries
        cfg = SimConfig().updated(
            bucket_read_limit_per_s=4, bucket_write_limit_per_s=2, throttle_max_retries=12
        )
        sim = CloudSim(cfg)
        sim.store.seed_object("b", "blob", ZeroBlob(10**6))
        throttled = []

        def client(i):
            ctx = sim.driver(f"c{i}")
            yield Sleep(37_000 * i)
            for j in range(3):
                op = (i + j) % 3
                try:
                    if op == 0:
                        yield from sim.store.put_object(ctx, "b", f"k{i}-{j}", b"x" * (100 * i))
                    elif op == 1:
                        lo = 1000 * i
                        data = yield from sim.store.get_object(ctx, "b", "blob", (lo, lo + 5000))
                        assert len(data) == 5000
                    else:
                        yield from sim.store.list_objects(ctx, "b", "k")
                except errors.Throttled:
                    throttled.append((i, j, sim.loop.now))

        def main():
            yield AllOf([sim.loop.spawn(client(i)) for i in range(8)])

        sim.loop.run_task(main())
        assert throttled == [(2, 0, 1_274_000), (5, 0, 1_385_000)]
        ledger = sim.ledger
        assert (ledger.count(READ), ledger.count(WRITE), ledger.count(LIST)) == (8, 8, 6)
        assert ledger.throttle_events == 146
        assert sim.loop.now == 3_219_061
        assert len(scheduled) == 184
        assert scheduled.times_digest() == (
            "dcb38770918102af5339cc9237ca62d50c0df9cfb69d603fcfebbaa7709eadf5"
        )
