"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces the public functions of each lambada_lab module
with wrappers that open a span per call.  Most layers are generators driven
with ``yield from``, so a span accumulates host time only while the
generator is being resumed (``send``/``throw``), never across the virtual
waits in between.  A stack of open spans turns inclusive time into self
time: whatever a nested span spends is subtracted from its parent.  Each
span also records the simulated start and end (``sim.loop.now``), so the
rollup shows how much virtual time each function's calls covered.

Nothing here runs unless a traced run installs it; untraced runs call the
program's own functions.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

from lambada_lab import clock, datagen, engine, exchange, invoke, lcf, scan, substrate
from lambada_lab.billing import LIST, READ, WRITE

MIB = 1 << 20


class Span:
    """One call of a wrapped function: self host time and simulated extent."""

    __slots__ = ("layer", "name", "self_s", "sim_start_us", "sim_end_us")

    def __init__(self, layer: str, name: str, sim_now):
        self.layer = layer
        self.name = name
        self.self_s = 0.0
        self.sim_start_us = sim_now
        self.sim_end_us = sim_now


class Tracer:
    """Span stack, per-layer self time and per-operation observations."""

    def __init__(self, clock_fn=time.perf_counter):
        self.clock_fn = clock_fn
        self.sim = None
        self._stack: list[list] = []  # [span, entered_at, child_s]
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------ accounting

    def reset(self) -> None:
        """Start a new operation: clear all totals and observations."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rollup: dict[str, list] = {}  # layer:name -> [calls, self_s, sim_us]
        self.events = 0
        self.scan_reports: list = []
        self.scan_columns = 0
        self.decoded_bytes = 0
        self.decoded_values = 0
        self.query_reports: list = []
        self.invoke_reports: list = []
        self.phase_traces: list = []

    def _now_sim(self):
        return self.sim.loop.now if self.sim is not None else None

    def _enter(self, span: Span) -> None:
        self._stack.append([span, self.clock_fn(), 0.0])

    def _exit(self) -> None:
        span, entered_at, child_s = self._stack.pop()
        elapsed = self.clock_fn() - entered_at
        span.self_s += elapsed - child_s
        if self._stack:
            self._stack[-1][2] += elapsed

    def _close(self, span: Span) -> None:
        span.sim_end_us = self._now_sim()
        self.self_s[span.layer] += span.self_s
        self.calls[span.name] += 1
        key = f"{span.layer}:{span.name}"
        row = self.rollup.setdefault(key, [0, 0.0, 0])
        row[0] += 1
        row[1] += span.self_s
        if span.sim_start_us is not None:
            row[2] += span.sim_end_us - span.sim_start_us

    def _drive(self, span: Span, gen, observe, args, kwargs):
        """Delegate to `gen` like ``yield from``, timing only its resumes."""
        value, error = None, None
        while True:
            self._enter(span)
            try:
                yielded = gen.throw(error) if error is not None else gen.send(value)
            except StopIteration as stop:
                self._exit()
                result = stop.value
                break
            except BaseException:
                self._exit()
                self._close(span)
                raise
            self._exit()
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:
                error = err
        self._close(span)
        if observe is not None:
            observe(args, kwargs, result)
        return result

    def traced(self, layer: str, fn, observe=None):
        """Wrap `fn` so each call is a span of `layer`.

        If the call returns a generator, the span stays open over the
        generator's resumes and closes when it returns.  `observe(args,
        kwargs, result)` sees each completed call.
        """
        name = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, name, self._now_sim())
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit()
                self._close(span)
                raise
            self._exit()
            if inspect.isgenerator(result):
                return self._drive(span, result, observe, args, kwargs)
            self._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, layer: str, observe=None, static=False) -> None:
        original = vars(owner).get(attr)
        if original is None:
            print(f"layers: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapper = self.traced(layer, fn, observe)
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patched.append((owner, attr, original))

    def _count_events(self) -> None:
        original = clock.SimLoop.call_at
        tracer = self

        @functools.wraps(original)
        def call_at(loop, when_us, fn):
            tracer.events += 1
            return original(loop, when_us, fn)

        clock.SimLoop.call_at = call_at
        self._patched.append((clock.SimLoop, "call_at", original))

    def install(self) -> "Tracer":
        """Replace each layer's public functions where their callers look them up."""
        self._count_events()
        for method in ("get_object", "put_object", "list_objects"):
            self._patch(substrate.ObjectStore, method, "substrate.store")
        self._patch(substrate.Nic, "reserve", "substrate.nic")
        self._patch(substrate.FaaSService, "invoke", "substrate.invoke")

        self._patch(lcf, "decode_chunk", "lcf.decode", self._observe_decode)
        self._patch(lcf, "read_footer_ranged", "lcf.footer")

        # engine binds execute_scan at import time; patch both names
        self._patch(scan, "execute_scan", "scan", self._observe_scan)
        self._patch(engine, "execute_scan", "scan", self._observe_scan)

        self._patch(engine, "execute", "engine.driver", self._observe_query)
        self._patch(engine, "run_fragment", "engine.fragment")
        self._patch(engine, "merge_partials", "engine.merge")

        self._patch(invoke, "build_plan", "invoke")
        self._patch(invoke, "run_plan", "invoke", self._observe_invoke)

        self._patch(exchange, "run_synthetic_exchange", "exchange", self._observe_exchange)
        # the per-worker round loop lives in a private class; its rounds are
        # where the exchange's host time goes
        exchange_run = getattr(exchange, "_ExchangeRun", exchange)
        self._patch(exchange_run, "send_level", "exchange")
        self._patch(exchange_run, "receive_level", "exchange")
        self._patch(exchange.NamingScheme, "parse_in_name", "exchange", static=True)

        self._patch(datagen, "generate_tables", "datagen.tables")
        self._patch(datagen, "encode_files", "datagen.encode")
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- observations

    def _observe_decode(self, args, kwargs, result) -> None:
        self.decoded_bytes += len(args[1])
        self.decoded_values += len(result)

    def _observe_scan(self, args, kwargs, result) -> None:
        predicates = args[4]
        columns = set(predicates.projection) | {n for n, _, _ in predicates.intervals}
        self.scan_columns = len(columns)
        self.scan_reports.append(result[1])

    def _observe_query(self, args, kwargs, result) -> None:
        self.query_reports.append(result[1])

    def _observe_invoke(self, args, kwargs, result) -> None:
        self.invoke_reports.append(result)

    def _observe_exchange(self, args, kwargs, result) -> None:
        self.phase_traces.extend(result[1])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def operation_metrics(tracer: Tracer, sim, host_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation on `sim`.

    A layer that does not run in the operation reports 0.
    """
    t = tracer.self_s
    ledger = sim.ledger
    scans = tracer.scan_reports
    rows_kept = sum(r.rows for r in scans)
    rows_decoded = _ratio(tracer.decoded_values, tracer.scan_columns)
    rounds = tracer.calls["_ExchangeRun.send_level"]
    phases = tracer.phase_traces
    return {
        "clock.events": tracer.events,
        "clock.host_us_per_event": _ratio(host_s * 1e6, tracer.events),
        "substrate.get_requests": ledger.count(READ),
        "substrate.put_requests": ledger.count(WRITE),
        "substrate.list_requests": ledger.count(LIST),
        "substrate.throttle_retries": ledger.throttle_events,
        "substrate.store_host_s": t["substrate.store"],
        "substrate.nic_reserve_calls": tracer.calls["Nic.reserve"],
        "substrate.nic_reserve_host_s": t["substrate.nic"],
        "substrate.invocations": tracer.calls["FaaSService.invoke"],
        "substrate.invoke_host_s": t["substrate.invoke"],
        "lcf.decode_chunk_host_s": t["lcf.decode"],
        "lcf.decode_mib_per_s": _ratio(tracer.decoded_bytes / MIB, t["lcf.decode"]),
        "lcf.footer_host_s": t["lcf.footer"],
        "scan.host_s": t["scan"],
        "scan.groups_read": sum(r.groups_read for r in scans),
        "scan.groups_pruned": sum(r.groups_pruned for r in scans),
        "scan.bytes_read_mib": sum(r.bytes for r in scans) / MIB,
        "scan.rows_kept_per_decoded": _ratio(rows_kept, rows_decoded),
        "scan.sim_s": _median([r.duration_us for r in scans]) / 1e6,
        "engine.fragment_host_s": t["engine.fragment"],
        "engine.agg_rows_per_s": _ratio(rows_kept, t["engine.fragment"]),
        "engine.merge_host_s": t["engine.merge"],
        "engine.collect_sim_s": _median([r.collect_us for r in tracer.query_reports]) / 1e6,
        "invoke.host_s": t["invoke"],
        "invoke.makespan_sim_s": _median(
            [r.makespan_us for r in tracer.invoke_reports]
        ) / 1e6,
        "exchange.host_s": t["exchange"],
        "exchange.host_ms_per_worker_round": _ratio(t["exchange"] * 1e3, rounds),
        "exchange.parse_calls": tracer.calls["NamingScheme.parse_in_name"],
        "exchange.write_sim_s": _median([p.write_us for p in phases]) / 1e6,
        "exchange.wait_sim_s": _median([p.wait_us for p in phases]) / 1e6,
        "exchange.read_sim_s": _median([p.read_us for p in phases]) / 1e6,
    }


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    return {
        "datagen.tables_host_s": tracer.self_s["datagen.tables"],
        "datagen.encode_host_s": tracer.self_s["datagen.encode"],
    }


UNITS = {
    "clock.events": "count",
    "clock.host_us_per_event": "us",
    "substrate.get_requests": "count",
    "substrate.put_requests": "count",
    "substrate.list_requests": "count",
    "substrate.throttle_retries": "count",
    "substrate.store_host_s": "s",
    "substrate.nic_reserve_calls": "count",
    "substrate.nic_reserve_host_s": "s",
    "substrate.invocations": "count",
    "substrate.invoke_host_s": "s",
    "lcf.decode_chunk_host_s": "s",
    "lcf.decode_mib_per_s": "MiB/s",
    "lcf.footer_host_s": "s",
    "scan.host_s": "s",
    "scan.groups_read": "count",
    "scan.groups_pruned": "count",
    "scan.bytes_read_mib": "MiB",
    "scan.rows_kept_per_decoded": "ratio",
    "scan.sim_s": "s",
    "engine.fragment_host_s": "s",
    "engine.agg_rows_per_s": "rows/s",
    "engine.merge_host_s": "s",
    "engine.collect_sim_s": "s",
    "invoke.host_s": "s",
    "invoke.makespan_sim_s": "s",
    "exchange.host_s": "s",
    "exchange.host_ms_per_worker_round": "ms",
    "exchange.parse_calls": "count",
    "exchange.write_sim_s": "s",
    "exchange.wait_sim_s": "s",
    "exchange.read_sim_s": "s",
    "datagen.tables_host_s": "s",
    "datagen.encode_host_s": "s",
}
