"""Worker invocation strategies: direct fan-out and a two-level tree.

A driver can only issue calls at a bounded aggregate rate, so starting P
workers one by one costs P/rate seconds.  The two-level plan has the driver
start about sqrt(P) first-generation workers, each of which starts its own
list of second-generation workers before running its fragment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .clock import AllOf, Future, Sleep
from .substrate import FunctionSpec

DIRECT = "direct"
TWO_LEVEL = "two_level"


@dataclass(frozen=True)
class InvocationPlan:
    P: int
    first_gen: tuple[int, ...]
    # first-gen worker id -> ids it must invoke
    assignment: dict[int, tuple[int, ...]] = field(default_factory=dict)


def build_plan(P: int, strategy: str = DIRECT) -> InvocationPlan:
    """Assign every id in [0, P) to exactly one inviter."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if strategy not in (DIRECT, TWO_LEVEL):
        raise ValueError(f"unknown strategy {strategy}")
    if strategy == DIRECT or P == 1:
        return InvocationPlan(P, tuple(range(P)))
    g = math.isqrt(P)
    if g * g < P:
        g += 1
    rest = list(range(g, P))
    assignment = {}
    base, extra = divmod(len(rest), g)
    pos = 0
    for i in range(g):
        take = base + (1 if i < extra else 0)
        assignment[i] = tuple(rest[pos : pos + take])
        pos += take
    return InvocationPlan(P, tuple(range(g)), assignment)


@dataclass
class WorkerTiming:
    worker: int
    generation: int
    parent: int  # -1 for driver-invoked
    initiated_us: int
    started_us: int


@dataclass
class InvocationReport:
    plan: InvocationPlan
    timings: list[WorkerTiming]
    makespan_us: int
    last_initiated_us: int

    CSV_HEADER = "worker,generation,parent,initiated_us,started_us"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for t in sorted(self.timings, key=lambda t: t.worker):
            lines.append(
                f"{t.worker},{t.generation},{t.parent},{t.initiated_us},{t.started_us}"
            )
        return "\n".join(lines) + "\n"

    def phase_breakdown(self) -> list[tuple[int, int, int, int]]:
        """(first-gen worker, driver delay, call latency, child fan-out span)."""
        children_last = {}
        for t in self.timings:
            if t.generation == 2:
                children_last[t.parent] = max(
                    children_last.get(t.parent, 0), t.initiated_us
                )
        rows = []
        for t in self.timings:
            if t.generation != 1:
                continue
            span = max(0, children_last.get(t.worker, t.started_us) - t.started_us)
            rows.append((t.worker, t.initiated_us, t.started_us - t.initiated_us, span))
        return rows


def _noop_fragment(ctx, wid, data):
    # holds the worker's concurrency slot for one event
    yield Sleep(0)


def run_plan(
    ctx,
    plan: InvocationPlan,
    spec: FunctionSpec | None = None,
    fragment=None,
    payload_extra=None,
):
    """Execute an invocation plan from the driver `ctx`; returns a task for
    sim.loop.run_task.  Every worker bills the driver's ledger.

    `fragment(ctx, wid, data)` runs in every worker after it has finished its
    own invocations (default: nothing).  `payload_extra(wid)` supplies the
    JSON-serializable `data` shipped inside worker `wid`'s call payload;
    first-generation payloads carry their children's data too.  A direct
    plan is one whose workers have no children.  A worker's initiation is
    the instant `FaaSService.invoke` returns its task, and each worker
    records its own start as its handler begins.  Every time in the report
    counts from the plan's start, so a plan on a reused sim reads the same.
    """
    sim = ctx.sim
    spec = spec or FunctionSpec()
    fragment = fragment or _noop_fragment
    # (worker, generation, parent, initiated), in invocation order; invoke
    # yields nothing after it initiates a call, so it returns at the initiation
    initiated: list[tuple[int, int, int, int]] = []
    started: dict[int, int] = {}  # worker -> its start
    all_started = Future()  # resolved when the last worker starts

    def extra(wid: int):
        return payload_extra(wid) if payload_extra else None

    def invoke_worker(ctx, wid: int, data, children):
        payload = json.dumps({"id": wid, "data": data, "children": children}).encode()
        return (
            yield from sim.faas.invoke(ctx, spec, payload, handler, worker_name=f"w{wid}")
        )

    def handler(ctx, payload):
        info = json.loads(payload)
        wid = info["id"]
        started[wid] = sim.loop.now
        if len(started) == plan.P:
            all_started.set_result()
        for cid, data in info["children"]:
            yield from invoke_worker(ctx, cid, data, [])
            initiated.append((cid, 2, wid, sim.loop.now))
        yield from fragment(ctx, wid, info["data"])

    def main():
        start = sim.loop.now
        first_gen = []
        for wid in plan.first_gen:
            children = [[cid, extra(cid)] for cid in plan.assignment.get(wid, ())]
            first_gen.append((yield from invoke_worker(ctx, wid, extra(wid), children)))
            initiated.append((wid, 1, -1, sim.loop.now))
        yield AllOf(first_gen)
        # every child is invoked by now; wait until the last one has started
        yield all_started
        rows = [
            WorkerTiming(wid, gen, parent, at - start, started[wid] - start)
            for wid, gen, parent, at in initiated
        ]
        return InvocationReport(
            plan,
            rows,
            makespan_us=max(t.started_us for t in rows),
            last_initiated_us=max(t.initiated_us for t in rows),
        )

    return main()
