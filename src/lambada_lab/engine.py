"""Driver/worker query engine over the simulated substrate.

A plan is one JSON-serializable object: the scan's projection and filter
intervals, and the group keys and aggregates of the partial aggregation.
The driver invokes workers; each worker runs the plan over its file share
(scan, filter, partial aggregation) and posts a partial result to the
result queue, and the driver merges the partials into the final answer.
The driver and its workers bill the query's own ledger, which forwards
every charge to the simulation's.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from . import errors, invoke
from .billing import BillingLedger, format_usd
from .config import MIB
from .scan import PredicateSet, execute_scan
from .substrate import FunctionSpec, HostContext, MessageQueue

QUEUE_PAYLOAD_CAP = 256 * 1024
SPILL_BUCKET = "query-results"
MEMORY_HEADROOM = Fraction(9, 10)


# ---------------------------------------------------------------- expressions

def eval_expr(expr, row: dict):
    """Evaluate a JSON expression tree against one row (name -> value)."""
    if "col" in expr:
        return row[expr["col"]]
    if "const" in expr:
        return expr["const"]
    op = expr["op"]
    args = [eval_expr(a, row) for a in expr["args"]]
    if op == "add":
        return args[0] + args[1]
    if op == "sub":
        return args[0] - args[1]
    if op == "mul":
        return args[0] * args[1]
    raise ValueError(f"unknown operator {op}")


_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_COLUMN, _CONSTANT = "col", "const"


def compile_program(exprs, index: dict[str, int]):
    """Compile expressions once into one program over batches.

    A batch is a list of column lists; `index` maps a column name to its
    position.  Returns ``(steps, outputs)``: step s computes slot s of
    `run_program`'s result, and ``outputs[i]`` is the slot holding
    ``exprs[i]`` (None stays None).  Structurally equal subexpressions share
    a slot, so each is computed once per batch.  Slots are keyed by cheap
    tuples: ``("col", position)``, ``("const", value)`` or ``(operator,
    argument slots)``.  A constant must be an int: with INT64 columns every
    value is then an int, and every sum is exact in any order.
    """
    slots: dict[tuple, int] = {}
    steps: list[tuple] = []
    outputs = [None if expr is None else _add_step(expr, index, slots, steps) for expr in exprs]
    return steps, outputs


def _add_step(expr, index, slots: dict, steps: list) -> int:
    """Slot of `expr`, appending steps for it and for any argument not yet
    in `slots`.  A module function, not a closure: a closure that calls
    itself is a reference cycle, left for the garbage collector on every
    compile."""
    if "col" in expr:
        key = step = (_COLUMN, index[expr["col"]])
    elif "const" in expr:
        value = expr["const"]
        if type(value) is not int:
            raise ValueError(f"constant {value!r} is not an int")
        key = step = (_CONSTANT, value)
    else:
        fn = _BINARY_OPS.get(expr["op"])
        if fn is None:
            raise ValueError(f"unknown operator {expr['op']}")
        args = tuple([_add_step(a, index, slots, steps) for a in expr["args"]])
        key = step = (fn, args)
    slot = slots.setdefault(key, len(steps))
    if slot == len(steps):
        steps.append(step)
    return slot


def run_program(steps, batch) -> list[list]:
    """Every slot's values over one batch; row i of a slot is its
    expression's ``eval_expr`` value at row i."""
    n = len(batch[0])
    values: list[list] = []
    for fn, arg in steps:
        if fn is _COLUMN:
            values.append(batch[arg])
        elif fn is _CONSTANT:
            values.append([arg] * n)
        else:
            values.append(list(map(fn, *[values[s] for s in arg])))
    return values


def expr_columns(expr) -> set[str]:
    if "col" in expr:
        return {expr["col"]}
    if "const" in expr:
        return set()
    out: set[str] = set()
    for a in expr["args"]:
        out |= expr_columns(a)
    return out


# ----------------------------------------------------------------------- plan

def build_plan_from_pipeline(filter_intervals, group_keys, aggregates):
    """Build the plan of a filter -> group -> aggregate pipeline:
    ``{"projection", "intervals", "keys", "aggs"}``.

    `filter_intervals`: [(column, lo, hi)] conjunction, pushed into the scan.
    `group_keys`: column names (may be empty for a global aggregate).
    `aggregates`: [("sum", expr) | ("count", None)].

    The projection is the columns that keys and aggregates read; a column
    only the filter reads is left to the scan, which fetches it only where a
    row group's stats leave its interval open.  A plan that reads no column
    (count only) projects its filter columns.
    """
    used: set[str] = set(group_keys)
    for kind, expr in aggregates:
        if kind not in ("sum", "count"):
            raise ValueError(f"unknown aggregate {kind}")
        if expr is not None:
            used |= expr_columns(expr)
    if not used:
        used = {name for name, _, _ in filter_intervals}
    return {
        "projection": sorted(used),
        "intervals": [list(iv) for iv in filter_intervals],
        "keys": list(group_keys),
        "aggs": [[kind, expr] for kind, expr in aggregates],
    }


# ------------------------------------------------------------------- fragment

@dataclass(frozen=True)
class FragmentProgram:
    """A plan compiled once per query for all its workers.

    `key_cols` are the group keys' positions in the projection, `steps` and
    `outputs` the aggregates' `compile_program`, and `budget` the bytes a
    worker's batches may hold: `MEMORY_HEADROOM` of its memory.
    """

    predicates: PredicateSet
    key_cols: list[int]
    steps: list[tuple]
    outputs: list
    budget: int


def fragment_program(plan, spec: FunctionSpec) -> FragmentProgram:
    """Compile `plan` for workers of `spec`; an invalid plan raises here,
    before any worker runs."""
    projection = tuple(plan["projection"])
    predicates = PredicateSet(tuple((n, lo, hi) for n, lo, hi in plan["intervals"]), projection)
    index = {name: j for j, name in enumerate(projection)}
    steps, outputs = compile_program(
        [None if kind == "count" else expr for kind, expr in plan["aggs"]], index
    )
    budget = int(MEMORY_HEADROOM * spec.memory_mib * MIB)
    return FragmentProgram(predicates, [index[k] for k in plan["keys"]], steps, outputs, budget)


def run_fragment(sim, ctx, bucket, paths, program: FragmentProgram):
    """Execute the plan over one worker's files; returns its partial."""
    batches, _report = yield from execute_scan(sim, ctx, bucket, paths, program.predicates)
    held_bytes = sum(8 * len(col) for batch in batches for col in batch)
    if held_bytes > program.budget:
        raise errors.WorkerOutOfMemory(
            f"fragment holds {held_bytes} bytes, budget {program.budget}"
        )
    groups: dict[tuple, list] = {}
    for batch in batches:
        _fold_batch(groups, batch, program.key_cols, program.steps, program.outputs)
    return [[list(k), v] for k, v in groups.items()]


def _fold_batch(groups: dict, batch, key_cols: list[int], steps, outputs: list) -> None:
    """Add one batch into per-group states (`None` in `outputs` is a count).

    Rows are grouped first; then each state takes its group's values in one
    C-level ``sum()``.  Every value is an int, and integer addition is
    exact, so any order gives the oracle's sum.
    """
    n = len(batch[0])
    rows_of: dict[tuple, list[int]] = {}  # key -> its row indices, ascending
    keys = zip(*[batch[j] for j in key_cols]) if key_cols else repeat((), n)
    for i, key in enumerate(keys):
        rows = rows_of.get(key)
        if rows is None:
            rows_of[key] = [i]
        else:
            rows.append(i)
    slots = run_program(steps, batch)
    values = [None if s is None else slots[s] for s in outputs]
    for key, rows in rows_of.items():
        state = groups.get(key)
        if state is None:
            state = groups[key] = [0] * len(values)
        for a, col in enumerate(values):
            if col is None:
                state[a] += len(rows)
            else:
                state[a] = sum(map(col.__getitem__, rows), state[a])


def merge_partials(partials):
    """Order-independent fold of per-worker group states."""
    merged: dict[tuple, list[int]] = {}
    for partial in partials:
        for key, values in partial:
            key = tuple(key)
            state = merged.get(key)
            if state is None:
                merged[key] = list(values)
            else:
                for i, v in enumerate(values):
                    state[i] += v
    return sorted([list(k), v] for k, v in merged.items())


# ------------------------------------------------------------------ execution

@dataclass
class QueryReport:
    """One query's virtual times and its bill: the charges of its driver
    and workers alone, so queries that share a sim each read their own.

    `latency_us` runs from the driver's start to the last partial received.
    The driver receives results while it still invokes workers, so
    `collect_us` is only the part of the collect left after the invocation
    plan ends: the virtual time from the end of `invoke.run_plan` to the last
    partial (0 if every partial came in before).
    """

    workers: int
    latency_us: int
    invoke_makespan_us: int
    collect_us: int
    rows: int
    request_usd: Fraction
    worker_usd: Fraction
    total_usd: Fraction

    CSV_HEADER = (
        "workers,latency_us,invoke_makespan_us,collect_us,rows,"
        "request_usd,worker_usd,total_usd"
    )

    def to_csv_row(self) -> str:
        return (
            f"{self.workers},{self.latency_us},{self.invoke_makespan_us},"
            f"{self.collect_us},{self.rows},{format_usd(self.request_usd)},"
            f"{format_usd(self.worker_usd)},{format_usd(self.total_usd)}"
        )


def execute(
    sim,
    plan,
    paths,
    files_per_worker: int = 1,
    spec: FunctionSpec | None = None,
    strategy: str = invoke.DIRECT,
    bucket: str = "data",
):
    """Run a plan over `paths`; returns (rows, QueryReport) via run_task.

    The plan is compiled here, so an invalid one raises before any worker
    is invoked or billed.
    """
    spec = spec or FunctionSpec()
    if files_per_worker < 1:
        raise ValueError("files_per_worker must be >= 1")
    program = fragment_program(plan, spec)
    W = math.ceil(len(paths) / files_per_worker)
    shares = [paths[w * files_per_worker : (w + 1) * files_per_worker] for w in range(W)]
    # the query's number on this sim scopes its spill keys
    query = f"q{next(sim.run_ids)}"
    queue = MessageQueue(sim)
    sim.store.create_bucket(SPILL_BUCKET)

    def fragment(ctx, wid, data):
        try:
            partial = yield from run_fragment(sim, ctx, bucket, data["paths"], program)
            body = json.dumps({"worker": wid, "status": "ok", "partial": partial})
            if len(body) > QUEUE_PAYLOAD_CAP:
                key = f"{query}/w{wid}"
                yield from sim.store.put_object(ctx, SPILL_BUCKET, key, body.encode())
                body = json.dumps(
                    {"worker": wid, "status": "ok", "spilled": [SPILL_BUCKET, key]}
                )
            yield from queue.send(ctx, body)
        except errors.SimError as err:
            yield from queue.send(
                ctx,
                json.dumps(
                    {
                        "worker": wid,
                        "status": "error",
                        "kind": type(err).__name__,
                        "message": str(err),
                    }
                ),
            )

    inv_plan = invoke.build_plan(W, strategy)

    def collect(driver):
        """Receive every worker's partial in queue order."""
        partials = []
        while len(partials) < W:
            for raw in (yield from queue.poll(driver)):
                message = json.loads(raw)
                if message["status"] != "ok":
                    raise errors.WorkerError(
                        message["worker"], message["kind"], message["message"]
                    )
                if "spilled" in message:
                    spill_bucket, key = message["spilled"]
                    raw = yield from sim.store.get_object(driver, spill_bucket, key)
                    sim.store.bucket(spill_bucket).delete(key)
                    message = json.loads(bytes(raw))
                partials.append(message["partial"])
        return partials

    def main():
        driver = HostContext(sim, "driver", ledger=BillingLedger(sim.cfg, parent=sim.ledger))
        start = sim.loop.now
        # the driver receives while its workers are still being invoked
        collector = sim.loop.spawn(collect(driver), name="collect")
        inv_report = yield from invoke.run_plan(
            driver,
            inv_plan,
            spec,
            fragment,
            payload_extra=lambda wid: {"paths": shares[wid]},
        )
        collect_start = sim.loop.now
        partials = yield collector
        rows = merge_partials(partials)
        end = sim.loop.now
        bill = driver.ledger
        report = QueryReport(
            workers=W,
            latency_us=end - start,
            invoke_makespan_us=inv_report.makespan_us,
            collect_us=end - collect_start,
            rows=len(rows),
            request_usd=bill.request_usd,
            worker_usd=bill.worker_usd,
            total_usd=bill.total_usd,
        )
        return rows, report

    return main()


def reference_execute(tables, column_names, plan):
    """Single-node oracle: flat recompute over raw column-major tables."""
    intervals = plan["intervals"]
    keys = plan["keys"]
    aggs = plan["aggs"]
    groups: dict[tuple, list[int]] = {}
    for table in tables:
        for i in range(len(table[0])):
            row = {name: table[j][i] for j, name in enumerate(column_names)}
            if any(not (lo <= row[name] <= hi) for name, lo, hi in intervals):
                continue
            key = tuple(row[k] for k in keys)
            state = groups.get(key)
            if state is None:
                state = groups[key] = [0] * len(aggs)
            for a, (kind, expr) in enumerate(aggs):
                state[a] += 1 if kind == "count" else eval_expr(expr, row)
    return sorted([list(k), v] for k, v in groups.items())


# ------------------------------------------------------------ canned queries

def q1_plan(shipdate_cutoff: int):
    """Group-by (returnflag, linestatus) with five additive aggregates."""
    price = {"col": "extendedprice"}
    disc_price = {
        "op": "mul",
        "args": [price, {"op": "sub", "args": [{"const": 100}, {"col": "discount"}]}],
    }
    charge = {
        "op": "mul",
        "args": [disc_price, {"op": "add", "args": [{"const": 100}, {"col": "tax"}]}],
    }
    return build_plan_from_pipeline(
        [("shipdate", 0, shipdate_cutoff)],
        ("returnflag", "linestatus"),
        [
            ("sum", {"col": "quantity"}),
            ("sum", price),
            ("sum", disc_price),
            ("sum", charge),
            ("count", None),
        ],
    )


def q6_plan(shipdate_lo: int, shipdate_hi: int, disc_lo=2, disc_hi=4, qty_hi=24):
    """Narrow date window; revenue = sum(extendedprice * discount)."""
    revenue = {"op": "mul", "args": [{"col": "extendedprice"}, {"col": "discount"}]}
    return build_plan_from_pipeline(
        [
            ("shipdate", shipdate_lo, shipdate_hi),
            ("discount", disc_lo, disc_hi),
            ("quantity", 0, qty_hi),
        ],
        (),
        [("sum", revenue)],
    )
