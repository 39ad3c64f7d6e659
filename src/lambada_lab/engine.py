"""Driver/worker query engine over the simulated substrate.

Plans are small JSON-serializable operator lists split into a serverless
scope (scan, filter, map, partial aggregation) and a driver scope (final
aggregation, collect).  The driver invokes workers, each worker scans its
file share and posts a partial result to the result queue; the driver merges
partials into the final answer and reconciles costs with the ledger.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import errors, invoke
from .billing import format_usd
from .config import MIB
from .scan import PredicateSet, ScanConfig, execute_scan
from .substrate import FunctionSpec

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
    if op == "ge":
        return args[0] >= args[1]
    if op == "le":
        return args[0] <= args[1]
    if op == "and":
        return all(args)
    raise ValueError(f"unknown operator {op}")


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

SERVERLESS = "serverless"
DRIVER = "driver"


def build_plan_from_pipeline(
    filter_intervals,
    group_keys,
    aggregates,
    associative: bool = True,
):
    """Build a scoped plan for filter -> group -> aggregate pipelines.

    `filter_intervals`: [(column, lo, hi)] conjunction, pushed into the scan.
    `group_keys`: column names (may be empty for a global aggregate).
    `aggregates`: [("sum", expr) | ("count", None)].
    """
    if not associative:
        raise errors.NonAssociativeReduce(
            "only associative+commutative reductions can be split across workers"
        )
    used: set[str] = set(group_keys)
    for kind, expr in aggregates:
        if kind not in ("sum", "count"):
            raise ValueError(f"unknown aggregate {kind}")
        if expr is not None:
            used |= expr_columns(expr)
    for name, _, _ in filter_intervals:
        used |= {name}
    projection = tuple(sorted(used))
    return [
        {
            "op": "scan",
            "scope": SERVERLESS,
            "projection": list(projection),
            "intervals": [list(iv) for iv in filter_intervals],
        },
        {
            "op": "partial_agg",
            "scope": SERVERLESS,
            "keys": list(group_keys),
            "aggs": [[kind, expr] for kind, expr in aggregates],
        },
        {"op": "final_agg", "scope": DRIVER},
        {"op": "collect", "scope": DRIVER},
    ]


def plan_pretty(plan) -> str:
    lines = []
    for op in plan:
        detail = {k: v for k, v in op.items() if k not in ("op", "scope")}
        lines.append(f"[{op['scope']}] {op['op']} {json.dumps(detail, sort_keys=True)}")
    return "\n".join(lines)


def _plan_op(plan, name):
    for op in plan:
        if op["op"] == name:
            return op
    raise ValueError(f"plan has no {name} operator")


# ------------------------------------------------------------------- fragment

def run_fragment(sim, ctx, bucket, paths, plan, memory_budget_bytes=None):
    """Execute the serverless scope over one worker's files."""
    scan_op = _plan_op(plan, "scan")
    agg_op = _plan_op(plan, "partial_agg")
    predicates = PredicateSet(
        tuple((n, lo, hi) for n, lo, hi in scan_op["intervals"]),
        tuple(scan_op["projection"]),
    )
    if memory_budget_bytes is None and ctx.spec is not None:
        memory_budget_bytes = int(MEMORY_HEADROOM * ctx.spec.memory_mib * MIB)
    batches, report = yield from execute_scan(
        sim, ctx, bucket, paths, predicates, ScanConfig()
    )
    held_bytes = sum(8 * len(col) for batch in batches for col in batch)
    if memory_budget_bytes is not None and held_bytes > memory_budget_bytes:
        raise errors.WorkerOutOfMemory(
            f"fragment holds {held_bytes} bytes, budget {memory_budget_bytes}"
        )
    names = scan_op["projection"]
    keys = agg_op["keys"]
    aggs = agg_op["aggs"]
    groups: dict[tuple, list[int]] = {}
    for batch in batches:
        for i in range(len(batch[0])):
            row = {name: batch[j][i] for j, name in enumerate(names)}
            key = tuple(row[k] for k in keys)
            state = groups.get(key)
            if state is None:
                state = groups[key] = [0] * len(aggs)
            for a, (kind, expr) in enumerate(aggs):
                state[a] += 1 if kind == "count" else eval_expr(expr, row)
    return [[list(k), v] for k, v in groups.items()], report


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
    memory_budget_bytes=None,
):
    """Run a plan over `paths`; returns (rows, QueryReport) via run_task."""
    spec = spec or FunctionSpec()
    if files_per_worker < 1:
        raise ValueError("files_per_worker must be >= 1")
    W = math.ceil(len(paths) / files_per_worker)
    shares = [paths[w * files_per_worker : (w + 1) * files_per_worker] for w in range(W)]
    queue = sim.queue("results")
    sim.store.create_bucket(SPILL_BUCKET)

    def fragment(ctx, payload):
        info = json.loads(payload)
        wid = info["id"]
        try:
            partial, _report = yield from run_fragment(
                sim, ctx, bucket, info["data"]["paths"], plan, memory_budget_bytes
            )
            body = json.dumps({"worker": wid, "status": "ok", "partial": partial})
            if len(body) > QUEUE_PAYLOAD_CAP:
                key = f"w{wid}"
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

    def main():
        start, before = sim.loop.now, sim.ledger.snapshot()
        driver = sim.driver()
        inv_report = yield from invoke.run_plan(
            sim,
            inv_plan,
            spec,
            fragment,
            payload_extra=lambda wid: {"paths": shares[wid]},
        )
        collect_start = sim.loop.now
        partials = []
        for _ in range(W):
            message = json.loads((yield from queue.poll(driver)))
            if message["status"] != "ok":
                raise errors.WorkerError(
                    message["worker"], message["kind"], message["message"]
                )
            if "spilled" in message:
                spill_bucket, key = message["spilled"]
                raw, _ = yield from sim.store.get_object(driver, spill_bucket, key)
                message = json.loads(bytes(raw))
            partials.append(message["partial"])
        rows = merge_partials(partials)
        end = sim.loop.now
        bill = sim.ledger.delta_since(before)
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
    scan_op = _plan_op(plan, "scan")
    agg_op = _plan_op(plan, "partial_agg")
    intervals = scan_op["intervals"]
    keys = agg_op["keys"]
    aggs = agg_op["aggs"]
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
