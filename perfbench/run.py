"""Benchmark of lambada-lab: simulator speed and simulated cost on three workloads.

    python3 perfbench/run.py --workload q1-wide --seed 1 --seconds 25 --trace 0

Runs from the repository root and imports `lambada_lab` from `src/`.  It sets
up the workload's inputs, computes the oracle answers untimed, then runs
operations back to back for `--seconds`, each on a fresh simulation,
checking every output.  Further timed set-ups are spread over the run, and
`setup_s` is their median.  Every operation and every block of set-ups is
timed between two runs of a fixed reference load, and its time is scaled to
the load's nominal speed (see reference.py).  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the program's layers are wrapped (see layers.py) and the metrics are the
per-layer ones, each the median over the run's operations.  Every run also
writes its per-operation samples to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lambada_lab import datagen  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
OUT_DIR = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "scaled_host_s_p50": "s",
    "peak_rss_mib": "MiB",
    "sim_latency_s": "s",
    "sim_usd": "USD",
    "store_requests": "count",
}


def forget_generated() -> None:
    """Drop datagen's memoised tables and files so each set-up generates anew."""
    for name in ("_TABLE_CACHE", "_FILE_CACHE"):
        getattr(datagen, name, {}).clear()


class SetUps:
    """Timed repetitions of a workload's set-up, spread over the run.

    This machine's speed drifts in phases that last seconds to minutes, so
    repetitions made only at the start of a run would all meet one phase.
    `keep_up(share)` repeats the set-up until `share` of SETUP_MIN_REPEATS
    repetitions and of SETUP_MIN_S seconds are done, and scales the times of
    that block of repetitions by the reference load timed around it.  Every
    repetition does the same work; the first one's inputs feed the
    operations.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.inputs = None
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.samples: list[dict] = []

    def behind(self, share: float) -> bool:
        return len(self.times) < max(1, SETUP_MIN_REPEATS * share) or sum(
            self.times
        ) < SETUP_MIN_S * share

    def keep_up(self, share: float) -> float:
        """Set up until `share` of the run's quota is met; returns the time spent."""
        if not self.behind(share):
            return 0.0
        before = reference.timed_load()
        block: list[float] = []
        while self.behind(share):
            forget_generated()
            if self.tracer is not None:
                self.tracer.reset()
                self.tracer.sim = None
            start = time.perf_counter()
            inputs = self.workload.make_inputs()
            self.workload.seeded_sim(inputs)
            elapsed = time.perf_counter() - start
            self.times.append(elapsed)
            block.append(elapsed)
            if self.tracer is not None:
                self.samples.append(layers.setup_metrics(self.tracer))
            if self.inputs is None:
                self.inputs = inputs
        after = reference.timed_load()
        self.scaled.extend(reference.scale(t, before, after) for t in block)
        return before + sum(block) + after


def measure(workload, seconds: float, tracer=None) -> dict:
    """Set up, then run operations for `seconds`, counting those that raise or fail a check.

    Interleaved set-ups do not count towards `seconds`; the reference load
    around each operation does.  The load timed after one operation serves
    as the load before the next, unless set-ups or a failure came between.
    """
    setups = SetUps(workload, tracer)
    setups.keep_up(0.0)
    workload.prepare(setups.inputs)
    host_s, scaled_s, figures, samples, rollup = [], [], [], [], {}
    attempted = failed = 0
    before = None
    start = time.perf_counter()
    deadline = start + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds else 1.0
        spent = setups.keep_up(share)
        if spent:
            deadline += spent
            before = None
        sim = workload.seeded_sim(setups.inputs)
        gc.collect()
        if before is None:
            before = reference.timed_load()
        if tracer is not None:
            tracer.reset()
            tracer.sim = sim
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = workload.run(sim)
            elapsed = time.perf_counter() - t0
            after = reference.timed_load()
            figures.append(workload.check(sim, result))
        except CheckFailed as err:
            failed += 1
            before = None
            print(f"operation {attempted} failed a check: {err}", file=sys.stderr)
            continue
        except Exception:
            failed += 1
            before = None
            print(f"operation {attempted} raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        host_s.append(elapsed)
        scaled_s.append(reference.scale(elapsed, before, after))
        before = after
        if tracer is not None:
            samples.append(layers.operation_metrics(tracer, sim, elapsed))
            rollup = tracer.rollup
    setups.keep_up(1.0)
    return {
        "attempted": attempted,
        "failed": failed,
        "host_s": host_s,
        "scaled_host_s": scaled_s,
        "figures": figures,
        "samples": samples,
        "rollup": rollup,
        "setup_s": setups.times,
        "scaled_setup_s": setups.scaled,
        "setup_samples": setups.samples,
    }


def medians(samples: list[dict]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name](seed)
    tracer = layers.Tracer().install() if trace else None
    try:
        m = measure(workload, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    figures = m["figures"]
    if not figures:
        raise SystemExit(f"{workload_name}: all {m['attempted']} operations failed")
    first = figures[0]
    correct = m["failed"] == 0 and all(f == first for f in figures)
    if trace:
        metrics = {**medians(m["setup_samples"]), **medians(m["samples"])}
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(m["scaled_setup_s"]),
            "scaled_host_s_p50": statistics.median(m["scaled_host_s"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_latency_s": first.latency_us / 1e6,
            "sim_usd": float(first.usd),
            "store_requests": first.requests,
        }
        units = END_TO_END_UNITS
    m["result"] = {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return m


def write_samples(args, m: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    setup_s = m["setup_s"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": {
            "count": len(setup_s),
            "quartiles": statistics.quantiles(setup_s, n=4),
            "min": min(setup_s),
            "max": max(setup_s),
        },
        "scaled_setup_s": m["scaled_setup_s"],
        "host_s": m["host_s"],
        "scaled_host_s": m["scaled_host_s"],
        "result": m["result"],
        "rollup_of_last_operation": {
            k: {"calls": c, "self_host_s": h, "sim_span_s": s / 1e6}
            for k, (c, h, s) in sorted(m["rollup"].items())
        },
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    m = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_samples(args, m)
    host = m["host_s"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(host)} operations, host_s median {statistics.median(host):.4f} "
        f"[{min(host):.4f}, {max(host):.4f}], scaled {statistics.median(m['scaled_host_s']):.4f}; "
        f"{len(m['setup_s'])} set-ups, median {statistics.median(m['setup_s']):.6f} s, "
        f"scaled {statistics.median(m['scaled_setup_s']):.6f} s"
    )
    print(json.dumps(m["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
