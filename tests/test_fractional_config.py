"""Query pins under a configuration whose derived times are not whole
microseconds.

The "eu" region paces invocations at 294/s (driver) and 81/s (workers), a
first byte after 41/3 ms is 13,666.67 µs, and a 3008 MiB worker decodes at
47/28 of a vCPU with 7/3 cycles per byte.  Each figure is rounded or ceiled
where the substrate uses it, so caching a derived constant or changing the
order of its arithmetic shows here.  The tests pin every `SimLoop.call_at`
time, in order, the task each of those events wakes, and each query's
`QueryReport`, for a two-level q6 and a direct q1.  The data come from `datagen`, whose draws copy CPython's RNG,
so these pins are checked on newer interpreters too.
"""

from fractions import Fraction

from lambada_lab import datagen, engine, invoke
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, FunctionSpec

CFG = SimConfig().with_region("eu").updated(
    first_byte_latency_ms=Fraction(41, 3), decode_cycles_per_byte=Fraction(7, 3)
)
SPEC = FunctionSpec(memory_mib=3008)


def run(plan_of, files, strategy):
    spec = datagen.GenSpec(scale_bytes=datagen.ROW_BYTES * 4000, files=files, rows_per_group=100)
    sim = CloudSim(CFG)
    keys = datagen.gen(sim, spec, 11)
    tables = datagen.generate_tables(spec, 11)
    plan = plan_of(tables)
    rows, report = sim.loop.run_task(
        engine.execute(sim, plan, keys, spec=SPEC, strategy=strategy)
    )
    assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
    return report


def test_two_level_q6(scheduled):
    def plan_of(tables):
        lo = datagen.percentile_value(tables, "shipdate", 0.30)
        hi = datagen.percentile_value(tables, "shipdate", 0.70)
        return engine.q6_plan(lo, hi)

    report = run(plan_of, 16, invoke.TWO_LEVEL)
    assert report.to_csv_row() == (
        "16,140724,106898,33826,1,6.4e-06,2.32695075938e-05,2.96695075938e-05"
    )
    assert len(scheduled) == 143
    assert scheduled.times_digest() == (
        "d528385ce0f30505d8a58d97798de2e904da398535da342c23f5e55b242bd26b"
    )
    assert scheduled.wakes_digest() == (
        "91d508ecd355b7c088903800aff556d866f2469a56fca5989e5802a3a0918e25"
    )


def test_direct_q1(scheduled):
    def plan_of(tables):
        return engine.q1_plan(datagen.percentile_value(tables, "shipdate", 0.98))

    report = run(plan_of, 4, invoke.DIRECT)
    assert report.to_csv_row() == (
        "4,80621,46206,10000,6,1.6e-06,4.7341366875e-06,6.3341366875e-06"
    )
    assert len(scheduled) == 76
    assert scheduled.times_digest() == (
        "d093aefcf1f45af46163a16df8c6d8aeee6e95da42a7bd7218ff550bc981db4d"
    )
    assert scheduled.wakes_digest() == (
        "49c31214effa8f1de221840668eb1abed6e5676aca5de19193fab228cccd05ee"
    )
