import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import invoke
from lambada_lab.clock import US_PER_MS, US_PER_S, Sleep
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, FunctionSpec

from helpers import ledger_csv


def run(sim, plan):
    return sim.loop.run_task(invoke.run_plan(sim.driver(), plan))


class TestBuildPlan:
    def test_direct_lists_everyone(self):
        plan = invoke.build_plan(10, invoke.DIRECT)
        assert plan.first_gen == tuple(range(10))
        assert plan.assignment == {}

    def test_two_level_4096_is_balanced(self):
        plan = invoke.build_plan(4096, invoke.TWO_LEVEL)
        assert len(plan.first_gen) == 64
        assert all(len(v) == 63 for v in plan.assignment.values())

    def test_single_worker_collapses_to_direct(self):
        plan = invoke.build_plan(1, invoke.TWO_LEVEL)
        assert plan == invoke.build_plan(1, invoke.DIRECT)

    def test_ragged_split_at_five(self):
        plan = invoke.build_plan(5, invoke.TWO_LEVEL)
        assert len(plan.first_gen) == 3
        assert sorted(len(v) for v in plan.assignment.values()) == [0, 1, 1]

    @settings(max_examples=100, deadline=None)
    @given(P=st.integers(min_value=1, max_value=3000))
    def test_every_id_invoked_exactly_once(self, P):
        plan = invoke.build_plan(P, invoke.TWO_LEVEL)
        ids = list(plan.first_gen) + [c for v in plan.assignment.values() for c in v]
        assert sorted(ids) == list(range(P))
        sizes = [len(v) for v in plan.assignment.values()]
        if sizes:
            assert max(sizes) - min(sizes) <= 1


class TestRunPlan:
    def test_direct_thousand_workers_default_rates(self):
        sim = CloudSim(SimConfig())
        report = run(sim, invoke.build_plan(1000, invoke.DIRECT))
        assert abs(report.makespan_us / US_PER_S - 4.1) < 0.1
        assert report.last_initiated_us == 999 * 4000  # 250/s pacing

    @pytest.mark.parametrize("region", ["eu", "us", "sa", "ap"])
    def test_direct_thousand_workers_region_presets(self, region):
        import math

        cfg = SimConfig().with_region(region)
        sim = CloudSim(cfg)
        report = run(sim, invoke.build_plan(1000, invoke.DIRECT))
        pacing = math.ceil(1_000_000 / cfg.driver_invoke_rate_per_s)
        assert report.last_initiated_us == 999 * pacing
        assert 3.3 <= report.makespan_us / US_PER_S <= 5.2

    def test_exactly_once_start(self):
        sim = CloudSim(SimConfig())
        report = run(sim, invoke.build_plan(50, invoke.TWO_LEVEL))
        assert sorted(t.worker for t in report.timings) == list(range(50))

    def test_two_level_beats_direct_at_scale(self):
        P = 1024
        direct = run(CloudSim(SimConfig()), invoke.build_plan(P, invoke.DIRECT))
        tree = run(CloudSim(SimConfig()), invoke.build_plan(P, invoke.TWO_LEVEL))
        assert tree.makespan_us < direct.makespan_us
        assert direct.makespan_us / tree.makespan_us >= 4

    def test_makespan_lower_bound(self):
        cfg = SimConfig()
        sim = CloudSim(cfg)
        plan = invoke.build_plan(1024, invoke.TWO_LEVEL)
        report = run(sim, plan)
        max_list = max(len(v) for v in plan.assignment.values())
        bound = (
            Fraction(len(plan.first_gen)) / cfg.driver_invoke_rate_per_s
            + Fraction(cfg.invoke_latency_ms, 1000)
            + Fraction(max_list) / cfg.worker_invoke_rate_per_s
        )
        assert report.makespan_us >= bound * US_PER_S

    def test_phase_breakdown_and_csv(self):
        sim = CloudSim(SimConfig())
        report = run(sim, invoke.build_plan(25, invoke.TWO_LEVEL))
        rows = report.phase_breakdown()
        assert len(rows) == len(report.plan.first_gen)
        for _, driver_delay, latency, span in rows:
            assert latency == 100_000  # configured call latency
            assert span >= 0
        csv = report.to_csv()
        assert csv.splitlines()[0] == invoke.InvocationReport.CSV_HEADER
        assert len(csv.splitlines()) == 26

    def test_deterministic_reruns(self):
        def once():
            sim = CloudSim(SimConfig())
            return run(sim, invoke.build_plan(100, invoke.TWO_LEVEL)).to_csv()

        assert once() == once()

    def test_times_count_from_the_plans_start(self):
        sim = CloudSim(SimConfig())
        plan = invoke.build_plan(25, invoke.TWO_LEVEL)
        first = run(sim, plan)
        assert sim.loop.now > 0
        second = run(sim, plan)
        assert second.to_csv() == first.to_csv()
        assert (second.makespan_us, second.last_initiated_us) == (
            first.makespan_us,
            first.last_initiated_us,
        )


class TestWorkerCrash:
    @staticmethod
    def _crash_in_w7(ctx, *_):
        if ctx.name == "w7":
            raise KeyError("lost share")
        yield Sleep(0)

    def test_crash_in_second_generation_worker_names_the_worker(self):
        # w7 is started by a first-generation worker; the driver awaits only
        # its start, never its task
        sim = CloudSim(SimConfig())
        plan = invoke.build_plan(16, invoke.TWO_LEVEL)
        with pytest.raises(RuntimeError, match="w7") as info:
            sim.loop.run_task(invoke.run_plan(sim.driver(), plan, fragment=self._crash_in_w7))
        assert isinstance(info.value.__cause__, KeyError)

    def test_crash_in_awaited_worker_reaches_the_driver(self):
        sim = CloudSim(SimConfig())
        plan = invoke.build_plan(16, invoke.DIRECT)
        with pytest.raises(KeyError):
            sim.loop.run_task(invoke.run_plan(sim.driver(), plan, fragment=self._crash_in_w7))


class TestConcurrencyLimitedStart:
    # One SHA-256 over everything a concurrency-limited run reports.  At 8
    # running workers and P = 64, most workers queue for a free slot, so this
    # pins the order and time at which queued workers start.
    DIGEST = "7e987bbc252986dc59ea93b68c39caa79f3272c4b5bcb014d4730ff8dc55cbf5"

    @staticmethod
    def _fragment(ctx, *_):
        yield from ctx.compute(3 * 10**7)
        yield Sleep(5 * US_PER_MS)

    def _digest(self, strategy):
        sim = CloudSim(SimConfig(concurrency_limit=8))
        report = sim.loop.run_task(
            invoke.run_plan(
                sim.driver(), invoke.build_plan(64, strategy), FunctionSpec(1024), self._fragment
            )
        )
        assert sim.faas.peak_concurrency == 8
        return "\n".join(
            [
                report.to_csv(),
                repr(report.phase_breakdown()),
                ledger_csv(sim.ledger),
                str(sim.loop.now),
                str(sim.faas.peak_concurrency),
            ]
        )

    def test_queued_start_order_is_pinned(self):
        both = "\n".join(self._digest(s) for s in (invoke.DIRECT, invoke.TWO_LEVEL))
        assert hashlib.sha256(both.encode()).hexdigest() == self.DIGEST
