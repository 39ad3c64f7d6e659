from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import econ, errors
from lambada_lab.config import SimConfig

TB = 10**12
FAAS = econ.faas_profile(SimConfig())


class TestJobScoped:
    def test_single_unit_closed_form(self):
        lat, cost = econ.job_scoped_point(TB, FAAS, 1)
        assert lat == 4 + Fraction(TB, 90 * econ.MIB)
        assert cost == lat * FAAS.unit_usd_per_s

    def test_latency_decreases_towards_startup_asymptote(self):
        units = [2**i for i in range(15)]
        curve = econ.job_scoped_curve(TB, FAAS, units)
        lats = [lat for _, lat, _ in curve]
        assert all(a > b for a, b in zip(lats, lats[1:]))
        assert lats[-1] > 4
        assert float(lats[-1]) < 4.7  # 16384 workers sit just above the 4 s floor

    def test_vm_asymptote_is_startup(self):
        lat, _ = econ.job_scoped_point(TB, econ.VM_PROFILE, 10_000)
        assert 120 < float(lat) < 121

    def test_cost_eventually_increases(self):
        units = [2**i for i in range(15)]
        costs = [c for _, _, c in econ.job_scoped_curve(TB, FAAS, units)]
        assert costs[-1] > min(costs)
        assert costs[-1] > costs[-2]

    def test_vm_min_cost_roughly_order_of_magnitude_cheaper(self):
        units = [2**i for i in range(12)]
        faas = econ.min_cost(TB, FAAS, units)
        vm = econ.min_cost(TB, econ.VM_PROFILE, units)
        assert faas / vm >= 8

    def test_bad_units(self):
        with pytest.raises(ValueError):
            econ.job_scoped_point(TB, FAAS, 0)


class TestAlwaysOn:
    def test_crossover_is_exact_ratio(self):
        assert econ.always_on_crossover(Fraction(10), Fraction("0.05")) == 200

    def test_zero_per_query_cost_rejected(self):
        with pytest.raises(errors.DegenerateInput):
            econ.always_on_crossover(Fraction(10), Fraction(0))

    def test_crossover_decreases_with_cost(self):
        rates = [
            econ.always_on_crossover(Fraction(10), Fraction(c, 100))
            for c in (1, 5, 25)
        ]
        assert rates == sorted(rates, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(
        hourly=st.fractions(min_value="1/100", max_value=1000),
        per_query=st.fractions(min_value="1/10000", max_value=10),
    )
    def test_inverse_proportionality(self, hourly, per_query):
        one = econ.always_on_crossover(hourly, per_query)
        doubled = econ.always_on_crossover(hourly, 2 * per_query)
        assert one == 2 * doubled

    def test_presets(self):
        counts = [p.count for p in econ.ALWAYS_ON_PRESETS]
        assert counts == [3, 7, 13]
        for p in econ.ALWAYS_ON_PRESETS:
            assert econ.preset_hourly_usd(p) == p.count * p.hourly_usd_per_instance


class TestQaaS:
    def test_full_columns_price(self):
        pricing = econ.QaaSPricing()
        assert econ.qaas_query_cost([econ.TIB], pricing) == 5
        assert econ.qaas_query_cost([econ.TIB, econ.TIB // 2], pricing) == Fraction(15, 2)
