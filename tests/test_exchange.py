from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import errors, exchange
from lambada_lab.billing import LIST, READ, WRITE
from lambada_lab.config import SimConfig
from lambada_lab.clock import US_PER_MS
from lambada_lab.substrate import CloudSim, HostContext


def fresh_sim(**overrides):
    return CloudSim(SimConfig(**overrides))


def make_inputs(P, n_records, value=b"v"):
    """Records 0..n-1 dealt round-robin to workers."""
    inputs = {p: [] for p in range(P)}
    for i in range(n_records):
        inputs[i % P].append((i, value))
    return inputs


def oracle(inputs, P):
    """Brute-force hash partitioning."""
    out = {p: [] for p in range(P)}
    for records in inputs.values():
        for key, value in records:
            out[key % P].append((key, value))
    return {p: sorted(v) for p, v in out.items()}


def run(sim, inputs, cfg):
    outputs, trace = sim.loop.run_task(exchange.run_exchange(sim, inputs, cfg))
    return {p: sorted(v) for p, v in outputs.items()}, trace


class TestRouting:
    def test_digit_projection_is_bijective_on_grid(self):
        s = 4
        seen = {(exchange.digit(x, 0, s), exchange.digit(x, 1, s)) for x in range(16)}
        assert len(seen) == 16

    def test_ceil_root(self):
        assert exchange.ceil_root(16, 2) == 4
        assert exchange.ceil_root(17, 2) == 5
        assert exchange.ceil_root(64, 3) == 4
        assert exchange.ceil_root(1, 3) == 1

    def test_route_prefers_natural_peer(self):
        # P=16, s=4: worker 7 = (3,1); level-0 digit swap keeps the high digit
        assert exchange.route(7, 0, 2, 4, 16) == 6
        assert exchange.route(7, 1, 3, 4, 16) == 15

    def test_route_fallback_stays_in_range(self):
        P, k = 5, 2
        s = exchange.ceil_root(P, k)  # 3
        for p in range(P):
            for level in range(k):
                for c in range(s):
                    target = exchange.route(p, level, c, s, P)
                    assert target is None or 0 <= target < P

    def test_sender_map_counts_all_pairs(self):
        P, s = 7, 3
        m = exchange.sender_map(P, 0, s)
        assert sum(len(v) for v in m.values()) == P * s

    def test_distinct_targets_per_sender(self):
        for P in (5, 9, 16, 27):
            s = exchange.ceil_root(P, 2)
            for p in range(P):
                targets = [exchange.route(p, 0, c, s, P) for c in range(s)]
                assert len(set(targets)) == s


class TestBasicExchange:
    def test_identity_hash_sixteen_records(self):
        sim = fresh_sim()
        inputs = {p: [(k, b"x") for k in range(p, 16, 4)] for p in range(4)}
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=1))
        for p in range(4):
            assert [k for k, _ in outputs[p]] == [p, p + 4, p + 8, p + 12]

    def test_degenerate_single_worker(self):
        sim = fresh_sim()
        inputs = {0: [(0, b"a"), (1, b"b")]}
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=1))
        assert outputs[0] == [(0, b"a"), (1, b"b")]
        assert sim.ledger.count(WRITE) == 1
        assert sim.ledger.count(READ) == 1

    def test_quadratic_request_count(self):
        P = 64
        sim = fresh_sim()
        run(sim, make_inputs(P, 256), exchange.ExchangeConfig(levels=1))
        assert sim.ledger.count(READ) == P * P
        assert sim.ledger.count(WRITE) == P * P
        assert sim.ledger.count(LIST) == 0

    def test_empty_partitions_still_written(self):
        sim = fresh_sim()
        inputs = {0: [(0, b"x")], 1: [], 2: [], 3: []}
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=1))
        assert outputs == {0: [(0, b"x")], 1: [], 2: [], 3: []}
        assert sim.ledger.count(WRITE) == 16


class TestMultiLevel:
    def test_two_level_request_count_perfect_square(self):
        P = 16
        sim = fresh_sim()
        run(sim, make_inputs(P, 64), exchange.ExchangeConfig(levels=2))
        assert sim.ledger.count(READ) == 2 * P * 4  # 2P*sqrt(P) = 128
        assert sim.ledger.count(WRITE) == 128

    def test_three_level_request_count_perfect_cube(self):
        P = 27
        sim = fresh_sim()
        run(sim, make_inputs(P, 54), exchange.ExchangeConfig(levels=3))
        assert sim.ledger.count(READ) == 3 * P * 3
        assert sim.ledger.count(WRITE) == 3 * P * 3

    @pytest.mark.parametrize("P", [4, 9, 16, 27])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_ownership_matches_oracle(self, P, levels):
        sim = fresh_sim()
        inputs = make_inputs(P, 5 * P)
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=levels))
        assert outputs == oracle(inputs, P)

    @pytest.mark.parametrize("P", [5, 7, 13])
    def test_ragged_worker_counts(self, P):
        sim = fresh_sim()
        inputs = make_inputs(P, 4 * P)
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=2))
        assert outputs == oracle(inputs, P)

    def test_data_conservation(self):
        P = 9
        sim = fresh_sim()
        inputs = make_inputs(P, 100, value=b"payload")
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=2))
        sent = sorted(r for recs in inputs.values() for r in recs)
        received = sorted(r for recs in outputs.values() for r in recs)
        assert sent == received

    @pytest.mark.parametrize("mode", exchange._WC_MODES)
    @pytest.mark.parametrize("P,levels", [(9, 2), (5, 2), (7, 2), (13, 2), (60, 3)])
    def test_synthetic_data_conservation(self, P, levels, mode):
        total = 10**6 + 7
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(levels=levels, write_combining=mode)
        sizes, trace, _ = sim.loop.run_task(
            exchange.run_synthetic_exchange(sim, P, total, cfg)
        )
        assert sorted(sizes) == list(range(P))
        assert sum(sizes.values()) == total
        assert len(trace) == P * levels

    def test_partitioner_outside_workers_rejected(self):
        sim = fresh_sim()
        with pytest.raises(ValueError, match="outside workers"):
            exchange.run_exchange(
                sim,
                make_inputs(5, 12),
                exchange.ExchangeConfig(levels=2),
                partitioner=lambda key: key,
            )


class TestWriteCombining:
    @pytest.mark.parametrize("mode", [exchange.WC_OFFSETS_FILE, exchange.WC_OFFSETS_IN_NAME])
    def test_oracle_equivalence(self, mode):
        P = 9
        sim = fresh_sim()
        inputs = make_inputs(P, 45)
        outputs, _ = run(
            sim, inputs, exchange.ExchangeConfig(levels=2, write_combining=mode)
        )
        assert outputs == oracle(inputs, P)

    def test_offsets_in_name_request_counts(self):
        P = 16
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(
            levels=2, write_combining=exchange.WC_OFFSETS_IN_NAME
        )
        run(sim, make_inputs(P, 64), cfg)
        assert sim.ledger.count(WRITE) == 2 * P
        assert sim.ledger.count(READ) == 2 * P * 4
        assert sim.ledger.count(LIST) == 2 * P

    def test_offsets_file_doubles_reads(self):
        P = 16
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(levels=2, write_combining=exchange.WC_OFFSETS_FILE)
        run(sim, make_inputs(P, 64), cfg)
        assert sim.ledger.count(WRITE) == 2 * 2 * P  # data + offsets objects
        assert sim.ledger.count(READ) == 2 * (2 * P * 4)
        assert sim.ledger.count(LIST) == 0

    def test_empty_partition_boundary_offsets(self):
        # worker 0 keeps everything; others ship empty slices
        sim = fresh_sim()
        inputs = {0: [(0, b"abc"), (4, b"de")], 1: [], 2: [], 3: []}
        cfg = exchange.ExchangeConfig(levels=1, write_combining=exchange.WC_OFFSETS_IN_NAME)

        def zero_all(key):
            return 0

        outputs, _ = sim.loop.run_task(
            exchange.run_exchange(sim, inputs, cfg, partitioner=zero_all)
        )
        assert sorted(outputs[0]) == [(0, b"abc"), (4, b"de")]
        assert outputs[1] == outputs[2] == outputs[3] == []

    def test_key_too_long_surfaces(self):
        sim = fresh_sim(max_key_bytes=24)
        inputs = make_inputs(9, 18)
        cfg = exchange.ExchangeConfig(levels=1, write_combining=exchange.WC_OFFSETS_IN_NAME)
        with pytest.raises(errors.KeyTooLong):
            sim.loop.run_task(exchange.run_exchange(sim, inputs, cfg))

    @pytest.mark.parametrize("mode", exchange._WC_MODES)
    def test_slow_sender_shows_as_receiver_wait(self, mode):
        P, slow = 4, 0

        def ctx_factory(p):
            ctx = HostContext(sim, f"xw{p}")
            if p == slow:
                ctx.first_byte_latency_us += 500 * US_PER_MS
            return ctx

        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(levels=1, write_combining=mode)
        _, trace = sim.loop.run_task(
            exchange.run_exchange(sim, make_inputs(P, 8), cfg, ctx_factory=ctx_factory)
        )
        receivers = [t for t in trace if t.worker != slow]
        assert receivers and all(t.wait_us > 0 for t in receivers)

    def test_in_name_key_round_trip(self):
        naming = exchange.NamingScheme("xchg", 1)
        key = naming.in_name_key(1, 12, [0, 5, 5, 19])
        assert key.endswith("-off")
        assert exchange.NamingScheme.parse_in_name(key) == (12, [0, 5, 5, 19])


class TestCostModel:
    def test_table_of_closed_forms(self):
        sim = fresh_sim()
        P = 4096
        rows = {v: exchange.exchange_cost(P, v, sim.prices) for v in exchange.VARIANTS}
        assert rows["1l"].reads == rows["1l"].writes == P * P
        assert rows["1l-wc"].writes == P
        assert rows["2l"].reads == 2 * P * 64
        assert rows["2l-wc"].writes == 2 * P
        assert rows["3l"].reads == 3 * P * 16
        assert rows["3l-wc"].writes == 3 * P
        assert rows["1l"].lists == 0 and rows["2l-wc"].lists == 2 * P
        assert [rows[v].scans for v in exchange.VARIANTS] == [1, 1, 2, 2, 3, 3]

    def test_headline_request_bill(self):
        sim = fresh_sim()
        row = exchange.exchange_cost(4096, "1l", sim.prices)
        assert abs(float(row.request_usd) - 90.597) < 0.01

    def test_degenerate_single_worker_bill(self):
        sim = fresh_sim()
        for variant in exchange.VARIANTS:
            row = exchange.exchange_cost(1, variant, sim.prices)
            assert row.reads == row.writes == int(variant[0])
        row = exchange.exchange_cost(1, "1l", sim.prices)
        assert row.request_usd == Fraction("5.4e-6")

    def test_worker_side_bill(self):
        sim = fresh_sim()
        usd = exchange.exchange_worker_cost(
            4096, 4 * 1024**4, Fraction(85), sim.prices
        )
        assert abs(float(usd) - 3.3) / 3.3 < 0.05

    def test_per_bucket_rate(self):
        assert exchange.per_bucket_rate(10_000, 100, 300) == Fraction(10_000 * 100, 300)
        assert exchange.per_bucket_rate(64, 8, 1) == 512

    def test_simulated_counts_match_closed_forms(self):
        for P, variant in [(16, "2l"), (16, "2l-wc"), (27, "3l")]:
            sim = fresh_sim()
            cfg = exchange.ExchangeConfig(
                levels=int(variant[0]),
                write_combining=exchange.WC_OFFSETS_IN_NAME
                if variant.endswith("-wc")
                else exchange.WC_OFF,
            )
            run(sim, make_inputs(P, 4 * P), cfg)
            row = exchange.exchange_cost(P, variant, sim.prices)
            assert sim.ledger.count(READ) == row.reads
            assert sim.ledger.count(WRITE) == row.writes
            assert sim.ledger.count(LIST) == row.lists


class TestBucketSharding:
    def test_sharding_spreads_peak_bucket_rate(self):
        def peak(B):
            sim = fresh_sim()
            cfg = exchange.ExchangeConfig(levels=1, num_buckets=B)
            run(sim, make_inputs(64, 64), cfg)
            return max(
                max(
                    b.read_limiter.max_window_admissions(),
                    b.write_limiter.max_window_admissions(),
                )
                for name, b in sim.store.buckets.items()
                if name.startswith("xchg-")
            )

        assert peak(1) >= 4 * peak(8)

    def test_trace_csv_shape(self):
        sim = fresh_sim()
        _, trace = run(sim, make_inputs(4, 8), exchange.ExchangeConfig(levels=2))
        csv = exchange.trace_to_csv(trace)
        lines = csv.strip().split("\n")
        assert lines[0] == exchange.TRACE_CSV_HEADER
        assert len(lines) == 1 + 4 * 2


class TestPollMode:
    def test_poll_rejected_with_offsets_in_name(self):
        with pytest.raises(ValueError, match="poll"):
            exchange.ExchangeConfig(
                levels=2, write_combining=exchange.WC_OFFSETS_IN_NAME, poll=True
            )

    def test_poll_mode_bills_probe_requests(self):
        P = 4
        subscribe = fresh_sim()
        run(subscribe, make_inputs(P, 8), exchange.ExchangeConfig(levels=1))
        poll = fresh_sim()
        run(poll, make_inputs(P, 8), exchange.ExchangeConfig(levels=1, poll=True))
        assert poll.ledger.count(READ) >= subscribe.ledger.count(READ)


@settings(max_examples=20, deadline=None)
@given(
    P=st.sampled_from([4, 5, 9]),
    levels=st.sampled_from([1, 2]),
    keys=st.lists(st.integers(min_value=0, max_value=1000), max_size=30),
)
def test_partition_correctness_property(P, levels, keys):
    sim = fresh_sim()
    inputs = {p: [] for p in range(P)}
    for i, k in enumerate(keys):
        inputs[i % P].append((k, str(i).encode()))
    outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=levels))
    assert outputs == oracle(inputs, P)
