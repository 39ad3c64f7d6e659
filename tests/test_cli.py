import hashlib
import json

import pytest

from lambada_lab import cli, datagen, engine

from helpers import read_table


def run_cli(*argv):
    assert cli.main(list(argv)) == 0


SMALL = ["--scale", str(56 * 1200), "--files", "4", "--rows-per-group", "100"]


def test_gen_writes_files_and_manifest(tmp_path):
    out = tmp_path / "ds"
    run_cli("gen", *SMALL, "-o", str(out))
    manifest = (out / "manifest.csv").read_text().strip().splitlines()
    assert manifest[0] == "key,bytes,rows"
    assert len(manifest) == 5
    for line in manifest[1:]:
        key, nbytes, rows = line.split(",")
        data = (out / key).read_bytes()
        assert len(data) == int(nbytes)
        table = read_table(data)
        assert len(table[0]) == int(rows)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("gen", *SMALL, "--seed", "5", "-o", str(a))
    run_cli("gen", *SMALL, "--seed", "5", "-o", str(b))
    for f in a.iterdir():
        assert (b / f.name).read_bytes() == f.read_bytes()


def test_bench_q6_reports_ok(tmp_path, capsys):
    run_cli("bench", "q6", *SMALL, "-o", str(tmp_path))
    out = capsys.readouterr().out
    assert "(ok vs oracle)" in out
    assert (tmp_path / "q6.csv").exists()


def test_bench_q6_exits_nonzero_on_oracle_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "reference_execute", lambda *args: [[0]])
    argv = ["bench", "q6", *SMALL, "-o", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "(MISMATCH vs oracle)" in capsys.readouterr().out


def test_bench_q1_exits_nonzero_on_oracle_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "reference_execute", lambda *args: [[0]])
    argv = ["bench", "q1", *SMALL, "-o", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "(MISMATCH vs oracle)" in capsys.readouterr().out


def test_bench_q1_sweep_shape(tmp_path):
    run_cli("bench", "q1", *SMALL, "-o", str(tmp_path))
    lines = (tmp_path / "q1.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == len(cli.MEMORY_SWEEP)
    latency = [int(l.split(",")[2]) for l in lines]
    cost = [float(l.split(",")[-1]) for l in lines]
    # speed stops improving at one full vCPU; price keeps climbing
    assert latency[0] > latency[2]
    assert latency[2] == latency[3] == latency[4]
    assert cost[2] < cost[3] < cost[4]


def test_bench_invoke_phases(tmp_path):
    run_cli("bench", "invoke", "-P", "256", "-o", str(tmp_path))
    phases = (tmp_path / "invoke-phases.csv").read_text().strip().splitlines()
    assert phases[0] == "worker,driver_delay_us,call_latency_us,child_span_us"
    assert len(phases) == 1 + 16  # ceil(sqrt(256)) first-generation workers
    assert (tmp_path / "invoke-direct.csv").exists()
    assert (tmp_path / "invoke-two_level.csv").exists()


def test_bench_exchange_small(tmp_path):
    run_cli(
        "bench", "exchange", "--workers", "16", "--total-bytes", "16000000",
        "--buckets", "2", "-o", str(tmp_path),
    )
    lines = (tmp_path / "exchange.csv").read_text().strip().splitlines()
    assert lines[0] == "workers,makespan_s,reference_s"
    W, makespan, ref = lines[1].split(",")
    assert W == "16" and float(makespan) > 0 and ref == ""


def test_bench_scan_sweep_monotone(tmp_path):
    run_cli("bench", "scan-sweep", "-o", str(tmp_path))
    lines = (tmp_path / "scan-sweep.csv").read_text().strip().splitlines()[1:]
    single = [l for l in lines if l.split(",")[1] == "1"]
    rates = [float(l.split(",")[3]) for l in single]
    assert rates == sorted(rates)  # bigger chunks amortize first-byte latency
    costs = [float(l.split(",")[4]) for l in single]
    assert costs == sorted(costs, reverse=True)


def test_bench_econ_outputs(tmp_path):
    run_cli("bench", "econ", "-o", str(tmp_path))
    curves = (tmp_path / "econ-curves.csv").read_text().strip().splitlines()
    assert curves[0] == "kind,units,latency_s,cost_usd"
    kinds = {l.split(",")[0] for l in curves[1:]}
    assert kinds == {"faas", "vm"}
    crossover = (tmp_path / "econ-crossover.csv").read_text().strip().splitlines()
    assert len(crossover) == 4


def test_bench_econ_prices_faas_from_config(tmp_path):
    conf = tmp_path / "lab.conf"
    conf.write_text("worker_usd_per_gib_second = 3.3e-5\n")  # twice the default
    run_cli("bench", "econ", "-o", str(tmp_path / "default"))
    run_cli("--config", str(conf), "bench", "econ", "-o", str(tmp_path / "doubled"))

    def curves(name):
        lines = (tmp_path / name / "econ-curves.csv").read_text().splitlines()[1:]
        return [line.split(",") for line in lines]

    default, doubled = curves("default"), curves("doubled")
    assert [row[:3] for row in doubled] == [row[:3] for row in default]
    for old, new in zip(default, doubled):
        ratio = float(new[3]) / float(old[3])
        assert abs(ratio - (2 if old[0] == "faas" else 1)) < 1e-5


def config_error(capsys, argv):
    """The one line `cli.main(argv)` prints for a ConfigError, after it returns 2."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    [line] = err.splitlines()
    return line


@pytest.mark.parametrize("key", ["worker_usd_per_gib_second", "steady_mib_per_s"])
def test_bench_econ_rejects_a_zero_price_or_rate(tmp_path, capsys, key):
    # econ builds no CloudSim, so the config is checked where it is loaded
    conf = tmp_path / "lab.conf"
    conf.write_text(f"{key} = 0\n")
    line = config_error(capsys, ["--config", str(conf), "bench", "econ", "-o", str(tmp_path)])
    assert line == f"lambada-lab: error: line 1: {key} must be positive, got 0"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "steady_mib_per_s = 0", "line 3: steady_mib_per_s must be positive, got 0", id="rate"
        ),
        pytest.param(
            "concurrency_limit = 0",
            "line 3: concurrency_limit must be at least 1, got 0",
            id="limit",
        ),
        pytest.param("region = moon", "line 3: unknown region 'moon'", id="region"),
        pytest.param(
            "vcpu_hz = fast", "line 3: vcpu_hz = 'fast' is not a valid int", id="unparsed"
        ),
        pytest.param(
            "burst_credit_mib = 5", "line 3: unknown config key 'burst_credit_mib'", id="unknown"
        ),
    ],
)
def test_config_error_names_its_line_and_exits_2(tmp_path, capsys, text, message):
    conf = tmp_path / "lab.conf"
    conf.write_text(f"# tuning\nqueue_poll_latency_ms = 5\n{text}\n")
    argv = ["--config", str(conf), "bench", "q6", *SMALL, "-o", str(tmp_path / "out")]
    assert config_error(capsys, argv).startswith(f"lambada-lab: error: {message}")
    assert not (tmp_path / "out").exists()


def test_negative_decode_cycles_exits_2(tmp_path, capsys):
    argv = ["bench", "q1", *SMALL, "--decode-cycles", "-1", "-o", str(tmp_path / "out")]
    line = config_error(capsys, argv)
    assert line == "lambada-lab: error: decode_cycles_per_byte must not be negative, got -1"


def test_config_flag_feeds_simulation(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("driver_invoke_rate_per_s = 125\n")
    run_cli("--config", str(conf), "bench", "invoke", "-P", "128", "-o", str(tmp_path))
    out = capsys.readouterr().out
    # 127 invocations at 125/s: last direct initiation just past one second
    assert "invoke direct: last initiated 1.016s" in out


def test_bench_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("bench", "q1", *SMALL, "-o", str(out))
        run_cli("bench", "scan-sweep", "-o", str(out))
    for f in a.iterdir():
        assert (b / f.name).read_bytes() == f.read_bytes()


# SHA-256 over the names and bytes of every CSV the runs below write; any
# change to a simulated latency, request count or dollar figure moves it.
GOLDEN_BENCH_SHA256 = "3d48fcde82cb55b83486fdf4904e2a96005d792cd4c8bfea71fe4c5385c66dd4"


def test_bench_outputs_match_golden_digest(tmp_path):
    run_cli("bench", "q1", *SMALL, "-o", str(tmp_path))
    run_cli("bench", "q6", *SMALL, "-o", str(tmp_path))
    run_cli("bench", "invoke", "-P", "256", "-o", str(tmp_path))
    run_cli(
        "bench", "exchange", "--workers", "16", "27", "--total-bytes", "16000000",
        "--buckets", "3", "-o", str(tmp_path),
    )
    run_cli("bench", "scan-sweep", "-o", str(tmp_path))
    run_cli("bench", "econ", "-o", str(tmp_path))
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    assert digest.hexdigest() == GOLDEN_BENCH_SHA256
