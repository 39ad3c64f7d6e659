import ast
from fractions import Fraction
from pathlib import Path

import pytest

from lambada_lab import errors
from lambada_lab.config import (
    ENV_CONFIG_VAR,
    REGION_PROFILES,
    SimConfig,
    load_config,
    parse_config_text,
)


def test_defaults():
    cfg = SimConfig()
    assert cfg.read_req_usd_per_million == Fraction("0.4")
    assert cfg.write_req_usd_per_million == 5
    assert cfg.bucket_read_limit_per_s == 5500
    assert cfg.steady_mib_per_s == 90
    # worker price: $3.3e-5/s at 2 GiB
    assert cfg.worker_usd_per_gib_second * 2 == Fraction("3.3e-5")


def test_parse_overrides_and_comments():
    cfg = parse_config_text(
        """
        # tuning
        steady_mib_per_s = 120
        concurrency_limit = 64
        """
    )
    assert cfg.steady_mib_per_s == 120
    assert cfg.concurrency_limit == 64


def test_parse_region_key():
    cfg = parse_config_text("region = eu\n")
    latency, driver, worker = REGION_PROFILES["eu"]
    assert cfg.invoke_latency_ms == latency
    assert cfg.driver_invoke_rate_per_s == driver
    assert cfg.worker_invoke_rate_per_s == worker


def test_parse_rejects_unknown_key():
    with pytest.raises(errors.ConfigError):
        parse_config_text("no_such_knob = 3\n")


def test_parse_rejects_bad_line():
    with pytest.raises(errors.ConfigError):
        parse_config_text("not a key value line\n")


@pytest.mark.parametrize(
    "line, key",
    [
        ("steady_mib_per_s = fast", "steady_mib_per_s"),
        ("concurrency_limit = 1e3", "concurrency_limit"),
        ("concurrency_limit = 2.5", "concurrency_limit"),
        ("vcpu_hz =", "vcpu_hz"),
        ("steady_mib_per_s = 1/0", "steady_mib_per_s"),
    ],
)
def test_parse_rejects_bad_value_naming_line_and_key(line, key):
    with pytest.raises(errors.ConfigError, match=f"^line 3: {key} "):
        parse_config_text(f"# tuning\nqueue_poll_latency_ms = 5\n{line}\n")


def test_unknown_region():
    with pytest.raises(errors.ConfigError):
        SimConfig().with_region("moon")


def test_load_config_from_env(tmp_path, monkeypatch):
    path = tmp_path / "lab.conf"
    path.write_text("queue_poll_latency_ms = 25\n")
    monkeypatch.setenv(ENV_CONFIG_VAR, str(path))
    assert load_config().queue_poll_latency_ms == 25
    monkeypatch.delenv(ENV_CONFIG_VAR)
    assert load_config().queue_poll_latency_ms == 10


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    a = tmp_path / "a.conf"
    a.write_text("queue_poll_latency_ms = 1\n")
    b = tmp_path / "b.conf"
    b.write_text("queue_poll_latency_ms = 2\n")
    monkeypatch.setenv(ENV_CONFIG_VAR, str(a))
    assert load_config(str(b)).queue_poll_latency_ms == 2


SRC = Path(__file__).resolve().parent.parent / "src" / "lambada_lab"
CONFIG_CLASSES = {
    "SimConfig",
    "ExchangeConfig",
    "FunctionSpec",
    "GenSpec",
    "ResourceProfile",
    "QaaSPricing",
    "InstancePreset",
}


def _attribute_reads(node, found: set) -> None:
    """Names read as `x.name`, skipping the bodies of ``__post_init__``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name == "__post_init__":
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
        _attribute_reads(child, found)


def test_every_config_field_is_read():
    """A config field that only its validation reads is an option nothing enforces."""
    fields, reads = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        _attribute_reads(tree, reads)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{node.name}.{stmt.target.id}"] = stmt.target.id
    assert set(name.split(".")[0] for name in fields) == CONFIG_CLASSES
    unread = sorted(name for name, attr in fields.items() if attr not in reads)
    assert unread == []
