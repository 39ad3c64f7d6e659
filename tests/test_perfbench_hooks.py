"""The benchmark's per-layer tracer finds every function it wraps.

`perfbench/layers.py` patches functions by name.  A renamed or moved
function is only reported on stderr as "not traced", and the layer metrics
fed by it then read 0, so this test fails on that line instead.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_hook_is_traced(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    tracer = Tracer().install()
    try:
        assert "not traced" not in capsys.readouterr().err
    finally:
        tracer.uninstall()
