"""Every package name the benchmark's tracer rebinds must exist.

perfbench/spans.py wraps functions by rebinding module attributes such
as ``lettucesim.cli.export_ledger_csv``; a moved or deleted name would
otherwise show only when the benchmark itself runs.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_bound_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bindings = importlib.import_module("spans").BINDINGS
    assert bindings
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
