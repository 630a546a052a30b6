"""The benchmark's per-layer tracer must find every name it wraps.

bench/tracing.py replaces public names in horokit's module globals; a
rename or a moved import would otherwise only show as a failed traced run.
The file is loaded read-only and its tracer is never installed here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SPANS", "COUNTED"])
def test_traced_names_are_module_globals(table):
    for module, name, layer in getattr(_tracing(), table):
        mod = importlib.import_module(f"horokit.{module}")
        assert callable(vars(mod).get(name)), f"horokit.{module}.{name} ({layer})"
