"""The names the benchmark tracer wraps (benchmarks/tracing.py) exist in the package.

The tracer replaces module attributes by name, so renaming or deleting one
of them would otherwise break only the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.TARGETS and not missing, missing
