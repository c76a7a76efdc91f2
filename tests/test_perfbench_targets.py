"""The benchmark's tracer wraps functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_are_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"mmjones.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mmjones.{layer}.{name}"
