"""The benchmark's tracer patches svls functions by module and name; a
renamed or removed name would only surface when the benchmark runs.
This imports ``bench/spans.py`` (it runs nothing) and checks that every
patch point still resolves to a function."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr",
    [(mod.__name__, attr) for mod, attr, *_ in load_spans().PATCH_POINTS],
)
def test_patch_point_resolves(module, attr):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} is gone"
