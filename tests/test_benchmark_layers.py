"""The benchmark's per-layer metrics name functions the tracer can find.

``perfbench/tracer.py`` wraps every function in a layer module's ``__all__``
that the module itself defines; a metric named after a function that is
gone, renamed or no longer exported would read nothing.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_METRIC = re.compile(r"^(\w+)\.(\w+)\.(calls|self_s|incl_s)$")


def _function_metrics():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [m.groups()[:2] for m in map(FUNCTION_METRIC.match, names) if m]


def test_benchmark_names_function_metrics():
    assert len(_function_metrics()) >= 10


@pytest.mark.parametrize("layer, function", _function_metrics())
def test_metric_function_is_exported_by_its_layer(layer, function):
    module = importlib.import_module(f"fdphase.{layer}")
    assert function in module.__all__
    fn = getattr(module, function)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
