"""Every function the benchmark's span tracer wraps still exists.

``bench/spans.py`` names its targets as (module, attribute path) pairs and
looks each one up in its owner's ``__dict__`` when a traced run starts, so
a renamed or deleted target fails the traced run with a KeyError.  This
test resolves every target the same way, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path, points_arg", _targets())
def test_span_target_resolves(module_name, path, points_arg):
    module = importlib.import_module(f"anosov_lab.{module_name}")
    owner_path, _, attr = path.rpartition(".")
    owner = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is not defined where the tracer looks"
    assert callable(owner.__dict__[attr])
    assert points_arg is None or points_arg >= 0
