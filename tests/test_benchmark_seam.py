"""The traced benchmark wraps package functions by name (`benchmarks/spans.py`);
every name it lists must still resolve, so that a rename fails here first."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(package, name):
    mod, _, attr = name.partition(".")
    target = importlib.import_module(f"{package}.{mod}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_traced_name_resolves_on_the_package():
    spans = _spans()
    for name in spans.TIMED + spans.COUNTED:
        assert callable(_resolve(spans.PACKAGE, name)), name
    for name in spans.CACHED:
        assert hasattr(_resolve(spans.PACKAGE, name), "cache_info"), name
