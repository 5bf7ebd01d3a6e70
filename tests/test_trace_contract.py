"""The names a traced benchmark run wraps must exist in the program.

``perfbench.spans.Tracer.install`` looks each one up with ``getattr`` (and
each method in its class's own ``vars``), so a renamed or removed function
would crash every traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("module,function", [(m, f) for m, f, _ in SPANS.SPAN_FUNCTIONS])
def test_span_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"wsdalg.{module}"), function))


@pytest.mark.parametrize("cls,method", [(c, m) for c, m, _ in SPANS.SPAN_METHODS])
def test_span_method_resolves(cls, method):
    from wsdalg import closure

    assert callable(vars(getattr(closure, cls))[method])


# The profiler reads a phase whose path does not resolve as 0 seconds,
# without an error.  The merge phase has had no code since the echelons
# became single fully reduced tiers.
DEAD_PHASES = {"_HalfEngine.merge"}


@pytest.mark.parametrize("path", [p for _, p, _ in SPANS.PHASES if p not in DEAD_PHASES])
def test_phase_path_resolves(path):
    from wsdalg import closure

    fn = closure
    for name in path.split("."):
        fn = getattr(fn, name)
    assert callable(fn) and hasattr(fn, "__code__")
