"""The benchmark tracer names library functions; each name must resolve.

`perfbench/tracing.py` spans functions by module and name, and counts
metrics on some of them.  A rename in `moebius` would otherwise show up only
as a `missing` target or a zero count in a benchmark run, not as a failure.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

# every layer the tracer looks at, each by name: `import moebius` loads none
from moebius import (band, checks, cluster, dyadic, equiv, linalg,  # noqa: F401
                     quotient, render, strings, walk)

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spanned(layer: str, name: str):
    """The function the tracer wraps as layer.name: a callable, not a class,
    defined in that layer's module."""
    mod = importlib.import_module(f"moebius.{layer}")
    fn = getattr(mod, name, None)
    assert callable(fn) and not inspect.isclass(fn), f"moebius.{layer}.{name}"
    assert getattr(fn, "__module__", None) == mod.__name__, f"moebius.{layer}.{name}"
    return fn


def test_private_targets_and_counted_spans_resolve():
    tracing = _tracing()
    for layer, names in tracing.PRIVATE_TARGETS.items():
        for name in names:
            _spanned(layer, name)
    for metric, span in tracing.CALL_COUNTS.items():
        layer, name = span.split(".", 1)
        assert layer in tracing.LAYERS, metric
        _spanned(layer, name)
    for metric, (layer, name) in tracing.HIT_RATIOS.items():
        assert hasattr(_spanned(layer, name), "cache_info"), metric


def test_tracer_installs_without_missing_targets():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_suite_runs_under_the_tracer():
    # a traced public function loses its cache methods, so the suite calls
    # none on a public name
    from moebius import checks
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        results = checks.run_all(1)
    finally:
        tracer.uninstall()
    assert [r.line() for r in results if not r.ok] == []
