"""Every layer the benchmark traces still exists under its old name.

``perfbench/spans.py`` wraps its ``TARGETS`` by module and name; a target
a refactor removes or renames would only read 0 in the traced metrics.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name,module,attr", spans.TARGETS, ids=[t[0] for t in spans.TARGETS])
def test_trace_target_resolves(name, module, attr):
    assert spans._resolve(module, attr) is not None, f"{name}: {module}.{attr} is gone"


def test_uninstalled_tracer_leaves_the_package_names_unwrapped():
    # the package resolves its names through their home modules, so it
    # sees a wrapper while the tracer is installed and not after
    import beamforge
    from beamforge import oracle

    original = oracle.galerkin_solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert beamforge.galerkin_solve is oracle.galerkin_solve
        assert beamforge.galerkin_solve is not original
    finally:
        tracer.uninstall()
    assert beamforge.galerkin_solve is oracle.galerkin_solve is original
