"""The benchmark's traced names still exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_traced_name_resolves(layer):
    # The tracer refuses to run (MissingLayer) when a name it wraps has
    # left the package, so a deletion that breaks the benchmark fails here.
    module, names, _ = tracer.LAYERS[layer]
    home = importlib.import_module(f"hamelcheck.{module}")
    for name in names:
        assert tracer._resolve(home, name), f"hamelcheck.{module}.{name}"
