"""The benchmark's tracer patches hlvir by name: every target it lists must
resolve, or a traced benchmark run fails.  perfbench/ is not a test path, so
this loads its tracer by file."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("module_name, attr, metric", TARGETS,
                         ids=[f"{m}:{a}" for m, a, _ in TARGETS])
def test_tracer_target_resolves(module_name, attr, metric):
    module = importlib.import_module(module_name)
    if "." in attr:
        # the tracer patches the class's own entry, never an inherited one
        cls_name, name = attr.split(".")
        assert name in vars(getattr(module, cls_name))
    else:
        assert hasattr(module, attr)
