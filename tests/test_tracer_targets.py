"""The benchmark tracer (``perfbench/tracer.py``) wraps package entry
points by name, so renaming one must fail here instead of silently
dropping it from traced runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, path, _layer, _hot in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            # install() patches the attribute on the class that defines it
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), (module_name, path)
        else:
            assert callable(getattr(module, path, None)), (module_name, path)
