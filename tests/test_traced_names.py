"""The benchmark's tracer patches engine functions by name; keep those names resolving."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for span, targets in _load_tracer().SPANS.items():
        for module_name, attr, _ in targets:
            owner = importlib.import_module(f"planar_rook.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                found = cls is not None and method in vars(cls)
            else:
                found = callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{span}: planar_rook.{module_name}.{attr}")
    assert missing == []
