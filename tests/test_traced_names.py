"""The benchmark's tracer patches engine functions by name: keep those names resolving, and every check traced."""

import importlib
import importlib.util
from pathlib import Path

from planar_rook import checks
from planar_rook.checks import VerifyConfig, run_verification
from planar_rook.representations import tallied

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


def _stub(name):
    @tallied(name)
    def check(*args):
        yield 1
    return check


def test_every_check_the_suite_runs_is_traced(monkeypatch):
    # The converse: a check that runs but is not traced would report no self time and no checked count.
    ran = []
    for name in [name for name in dir(checks) if name.startswith("check_")]:
        stub = _stub(name)
        monkeypatch.setattr(checks, name, lambda *args, name=name, stub=stub: ran.append(name) or stub(*args))
    run_verification(VerifyConfig(n_cap=1, c_cap=1, samples=1))
    assert sorted(ran) == sorted(f"check_{name}" for name in _load_tracer().CHECKS)
    assert len(ran) == len(set(ran))


def test_the_suite_runs_the_check_bound_on_the_module_at_call_time(monkeypatch):
    # The tracer wraps checks.check_* after import; a table of function objects made at import would bypass it.
    calls = []
    real = checks.check_pascal_triangle
    monkeypatch.setattr(checks, "check_pascal_triangle", lambda scope: calls.append(scope) or real(scope))
    results = run_verification(VerifyConfig(n_cap=2, c_cap=1, samples=1))
    assert calls == [(2, 1)]
    assert "bratteli.pascal-triangle" in [r.name for r in results]
