import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_uncovered_lists_the_statements_a_test_file_never_runs(tmp_path):
    script, tests = ROOT / "scripts" / "uncovered.py", ROOT / "tests" / "test_bratteli.py"
    argv = [sys.executable, str(script), "-q", "-p", "no:cacheprovider", str(tests)]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    listed = [line.split(": ", 1) for line in result.stdout.splitlines() if line.startswith("src/planar_rook/")]
    assert any(where.startswith("src/planar_rook/checks.py:") for where, _ in listed)
    # The tower tests run every statement of bratteli.py but the two count refusals, which test_refusals.py reaches.
    assert [source for where, source in listed if where.startswith("src/planar_rook/bratteli.py:")] == [
        'raise ValueError("need n >= 0 and c >= 0")',
        'raise ValueError("need n >= 1, c >= 0 and x >= 1")',
    ]
    assert result.stdout.splitlines()[-1].endswith(" statements in src/planar_rook never ran")


def _load_script():
    spec = importlib.util.spec_from_file_location("uncovered_script", ROOT / "scripts" / "uncovered.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_listed_unrun_statement_matches_exactly_one_statement():
    # Format and matching only, with ast: the run itself, which traces all of tier-1, is the script's.
    script = _load_script()
    entries = script.load_expected(ROOT / "scripts" / "uncovered_expected.json")
    paths = sorted(script.PACKAGE.rglob("*.py"))
    present = Counter(key for path in paths for _, key, _ in script.module_statements(path))
    assert entries and [present[tuple(entry[f] for f in script.FIELDS[:3])] for entry in entries] == [1] * len(entries)


@pytest.mark.parametrize("text, problem", [
    ('{"file": "a"}', "expected a JSON list"),
    ('[{"file": "a", "function": "f", "statement": "pass"}]', "entry 0 must map"),
    ('[{"file": "a", "function": "f", "statement": "pass", "reason": "two\\nlines"}]', "entry 0 must map"),
    ('[{"function": "f", "file": "a", "statement": "pass", "reason": "r"}]', "entry 0 must map"),
])
def test_a_malformed_expect_file_is_refused(tmp_path, text, problem):
    path = tmp_path / "expected.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=problem):
        _load_script().load_expected(path)


def test_the_ratchet_names_new_unrun_statements_and_listed_ones_that_run_or_are_gone():
    script = _load_script()
    kept, runs, gone, new = (("src/m.py", "f", text) for text in ("raise A", "raise B", "raise C", "raise D"))
    entries = [dict(zip(script.FIELDS, key + ("why",))) for key in (kept, runs, gone)]
    assert script.ratchet(entries, [kept, new], Counter([kept, runs, new])) == [
        "never ran and is not listed: src/m.py | f | raise D",
        "listed but now runs: src/m.py | f | raise B",
        "listed but no longer exists: src/m.py | f | raise C",
    ]
    assert script.ratchet(entries[:1], [kept], Counter([kept, runs])) == []
