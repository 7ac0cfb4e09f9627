import subprocess
import sys
from pathlib import Path

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
        'raise ValueError("need n >= 1 and x >= 1")',
    ]
    assert result.stdout.splitlines()[-1].endswith(" statements in src/planar_rook never ran")
