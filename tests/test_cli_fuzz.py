"""A grammar fuzz of the command line: every argv the grammar draws ends in exit 0, 1 or 2, in time.

Each argv is drawn for one of the seven subcommands from its options, in any
order, with values that parse: small, boundary, huge and negative numbers,
and diagram literals built from them, some mutated.  Half of the argv then
take one corruption: a value replaced by a malformed or non-ASCII number, a
token dropped, or a stray option inserted.  Each runs in-process under a
diagram cap of 2000, from ``PLANAR_ROOK_CAP``, the one cap of every command;
no command takes a ``--cap``, so that one is drawn only as a stray option.
``verify``'s scope comes from ``--n-cap`` and ``--c-cap`` alone, so an argv
that loses ``--n-cap`` runs the default (3, 2) suite, inside the budget.  A
usage or cap error (exit 2) is one stderr line, with no traceback.  Each case runs under a ``SIGALRM`` budget whose exception
derives from ``BaseException``, so no ``except Exception`` in the engine can
swallow it.  One argv of each fault class found so far runs first, as an
explicit example.
"""

import contextlib
import io
import os
import signal
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from planar_rook.cli import main

BUDGET_S = 2.0 if sys.gettrace() is None else 20.0  # a line tracer, as in scripts/uncovered.py, slows each case

EDGE = [
    "-1", "-0", "1999", "2000", "2001", "9999999", "4294967296", "9999999999", str(sys.maxsize),
    str(sys.maxsize + 1), "99999999999999999999", "-99999999999999999999",
]
JUNK = ["1" * 5000, "٣", "²", "+7", " 7", "1_0", "", "x", "3.0", "0x10", "1e3", "--"]  # each one a usage error
STRAYS = ["--bogus", "-z", "extra", "-h", "--cap", "-n", "--out"]
COMMANDS = ["count", "enumerate", "mul", "xbasis", "chartable", "bratteli", "verify"]
# One argv of each fault class found so far, run before the drawn ones: each once exited 3, overran its budget
# or printed a usage line too.
FOUND = {
    "count": [["count", "-n", "0", "-c", "9999999999"], ["count", "-n", "0", "-c", "99999999999999999999"]],
    "chartable": [["chartable", "-n", "0", "-c", "9999999999"]],
    "bratteli": [["bratteli", "-c", "9999999999", "-n", "0"]],
    "enumerate": [["enumerate", "-n", "0", "-c", "99999999999999999999"]],
    "verify": [["verify", "--n-cap", "1", "--samples", "100000000"]],
    "xbasis": [["xbasis", "n=1 c=99999999999999999999 []"], ["xbasis"]],
}
PIECES = ["", "-", ":", ",", ", ", "[", "]", " ", "=", "n=", "0", "9", "99999999999999999999", "٣", "é"]


class _OverBudget(BaseException):
    """Raised by the alarm: a BaseException, so the CLI's ``except Exception`` cannot catch it."""


def _alarm(signum, frame):
    raise _OverBudget


small = st.integers(0, 5).map(str)
numbers = small | st.sampled_from(EDGE)


@st.composite
def literals(draw):
    edges = draw(st.lists(st.tuples(*[st.integers(1, 4)] * 3), max_size=4))
    text = f"n={draw(numbers)} c={draw(numbers)} [" + ", ".join(f"{t}-{b}:{k}" for t, b, k in edges) + "]"
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(PIECES)) + text[j:]
    return text


def _valued(flag, values):
    return values.map(lambda value: [flag, value])


@st.composite
def argvs(draw, command, out_dir):
    outs = st.sampled_from([str(out_dir / "report"), str(out_dir), str(out_dir / "missing" / "report")])
    required = {
        "count": [_valued("-n", numbers), _valued("-c", numbers)],
        "enumerate": [_valued("-n", numbers), _valued("-c", numbers)],
        "mul": [literals().map(lambda text: [text]), literals().map(lambda text: [text])],
        "xbasis": [literals().map(lambda text: [text])],
        "chartable": [_valued("-n", numbers), _valued("-c", numbers)],
        "bratteli": [_valued("-c", numbers), _valued("-n", numbers)],
        # n-cap stays at most 2, so that a passing verify takes a fraction of the budget.
        "verify": [_valued("--n-cap", st.sampled_from(["0", "1", "2", "-1"])), _valued("--samples", numbers)],
    }[command]
    optional = {
        "count": [st.just(["--breakdown"])],
        "enumerate": [],
        "mul": [st.just(["--as-matrix"]), _valued("--spot-check", numbers), _valued("--seed", numbers)],
        "xbasis": [st.just(["--invert"])],
        "chartable": [_valued("--out", outs), st.just(["--verify"])],
        "bratteli": [_valued("--format", st.sampled_from(["dot", "json", "xml"])), _valued("--out", outs)],
        "verify": [_valued("--c-cap", numbers), _valued("--seed", numbers), st.just(["--json"]),
                   _valued("--out", outs)],
    }[command]
    parts = [draw(option) for option in required] + [draw(option) for option in optional if draw(st.booleans())]
    argv = [command] + [token for part in draw(st.permutations(parts)) for token in part]
    if draw(st.booleans()):  # one corruption
        i = draw(st.integers(1, len(argv)))
        how = draw(st.sampled_from(["junk", "drop", "stray"]))
        if how == "stray" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(STRAYS)))
        elif how == "junk":
            argv[i] = draw(st.sampled_from(JUNK))
        else:
            del argv[i]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _OverBudget:
        raise AssertionError(f"{argv!r} ran past {BUDGET_S} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_every_drawn_argv_exits_0_1_or_2_in_time(tmp_path, monkeypatch, command):
    out_dir = tmp_path
    monkeypatch.chdir(tmp_path)  # a corrupted --out value names a file in the working directory
    env = {"PLANAR_ROOK_CAP": "2000"}

    def case(argv):
        with mock.patch.dict(os.environ, env):
            code, err = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert "Traceback" not in err, (argv, err)

    test = given(argvs(command, out_dir))(case)
    for argv in FOUND.get(command, []):
        test = example(argv)(test)
    settings(max_examples=80, derandomize=True, deadline=None, database=None,
             suppress_health_check=[HealthCheck.too_slow])(test)()
