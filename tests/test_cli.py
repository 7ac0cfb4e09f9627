import dataclasses
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from planar_rook import algebra, checks, cli, diagrams, representations
from planar_rook.checks import VerifyConfig
from planar_rook.diagrams import enumerate_literals
from planar_rook.cli import main
from planar_rook.representations import IrrepLabel, tallied

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "-n", "2", "-c", "1")
    assert code == 0
    assert out.strip() == "6"


@pytest.mark.parametrize("module", ["planar_rook", "planar_rook.cli"])
def test_module_entry_points_run_main(capsys, monkeypatch, module):
    # In-process, not a subprocess, so that a line tracer over the suite sees the entry statements run.
    monkeypatch.setattr(sys, "argv", [module, "count", "-n", "2", "-c", "1"])
    with warnings.catch_warnings():  # runpy warns that planar_rook.cli is already imported
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module(module, run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out == "6\n"


def test_count_width_zero(capsys):
    code, out, _ = run(capsys, "count", "-n", "0", "-c", "3")
    assert code == 0
    assert out.strip() == "1"


def test_count_breakdown(capsys):
    code, out, _ = run(capsys, "count", "-n", "2", "-c", "1", "--breakdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6"
    assert "(1, 1): 4" in lines


def test_count_invalid_flags(capsys):
    code, _, err = run(capsys, "count", "-n", "-1", "-c", "1")
    assert code == 2
    assert err == "error: count needs n >= 0 and c >= 1\n"  # main prints every usage refusal


def test_count_obeys_the_cap(capsys, monkeypatch):
    # count sums one squared multinomial per composition of n into c + 1 parts: C(n+c, c) of them.
    monkeypatch.setattr(cli, "cardinality", lambda n, c: pytest.fail("counted past the cap"))
    code, out, err = run(capsys, "count", "-n", "300", "-c", "3")  # C(303, 3) = 4,590,551 compositions
    assert (code, out) == (2, "")
    assert "1000000" in err and "cap" in err
    monkeypatch.undo()
    monkeypatch.setenv("PLANAR_ROOK_CAP", "35")  # C(7, 3) = 35 compositions fit exactly
    assert run(capsys, "count", "-n", "4", "-c", "3")[:2] == (0, "2716\n")
    monkeypatch.setenv("PLANAR_ROOK_CAP", "34")
    assert run(capsys, "count", "-n", "4", "-c", "3")[:2] == (2, "")


def _decimal(value: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_prints_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "-n", "20000", "-c", "1")  # 12,039 digits
    assert (code, err) == (0, "")
    assert out == _decimal(math.comb(40000, 20000)) + "\n"
    assert sys.get_int_max_str_digits() == limit  # lifted for the output only


def test_count_breakdown_prints_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # int's lowest limit, so C(1200, 600)^2 (719 digits) crosses it cheaply
    try:
        code, out, _ = run(capsys, "count", "-n", "1200", "-c", "1", "--breakdown")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 1201
    assert lines[0] == _decimal(math.comb(2400, 1200))
    assert lines[1 + 600] == f"(600, 600): {_decimal(math.comb(1200, 600) ** 2)}"


def test_count_breakdown_obeys_a_digit_bound(capsys, monkeypatch):
    # C(7, 3) = 35 lines, each of at most floor(2 * 4 * log10(4)) + 1 = 5 digits: 175 fit exactly.
    monkeypatch.setenv("PLANAR_ROOK_CAP", "175")
    code, out, _ = run(capsys, "count", "-n", "4", "-c", "3", "--breakdown")
    assert code == 0 and len(out.splitlines()) == 1 + 35
    monkeypatch.setenv("PLANAR_ROOK_CAP", "174")
    assert run(capsys, "count", "-n", "4", "-c", "3", "--breakdown")[:2] == (2, "")
    monkeypatch.delenv("PLANAR_ROOK_CAP")
    monkeypatch.setattr(cli, "cardinality", lambda n, c: pytest.fail("counted past the bound"))
    code, out, err = run(capsys, "count", "-n", "20000", "-c", "1", "--breakdown")  # 20,001 x 12,042 digits
    assert (code, out) == (2, "")
    assert "240852042" in err and "1000000" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "-c", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "n=2 c=1 []"


def test_enumerate_cap(capsys, monkeypatch):
    monkeypatch.setenv("PLANAR_ROOK_CAP", "10")
    code, out, err = run(capsys, "enumerate", "-n", "4", "-c", "3")
    assert code == 2
    assert out == ""
    assert err == "resource cap exceeded: |P_{4,3}| >= 256 exceeds the cap of 10\n"


@pytest.mark.parametrize("command", [
    ["enumerate", "-n", "1", "-c", "1"],
    ["chartable", "-n", "1", "-c", "1", "--verify"],
    ["verify", "--n-cap", "0"],
])
def test_no_command_takes_a_cap_option(capsys, command):
    # PLANAR_ROOK_CAP is the one diagram cap: a --cap is an unknown argument, refused before any work.
    code, out, err = run(capsys, *command, "--cap", "10")
    assert (code, out) == (2, "")
    assert err == "planar-rook: error: unrecognized arguments: --cap 10\n"


@pytest.mark.parametrize("argv", [
    ["count", "-n", "1", "-c", "1"],
    ["enumerate", "-n", "1", "-c", "1"],
    ["mul", "n=1 c=1 []", "n=1 c=1 []"],
    ["xbasis", "n=1 c=1 []"],
    ["chartable", "-n", "1", "-c", "1"],
    ["bratteli", "-c", "1", "-n", "1"],
    ["verify", "--n-cap", "0"],
])
@pytest.mark.parametrize("value", ["x", "-1", "1" * 5000], ids=["letter", "negative", "past-int-digit-limit"])
def test_every_command_reads_the_cap_variable(capsys, monkeypatch, argv, value):
    # main reads PLANAR_ROOK_CAP once, for every command, also those whose bounds this argv never reaches.
    monkeypatch.setenv("PLANAR_ROOK_CAP", value)
    message = f"error: environment variable PLANAR_ROOK_CAP={value!r} is not an integer >= 0\n"
    assert run(capsys, *argv) == (2, "", message)
    monkeypatch.setenv("PLANAR_ROOK_CAP", "1000")
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerate_prints_each_literal_on_its_own_line(capsys, n, c):
    # n = 0 gives the one empty literal, n = 1 single-edge templates.
    code, out, _ = run(capsys, "enumerate", "-n", str(n), "-c", str(c))
    assert code == 0
    assert out == "".join(literal + "\n" for literal in enumerate_literals(n, c))


def test_enumerate_order_is_pinned(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "4", "-c", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "f18ec7e9dd5f948682e465dced1c1cd360a063db566a87e2281b778407c9daa2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("chartable -n 5 -c 2 --verify", "a3a6b7a878d4f12b941983c86e8ee6b11d0be384b2b5724f0f903ec7d9c70ff2"),
        ("bratteli -c 3 -n 3 --format json", "6d2e1905410d4917bbeb0edfdc46c631aa335067457b67c89c936bff88c1adc6"),
        ("bratteli -c 2 -n 4", "e23289932ad015be43e74748c59fd576a3b2c00a966dbdeb16a719183435dd8b"),
        ("bratteli -c 2000 -n 1", "39e6b6f407e93ee00375adc3b96182baee86c287bc5250312082be3d3478fca4"),
        ("enumerate -n 6 -c 3", "a746d8938fe8e97bce57482385e882d48377a830f538df77477ce54f29dec3f5"),
    ],
)
def test_cli_outputs_are_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("PLANAR_ROOK_CAP", raising=False)
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_numeric_options_take_ascii_digits_only(capsys):
    code, out, err = run(capsys, "count", "-n", "\u0663", "-c", "1")  # ARABIC-INDIC DIGIT THREE
    assert code == 2
    assert out == ""
    assert "-n" in err


# The README's reproduction commands, and the sha256 of each file they write: the character tables for n <= 4 and
# c <= 2, checked entry by entry as traces, and the c = 2 tower to level 4 in both exports.
REPRODUCED = {
    "characters_n0_c1.csv": "c82655e422f5b0725704ce554eeb3edaf6be646bb4a864a642bf078d62733ee9",
    "characters_n1_c1.csv": "e03d3e3c1d8c986a96dc4b56f24e06d6ea253982b7c89ee5ad41e7e54f3f111b",
    "characters_n2_c1.csv": "04781b0c5ac8ce80697dbbc37194344f958b878831f34a4e3096fbc24c8ef740",
    "characters_n3_c1.csv": "60ccc9130557ecd81ea2d2aef1a52cbcbfb14b99c75d6ae1f87b310cb1fb6a86",
    "characters_n4_c1.csv": "6c4e787fa17576e5790042ebb459165615373c161b61241ffb75b5a874373ca5",
    "characters_n0_c2.csv": "911e190e9d8efd978b159658fd122e050b6a02f497875886f1d8918b814c9a07",
    "characters_n1_c2.csv": "cda407ea6d03b99283b0642f32966f188f750941d08bf73dce3ce35dd35b9960",
    "characters_n2_c2.csv": "1b1e01da6a203c4ccfe4a56b8ffc27b93c4302f244d17ae60e39a7cd2acadf11",
    "characters_n3_c2.csv": "19310627e58b872954d26592f44258298d9fb627c5c2f80506483f606db721ff",
    "characters_n4_c2.csv": "1e29da518dad74320c654a4149fb79981f8e89de14dafc832b6df83e9c5c6cd9",
    "tower_c2_n4.dot": "e23289932ad015be43e74748c59fd576a3b2c00a966dbdeb16a719183435dd8b",
    "tower_c2_n4.json": "09eee15acb3f390ddf4ea918732cfa6d8c70b220610620910742a39759a65bda",
}


def test_readme_reproduction_commands_write_the_pinned_files(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("PLANAR_ROOK_CAP", raising=False)
    runs = [f"chartable -n {n} -c {c} --verify --out characters_n{n}_c{c}.csv" for c in (1, 2) for n in range(5)]
    runs += [f"bratteli -c 2 -n 4 --format {fmt} --out tower_c2_n4.{fmt}" for fmt in ("dot", "json")]
    for argv in runs:
        *options, path = argv.split()
        assert run(capsys, *options, str(tmp_path / path)) == (0, "", "")
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == REPRODUCED


def test_chartable_has_no_format_option(capsys):
    code, out, err = run(capsys, "chartable", "-n", "2", "-c", "1", "--format", "csv")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format csv" in err


@pytest.mark.parametrize("command", ["count", "enumerate", "chartable", "bratteli"])
def test_the_width_rule_refuses_c_past_the_cap_before_building(capsys, monkeypatch, command):
    # At n = 0 every count, table and tower is one composition, but of c + 1 parts: c + 1 must not pass the cap.
    monkeypatch.setenv("PLANAR_ROOK_CAP", "5")
    assert run(capsys, command, "-n", "0", "-c", "4")[0] == 0  # 5 parts fit exactly
    monkeypatch.setattr(diagrams, "_compositions", lambda n, c: pytest.fail("built a composition past the cap"))
    code, out, err = run(capsys, command, "-n", "0", "-c", "5")
    assert (code, out) == (2, "")
    assert err == "resource cap exceeded: c=5 gives each row profile 6 parts, more than the cap of 5\n"
    monkeypatch.delenv("PLANAR_ROOK_CAP")
    for c in ("9999999999", "99999999999999999999"):  # a MemoryError and an OverflowError without the rule
        code, out, err = run(capsys, command, "-c", c, "-n", "0")
        assert (code, out) == (2, "")
        tail = f"gives each row profile {int(c) + 1} parts, more than the cap of 1000000\n"
        assert err == f"resource cap exceeded: c={c} {tail}"


@pytest.mark.parametrize("extra", [[], ["--invert"]])
def test_xbasis_obeys_the_width_rule(capsys, monkeypatch, extra):
    # Each printed term's sort key holds one part per color: c + 1 past the cap is refused before any is built.
    monkeypatch.setenv("PLANAR_ROOK_CAP", "5")
    assert run(capsys, "xbasis", "n=1 c=4 [1-1:4]", *extra)[0] == 0
    for module in (algebra, cli):
        monkeypatch.setattr(module, "diagram_sort_key", lambda d: pytest.fail("sorted a term past the cap"))
    for c in ("5", "99999999999999999999"):
        code, out, err = run(capsys, "xbasis", f"n=1 c={c} [1-1:1]", *extra)
        assert (code, out) == (2, "")
        tail = f"gives each row profile {int(c) + 1} parts, more than the cap of 5\n"
        assert err == f"resource cap exceeded: c={c} {tail}"


@pytest.mark.parametrize("argv", [[], ["xbasis"], ["count", "-n", "x", "-c", "1"], ["verify", "--bogus"]])
def test_a_usage_error_is_one_stderr_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("planar-rook") and ": error: " in err and err.count("\n") == 1


def test_a_spot_check_pool_obeys_the_width_rule(capsys, monkeypatch):
    monkeypatch.setattr(diagrams, "_compositions", lambda n, c: pytest.fail("built a composition past the cap"))
    huge = "n=0 c=99999999999999999999 []"
    code, out, err = run(capsys, "mul", huge, huge, "--spot-check", "1")
    assert (code, out) == (2, "")
    assert err.startswith("resource cap exceeded: c=99999999999999999999 gives each row profile")
    assert err.count("\n") == 1


def test_verify_samples_obey_the_cap(capsys, monkeypatch):
    # The sampled checks' work is linear in --samples: past the cap it is refused before any check runs, as
    # --spot-check's triples are.
    monkeypatch.delenv("PLANAR_ROOK_CAP", raising=False)
    monkeypatch.setattr(checks, "_rows", lambda: pytest.fail("read the table of checks past the cap"))
    code, out, err = run(capsys, "verify", "--samples", "100000000")
    assert (code, out) == (2, "")
    assert err == "resource cap exceeded: --samples 100000000 exceeds the cap of 1000000 draws\n"
    monkeypatch.undo()
    monkeypatch.setenv("PLANAR_ROOK_CAP", "10")
    argv = ["verify", "--n-cap", "1", "--c-cap", "1", "--samples"]
    assert run(capsys, *argv, "10")[0] == 0  # |P_{1,1}| = 2, so only the samples meet the cap
    assert run(capsys, *argv, "11") == (2, "", "resource cap exceeded: --samples 11 exceeds the cap of 10 draws\n")


@pytest.mark.parametrize("argv, option", [
    (["mul", "n=2 c=1 []", "n=2 c=1 []", "--spot-check", "-1"], "--spot-check"),
    (["verify", "--n-cap", "1", "--c-cap", "1", "--samples", "-3"], "--samples"),
])
def test_negative_counts_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and option in err and err.count("\n") == 1
    argv[-1] = "0"  # zero stays allowed
    assert run(capsys, *argv)[0] == 0


def test_environment_integers_take_ascii_digits_only(capsys, monkeypatch):
    monkeypatch.setenv("PLANAR_ROOK_CAP", "\u0661")  # ARABIC-INDIC DIGIT ONE
    code, out, err = run(capsys, "verify", "--c-cap", "1")
    assert code == 2
    assert out == ""
    assert "PLANAR_ROOK_CAP" in err


def test_enumerate_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("PLANAR_ROOK_CAP", "2")
    code, out, err = run(capsys, "enumerate", "-n", "2", "-c", "1")
    assert code == 2
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--n-cap", "1", "--c-cap", "1"],
    ["bratteli", "-c", "1", "-n", "2"],
])
def test_an_unwritable_out_path_is_an_io_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "report"))
    assert (code, out) == (2, "")
    assert err.startswith("i/o error:")


def test_mul_worked_example(capsys):
    code, out, _ = run(
        capsys, "mul", "n=3 c=2 [1-1:1, 2-3:1, 3-2:1]", "n=3 c=2 [1-2:1, 3-1:2]"
    )
    assert code == 0
    assert out.strip() == "n=3 c=2 [1-2:1]"


def test_mul_as_matrix(capsys):
    code, out, _ = run(
        capsys, "mul", "n=3 c=2 [1-1:1, 2-3:1, 3-2:1]", "n=3 c=2 [1-2:1, 3-1:2]", "--as-matrix"
    )
    assert code == 0
    assert out == "0 u1 0\n0 0 0\n0 0 0\n"


def test_mul_as_matrix_obeys_the_cap(capsys, monkeypatch):
    # An n x n matrix prints n^2 cells: refused before any output when n^2 exceeds the cap.
    code, out, err = run(capsys, "mul", "n=2000 c=1 []", "n=2000 c=1 []", "--as-matrix")
    assert code == 2
    assert out == ""
    assert "4000000 cells" in err and "cap" in err
    monkeypatch.setenv("PLANAR_ROOK_CAP", "9")
    assert run(capsys, "mul", "n=3 c=1 []", "n=3 c=1 []", "--as-matrix")[:2] == (0, "0 0 0\n0 0 0\n0 0 0\n")
    assert run(capsys, "mul", "n=4 c=1 []", "n=4 c=1 []", "--as-matrix")[:2] == (2, "")


def test_mul_by_empty(capsys):
    code, out, _ = run(capsys, "mul", "n=2 c=1 [1-1:1]", "n=2 c=1 []")
    assert code == 0
    assert out.strip() == "n=2 c=1 []"


def test_mul_spot_check(capsys):
    code, out, _ = run(capsys, "mul", "n=2 c=1 []", "n=2 c=1 []", "--spot-check", "25")
    assert code == 0
    assert "25 triples" in out


def test_mul_spot_check_pool_obeys_the_cap(capsys, monkeypatch):
    # |P_{4,3}| = 2716: the pool is refused before the product is printed.
    monkeypatch.setenv("PLANAR_ROOK_CAP", "10")
    code, out, err = run(capsys, "mul", "n=4 c=3 []", "n=4 c=3 []", "--spot-check", "1")
    assert code == 2
    assert "cap" in err
    assert out == ""


def test_mul_spot_check_count_obeys_the_cap(capsys, monkeypatch):
    # K triples cost 4K products: K past the cap is refused before the product is printed, as --as-matrix is.
    monkeypatch.setattr(cli, "enumerate_planar", lambda *args: pytest.fail("built the pool past the cap"))
    code, out, err = run(capsys, "mul", "n=2 c=1 [1-1:1]", "n=2 c=1 []", "--spot-check", "100000000")
    assert (code, out) == (2, "")
    assert "100000000" in err and "1000000" in err and "cap" in err
    monkeypatch.undo()
    monkeypatch.setenv("PLANAR_ROOK_CAP", "10")  # |P_{2,1}| = 6, so only K meets the cap
    code, out, _ = run(capsys, "mul", "n=2 c=1 [1-1:1]", "n=2 c=1 []", "--spot-check", "10")
    assert (code, out) == (0, "n=2 c=1 []\nassociativity spot-check passed on 10 triples\n")
    assert run(capsys, "mul", "n=2 c=1 [1-1:1]", "n=2 c=1 []", "--spot-check", "11")[:2] == (2, "")


def test_mul_spot_check_failure_exits_one(capsys, monkeypatch):
    # Fault: a product that swaps its factors when the left one has an odd number of edges is not associative.
    real = cli.multiply
    monkeypatch.setattr(cli, "multiply", lambda a, b: real(b, a) if a.size % 2 else real(a, b))
    code, out, err = run(capsys, "mul", "n=3 c=2 []", "n=3 c=2 []", "--spot-check", "25")
    assert (code, out) == (1, "n=3 c=2 []\n")
    assert err.startswith("associativity failed on n=3 c=2 [") and err.count("\n") == 1


def test_mul_parse_error(capsys):
    code, _, err = run(capsys, "mul", "n=2 c=1 [oops]", "n=2 c=1 []")
    assert code == 2
    assert "position" in err


def test_mul_shape_mismatch(capsys):
    code, _, err = run(capsys, "mul", "n=2 c=1 []", "n=3 c=1 []")
    assert code == 2
    assert "error" in err


def test_xbasis(capsys):
    code, out, _ = run(capsys, "xbasis", "n=1 c=1 [1-1:1]")
    assert code == 0
    assert out.strip() == "-1 * n=1 c=1 [] + 1 * n=1 c=1 [1-1:1]"


def test_xbasis_invert(capsys):
    code, out, _ = run(capsys, "xbasis", "n=1 c=1 [1-1:1]", "--invert")
    assert code == 0
    assert out.strip() == "1 * x[n=1 c=1 []] + 1 * x[n=1 c=1 [1-1:1]]"


@pytest.mark.parametrize("extra", [[], ["--invert"]])
def test_xbasis_obeys_the_cap(capsys, monkeypatch, extra):
    # The 14-edge identity at (14, 1) has 2^14 = 16384 subdiagrams; 2^5 = 32 already exceeds a cap of 10.
    literal = "n=14 c=1 [" + ", ".join(f"{i}-{i}:1" for i in range(1, 15)) + "]"
    monkeypatch.setenv("PLANAR_ROOK_CAP", "10")
    code, out, err = run(capsys, "xbasis", literal, *extra)
    assert code == 2
    assert out == ""
    assert err == "resource cap exceeded: at least 32 subdiagrams of a 14-edge diagram exceed the cap of 10\n"
    monkeypatch.setenv("PLANAR_ROOK_CAP", "8")  # 2^3 subdiagrams fit exactly
    assert run(capsys, "xbasis", "n=3 c=1 [1-1:1, 2-2:1, 3-3:1]", *extra)[0] == 0


def test_xbasis_refuses_past_the_int_digit_limit(capsys):
    # 2^15000 has 4,516 digits, past Python's int-to-string limit: the refusal must not print it.
    literal = "n=15000 c=1 [" + ", ".join(f"{i}-{i}:1" for i in range(1, 15001)) + "]"
    code, out, err = run(capsys, "xbasis", literal)
    assert (code, out) == (2, "")
    assert err == "resource cap exceeded: at least 2097152 subdiagrams of a 15000-edge diagram exceed the cap of 1000000\n"


def test_verify_never_imports_the_matrix_module():
    script = (
        "import sys\n"
        "from planar_rook import cli\n"
        "code = cli.main(['verify', '--n-cap', '2', '--c-cap', '1'])\n"
        "sys.exit(3 if 'planar_rook.matrices' in sys.modules else code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_chartable_stdout(capsys):
    code, out, _ = run(capsys, "chartable", "-n", "2", "-c", "1")
    assert code == 0
    assert out == "verticals,2|0,1|1,0|2\n0,1,0,0\n1,1,1,0\n2,1,2,1\n"


def test_chartable_verify_and_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "chartable", "-n", "3", "-c", "2", "--verify", "--out", str(out_path))
    assert code == 0
    content = out_path.read_bytes()
    assert content.startswith(b"verticals,")


def test_chartable_verify_failure_exits_one_with_the_witnesses(capsys, monkeypatch):
    # Fault: every closed-form entry reads 7, which no trace of a width-1 module is; no table is written.  The
    # closed form fills three cells; ((0,), 0|1) is C(0, 1) = 0 and stays a zero that it never evaluates.
    monkeypatch.setattr(representations, "_character", lambda verticals, sizes: 7)
    code, out, err = run(capsys, "chartable", "-n", "1", "-c", "1", "--verify")
    assert (code, out) == (1, "")
    assert err == "".join(
        f"entry ({row}, {label}) differs from the trace\n"
        for row, label in (("(0,)", "1|0"), ("(1,)", "1|0"), ("(1,)", "0|1"))
    )


def test_chartable_verify_checks_the_cells_the_closed_form_leaves_zero(capsys, monkeypatch):
    # Fault: the structural zero ((0,), 0|1) of the (1, 1) table reads 1; the verifier still traces that cell.
    table = ([(0,), (1,)], [IrrepLabel((1, 0)), IrrepLabel((0, 1))], [[1, 1], [1, 1]])
    assert representations.character_table(1, 1) == (table[0], table[1], [[1, 0], [1, 1]])
    monkeypatch.setattr(representations, "character_table", lambda n, c: table)
    code, out, err = run(capsys, "chartable", "-n", "1", "-c", "1", "--verify")
    assert (code, out) == (1, "")
    assert err == "entry ((0,), 0|1) differs from the trace\n"


def test_chartable_verify_cap_bounds_the_module_basis(capsys, monkeypatch):
    # At (6, 1) the table has 7^2 = 49 cells and the label modules 2^6 = 64 basis vectors, so one cap between
    # them passes the table and refuses the modules; the monoid (|P_{6,1}| = 924) is never built.
    monkeypatch.setenv("PLANAR_ROOK_CAP", "64")
    code, out, _ = run(capsys, "chartable", "-n", "6", "-c", "1", "--verify")
    assert code == 0
    assert out.startswith("verticals,")
    monkeypatch.setenv("PLANAR_ROOK_CAP", "63")
    code, out, err = run(capsys, "chartable", "-n", "6", "-c", "1", "--verify")
    assert code == 2
    assert err == "resource cap exceeded: at least 64 module basis vectors at (n=6, c=1) exceed the cap of 63\n"
    assert out == ""
    assert run(capsys, "chartable", "-n", "6", "-c", "1")[0] == 0  # without --verify the 49 cells fit


@pytest.mark.parametrize("extra", [[], ["--verify"]])
def test_chartable_obeys_the_cap(capsys, monkeypatch, extra):
    # C(n+c, c) rows by C(n+c, c) columns, bounded by the environment's cap with or without --verify.
    monkeypatch.setattr(cli, "character_table_csv", lambda n, c: pytest.fail("built the table past the cap"))
    code, out, err = run(capsys, "chartable", "-n", "20", "-c", "3", *extra)  # C(23, 3)^2 = 3,136,441 cells
    assert (code, out) == (2, "")
    assert "1000000" in err and "cap" in err
    monkeypatch.undo()
    monkeypatch.setenv("PLANAR_ROOK_CAP", "1225")  # 35^2 cells fit exactly
    code, out, _ = run(capsys, "chartable", "-n", "4", "-c", "3", *extra)
    assert code == 0 and out.startswith("verticals,")
    monkeypatch.setenv("PLANAR_ROOK_CAP", "1224")
    assert run(capsys, "chartable", "-n", "4", "-c", "3", *extra)[:2] == (2, "")


def test_bratteli_dot(tmp_path, capsys):
    out_path = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "bratteli", "-c", "2", "-n", "2", "--format", "dot", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.count(" -> ") == 12


def test_bratteli_json_levels(capsys):
    code, out, _ = run(capsys, "bratteli", "-c", "1", "-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [len(level) for level in payload["levels"]] == [1, 2, 3, 4, 5]


def test_bratteli_obeys_the_cap(capsys, monkeypatch):
    # Levels 0..2 at c=2 hold 1 + 3 + 6 = 10 vertices.
    uncapped = run(capsys, "bratteli", "-c", "2", "-n", "2")
    assert uncapped[0] == 0
    monkeypatch.setenv("PLANAR_ROOK_CAP", "9")
    code, out, err = run(capsys, "bratteli", "-c", "2", "-n", "2")
    assert (code, out) == (2, "")
    assert "cap" in err
    monkeypatch.setenv("PLANAR_ROOK_CAP", "10")
    assert run(capsys, "bratteli", "-c", "2", "-n", "2") == uncapped
    monkeypatch.delenv("PLANAR_ROOK_CAP")
    # C(1999999, 999999) vertices: refused without evaluating the binomial, which takes tens of seconds.
    assert run(capsys, "bratteli", "-c", "999999", "-n", "999999")[:2] == (2, "")
    code, out, err = run(capsys, "bratteli", "-c", "2", "-n", "-1")
    assert (code, out) == (2, "")
    assert "n >= 0" in err


@pytest.mark.parametrize("c, n, reason", [
    pytest.param(2, 10**6, "the tower to level 1000000 at c=2 has more than 1000000 vertices", id="huge-level"),
    pytest.param(10**9, 2, "c=1000000000 gives each row profile 1000000001 parts, more than the cap of 1000000",
                 id="huge-c"),
])
def test_bratteli_refuses_a_tower_over_the_cap_before_building(capsys, monkeypatch, c, n, reason):
    # A small command line that names a huge tower is refused before any vertex is built.
    monkeypatch.delenv("PLANAR_ROOK_CAP", raising=False)  # the default cap of 10^6
    monkeypatch.setattr(checks.bratteli, "build", lambda *args: pytest.fail("built a tower"))
    assert run(capsys, "bratteli", "-c", str(c), "-n", str(n)) == (2, "", f"resource cap exceeded: {reason}\n")


# Compositions and profiles are generated without recursion: no call depth grows with c.
def test_count_many_colors(capsys):
    assert run(capsys, "count", "-n", "0", "-c", "1100") == (0, "1\n", "")


def test_enumerate_many_colors(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "1", "-c", "1100")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["n=1 c=1100 []"] + [f"n=1 c=1100 [1-1:{k}]" for k in range(1, 1101)]


def test_bratteli_many_colors(capsys):
    code, out, err = run(capsys, "bratteli", "-c", "1100", "-n", "1", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [len(level) for level in payload["levels"]] == [1, 1101]
    assert payload["edges"] == [[[1, i], [0, 0]] for i in range(1101)]


def test_bratteli_unknown_format(capsys):
    code, _, _ = run(capsys, "bratteli", "-c", "2", "-n", "2", "--format", "xml")
    assert code == 2


def test_usage_error_without_command(capsys):
    assert main([]) == 2


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-cap", "1", "--c-cap", "1", "--samples", "10")
    assert code == 0
    assert "PASS diagram.associativity" in out
    assert "FAIL" not in out


def test_verify_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--n-cap", "1", "--c-cap", "1", "--samples", "10",
        "--json", "--out", str(report_path),
    )
    assert code == 0
    stdout_report = json.loads(out)
    file_report = json.loads(report_path.read_text())
    assert stdout_report == file_report
    assert file_report["ok"] is True
    names = [entry["name"] for entry in file_report["checks"]]
    assert names == sorted(names)


def test_verify_json_report_is_byte_stable(capsys):
    code, out, _ = run(capsys, "verify", "--n-cap", "2", "--c-cap", "1", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "d5bc669a2afcee5e6add4132415da4233ae2480dfeeed11ebde4a1c6a1b706bb"


def test_default_verify_json_report_is_byte_stable(capsys, monkeypatch):
    monkeypatch.delenv("PLANAR_ROOK_CAP", raising=False)
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "2ddfc6109766cb2a0c7b96579c95ade50fb6d67d85fdc3d36661938ac689e2a4"
    assert json.loads(out)["config"] == dataclasses.asdict(VerifyConfig())  # the CLI restates no default


def test_verify_cap_exceeded_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PLANAR_ROOK_CAP", "5")
    code, _, err = run(capsys, "verify", "--n-cap", "3", "--c-cap", "2", "--samples", "5")
    assert code == 2
    assert err == "resource cap exceeded: |P_{3,2}| >= 27 exceeds the cap of 5\n"


def test_verify_scope_comes_from_its_options_alone(capsys, monkeypatch):
    # The scope has one source: --n-cap and --c-cap, which default to VerifyConfig's; no variable sets it.
    monkeypatch.setenv("PLANAR_ROOK_N_CAP", "1")
    monkeypatch.setenv("PLANAR_ROOK_C_CAP", "1")
    code, out, _ = run(capsys, "verify", "--json", "--samples", "10")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["n_cap"], config["c_cap"]) == (3, 2) == (VerifyConfig.n_cap, VerifyConfig.c_cap)


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    from fractions import Fraction

    from planar_rook import algebra
    from planar_rook.algebra import AlgebraElement, subdiagrams

    def mutant(d):
        return AlgebraElement(d.n, d.c, {sub: Fraction(1) for sub in subdiagrams(d)})

    monkeypatch.setattr(algebra, "x_of", mutant)
    code, out, _ = run(capsys, "verify", "--n-cap", "1", "--c-cap", "1", "--samples", "10")
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def test_a_short_regular_decomposition_is_a_failed_claim_with_exit_one(capsys, monkeypatch):
    # The Wedderburn count is compared in its check, so a decomposition short of |P| is a witness, not a fault.
    real = checks.regular_decomposition
    monkeypatch.setattr(checks, "regular_decomposition", lambda n, c: real(n, c)[:-1])
    code, out, err = run(capsys, "verify", "--n-cap", "1", "--c-cap", "1", "--samples", "10")
    assert (code, err) == (1, "")
    assert out.count("FAIL") == 1
    assert (
        "FAIL modules.regular-decomposition (checked 2)\n"
        "     witness: (n=0, c=1): multiplicity-weighted dimensions sum to 0, |P| = 1\n"
        "     witness: (n=1, c=1): multiplicity-weighted dimensions sum to 1, |P| = 2\n"
    ) in out


def test_engine_fault_exits_three(capsys, monkeypatch):
    # A check that raises is an engine fault, not a failed claim: its entry carries the error,
    # every other check still runs, the complete report is printed, and verify exits 3.
    argv = ["verify", "--n-cap", "1", "--c-cap", "1", "--samples", "10", "--json"]
    clean = json.loads(run(capsys, *argv)[1])

    @tallied("diagram.rook-closure")
    def faulty(scope):
        yield 1
        raise AssertionError("planted fault")

    monkeypatch.setattr(checks, "check_rook_closure", faulty)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "internal error in diagram.rook-closure: AssertionError: planted fault\n")
    report = json.loads(out)
    assert report["ok"] is False
    fault = {"name": "diagram.rook-closure", "ok": False, "checked": 0, "witnesses": [],
             "error": "AssertionError: planted fault"}
    assert report["checks"] == [fault if e["name"] == fault["name"] else e for e in clean["checks"]]
    code, out, _ = run(capsys, *argv[:-1])
    assert code == 3
    assert "FAIL diagram.rook-closure (checked 0)\n     error: AssertionError: planted fault\n" in out


def test_an_engine_fault_outside_verify_exits_three(capsys, monkeypatch):
    def fault(n, c):
        raise AssertionError("planted fault")

    monkeypatch.setattr(cli, "cardinality", fault)
    assert run(capsys, "count", "-n", "2", "-c", "1") == (3, "", "internal error: AssertionError: planted fault\n")


def test_verify_text_counts_the_witnesses_it_cuts(capsys, monkeypatch):
    @tallied("diagram.rook-closure")
    def failing(scope):
        yield 1
        yield from (f"w{i}" for i in range(8))

    monkeypatch.setattr(checks, "check_rook_closure", failing)
    code, out, _ = run(capsys, "verify", "--n-cap", "1", "--c-cap", "1", "--samples", "10")
    assert code == 1
    shown = "".join(f"     witness: w{i}\n" for i in range(5))
    assert f"FAIL diagram.rook-closure (checked 1)\n{shown}     … and 3 more\n" in out
    assert "more" not in out.replace("… and 3 more", "")


def test_verify_refuses_a_pascal_tower_over_the_cap_before_any_check(capsys, monkeypatch):
    # The Pascal-triangle check builds the one-color tower to level n-cap: C(3002, 2) = 4,504,501
    # vertices exceed the default cap of 10^6, so verify is refused before any check or tower.
    ran = []
    for name in [name for name in vars(checks) if name.startswith("check_")]:
        monkeypatch.setattr(checks, name, lambda *args, name=name: ran.append(name))
    monkeypatch.setattr(checks.bratteli, "build", lambda *args: ran.append("build"))
    code, out, err = run(capsys, "verify", "--n-cap", "3000", "--c-cap", "1")
    assert (code, out, ran) == (2, "", [])
    assert err == "resource cap exceeded: the tower to level 3000 at c=1 has more than 1000000 vertices\n"


def test_determinism_of_outputs(tmp_path, capsys):
    paths = [tmp_path / f"out{i}" for i in range(2)]
    for path in paths:
        assert main(["bratteli", "-c", "2", "-n", "3", "--format", "json", "--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
