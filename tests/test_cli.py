import json
import shutil
import subprocess
import sys

import pytest

from carnotlw import CorankGroup
from carnotlw.cli import CLIError, main, parse_group


# ---------------------------------------------------------------------------
# group descriptors

@pytest.mark.parametrize(
    "text,expected",
    [
        ("h1", CorankGroup(0, 1, (1.0,))),
        ("h2:1,2", CorankGroup(0, 2, (1.0, 2.0))),
        ("H1:2.5", CorankGroup(0, 1, (2.5,))),
        ("d1n2:1,2", CorankGroup(1, 2, (1.0, 2.0))),
        ("d2n1", CorankGroup(2, 1, (1.0,))),
        ('{"d":1,"n":2,"alpha":[1.0,2.0]}', CorankGroup(1, 2, (1.0, 2.0))),
    ],
)
def test_parse_group(text, expected):
    assert parse_group(text) == expected


@pytest.mark.parametrize("text", ["zebra", "h0", "h1:-1", "d1", "h2:1", "{]"])
def test_parse_group_rejects(text):
    with pytest.raises(CLIError):
        parse_group(text)


def test_parse_group_error_names_the_invariant():
    with pytest.raises(CLIError, match="positive"):
        parse_group("h1:-1")


# ---------------------------------------------------------------------------
# exit codes

def test_lw_verify_exit_zero(capsys):
    code = main(["lw-verify", "--group", "h1", "--res", "48", "--rnorm", "2.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lw" in out
    assert "pass" in out
    assert "FAIL" not in out


def test_violated_inequality_exit_one(capsys):
    # an absurdly small transform norm forces the cube check to fail
    code = main(
        ["set-lw", "--group", "h1", "--cube", "--res", "32", "--rnorm", "0.05"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_bad_group_exit_two(capsys):
    code = main(["lw-verify", "--group", "h1:-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_bad_canonical_datum_exit_two(capsys):
    code = main(["bl-constant", "--canonical", "nope:3"])
    assert code == 2
    code = main(["bl-constant"])
    assert code == 2


def _rejected_before_computing(argv, capsys, monkeypatch):
    """Run main with every subcommand body disabled; return (code, stderr)."""
    from carnotlw import cli

    def started(args):
        raise AssertionError("computation started")

    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, started)
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


@pytest.mark.parametrize("argv", [
    ["lw-verify", "--res", "0"],
    ["lw-verify", "--res", "-5"],
    ["nonlinear-lw", "--trials", "0"],
    ["radon-norm", "--res-list", "64", "0"],
    ["bl-constant", "--canonical", "lw:3", "--starts", "0"],
])
def test_nonpositive_counts_exit_two(argv, capsys, monkeypatch):
    code, err = _rejected_before_computing(argv, capsys, monkeypatch)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "positive" in err


@pytest.mark.parametrize("argv", [
    ["radon-norm", "--res", "64"],
    ["radon-norm", "--seed", "1"],
    ["radon-norm", "--rnorm", "2.1"],
    ["bl-constant", "--canonical", "lw:3", "--res", "64"],
    ["bl-constant", "--canonical", "lw:3", "--rnorm", "2.1"],
    ["product-combine", "--left", "h1", "--right", "h1", "--res", "64"],
    ["product-combine", "--left", "h1", "--right", "h1", "--seed", "1"],
])
def test_ignored_options_rejected(argv, capsys, monkeypatch):
    code, err = _rejected_before_computing(argv, capsys, monkeypatch)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["bl-constant", "--canonical", "nope:3"],        # CLIError
    ["radon-norm", "--family", "nope", "--res-list", "8"],  # plain ValueError
])
def test_input_errors_share_one_exit_path(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# outputs

def test_out_file_deterministic(tmp_path, capsys):
    args = ["lw-verify", "--group", "h1", "--res", "48", "--seed", "7",
            "--rnorm", "2.1"]
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(args + ["--out", f1]) == 0
    first_stdout = capsys.readouterr().out
    assert main(args + ["--out", f2]) == 0
    second_stdout = capsys.readouterr().out
    assert open(f1, "rb").read() == open(f2, "rb").read()
    assert first_stdout == second_stdout
    record = json.loads(open(f1).read().splitlines()[0])
    assert record["passed"] is True
    assert record["metadata"]["r_norm"] == 2.1


def test_csv_output(tmp_path, capsys):
    path = str(tmp_path / "rows.csv")
    code = main(["entropy-check", "--group", "h1", "--res", "48",
                 "--rnorm", "2.1", "--csv", path])
    capsys.readouterr()
    assert code == 0
    lines = open(path).read().splitlines()
    assert lines[0] == "name,lhs,rhs,deficit,tolerance,passed"
    name, lhs, rhs, deficit, tol, passed = lines[1].split(",")
    assert name == "subadditivity"
    assert float(rhs) - float(lhs) == pytest.approx(float(deficit), rel=1e-9)
    assert passed == "True"


def test_env_norm_respected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARNOT_LW_RNORM", "1.77")
    path = str(tmp_path / "r.json")
    code = main(["entropy-check", "--group", "h1", "--res", "48",
                 "--out", path])
    capsys.readouterr()
    assert code == 0
    record = json.loads(open(path).read().splitlines()[0])
    assert record["metadata"]["r_norm"] == 1.77


def test_product_combine_exact_strings(capsys):
    code = main(["product-combine", "--left", "h1", "--right", "h1",
                 "--rnorm", "2.1"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["exponents"] == ["2/7"] * 4
    assert record["rnorm_power"] == "6/7"
    assert record["q_hom"] == "8"
    assert record["constant"] == pytest.approx(2.1 ** (6 / 7), rel=1e-12)


def test_product_combine_lines(capsys):
    code = main(["product-combine", "--groups", "h1", "--lines", "1",
                 "--rnorm", "2.1"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["exponents"] == ["1/4", "1/2", "1/2"]
    assert record["q_hom"] == "5"


def test_product_combine_needs_both_sides(capsys):
    assert main(["product-combine", "--left", "h1"]) == 2
    assert main(["product-combine"]) == 2
    capsys.readouterr()


def test_suite_products_exact_identities(capsys):
    code = main(["suite", "--name", "products", "--res", "24",
                 "--rnorm", "2.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "product-exponents" in out
    assert "line-combine" in out
    assert "FAIL" not in out


def test_radon_norm_scan(capsys):
    code = main(["radon-norm", "--res-list", "64", "--family", "disk"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["lower_bound"] == pytest.approx(6 ** (1 / 3), rel=3e-2)
    assert record["configured_norm"] > record["lower_bound"]


def test_bl_constant_canonical(capsys):
    code = main(["bl-constant", "--canonical", "lw:3", "--starts", "2"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["constant"] == pytest.approx(1.0, abs=1e-6)
    assert record["geometric"] is True


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "carnotlw.cli", "product-combine",
         "--left", "h1", "--right", "h1", "--rnorm", "2.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rnorm_power"] == "6/7"


@pytest.mark.skipif(shutil.which("carnotlw") is None,
                    reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["carnotlw", "product-combine", "--left", "h1", "--right", "h1",
         "--rnorm", "2.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
