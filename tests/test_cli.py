import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from subgroup_values import cli
from subgroup_values.cli import cmd_dispatch
from subgroup_values.errors import ParseError, ZeroDenominator
from subgroup_values.fields import FieldCtx
from subgroup_values.parsing import parse_int_bipoly, parse_poly_expr, parse_rational_expr
from subgroup_values.polynomials import RationalFunc, UniPoly
from subgroup_values.reporting import ReportRow, emit_report, mapping_to_output

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "subgroup_values", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


# --- parsing -----------------------------------------------------------------


def test_parse_poly_examples():
    f = parse_poly_expr("x^2+3*x+1", 5)
    assert isinstance(f, UniPoly)
    assert [c for c in f.coeffs] == [1, 3, 1]

    r = parse_poly_expr("(x^2+x)/(x+2)", 7)
    assert isinstance(r, RationalFunc)
    assert (r.d, r.e) == (2, 1)

    with pytest.raises(ParseError) as exc:
        parse_poly_expr("x^", 5)
    assert exc.value.position == 2


def test_parse_poly_error_cases():
    with pytest.raises(ParseError):
        parse_poly_expr("x + ", 5)
    with pytest.raises(ParseError):
        parse_poly_expr("(x+1", 5)
    with pytest.raises(ParseError):
        parse_poly_expr("z^2", 5)
    with pytest.raises(ParseError):
        parse_poly_expr("1/x/x", 5)  # one top-level / only
    with pytest.raises(ZeroDenominator):
        parse_poly_expr("x/0", 5)
    with pytest.raises(ParseError):
        parse_poly_expr("3x", 5)  # implicit multiplication not in the grammar


def test_parse_negative_and_parens():
    f = parse_poly_expr("-x^2+2", 7)
    assert [c for c in f.coeffs] == [2, 0, 6]
    g = parse_poly_expr("(x+1)*(x+2)", 7)
    assert [c for c in g.coeffs] == [2, 3, 1]


def test_parse_print_roundtrip_200():
    rng = random.Random(55)
    done = 0
    for p in (5, 7, 101):
        ctx = FieldCtx(p)
        for _ in range(70):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
            f = UniPoly.from_ints(ctx, coeffs)
            g = parse_poly_expr(f.text(), p)
            assert g == f
            done += 1
    assert done >= 200


def test_rational_text_roundtrip():
    r = parse_rational_expr("(x^2+x)/(x+2)", 7)
    again = parse_rational_expr(r.text(), 7)
    assert again == r


def test_parse_int_bipoly():
    t = parse_int_bipoly("x^2+y^2-25")
    assert t == {(2, 0): 1, (0, 2): 1, (0, 0): -25}
    t = parse_int_bipoly("x*y-6")
    assert t == {(1, 1): 1, (0, 0): -6}
    with pytest.raises(ParseError):
        parse_int_bipoly("x/y")


# --- report emission -----------------------------------------------------------


def _demo_rows():
    return [
        ReportRow(p=13, d=2, e=0, H=3, T=4, u=0, N=1, bound=4.321,
                  ratio=0.2314, lambda_count=1, status="ok", error=""),
        ReportRow(p=31, d=2, e=0, H=30, T=5, u=0, N=3, bound=None,
                  ratio=None, lambda_count=1, status="window-empty", error="max level"),
    ]


def test_emit_report_csv():
    text = emit_report([], fmt="csv")
    assert text == "p,d,e,H,T,u,N,bound,ratio,lambda_count,status,error\n"
    text = emit_report(_demo_rows()[:1], fmt="csv")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1] == "13,2,0,3,4,0,1,4.321,0.2314,1,ok,"


def test_emit_report_byte_identical(tmp_path):
    rows = _demo_rows()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, fmt="csv", path=str(p1))
    emit_report(rows, fmt="csv", path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    j1 = emit_report(rows, fmt="json")
    j2 = emit_report(rows, fmt="json")
    assert j1 == j2


def test_emit_report_json_fields():
    data = json.loads(emit_report(_demo_rows(), fmt="json"))
    assert data[0]["p"] == 13 and data[0]["N"] == 1
    assert data[1]["bound"] is None and data[1]["status"] == "window-empty"


def test_emit_report_and_mapping_to_output_refuse_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit_report(_demo_rows(), fmt="xml")
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        mapping_to_output([("p", 7)], "xml")


# --- end-to-end CLI -----------------------------------------------------------


def test_cli_count_example():
    r = run_cli("count", "--psi", "x^2+x", "-p", "13", "-T", "4", "--interval", "1..3")
    assert r.returncode == 0
    assert r.stdout == "N = 1\n"


def test_cli_exponents_json_example():
    r = run_cli("exponents", "-d", "2", "-e", "0", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["k"] == 6 and data["s"] == 4
    assert data["theta"] == "1/8" and data["rho"] == "3/4" and data["tau"] == "1/4"


def test_cli_nonprime_exits_one():
    r = run_cli("count", "--psi", "x^2", "-p", "6", "-T", "2", "--interval", "1..3")
    assert r.returncode == 1
    assert "6 is not prime" in r.stderr


@pytest.mark.parametrize("p, b, V", [("21", "1,8,5", "6,9,11"), ("15", "1,7", "4,14")])
def test_cli_lattice_find_refuses_composite_p(p, b, V):
    r = run_cli("lattice-find", "-p", p, "--b", b, "--V", V)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"error: {p} is not prime\n"


def test_cli_usage_error_exits_two():
    r = run_cli("count", "--psi", "x^2")
    assert r.returncode == 2
    assert r.stderr  # argparse message present
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_cli_fuzzed_argv_never_zero_and_never_silent():
    rng = random.Random(8)
    vocab = ["count", "--psi", "x^2+", "-p", "0", "-T", "x", "--interval", "9..1",
             "sweep", "--config", "/nonexistent", "trace", "--H", "-3"]
    for _ in range(25):
        argv = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
        code = cmd_dispatch(argv)
        assert code != 0


def test_cli_domain_error_messages_reach_stderr():
    r = run_cli("lambda-scan", "--psi", "x^3", "-p", "7")
    assert r.returncode == 1
    assert "perfect power" in r.stderr


def test_cli_lambda_scan_refuses_a_field_above_the_cap():
    r = run_cli("lambda-scan", "--psi", "x^2+x", "-p", "1048583")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: q = p^1 = 1048583 exceeds the scan cap 2^20\n"


def test_cli_trace_matches_library(tmp_path):
    r = run_cli("trace", "--psi", "x^2+x", "-p", "31", "--H", "3", "-T", "5",
                "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["N"] == 1 and data["rt_ok"] is True


def test_cli_sweep_config_and_determinism(tmp_path):
    config = tmp_path / "cells.json"
    cells = [
        {"p": 31, "psi": "x^2+x", "H": 3, "T": 5, "u": 0},
        {"p": 31, "psi": "x^2+x", "H": 4, "T": 5, "u": 0},
        {"p": 13, "psi": "x^2+x", "H": 3, "T": 4, "u": 0},
    ]
    config.write_text(json.dumps(cells))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    r1 = run_cli("sweep", "--config", str(config), "--format", "csv", "--output", str(out1))
    r2 = run_cli("sweep", "--config", str(config), "--format", "csv", "--output", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 4  # header + three cells
    assert lines[0].startswith("p,d,e,H,T,u,N,bound,ratio,lambda_count,status")


def test_cli_sweep_parallel_byte_identical(tmp_path):
    config = tmp_path / "cells.json"
    cells = [{"p": p, "psi": "x^2+x", "H": h, "T": 5, "u": 0}
             for p in (31, 61) for h in (3, 4)]
    config.write_text(json.dumps(cells))
    out1, out2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    r1 = run_cli("sweep", "--config", str(config), "--format", "csv",
                 "--output", str(out1), "--jobs", "1")
    r2 = run_cli("sweep", "--config", str(config), "--format", "csv",
                 "--output", str(out2), "--jobs", "2")
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("cells, message", [
    ([{"p": 31, "psi": "x^2+x", "H": 3}], "config cell 0 has no 'T'"),
    ([{"p": 31, "psi": "x^2+x", "H": 3, "T": 5}, {"p": 31, "psi": "x^2+x", "H": "3", "T": 5}],
     "config cell 1: 'H' must be an integer"),
    ([5], "config cell 0 is not an object"),
    ([{"p": True, "psi": "x^2+x", "H": 3, "T": 5}], "config cell 0: 'p' must be an integer"),
    ([{"p": 31, "psi": 2, "H": 3, "T": 5}], "config cell 0: 'psi' must be a string"),
    ([{"p": 31, "psi": "x^2+x", "H": 3, "T": 5, "u": 1.5}], "config cell 0: 'u' must be an integer"),
])
def test_cli_sweep_refuses_a_malformed_cell(tmp_path, capsys, cells, message):
    config = tmp_path / "cells.json"
    config.write_text(json.dumps(cells))
    assert cmd_dispatch(["sweep", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("V, message", [
    ("3/0,4", "zero denominator in '3/0' (at offset 0)"),
    ("3, 4/0", "zero denominator in '4/0' (at offset 3)"),
])
def test_cli_lattice_find_refuses_a_zero_denominator(capsys, V, message):
    assert cmd_dispatch(["lattice-find", "-p", "11", "--b", "1,5", "--V", V]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_count_refuses_an_unexpected_character(capsys):
    argv = ["count", "--psi", "x^2+@", "-p", "31", "-T", "5", "--interval", "1..3"]
    assert cmd_dispatch(argv) == 1
    assert capsys.readouterr() == ("", "error: unexpected character '@' (at offset 4)\n")


def test_cli_lattice_find_worked_example():
    r = run_cli("lattice-find", "-p", "11", "--b", "1,5", "--V", "3,4", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    v = data["v"]
    assert all(int(x) <= bound for x, bound in zip(data["residues"].split(";"), (3, 4)))


def test_cli_lattice_find_output_is_pinned():
    # recorded from the rational LLL that recomputed Gram-Schmidt on every update
    r = run_cli("lattice-find", "-p", "100003", "--b", "1,31415,92653,58979", "--V", "5000,5000,5000,8001")
    assert r.returncode == 0
    assert r.stdout == "p = 100003\ns = 4\nv = 1197\nresidues = 1197;2627;2314;4255\n"


def test_cli_repeat_invocations_byte_identical():
    a = run_cli("lambda-scan", "--psi", "x^2+x", "-p", "11", "--format", "csv")
    b = run_cli("lambda-scan", "--psi", "x^2+x", "-p", "11", "--format", "csv")
    assert a.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("extra", [(), ("--max-ext", "2")])
def test_cli_lambda_scan_output_does_not_depend_on_seed(extra):
    args = ("lambda-scan", "--psi", "x^3+x", "-p", "31", *extra)
    a = run_cli(*args, "--seed", "0")
    b = run_cli(*args, "--seed", "12345")
    assert a.returncode == 0 and b.returncode == 0
    assert "lambdas = " in a.stdout
    assert a.stdout == b.stdout


def test_lambda_scan_survey_script_prints_every_row():
    # one row per p in (7, 11, 13) and degree pair (2,0), (3,0), (2,1), (4,0), (3,2)
    script = Path(__file__).resolve().parent.parent / "scripts" / "lambda_scan_survey.py"
    r = subprocess.run([sys.executable, str(script), "--samples", "1"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    header, *rows = r.stdout.splitlines()
    assert header.split()[:2] == ["p", "(d,e)"]
    assert len(rows) == 15


def test_startup_time_script_times_the_import_and_every_subcommand():
    script = Path(__file__).resolve().parent.parent / "scripts" / "startup_time.py"
    r = subprocess.run([sys.executable, str(script), "--samples", "1"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    header, *rows = r.stdout.splitlines()
    assert header.split()[:2] == ["median_ms", "command"]
    labels = [row.split(None, 1)[1] for row in rows]
    assert labels[0] == "import subgroup_values"
    assert [label.split()[0] for label in labels[1:]] == [
        "count", "lambda-scan", "lattice-find", "perfect-power", "exponents", "trace",
        "sweep", "kshort", "vinogradov", "points",
    ]
    assert all(float(row.split()[0]) > 0 for row in rows)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_output_file_gets_the_bytes_stdout_would_get(tmp_path, capsys, fmt):
    for argv in (
        ["count", "--psi", "(x^2+1)/(x+2)", "-p", "31", "-T", "5", "--interval", "4..20"],
        ["lambda-scan", "--psi", "x^3+x", "-p", "31"],
        ["lattice-find", "-p", "11", "--b", "1,5", "--V", "3,4"],
        ["perfect-power", "--psi", "3*x^16", "-p", "7", "-T", "3"],
        ["exponents", "-d", "2", "-e", "0"],
        ["trace", "--psi", "x^2+x", "-p", "31", "--H", "3", "-T", "5"],
        ["sweep", "--standard"],
        ["kshort", "--psi", "x^2", "-p", "17", "--H", "2"],
        ["vinogradov", "-d", "2", "-k", "2", "--H", "4"],
        ["points", "--poly", "x^2+y^2-25", "--H", "5"],
    ):
        argv += ["--format", fmt]
        assert cmd_dispatch(argv) == 0
        want = capsys.readouterr().out
        out = tmp_path / f"{argv[0]}.{fmt}"
        assert cmd_dispatch([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert want and out.read_bytes() == want.encode()


@pytest.mark.parametrize("argv, code", [
    (["count", "--psi", "x^2+x", "-p", "13", "-T", "4", "--interval", "1..3"], 0),
    (["count", "--psi", "x^2", "-p", "6", "-T", "2", "--interval", "1..3"], 1),
    (["count", "--psi", "x^2", "-p"], 2),
], ids=["ok", "refusal", "usage"])
def test_main_exits_with_the_dispatch_code_and_prints_its_bytes(monkeypatch, capsys, argv, code):
    assert cmd_dispatch(argv) == code
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["subgroup_values", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    assert capsys.readouterr() == want


# exp raises past the float range for the first two; for x^351+y at H = 304
# exp stays finite and the product with H^(1/n) rounds to inf
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("poly, H", [("x^1100+y", 20), ("x^263+y", 1000), ("x^351+y", 304)])
def test_points_reports_a_reference_beyond_the_float_range_as_absent(capsys, poly, H, fmt):
    assert cmd_dispatch(["points", "--poly", poly, "--H", str(H), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        assert json.loads(out)["reference"] is None
    else:
        assert out.endswith("reference = \n")
