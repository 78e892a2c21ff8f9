"""Refusals a user can reach from the command line, run in-process through
cli.cmd_dispatch: each exits with code 1 and prints `error: <message>` on
stderr and nothing on stdout."""

import json

import pytest

from subgroup_values.cli import cmd_dispatch

COUNT = ["count", "--psi", "x", "-p", "7", "-T", "3"]


@pytest.mark.parametrize("argv, message", [
    ([*COUNT, "--interval", "5"], "interval must look like a..b (at offset 0)"),
    ([*COUNT, "--interval", "a..3"], "interval endpoints must be integers (at offset 0)"),
    ([*COUNT, "--interval", "5..3"], "interval end precedes its start (at offset 0)"),
    (["sweep"], "pass exactly one of --standard or --config"),
    (["sweep", "--standard", "--config", "cells.json"],
     "pass exactly one of --standard or --config"),
    (["kshort", "--psi", "x^2+x", "-p", "7", "--H", "0"], "H must be >= 1"),
    (["kshort", "--psi", "x^2+x", "-p", "7", "--H", "7"], "H must be < p"),
    (["vinogradov", "-d", "0", "-k", "1", "--H", "1"], "d, k, H must all be >= 1"),
    (["points", "--poly", "0", "--H", "1"], "F must be nonzero"),
    (["points", "--poly", "x-y", "--H", "-1"], "H must be in 0..10^6"),
])
def test_cli_refuses_with_its_message(capsys, argv, message):
    assert cmd_dispatch(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_sweep_refuses_a_config_that_is_not_a_list(tmp_path, capsys):
    config = tmp_path / "cells.json"
    config.write_text(json.dumps({"p": 7}))
    assert cmd_dispatch(["sweep", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", "error: config must be a JSON list of cells\n")


def test_cli_count_at_p_2(capsys):
    # T = 1 at p = 2 takes smallest_primitive_root's p = 2 branch
    assert cmd_dispatch(["count", "--psi", "x", "-p", "2", "-T", "1", "--interval", "1..1"]) == 0
    assert capsys.readouterr() == ("N = 1\n", "")
