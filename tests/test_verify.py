"""The verify suite's table and failure message, through `cli.main`."""

import json

from lendgame import verify
from lendgame.cli import main

TWO_LENDER = {"lenders": [1.0, 10.0], "borrowers": [6.0], "rate_min": 0.02, "rate_max": 0.08}


def test_failure_quotes_the_failing_row(tmp_path, capsys):
    # The equilibrium's own nash_check row passes with gain 0; the message
    # quotes the candidate's row, the one that failed.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**TWO_LENDER, "initial_profile": [[1.0], [3.0]]}))
    assert main(["verify", str(path)]) == 5
    captured = capsys.readouterr()
    assert "FAIL  nash_check  1/2" in captured.out.splitlines()
    assert captured.err == "error: property nash_check failed (gain 0.0025)\n"


def test_random_failure_names_its_instance(monkeypatch, capsys):
    checks = verify.check_instance
    calls = []

    def third_fails(game, rng):
        rows = checks(game, rng)
        calls.append(game)
        if len(calls) == 3:
            name, _, _ = rows[4]
            rows[4] = (name, False, "injected")
        return rows

    monkeypatch.setattr(verify, "check_instance", third_fails)
    assert main(["verify", "--random", "5", "--max-m", "3", "--max-n", "3", "--seed", "1"]) == 5
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(calls) == 5 and len(lines) == 14
    assert lines[4] == "FAIL  gradient_variation  4/5"
    assert all(line.startswith("PASS") and line.endswith("  5/5") for line in lines[:4] + lines[5:])
    assert captured.err == "error: property gradient_variation[2] failed (injected)\n"
