import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lendgame.cli import Scenario, load_scenario, main, parse_scenario
from lendgame import DynamicsConfig, LendingGame


TWO_LENDER = {
    "lenders": [1.0, 10.0],
    "borrowers": [6.0],
    "rate_min": 0.02,
    "rate_max": 0.08,
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(*args):
    """The CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "lendgame.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_scenario_round_trip():
    scenario = parse_scenario({**TWO_LENDER, "initial_profile": [[0.5], [1.0]],
                               "dynamics": {"alpha": 0.5}, "description": "demo"})
    again = parse_scenario(scenario.to_dict())
    assert np.array_equal(again.game.budgets, scenario.game.budgets)
    assert np.array_equal(again.initial_profile, scenario.initial_profile)
    assert again.dynamics == {"alpha": 0.5}
    assert again.description == "demo"


def test_solve_report(tmp_path, capsys):
    path = write_scenario(tmp_path, TWO_LENDER)
    out = tmp_path / "report.txt"
    assert main(["solve", path, "--output", str(out)]) == 0
    text = out.read_text()
    assert "market_rate 0.044999999999999" in text
    assert "kkt_passed true" in text
    assert "threshold_index 1" in text


def test_solve_monopoly_stdout(tmp_path, capsys):
    path = write_scenario(tmp_path, {"lenders": [100.0], "borrowers": [10.0],
                                     "rate_min": 0.02, "rate_max": 0.08})
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "market_rate 0.050000000000000" in out
    assert "  5\n" in out or " 5\n" in out


def test_solve_invalid_corridor(tmp_path, capsys):
    path = write_scenario(tmp_path, {**TWO_LENDER, "rate_min": 0.09})
    assert main(["solve", path]) == 2
    assert "corridor" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/scenario.json"]) == 3


def test_dynamics_converges(tmp_path, capsys):
    path = write_scenario(tmp_path, TWO_LENDER)
    out = tmp_path / "traj.csv"
    code = main(["dynamics", path, "--variant", "eager", "--alpha", "1.0",
                 "--stop-gap", "1e-8", "--output", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "step,time,lender_updated,potential,lyapunov_gap"
    assert (tmp_path / "traj.csv.profiles.csv").exists()


def test_dynamics_seeded_runs_byte_identical(tmp_path, capsys):
    path = write_scenario(tmp_path, {"lenders": [3.0, 4.0, 5.0], "borrowers": [6.0, 7.0],
                                     "rate_min": 0.02, "rate_max": 0.08})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["dynamics", path, "--variant", "randomised", "--seed", "42",
            "--stop-gap", "1e-10"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dynamics_iteration_cap_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, TWO_LENDER)
    code = main(["dynamics", path, "--variant", "eager", "--alpha", "0.01",
                 "--max-iters", "3", "--output", str(tmp_path / "t.csv")])
    assert code == 4


def test_dynamics_bad_alpha(tmp_path, capsys):
    path = write_scenario(tmp_path, TWO_LENDER)
    code = main(["dynamics", path, "--alpha", "1.5", "--output", str(tmp_path / "t.csv")])
    assert code == 2


def test_dynamics_pg_step_above_bound(tmp_path, capsys):
    path = write_scenario(tmp_path, TWO_LENDER)
    code = main(["dynamics", path, "--variant", "pseudo-gradient", "--pg-step", "100.0",
                 "--output", str(tmp_path / "t.csv")])
    assert code == 2
    assert "stability bound" in capsys.readouterr().err


@pytest.mark.parametrize("dynamics, field", [
    ({"alhpa": 0.5}, "alhpa"),
    ({"max_iters": 10.5}, "max_iters"),
    ({"max_iters": True}, "max_iters"),
    ({"alpha": "x"}, "alpha"),
    ({"seed": -1}, "seed"),
    ({"horizon": float("inf")}, "horizon"),
    ({"pg_weights": [float("nan"), 1.0]}, "pg_weights"),
    ({"pg_weights": [float("inf"), 1.0]}, "pg_weights"),
    ({"pg_weights": ["x", 1.0]}, "pg_weights"),
    ({"lender_weights": [float("nan"), 0.5]}, "lender_weights"),
], ids=["unknown_key", "float_max_iters", "bool_max_iters", "string_alpha",
        "negative_seed", "infinite_horizon", "nan_pg_weights", "infinite_pg_weights",
        "string_pg_weights", "nan_lender_weights"])
def test_dynamics_bad_config_exits_2(tmp_path, dynamics, field):
    path = write_scenario(tmp_path, {**TWO_LENDER, "dynamics": dynamics})
    proc = run_cli("dynamics", path, "--output", str(tmp_path / "t.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid dynamics configuration" in proc.stderr and field in proc.stderr


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"lenders": [1.0, float("inf")]}),
    ("solve", {"borrowers": [float("inf")]}),
    ("solve", {"rate_max": float("inf")}),
    ("dynamics", {"initial_profile": [[float("nan")], [0.0]]}),
], ids=["infinite_budget", "infinite_demand", "infinite_rate_max", "nan_initial_profile"])
def test_non_finite_scenario_exits_2(tmp_path, command, overrides):
    path = write_scenario(tmp_path, {**TWO_LENDER, **overrides})
    proc = run_cli(command, path, "--output", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "malformed scenario" in proc.stderr and "finite" in proc.stderr


def test_dynamics_resolves_config_once(tmp_path, monkeypatch, capsys):
    calls = []
    resolved = DynamicsConfig.resolved

    def counting(self, game):
        calls.append(self)
        return resolved(self, game)

    monkeypatch.setattr(DynamicsConfig, "resolved", counting)
    path = write_scenario(tmp_path, TWO_LENDER)
    assert main(["dynamics", path, "--output", str(tmp_path / "t.csv")]) == 0
    assert len(calls) == 1


def test_verify_random_passes(capsys):
    assert main(["verify", "--random", "5", "--max-m", "5", "--max-n", "5",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_random_zero_is_vacuous(capsys):
    assert main(["verify", "--random", "0"]) == 0


def test_verify_perturbed_equilibrium_fails(tmp_path, capsys):
    game = LendingGame(np.array(TWO_LENDER["lenders"]), np.array(TWO_LENDER["borrowers"]), 0.02, 0.08)
    from lendgame import solve_equilibrium
    star = solve_equilibrium(game).profile
    star[1, 0] += 0.5  # hand perturbation breaks the Nash property
    path = write_scenario(tmp_path, {**TWO_LENDER, "initial_profile": [list(r) for r in star]})
    assert main(["verify", path]) == 5
    assert "nash_check" in capsys.readouterr().err


def test_bench_runs(capsys):
    assert main(["bench", "--m", "50", "--n", "50", "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    assert "mean_seconds" in out


def test_bench_invalid_sizes(capsys):
    assert main(["bench", "--m", "0", "--n", "5"]) == 2


def test_default_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LENDGAME_OUTPUT_DIR", str(tmp_path))
    path = write_scenario(tmp_path, TWO_LENDER)
    assert main(["dynamics", path, "--variant", "eager"]) == 0
    assert (tmp_path / "trajectory.csv").exists()
