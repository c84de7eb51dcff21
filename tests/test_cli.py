import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lendgame import game as gm
from lendgame.cli import load_scenario, main, parse_scenario
from lendgame.oracle import random_game
from lendgame.verify import gradient_ball_radius, verify
from lendgame import DynamicsConfig, LendingGame, potential_gradient


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


def run_cli_closed_stdout(*args, cwd=None):
    """The CLI in a fresh interpreter whose stdout is a pipe with its read
    end already closed, as in `lendgame ... | head -0`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "lendgame.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=cwd, timeout=120)
    finally:
        os.close(write_end)


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


def test_dynamics_snapshot_every_flag(tmp_path, capsys):
    path = write_scenario(tmp_path, TWO_LENDER)
    out = tmp_path / "traj.csv"
    assert main(["dynamics", path, "--variant", "continuous", "--max-iters", "10",
                 "--snapshot-every", "3", "--output", str(out)]) == 4
    rows = (tmp_path / "traj.csv.profiles.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "3", "6", "9"]


def test_dynamics_snapshot_file_within_32_times_the_trajectory(tmp_path, capsys):
    # CI's 50 x 90 smoke game.  By default a snapshot of its 4,500 floats is
    # written every ceil(4,500 / 50) = 90 steps, about 50 floats per step
    # against the trajectory's 5; at 17 digits that is about 20 times the
    # trajectory's bytes.  A snapshot every 10 steps would make it 175 times
    # (8.9 MB).
    r = np.random.default_rng(20)
    path = write_scenario(tmp_path, {"lenders": r.uniform(0.5, 100.0, 50).tolist(),
                                     "borrowers": r.uniform(0.5, 100.0, 90).tolist(),
                                     "rate_min": 0.02, "rate_max": 0.08})
    out = tmp_path / "traj.csv"
    assert main(["dynamics", path, "--variant", "pseudo-gradient", "--max-iters", "1000",
                 "--output", str(out)]) == 4
    snapshot_bytes = (tmp_path / "traj.csv.profiles.csv").stat().st_size
    assert snapshot_bytes <= 32 * out.stat().st_size


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


@pytest.mark.parametrize("ode_step", ["1e200", "10"])
def test_dynamics_ode_step_above_rk4_bound_exits_2(tmp_path, capsys, ode_step):
    # 1e200 overflowed RK4's stages to a NaN gap (exit 4); 10 left the gap
    # where it started.  The bound for m = 2 is 5.5706 / 3.
    path = write_scenario(tmp_path, {**TWO_LENDER, "borrowers": [6.0, 3.0]})
    code = main(["dynamics", path, "--variant", "continuous", "--ode-step", ode_step,
                 "--horizon", "1e308", "--max-iters", "5", "--output", str(tmp_path / "t.csv")])
    assert code == 2
    assert "ode_step" in capsys.readouterr().err


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
    ({"variant": "pseudo_gradient", "pg_weights": [True, 1.0]}, "pg_weights"),
    ({"lender_weights": [float("nan"), 0.5]}, "lender_weights"),
    ({"variant": "randomised", "lender_weights": [0.500005, 0.5]}, "lender_weights"),
    ({"max_iters": -5}, "max_iters"),
    ({"max_iters": 0}, "max_iters"),
    ({"horizon": -1.0}, "horizon"),
    ({"horizon": 0.0}, "horizon"),
    ({"snapshot_every": 0}, "snapshot_every"),
], ids=["unknown_key", "float_max_iters", "bool_max_iters", "string_alpha",
        "negative_seed", "infinite_horizon", "nan_pg_weights", "infinite_pg_weights",
        "string_pg_weights", "bool_pg_weights", "nan_lender_weights",
        "lender_weights_off_by_5e-6",
        "negative_max_iters", "zero_max_iters", "negative_horizon", "zero_horizon",
        "zero_snapshot_every"])
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


@pytest.mark.parametrize("overrides, key", [
    ({"rate_min": None}, "rate_min"),
    ({"rate_min": [0.02]}, "rate_min"),
    ({"lenders": {"a": 1}}, "lenders"),
    ({"initial_profile": {"a": 1}}, "initial_profile"),
    ({"lenders": [True, 10.0]}, "lenders"),
    ({"borrowers": [False]}, "borrowers"),
    ({"rate_min": True}, "rate_min"),
    ({"rate_max": True}, "rate_max"),
    ({"initial_profile": [[0.0], [True]]}, "initial_profile"),
], ids=["null_rate_min", "list_rate_min", "object_lenders", "object_initial_profile",
        "bool_lenders", "bool_borrowers", "bool_rate_min", "bool_rate_max",
        "bool_initial_profile"])
def test_mistyped_scenario_value_exits_2(tmp_path, overrides, key):
    path = write_scenario(tmp_path, {**TWO_LENDER, **overrides})
    proc = run_cli("solve", path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "malformed scenario" in proc.stderr and repr(key) in proc.stderr


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"rate_max": 10**400}),
    ("dynamics", {"dynamics": {"horizon": 10**400}}),
    ("dynamics", {"dynamics": {"pg_weights": [10**400, 1]}}),
], ids=["rate_max", "horizon", "pg_weights"])
def test_integer_beyond_float_range_exits_2(tmp_path, command, overrides):
    path = write_scenario(tmp_path, {**TWO_LENDER, **overrides})
    proc = run_cli(command, path, "--output", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "malformed scenario" in proc.stderr and "float range" in proc.stderr


@pytest.mark.parametrize("command", ["solve", "dynamics", "verify"])
@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"lenders": ' + "[" * 5_000 + "]" * 5_000 + "}",
], ids=["bare_brackets", "nested_lenders"])
def test_deeply_nested_json_exits_2(tmp_path, command, text):
    # json raises RecursionError, not a ValueError, past the recursion limit.
    path = tmp_path / "deep.json"
    path.write_text(text)
    extra = ["--output", str(tmp_path / "t.csv")] if command == "dynamics" else []
    proc = run_cli(command, str(path), *extra)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: malformed scenario: ") and "recursion" in proc.stderr


def _amounts(v):
    return {"lenders": [v, v], "borrowers": [v, v], "rate_min": 0.02, "rate_max": 0.08}


FOUR_AMOUNTS = {"lenders": [1, 10], "borrowers": [6, 3], "rate_min": 0.02}


@pytest.mark.parametrize("command", ["solve", "dynamics", "verify"])
@pytest.mark.parametrize("scenario, code, key", [
    (_amounts(1e155), 2, "lenders"),
    (_amounts(1e200), 2, "lenders"),
    (_amounts(1e308), 2, "lenders"),
    (_amounts(1e-200), 2, "lenders"),
    (_amounts(1e-300), 2, "lenders"),
    (_amounts(5e-324), 2, "lenders"),
    ({**FOUR_AMOUNTS, "rate_max": 1e308}, 2, "rate_max"),
    ({**FOUR_AMOUNTS, "rate_max": 1e300}, 2, "rate_max"),
    ({**FOUR_AMOUNTS, "lenders": [1e100, 2e100], "borrowers": [1e-150, 3e-150], "rate_max": 0.08},
     2, "borrowers"),
    (_amounts(1e100), 0, None),
    (_amounts(1e-100), 0, None),
], ids=["amounts_1e155", "amounts_1e200", "amounts_1e308", "amounts_1e-200", "amounts_1e-300",
        "amounts_5e-324", "rate_max_1e308", "rate_max_1e300", "budgets_1e250_times_demands",
        "amounts_1e100", "amounts_1e-100"])
def test_magnitudes_the_floats_cannot_carry_exit_2(tmp_path, capsys, command, scenario, code, key):
    # Past the float range the code overflows or divides by zero; a game
    # inside it runs to exit 0 on all three commands.
    path = write_scenario(tmp_path, scenario)
    argv = [command, path] + (["--output", str(tmp_path / "t.csv")] if command == "dynamics" else [])
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "malformed scenario" in captured.err and repr(key) in captured.err
        assert "float range" in captured.err
    else:
        assert "nan" not in captured.out and "FAIL" not in captured.out


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("dynamics, field", [
    ({"variant": 3}, "variant"),
    ({"alpha": "0.5"}, "alpha"),
    ({"alhpa": 1}, "alhpa"),
], ids=["integer_variant", "string_alpha", "unknown_key"])
def test_dynamics_block_checked_on_every_command_exits_2(tmp_path, capsys, command, dynamics, field):
    path = write_scenario(tmp_path, {**TWO_LENDER, "dynamics": dynamics})
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert "invalid dynamics configuration" in err and field in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--random", "-1"], "--random"),
    (["verify", "--random", "2", "--max-m", "0"], "--max-m"),
    (["verify", "--random", "2", "--max-n", "0"], "--max-n"),
    (["verify", "--random", "2", "--seed", "-1"], "--seed"),
    (["verify", "SCENARIO", "--seed", "-1"], "--seed"),
    (["dynamics", "SCENARIO", "--max-iters", "-5"], "max_iters"),
    (["dynamics", "SCENARIO", "--horizon", "-1"], "horizon"),
    (["dynamics", "SCENARIO", "--variant", "continuous", "--horizon", "0.004"], "horizon"),
    (["dynamics", "SCENARIO", "--snapshot-every", "0"], "snapshot_every"),
], ids=["verify_negative_random", "verify_zero_max_m", "verify_zero_max_n",
        "verify_random_negative_seed", "verify_scenario_negative_seed",
        "dynamics_negative_max_iters", "dynamics_negative_horizon",
        "dynamics_continuous_horizon_below_half_a_step", "dynamics_zero_snapshot_every"])
def test_bad_flag_exits_2(tmp_path, argv, flag):
    path = write_scenario(tmp_path, TWO_LENDER)
    argv = [path if arg == "SCENARIO" else arg for arg in argv]
    if argv[0] == "dynamics":
        argv += ["--output", str(tmp_path / "t.csv")]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert flag in proc.stderr
    assert not (tmp_path / "t.csv").exists()


def test_dynamics_flags_are_the_scalar_rows_of_fields(capsys):
    # Each scalar row of FIELDS is one flag that parses to the row's kind,
    # and --variant takes the row's choices spelt with hyphens.  The array
    # rows have no flag, and --output is the only other option.
    from lendgame import cli
    from lendgame.dynamics import FIELDS, VARIANTS
    parser = cli.build_parser()
    scalar = {name: rule.kind for name, rule in FIELDS.items() if not rule.ndim}
    argv = ["dynamics", "s.json"]
    for name, kind in scalar.items():
        argv += ["--" + name.replace("_", "-"), "continuous" if kind is VARIANTS else "1"]
    args = vars(parser.parse_args(argv))
    assert set(args) - {"command", "scenario", "output", "func"} == set(scalar)
    for name, kind in scalar.items():
        assert (args[name] == "continuous" if kind is VARIANTS
                else type(args[name]) is kind and args[name] == 1)
    for variant in VARIANTS:
        flag = variant.replace("_", "-")
        assert parser.parse_args(["dynamics", "s.json", "--variant", flag]).variant == flag
    with pytest.raises(SystemExit):
        parser.parse_args(["dynamics", "s.json", "--variant", "pseudo_gradient"])
    assert "--variant" in capsys.readouterr().err


def test_main_builds_parser_once(tmp_path, monkeypatch, capsys):
    # Repeated calls in one process, bad flags among them, exit and print as
    # a fresh process does, and the parser is built on the first call only.
    from lendgame import cli
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    path = write_scenario(tmp_path, TWO_LENDER)
    traj = str(tmp_path / "t.csv")
    argvs = [["solve", path],
             ["dynamics", path, "--variant", "randomised", "--seed", "3", "--output", traj],
             ["dynamics", path, "--alpha", "x", "--output", traj],
             ["verify", "--random", "2", "--max-m", "3", "--max-n", "3", "--seed", "5"],
             ["verify", "--random", "-1"],
             ["solve", path, "--no-such-flag"]]
    fresh = [run_cli(*argv) for argv in argvs]
    assert [proc.returncode for proc in fresh] == [0, 0, 2, 0, 2, 2]
    for _ in range(2):
        for argv, proc in zip(argvs, fresh):
            assert main(argv) == proc.returncode
            assert capsys.readouterr().out == proc.stdout
    assert len(builds) == 1


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


def test_verify_random_spawns_one_seed_per_instance(monkeypatch, capsys):
    # K instances hold one child seed at a time, not K built up front; the
    # children, and so the table, are those of one spawn(K).
    children = np.random.SeedSequence(11).spawn(3)
    rngs = [np.random.Generator(np.random.Philox(child)) for child in children]
    table, failure = verify(((random_game(rng, 4, 4), rng, None) for rng in rngs), indexed=True)
    assert failure is None
    spawned = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(super().spawn(n_children))
            return spawned[-1]

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    assert main(["verify", "--random", "3", "--max-m", "4", "--max-n", "4", "--seed", "11"]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in table)
    assert [len(batch) for batch in spawned] == [1, 1, 1]
    assert [batch[0].spawn_key for batch in spawned] == [child.spawn_key for child in children]


@pytest.mark.parametrize("extra, rows, reals", [
    ({}, 4 + 2, 4),
    ({"initial_profile": [[0.5], [1.0]], "dynamics": {"variant": "eager", "alpha": 0.5}}, 4 + 2 + 2, 4 + 1 + 1),
], ids=["game_only", "profile_and_dynamics"])
def test_parse_scenario_checks_each_value_once(monkeypatch, extra, rows, reals):
    # LendingGame checks the game's four values, SCENARIO the two keys a
    # scenario adds, and the dynamics block only the fields it gives; the
    # defaults are the program's own (test_dynamics checks them).  Counted:
    # the rows game.check is given and the calls of game.real.
    counts = {"rows": 0, "real": 0}
    check, real = gm.check, gm.real

    def counting_check(rules, data, *args):
        counts["rows"] += len(rules)
        return check(rules, data, *args)

    def counting_real(*args):
        counts["real"] += 1
        return real(*args)

    monkeypatch.setattr(gm, "check", counting_check)
    monkeypatch.setattr(gm, "real", counting_real)
    parse_scenario({**TWO_LENDER, **extra})
    assert counts == {"rows": rows, "real": reals}


@pytest.mark.parametrize("command", ["solve", "dynamics", "verify"])
@pytest.mark.parametrize("key", ["lenders", "borrowers", "rate_min", "rate_max"])
@pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
def test_game_key_absent_or_null_exits_2(tmp_path, capsys, command, key, absent):
    # An absent key reads as null, and LendingGame's row names it.
    scenario = {k: v for k, v in TWO_LENDER.items() if k != key} if absent else {**TWO_LENDER, key: None}
    path = write_scenario(tmp_path, scenario)
    argv = [command, path] + (["--output", str(tmp_path / "t.csv")] if command == "dynamics" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed scenario: {key!r} must be ") and err.endswith(", got None\n")
    assert "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_gradient_ball_radius_exact_counterexample():
    # m = 2, n = 1, s = 0, v = 1: vdot = 2 span.  Moving both entries up by
    # r / 2 lowers v . grad Phi by 3 span r / d, the most an l1 step of r can.
    game = LendingGame([1.0, 1.0], [1.0], 0.02, 0.08)
    s, v = np.zeros((2, 1)), np.ones((2, 1))
    vdot = float((v * potential_gradient(game, s)).sum())
    a = game.gradient_variation_bound()

    def vdot_at(r):
        return float((v * potential_gradient(game, s + r / 2.0)).sum())

    old_radius = vdot / (2.0 * a)
    assert vdot_at(0.9 * old_radius) < 0.5 * vdot          # inside the old ball, the claim is false
    radius = gradient_ball_radius(game, v, vdot, a)
    assert radius == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert vdot_at(radius) >= 0.5 * vdot - 1e-12 * game.rate_span  # tight, and it holds


def test_verify_perturbed_equilibrium_fails(tmp_path, capsys):
    game = LendingGame(np.array(TWO_LENDER["lenders"]), np.array(TWO_LENDER["borrowers"]), 0.02, 0.08)
    from lendgame import solve_equilibrium
    star = solve_equilibrium(game).profile
    star[1, 0] += 0.5  # hand perturbation breaks the Nash property
    path = write_scenario(tmp_path, {**TWO_LENDER, "initial_profile": [list(r) for r in star]})
    assert main(["verify", path]) == 5
    assert "nash_check" in capsys.readouterr().err


def test_default_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LENDGAME_OUTPUT_DIR", str(tmp_path))
    path = write_scenario(tmp_path, TWO_LENDER)
    assert main(["dynamics", path, "--variant", "eager"]) == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_bank_scale_solve_exits_0(tmp_path):
    # Exhausted rows c_i d_j / sum(d) round to a row sum above c_i by about
    # 1e-16 relative; an absolute budget slack rejected them.
    rng = np.random.default_rng(2)
    path = write_scenario(tmp_path, {"lenders": rng.uniform(0.5e10, 1e12, 6).tolist(),
                                     "borrowers": rng.uniform(0.5e10, 1e12, 5).tolist(),
                                     "rate_min": 0.01, "rate_max": 0.05})
    proc = run_cli("solve", path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "kkt_passed true" in proc.stdout


def test_bank_scale_verify_exits_0(tmp_path):
    path = write_scenario(tmp_path, {"lenders": [1e9, 3e9, 5e10], "borrowers": [2e9, 7e9],
                                     "rate_min": 0.02, "rate_max": 0.08})
    proc = run_cli("verify", path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ["solve", "{scenario}"],
    ["solve", "{big}"],
    ["solve", "{scenario}", "--output", "report.txt"],
    ["dynamics", "{scenario}", "--output", "t.csv"],
    ["verify", "{scenario}"],
    ["verify", "--random", "50"],
], ids=["solve", "solve-large-report", "solve-output", "dynamics", "verify", "verify-random"])
def test_closed_stdout_exits_3_without_traceback(tmp_path, argv):
    # A closed stdout used to end in a BrokenPipeError traceback (exit 1),
    # raised in print or in the interpreter's last flush ("Exception
    # ignored"); `solve --output` called it a failure to write the report.
    # The big report fills stdout's buffer, so its write fails mid-report.
    rng = np.random.default_rng(5)
    names = {"scenario": write_scenario(tmp_path, TWO_LENDER),
             "big": write_scenario(tmp_path, {"lenders": rng.uniform(1, 9, 40).tolist(),
                                              "borrowers": rng.uniform(1, 9, 40).tolist(),
                                              "rate_min": 0.02, "rate_max": 0.08}, "big.json")}
    proc = run_cli_closed_stdout(*(a.format(**names) for a in argv), cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"
    if "--output" in argv:
        assert (tmp_path / argv[-1]).stat().st_size > 0
