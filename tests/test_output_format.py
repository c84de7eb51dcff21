"""Byte identity of the chunked float writers with the per-entry writers
they replaced, kept here as references."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lendgame import DynamicsConfig, LendingGame, run, solve_equilibrium
from lendgame import cli
from lendgame import equilibrium as eq
from lendgame.dynamics import Trajectory


def fmt(x):
    return f"{float(x):.17g}"


def reference_write_equilibrium_report(scenario, out):
    game = scenario.game
    result = eq.solve_equilibrium(game)
    report = eq.certify(game, result)
    out.write(f"m {game.m}\nn {game.n}\n")
    out.write(f"threshold_index {result.threshold_index}\n")
    out.write("exhausted_set " + " ".join(str(i) for i in result.exhausted_set) + "\n")
    out.write(f"market_rate {fmt(result.market_rate)}\n")
    out.write("multipliers_budget " + " ".join(fmt(v) for v in result.multipliers_budget) + "\n")
    out.write("equilibrium_profile\n")
    for row in result.profile:
        out.write("  " + " ".join(fmt(v) for v in row) + "\n")
    out.write(f"kkt_primal_residual {fmt(report.primal_residual)}\n")
    out.write(f"kkt_stationarity_residual {fmt(report.stationarity_residual)}\n")
    out.write(f"kkt_dual_residual {fmt(report.dual_residual)}\n")
    out.write(f"kkt_slackness_residual {fmt(report.slackness_residual)}\n")
    out.write(f"kkt_passed {str(report.passed).lower()}\n")
    return result


def reference_export_trajectory(traj, path):
    with open(path, "w") as fh:
        fh.write("step,time,lender_updated,potential,lyapunov_gap\n")
        for k in range(traj.steps.size):
            fh.write(
                f"{traj.steps[k]},{fmt(traj.times[k])},{traj.lenders[k]},"
                f"{fmt(traj.potentials[k])},{fmt(traj.lyapunov_gaps[k])}\n"
            )
    with open(path + ".profiles.csv", "w") as fh:
        if traj.snapshots:
            m, n = traj.snapshots[0][1].shape
            header = ["step"] + [f"s_{i}_{j}" for i in range(m) for j in range(n)]
            fh.write(",".join(header) + "\n")
            for step, profile in traj.snapshots:
                fh.write(str(step) + "," + ",".join(fmt(v) for v in profile.ravel()) + "\n")


def rowwise_export_trajectory(traj, path):
    """The writer before trajectory rows were formatted by chunk: one `%`
    per trajectory row, and snapshot rows by one join per row."""
    with open(path, "w") as fh:
        fh.write("step,time,lender_updated,potential,lyapunov_gap\n")
        columns = (traj.steps, traj.times, traj.lenders, traj.potentials, traj.lyapunov_gaps)
        for row in zip(*(column.tolist() for column in columns)):
            fh.write("%d,%.17g,%d,%.17g,%.17g\n" % row)
    with open(path + ".profiles.csv", "w") as fh:
        if traj.snapshots:
            m, n = traj.snapshots[0][1].shape
            header = ["step"] + [f"s_{i}_{j}" for i in range(m) for j in range(n)]
            fh.write(",".join(header) + "\n")
            for step, profile in traj.snapshots:
                fh.write(f"{step}," + ",".join(fmt(v) for v in profile.ravel()) + "\n")


def assert_same_text(new, ref):
    # Line by line: on a failure pytest shows the first line that differs,
    # where a diff of the whole text would take minutes.
    for new_line, ref_line in zip(new.splitlines(), ref.splitlines()):
        assert new_line == ref_line
    assert new == ref


def assert_same_report(game):
    """Both writers give the same report for a game; returns its text."""
    scenario = cli.Scenario(game=game, initial_profile=None, dynamics=DynamicsConfig())
    new, ref = io.StringIO(), io.StringIO()
    cli.write_equilibrium_report(scenario, new)
    reference_write_equilibrium_report(scenario, ref)
    assert_same_text(new.getvalue(), ref.getvalue())
    return new.getvalue()


CHUNK = cli._CHUNK
SPECIALS = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-9, 1e12, 123456789.123456789, float("inf"),
            -float("inf"), float("nan")]


@pytest.mark.parametrize("size", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK,
                                  3 * CHUNK + 7])
@pytest.mark.parametrize("sep", [" "])
def test_join_floats_matches_per_entry_join(size, sep):
    rng = np.random.default_rng(size)
    values = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    values[::3] = rng.choice(SPECIALS, values[::3].size)
    assert cli._join_floats(values) == sep.join(fmt(v) for v in values)


@pytest.mark.parametrize("budgets, demands, mbar", [
    ([100.0, 200.0, 300.0], [1.0, 2.0], 0),
    ([1.0, 10.0], [6.0], 1),
    ([1.0, 2.0, 3.0], [100.0, 50.0], 3),
    ([7.0], [3.0], 0),
    ([1.0], [30.0], 1),
], ids=["none_exhausted", "some_exhausted", "all_exhausted", "m1_n1_free", "m1_n1_exhausted"])
def test_report_matches_reference_by_exhausted_count(budgets, demands, mbar):
    game = LendingGame(budgets, demands, 0.02, 0.08)
    assert solve_equilibrium(game).threshold_index == mbar
    assert_same_report(game)


@pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 5])
def test_report_matches_reference_across_chunk_sizes(n):
    # Total demand three quarters of total budget, as in solve-large.
    budgets = np.linspace(1.0, 100.0, 9)
    demands = np.random.default_rng(n).uniform(0.5, 100.0, n)
    game = LendingGame(budgets, demands * 0.75 * budgets.sum() / demands.sum(), 0.02, 0.08)
    assert 0 < solve_equilibrium(game).threshold_index < game.m
    assert_same_report(game)


def test_report_matches_reference_on_budget_ties():
    # Lender 0's budget equals the common amount (a quarter of the total
    # demand, exactly): its exhausted row equals the free rows, and its
    # multiplier is (rate_min - rate_max) * 0.0 = -0.0.
    game = LendingGame([1.0, 5.0, 3.0], [1.0, 3.0], 0.02, 0.08)
    result = solve_equilibrium(game)
    assert result.threshold_index == 1
    assert np.array_equal(result.profile[0], result.profile[1])
    text = assert_same_report(game)
    assert "multipliers_budget -0 0 0\n" in text
    game = LendingGame([4.0, 4.0, 4.0, 1.0, 1.0], [3.0, 5.0, 7.0], 0.01, 0.05)
    assert_same_report(game)


def test_report_writes_signed_zeros_of_free_rows(monkeypatch):
    # A free lender's row that differs from the common row only in the sign
    # of a zero must be written from its own bits.
    game = LendingGame([100.0, 200.0, 300.0], [1.0, 2.0], 0.02, 0.08)
    solved = eq.solve_equilibrium(game)
    profile = solved.profile.copy()
    profile[:, 0] = 0.0
    profile[1, 0] = -0.0
    crafted = dataclasses.replace(solved, profile=profile)
    monkeypatch.setattr(eq, "solve_equilibrium", lambda g: crafted)
    text = assert_same_report(game)
    assert "\n  -0 " in text and "\n  0 " in text


ENTRIES = cli._ENTRIES


def game_with_exhausted(exhausted, n, seed):
    """A game whose exhausted set is exactly the lenders where `exhausted`
    is True: their budgets lie in [1, 2), the others' are 1e6, and total
    demand is 100 (m + 1), so the share never falls below 100."""
    rng = np.random.default_rng(seed)
    m = exhausted.size
    budgets = np.where(exhausted, rng.uniform(1.0, 2.0, m), 1e6)
    demands = rng.uniform(0.5, 100.0, n)
    game = LendingGame(budgets, demands * 100.0 * (m + 1) / demands.sum(), 0.02, 0.08)
    assert np.array_equal(solve_equilibrium(game).exhausted_set, np.flatnonzero(exhausted))
    return game


@pytest.mark.parametrize("n", [1, 2, ENTRIES // 7, ENTRIES - 1, ENTRIES, ENTRIES + 1])
@pytest.mark.parametrize("pattern", ["first_exhausted_last_free", "first_free_last_exhausted",
                                     "all_exhausted", "none_exhausted", "signed_zero_late"])
def test_report_row_blocks_match_reference(monkeypatch, n, pattern):
    # Fresh rows (not the common row) are formatted _ENTRIES // n at a time,
    # with the runs of common lines between them written in between: scatter
    # the exhausted lenders so that blocks and runs start and end anywhere.
    m = 60
    exhausted = np.random.default_rng(n).random(m) < 0.5
    if pattern == "first_exhausted_last_free":
        exhausted[0], exhausted[-1] = True, False
    elif pattern in ("first_free_last_exhausted", "signed_zero_late"):
        exhausted[0], exhausted[-1] = False, True
    else:
        exhausted[:] = pattern == "all_exhausted"
    game = game_with_exhausted(exhausted, n, seed=n)
    if pattern == "signed_zero_late":
        # A free row late in the report that differs from the common row
        # only in the sign of a zero is a fresh row of a later block.
        solved = eq.solve_equilibrium(game)
        profile = solved.profile.copy()
        profile[:, -1] = 0.0
        late = np.flatnonzero(~exhausted)[-2]
        profile[late, -1] = -0.0
        crafted = dataclasses.replace(solved, profile=profile)
        monkeypatch.setattr(eq, "solve_equilibrium", lambda g: crafted)
    text = assert_same_report(game)
    assert text.count("\n  ") == m


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-9, 12), m=st.integers(1, 8), n=st.integers(1, 2 * CHUNK + 3),
       seed=st.integers(0, 2**32 - 1))
def test_report_matches_reference_across_magnitudes(k, m, n, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** k
    game = LendingGame(rng.uniform(0.5, 100.0, m) * scale,
                       rng.uniform(0.5, 100.0, n) * scale * rng.uniform(0.1, 2.0) * m / n,
                       0.02, 0.08)
    assert_same_report(game)


def assert_same_export(traj, tmp_path):
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    cli.export_trajectory(traj, new)
    reference_export_trajectory(traj, ref)
    for suffix in ("", ".profiles.csv"):
        with open(new + suffix, "rb") as a, open(ref + suffix, "rb") as b:
            assert_same_text(a.read(), b.read())


@pytest.mark.parametrize("variant", ["eager", "randomised", "pseudo_gradient", "continuous"])
@pytest.mark.parametrize("m, n", [(2, 1), (3, 30)])
def test_export_matches_reference_for_every_variant(tmp_path, variant, m, n):
    rng = np.random.default_rng(m * n)
    game = LendingGame(rng.uniform(0.5, 100.0, m), rng.uniform(0.5, 100.0, n), 0.02, 0.08)
    config = DynamicsConfig(variant=variant, alpha=0.3, max_iters=60, snapshot_every=7,
                            seed=3, ode_step=0.1, horizon=5.0)
    traj = run(game, game.zero_profile(), config)
    assert len(traj.snapshots) > 1
    assert_same_export(traj, tmp_path)


def test_export_matches_reference_on_extreme_values(tmp_path):
    values = np.array(SPECIALS)
    k = values.size
    traj = Trajectory(steps=np.arange(k), times=values[::-1].copy(),
                      lenders=np.arange(k) % 3 - 1, potentials=values,
                      lyapunov_gaps=-values, final_profile=np.zeros((1, 1)),
                      snapshots=[(0, values.reshape(3, 5)), (10, -values.reshape(3, 5))],
                      status="converged")
    assert_same_export(traj, tmp_path)


@pytest.mark.parametrize("rows", [1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (12, 12)])
def test_chunked_export_matches_rowwise_writer(tmp_path, rows, m, n):
    # Trajectory rows go out in chunks of CHUNK rows, so 1, CHUNK and
    # CHUNK + 1 rows take a short, a full and a full plus a short chunk;
    # a 12 x 12 snapshot row holds 144 floats, more than a chunk of
    # _join_floats.  Every column gets signed zeros and the SPECIALS.
    rng = np.random.default_rng(rows * 1000 + m * n)

    def floats(shape):
        values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
        flat = values.reshape(-1)
        flat[::3] = rng.choice(SPECIALS + [-0.0], flat[::3].size)
        flat[0] = -0.0
        return values

    snapshots = [(step, floats((m, n))) for step in range(0, rows, 10)]
    traj = Trajectory(steps=np.arange(rows), times=floats(rows),
                      lenders=rng.integers(-1, m, rows), potentials=floats(rows),
                      lyapunov_gaps=floats(rows), snapshots=snapshots,
                      final_profile=snapshots[-1][1], status="converged")
    new, ref, rowwise = (str(tmp_path / name) for name in ("new.csv", "ref.csv", "rowwise.csv"))
    cli.export_trajectory(traj, new)
    reference_export_trajectory(traj, ref)
    rowwise_export_trajectory(traj, rowwise)
    for suffix in ("", ".profiles.csv"):
        with open(new + suffix, "rb") as a:
            text = a.read()
        for other in (ref, rowwise):
            with open(other + suffix, "rb") as b:
                assert_same_text(text, b.read())
        assert b",-0," in text or b",-0\n" in text
