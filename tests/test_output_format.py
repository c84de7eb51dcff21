"""Byte identity of the chunked float writers with the per-entry writers
they replaced, kept here as references."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lendgame import DynamicsConfig, LendingGame, pg_step_bound, run, solve_equilibrium
from lendgame import cli, fmt17
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
    # On a failure, line by line: pytest then shows the first line that
    # differs, where a diff of the whole text would take minutes.
    if new != ref:
        for new_line, ref_line in zip(new.splitlines(), ref.splitlines()):
            assert new_line == ref_line
        assert new == ref


def assert_same_report(game):
    """Both writers give the same report for a game; returns its text."""
    scenario = cli.Scenario(game=game, initial_profile=None, dynamics=DynamicsConfig())
    ref, new = io.StringIO(), io.StringIO()
    reference_write_equilibrium_report(scenario, ref)
    cli.write_equilibrium_report(scenario, new)
    assert_same_text(new.getvalue(), ref.getvalue())
    return ref.getvalue()


ENTRIES = fmt17._ENTRIES
SPECIALS = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-9, 1e12, 123456789.123456789, float("inf"),
            -float("inf"), float("nan")]


@pytest.mark.parametrize("size", [0, 1, 2, 63, 64, 65, 128, 199, ENTRIES - 1, ENTRIES,
                                  ENTRIES + 1, 2 * ENTRIES + 5])
@pytest.mark.parametrize("sep", [" ", ","])
def test_join_floats_matches_per_entry_join(size, sep):
    # One line of `size` floats, within one chunk and across chunks of
    # _ENTRIES floats: the separator goes between them and the newline after
    # the last.
    rng = np.random.default_rng(size)
    values = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    values[::3] = rng.choice(SPECIALS, values[::3].size)
    want = sep.join(fmt(v) for v in values)
    assert fmt17.float_text(values, size, sep).decode() == (want + "\n" if size else "")


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


@pytest.mark.parametrize("n", [2, 63, 64, 65, 128, 133])
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
    # A free lender's row that differs from the common row only in the signs
    # of its zeros must be written from its own bits.  The writer makes each
    # row from its lender's share, so the crafted free lenders lend a share
    # of 0.0, and lender 1 one of -0.0.
    game = LendingGame([100.0, 200.0, 300.0], [1.0, 2.0], 0.02, 0.08)
    solved = eq.solve_equilibrium(game)
    crafted = dataclasses.replace(solved, share=np.array([0.0, -0.0, 0.0]))
    monkeypatch.setattr(eq, "solve_equilibrium", lambda g: crafted)
    text = assert_same_report(game)
    assert "\n  -0 -0\n" in text and "\n  0 0\n" in text


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
                                     "all_exhausted", "none_exhausted", "signed_zero_late",
                                     "out_of_range"])
def test_report_row_blocks_match_reference(monkeypatch, n, pattern):
    # Fresh rows (not the common row) are formatted ENTRIES // n at a time,
    # with the runs of common lines between them written in between: scatter
    # the exhausted lenders so that blocks and runs start and end anywhere.
    m = 60
    exhausted = np.random.default_rng(n).random(m) < 0.5
    if pattern == "first_exhausted_last_free":
        exhausted[0], exhausted[-1] = True, False
    elif pattern in ("first_free_last_exhausted", "signed_zero_late", "out_of_range"):
        exhausted[0], exhausted[-1] = False, True
    else:
        exhausted[:] = pattern == "all_exhausted"
    game = game_with_exhausted(exhausted, n, seed=n)
    solved = eq.solve_equilibrium(game)
    # The writer makes each row from its lender's share and the demands, so
    # the crafted cases craft those.
    if pattern == "signed_zero_late":
        # A free row late in the report that differs from the common row
        # only in the signs of its zeros is a fresh row of a later block.
        share = np.where(exhausted, solved.share, 0.0)
        share[np.flatnonzero(~exhausted)[-2]] = -0.0
        crafted = dataclasses.replace(solved, share=share)
        monkeypatch.setattr(eq, "solve_equilibrium", lambda g: crafted)
    elif pattern == "out_of_range":
        # Every profile entry outside the array path's [1e-10, 1e15), so
        # that `%` writes each text between the writer's own separators,
        # newlines and blocks: -0.0, subnormals and magnitudes above 1e15.
        # Equal entries stay equal, and so do the common rows.
        demands = solved.demands.copy()
        demands[0] = -0.0
        crafted = dataclasses.replace(
            solved, share=np.where(exhausted, solved.share * 1e-310, solved.share * 1e20),
            demands=demands)
        profile = crafted.profile[:, 1:]
        assert not ((np.abs(profile) >= 1e-10) & (np.abs(profile) < 1e15)).any()
        monkeypatch.setattr(eq, "solve_equilibrium", lambda g: crafted)
    text = assert_same_report(game)
    assert text.count("\n  ") == m


def test_report_bytes_same_on_every_sink(tmp_path):
    # `lendgame solve` writes one report whatever takes it: the file named
    # by --output (a binary file), and, as decoded text, a stdout redirected
    # to a file in a fresh interpreter and an io.StringIO put on stdout in
    # process.  At n = 512 a block holds 8 fresh rows; here 19 fresh rows
    # span three blocks, with runs of 1 to 3 common lines between them, one
    # of 20 inside the second block, and in the third more short runs than
    # the block has rows.
    runs = [(True, 2), (False, 1), (True, 1), (False, 2), (True, 4), (False, 3), (True, 3),
            (False, 20), (True, 6), (False, 3), (True, 1), (False, 3), (True, 1), (False, 3),
            (True, 1), (False, 2)]
    exhausted = np.concatenate([np.full(count, flag) for flag, count in runs])
    game = game_with_exhausted(exhausted, 512, seed=34)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"lenders": game.budgets.tolist(), "borrowers": game.demands.tolist(),
                                "rate_min": game.rate_min, "rate_max": game.rate_max}))
    report = tmp_path / "report.txt"
    assert cli.main(["solve", str(path), "--output", str(report)]) == 0
    want = report.read_bytes()
    assert want.decode() == assert_same_report(game)
    assert want.count(b"\n  ") == exhausted.size
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with open(tmp_path / "stdout.txt", "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "lendgame.cli", "solve", str(path)],
                              stdout=fh, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                              timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "stdout.txt").read_bytes() == want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["solve", str(path)]) == 0
    assert out.getvalue().encode() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(-9, 12), m=st.integers(1, 8), n=st.integers(1, 131),
       seed=st.integers(0, 2**32 - 1))
def test_report_matches_reference_across_magnitudes(k, m, n, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** k
    game = LendingGame(rng.uniform(0.5, 100.0, m) * scale,
                       rng.uniform(0.5, 100.0, n) * scale * rng.uniform(0.1, 2.0) * m / n,
                       0.02, 0.08)
    assert_same_report(game)


class Discard:
    def write(self, text):
        pass


def test_report_peak_does_not_grow_with_lenders():
    # The certificate holds one block of the profile's rows and the writer
    # one formatter chunk of them, so the traced peak of a report at
    # n = 1000 stays flat from m = 200 to m = 1000, below one m x n array.
    n = 1000
    peaks = []
    for m in (200, 1000):
        rng = np.random.default_rng(m)
        budgets, demands = rng.uniform(0.5, 100.0, m), rng.uniform(0.5, 100.0, n)
        game = LendingGame(budgets, demands * 0.75 * budgets.sum() / demands.sum(), 0.02, 0.08)
        assert 0 < solve_equilibrium(game).threshold_index < m
        scenario = cli.Scenario(game=game, initial_profile=None, dynamics=DynamicsConfig())
        tracemalloc.start()
        try:
            cli.write_equilibrium_report(scenario, Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < 8 * m * n
    assert peaks[1] <= 1.1 * peaks[0]


def assert_same_export(traj, tmp_path):
    """The writer, the per-entry reference and the row-wise writer give the
    same bytes; returns the texts of both files."""
    new, ref, rowwise = (str(tmp_path / name) for name in ("new.csv", "ref.csv", "rowwise.csv"))
    reference_export_trajectory(traj, ref)
    rowwise_export_trajectory(traj, rowwise)
    cli.export_trajectory(traj, new)
    texts = []
    for suffix in ("", ".profiles.csv"):
        with open(new + suffix, "rb") as a:
            texts.append(a.read())
        for other in (ref, rowwise):
            with open(other + suffix, "rb") as b:
                assert_same_text(texts[-1], b.read())
    return texts


@pytest.mark.parametrize("variant", ["eager", "randomised", "pseudo_gradient", "continuous"])
@pytest.mark.parametrize("m, n", [(2, 1), (3, 30)])
def test_export_matches_reference_for_every_variant(tmp_path, variant, m, n):
    rng = np.random.default_rng(m * n)
    game = LendingGame(rng.uniform(0.5, 100.0, m), rng.uniform(0.5, 100.0, n), 0.02, 0.08)
    # A quarter of the pseudo-gradient step bound: at the bound itself the
    # 2 x 1 run converges in 6 steps, before its second snapshot.
    config = DynamicsConfig(variant=variant, alpha=0.3, max_iters=60, snapshot_every=7,
                            seed=3, ode_step=0.1, horizon=5.0, pg_step=0.25 * pg_step_bound(game))
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


def random_floats(rng, shape):
    """Floats of every magnitude, a third of them drawn from SPECIALS and
    -0.0, the first one -0.0."""
    values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
    flat = values.reshape(-1)
    flat[::3] = rng.choice(SPECIALS + [-0.0], flat[::3].size)
    flat[0] = -0.0
    return values


def out_of_range_floats(rng, shape):
    """Floats that `%` formats, all outside the array path's [1e-10, 1e15):
    zeros, subnormals and magnitudes from 1e-300 to 1e301, the first one
    -0.0."""
    values = (rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape)
              * 10.0 ** rng.choice([-300, -20, 20, 300], shape))
    flat = values.reshape(-1)
    flat[::3] = rng.choice([0.0, -0.0, 5e-324, -5e-324], flat[::3].size)
    flat[0] = -0.0
    return values


def random_steps(rng, count):
    """count sorted steps from 0 to 2^53 - 1, the largest integers whose
    floats write the same as `%d`."""
    steps = np.sort(rng.integers(0, 2**53, count))
    steps[0], steps[-1] = 0, 2**53 - 1
    return steps


BLOCK = ENTRIES // 5   # trajectory rows per call of float_text


@pytest.mark.parametrize("rows", [1, 64, 65, 197, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (12, 12)])
def test_chunked_export_matches_rowwise_writer(tmp_path, rows, m, n):
    # Trajectory rows go out BLOCK rows to a call of float_text, so up to
    # BLOCK - 1 rows take one short block, BLOCK one full block and BLOCK + 1
    # a full and a one-row block.  Steps run up to 2^53 - 1 and the lender
    # column holds -1; every float column gets signed zeros and the SPECIALS,
    # and then floats that `%` formats, each one.
    rng = np.random.default_rng(rows * 1000 + m * n)
    for floats in (random_floats, out_of_range_floats):
        steps = random_steps(rng, rows)
        lenders = rng.integers(-1, m, rows)
        lenders[0] = -1
        snapshots = [(int(steps[k]), floats(rng, (m, n))) for k in range(0, rows, 10)]
        traj = Trajectory(steps=steps, times=floats(rng, rows), lenders=lenders,
                          potentials=floats(rng, rows), lyapunov_gaps=floats(rng, rows),
                          snapshots=snapshots, final_profile=snapshots[-1][1], status="converged")
        texts = assert_same_export(traj, tmp_path)
        for text in texts:
            assert b",-0," in text or b",-0\n" in text
        assert b"\n9007199254740991," in texts[0] and b",-1," in texts[0]


def snapshot_cases():
    # Snapshot rows go out max(1, ENTRIES // (1 + m n)) to a call of
    # float_text: take one row less, as many, one more and several blocks.
    # A 64 x 64 row holds 1 + 4,096 floats, so each row spans two chunks.
    for m, n in [(1, 1), (3, 5), (64, 64)]:
        per = max(1, ENTRIES // (1 + m * n))
        for count in sorted({max(1, per - 1), per, per + 1, 3 * per + 1}):
            yield m, n, count


@pytest.mark.parametrize("m, n, count", list(snapshot_cases()))
def test_snapshot_blocks_match_rowwise_writer(tmp_path, m, n, count):
    # Floats of every magnitude, and then floats that `%` formats, each one.
    rng = np.random.default_rng(count * 1000 + m * n)
    for floats in (random_floats, out_of_range_floats):
        snapshots = list(zip(random_steps(rng, count).tolist(), floats(rng, (count, m, n))))
        traj = Trajectory(steps=np.arange(1), times=np.zeros(1), lenders=np.full(1, -1),
                          potentials=np.zeros(1), lyapunov_gaps=np.zeros(1), snapshots=snapshots,
                          final_profile=snapshots[-1][1], status="converged")
        text = assert_same_export(traj, tmp_path)[1]
        assert text.count(b"\n") == 1 + count
        assert b"\n9007199254740991," in text and (b",-0," in text or b",-0\n" in text)


def export_peak(rows, path):
    """The traced peak of export_trajectory on a trajectory of `rows` rows
    with a 3 x 4 snapshot every 10 steps, built before tracing."""
    rng = np.random.default_rng(rows)
    snapshots = [(step, rng.uniform(0.0, 1.0, (3, 4))) for step in range(0, rows, 10)]
    traj = Trajectory(steps=np.arange(rows), times=rng.uniform(0.0, 1.0, rows),
                      lenders=rng.integers(-1, 3, rows), potentials=rng.uniform(0.0, 1.0, rows),
                      lyapunov_gaps=rng.uniform(0.0, 1.0, rows), snapshots=snapshots,
                      final_profile=snapshots[-1][1], status="converged")
    tracemalloc.start()
    try:
        cli.export_trajectory(traj, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_peak_does_not_grow_with_rows(tmp_path):
    # Both tables are formatted and written a block at a time, so the
    # memory the writer holds at once is a block's, whatever the length.
    path = str(tmp_path / "t.csv")
    assert export_peak(50_000, path) <= 1.1 * export_peak(2_000, path)
