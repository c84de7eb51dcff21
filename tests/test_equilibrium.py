import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lendgame import (
    LendingGame,
    best_response_gains,
    certify,
    compute_threshold_index,
    interest_rates,
    kkt_check,
    rate_spread,
    solve_equilibrium,
)
from lendgame import equilibrium
from lendgame.oracle import random_game

from conftest import seeded_rng


def test_threshold_index_examples():
    assert compute_threshold_index(LendingGame([1.0, 10.0], [6.0], 0.02, 0.08))[0] == 1
    assert compute_threshold_index(LendingGame([10.0, 10.0], [4.0, 4.0], 0.02, 0.08))[0] == 0
    assert compute_threshold_index(LendingGame([1.0, 1.0], [100.0], 0.02, 0.08))[0] == 2


def test_threshold_permutation_is_stable_sort():
    g = LendingGame([5.0, 5.0, 1.0], [6.0], 0.02, 0.08)
    _, perm = compute_threshold_index(g)
    assert list(perm) == [2, 0, 1]  # ties keep original order


def reference_threshold_index(game):
    """The running-value recurrence compute_threshold_index replaced: one
    share, updated lender by lender in a Python loop."""
    m = game.m
    sorted_budgets = game.budgets[np.argsort(game.budgets, kind="stable")]
    share = game.total_demand / (m + 1)
    k = 0
    while k < m and sorted_budgets[k] <= share:
        share = (share * (m - k + 1) - sorted_budgets[k]) / (m - k)
        k += 1
    return k


def exact_threshold_index(game):
    """The docstring's definition in rationals: the least k whose (k+1)-th
    smallest budget strictly exceeds (sum d - sum of the k smallest
    budgets) / (m - k + 1), or m; also whether some k ties, with equality."""
    budgets = sorted(map(Fraction, game.budgets.tolist()))
    rest = sum(map(Fraction, game.demands.tolist()))
    tied = False
    for k, budget in enumerate(budgets):
        share = rest / (game.m - k + 1)
        if budget > share:
            return k, tied
        tied |= budget == share
        rest -= budget
    return game.m, tied


def test_threshold_index_matches_the_recurrence():
    # Games up to 59 x 59; every third has integer budgets, so budgets tie.
    rng = seeded_rng(70)
    split = set()
    for k in range(20_001):
        m, n = (int(x) for x in rng.integers(1, 60, 2))
        budgets = rng.integers(1, 100, m).astype(float) if k % 3 == 0 else rng.uniform(0.5, 100.0, m)
        g = LendingGame(budgets, rng.uniform(0.5, 100.0, n), 0.02, 0.08)
        mbar = compute_threshold_index(g)[0]
        assert mbar == reference_threshold_index(g), k
        split.add(("none", "some", "all")[(mbar > 0) + (mbar == g.m)])
    assert split == {"none", "some", "all"}


def test_threshold_index_is_exact_on_small_integer_games():
    # Budgets and demands in 1..6: a budget often equals its share exactly,
    # and equality keeps the lender in the exhausted set.
    rng = seeded_rng(71)
    ties = 0
    for _ in range(3_000):
        m, n = (int(x) for x in rng.integers(1, 7, 2))
        g = LendingGame(rng.integers(1, 7, m).astype(float), rng.integers(1, 7, n).astype(float), 0.02, 0.08)
        mbar, tied = exact_threshold_index(g)
        assert compute_threshold_index(g)[0] == mbar, (g.budgets, g.demands)
        ties += tied
    assert ties >= 100


def test_solve_two_lender(two_lender_game):
    res = solve_equilibrium(two_lender_game)
    assert np.allclose(res.profile, [[1.0], [2.5]], atol=1e-14)
    assert res.market_rate == pytest.approx(0.045, abs=1e-15)
    assert res.threshold_index == 1
    assert list(res.exhausted_set) == [0]
    assert np.allclose(res.multipliers_budget, [0.015, 0.0], atol=1e-15)
    assert np.all(res.multipliers_nonneg == 0.0)


def test_solve_monopoly(monopoly_game):
    res = solve_equilibrium(monopoly_game)
    assert res.profile[0, 0] == pytest.approx(5.0, abs=1e-14)
    assert res.market_rate == pytest.approx(0.05, abs=1e-15)


def test_solve_symmetric_two_by_two():
    g = LendingGame([10.0, 10.0], [4.0, 4.0], 0.02, 0.08)
    res = solve_equilibrium(g)
    assert np.allclose(res.profile, 4.0 / 3.0, atol=1e-14)
    assert res.market_rate == pytest.approx(0.04, abs=1e-15)


def test_market_rate_matches_realised_rates():
    rng = seeded_rng(11)
    for _ in range(100):
        g = random_game(rng, 10, 10)
        res = solve_equilibrium(g)
        rates = interest_rates(g, res.profile)
        assert np.abs(rates - res.market_rate).max() < 1e-12


def test_market_rate_large_market_limit():
    m = 100
    g = LendingGame(np.full(m, 1000.0), [10.0], 0.02, 0.08)
    assert solve_equilibrium(g).market_rate == pytest.approx(0.02 + 0.06 / (m + 1), abs=1e-15)


def test_exhausted_lenders_spend_budget():
    rng = seeded_rng(12)
    for _ in range(100):
        g = random_game(rng, 10, 10)
        res = solve_equilibrium(g)
        row_sums = res.profile.sum(axis=1)
        for i in range(g.m):
            if i in res.exhausted_set:
                assert row_sums[i] == pytest.approx(g.budgets[i], abs=1e-9)
            else:
                assert row_sums[i] < g.budgets[i]
        # Multipliers live only on the exhausted set, and are non-negative.
        outside = np.setdiff1d(np.arange(g.m), res.exhausted_set)
        assert np.all(res.multipliers_budget[outside] == 0.0)
        assert res.multipliers_budget.min() >= 0.0


def test_no_oversupply_at_equilibrium():
    rng = seeded_rng(13)
    for _ in range(100):
        g = random_game(rng, 10, 10)
        res = solve_equilibrium(g)
        assert np.all(res.profile.sum(axis=0) <= g.demands + 1e-9)


def test_kkt_at_equilibrium(two_lender_game):
    res = solve_equilibrium(two_lender_game)
    report = certify(two_lender_game, res, tolerance=1e-10)
    assert report.passed
    assert report.stationarity_residual <= 1e-10


def test_kkt_zero_profile_fails(two_lender_game):
    g = two_lender_game
    report = kkt_check(g, np.zeros((2, 1)), np.zeros(2), np.zeros((2, 1)), tolerance=1e-8)
    assert not report.passed
    assert report.stationarity_residual == pytest.approx(g.rate_span, abs=1e-15)


def test_kkt_primal_violation(two_lender_game):
    g = two_lender_game
    s = np.array([[2.0], [0.0]])  # lender 0 over budget by 1
    report = kkt_check(g, s, np.zeros(2), np.zeros((2, 1)), tolerance=1e-8)
    assert report.primal_residual >= 1.0
    assert not report.passed


def test_kkt_nonneg_multiplier_terms_by_hand(two_lender_game):
    # s = (1, 0) on the worked 2x1 game, column sum 1: the gradient is
    # -0.06 ((s_i + 1) / 6 - 1) = (0.04, 0.05).  With mu_b = 0 and
    # mu_n = (0.25, -0.5) the stationarity terms are 0.29 and -0.45, the
    # dual terms max(-mu_n, 0) = (0, 0.5) and the slackness terms
    # |mu_n s| = (0.25, 0).
    g = two_lender_game
    s = np.array([[1.0], [0.0]])
    report = kkt_check(g, s, np.zeros(2), np.array([[0.25], [-0.5]]))
    assert report.primal_residual == 0.0
    assert report.stationarity_residual == pytest.approx(0.45, rel=1e-14)
    assert report.dual_residual == 0.5
    assert report.slackness_residual == 0.25
    assert not report.passed


def test_kkt_shape_mismatch(two_lender_game):
    with pytest.raises(ValueError):
        kkt_check(two_lender_game, np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))


def sized_game(rng, m, n):
    """A game of exactly m lenders and n borrowers, demand near supply."""
    budgets = rng.uniform(0.5, 100.0, m)
    demands = rng.uniform(0.5, 100.0, n)
    return LendingGame(budgets, demands * 0.75 * budgets.sum() / demands.sum(), 0.02, 0.08)


def reference_kkt_residuals(game, s, mu_b, mu_n):
    """kkt_check's four residuals as plain expressions, each with its own
    temporaries, the gradient included."""
    row_sums = s.sum(axis=1)
    primal = max(float(np.maximum(row_sums - game.budgets, 0.0).max()),
                 float(np.maximum(-s, 0.0).max()))
    grad = (game.rate_min - game.rate_max) * ((s + np.add.reduce(s, axis=0)) / game.demands - 1.0)
    stationarity = float(np.abs(grad - mu_b[:, None] + mu_n).max())
    dual = max(float(np.maximum(-mu_b, 0.0).max()), float(np.maximum(-mu_n, 0.0).max()))
    slackness = max(float(np.abs(mu_b * (game.budgets - row_sums)).max()),
                    float(np.abs(mu_n * s).max()))
    return primal, stationarity, dual, slackness


@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (8, 2), (120, 90)])
def test_kkt_residuals_match_reference_bits(m, n):
    # Profiles with negative entries and signed zeros, multipliers of both
    # signs: every residual must keep the bits of the plain expressions.
    rng = seeded_rng(m * 1000 + n)
    for _ in range(25):
        g = sized_game(rng, m, n)
        s = rng.uniform(-1.0, 2.0, (m, n)) * g.budgets[:, None] / n
        s[rng.random((m, n)) < 0.2] = 0.0
        s[rng.random((m, n)) < 0.2] = -0.0
        mu_b = rng.uniform(-0.1, 0.1, m) * g.rate_span
        mu_n = rng.uniform(-0.1, 0.1, (m, n)) * g.rate_span
        mu_n[rng.random((m, n)) < 0.2] = -0.0
        got = kkt_check(g, s, mu_b, mu_n)
        residuals = (got.primal_residual, got.stationarity_residual, got.dual_residual,
                     got.slackness_residual)
        want = reference_kkt_residuals(g, s, mu_b, mu_n)
        assert [r.hex() for r in residuals] == [r.hex() for r in want]


def test_certify_holds_one_block_of_rows():
    # On a game of nine blocks the traced peak is one block of rows, the
    # iterator buffers numpy takes for a broadcast product (np.getbufsize()
    # floats for each of its two operands) and a few m- and n-vectors: a
    # certificate holds no m x n array.
    m, n = 700, 800
    g = sized_game(seeded_rng(23), m, n)
    res = solve_equilibrium(g)
    tracemalloc.start()
    try:
        certify(g, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (equilibrium.BLOCK_FLOATS + 2 * np.getbufsize() + 4 * (m + n))
    assert peak <= bound < 8 * m * n


def result_of(share, demands):
    """An equilibrium result with these row shares and demands; the other
    fields are placeholders."""
    return equilibrium.EquilibriumResult(share=share, demands=demands, threshold_index=0,
                                         exhausted_set=np.zeros(0, dtype=int),
                                         multipliers_budget=np.zeros(share.size), market_rate=0.0)


@pytest.mark.parametrize("block_floats", [1, 64, 1000, equilibrium.BLOCK_FLOATS])
def test_column_sums_in_row_blocks_match_numpy_bits(monkeypatch, block_floats):
    # The one place where numpy's order matters: the column sums of a
    # profile of two or more columns, taken a block of rows at a time, keep
    # the bits of np.add.reduce(profile, axis=0), signed zeros and columns of
    # -0.0 included.  At the default, m = 200 and n = 1000 span four blocks.
    monkeypatch.setattr(equilibrium, "BLOCK_FLOATS", block_floats)
    rng = seeded_rng(26)
    for m, n in [(1, 1), (1, 5), (9, 1), (300, 1), (7, 2), (50, 7), (120, 90), (200, 1000)]:
        for zeros in (False, True):
            share = rng.uniform(-1.0, 2.0, m)
            demands = rng.uniform(0.5, 100.0, n)
            if zeros:
                share[rng.random(m) < 0.3] = 0.0
                share[rng.random(m) < 0.3] = -0.0
                share[::3] = -0.0
                demands[0] = -0.0
            for result in (result_of(share, demands), result_of(np.full(m, -0.0), demands)):
                want = np.add.reduce(result.profile, axis=0)
                assert equilibrium._column_sums(result).tobytes() == want.tobytes()


def solved_games_of_every_kind(rng):
    """Games where no lender, some lenders and every lender are exhausted,
    and the budget-tie games of test_report_matches_reference_on_budget_ties."""
    yield LendingGame([1.0, 5.0, 3.0], [1.0, 3.0], 0.02, 0.08)
    yield LendingGame([4.0, 4.0, 4.0, 1.0, 1.0], [3.0, 5.0, 7.0], 0.01, 0.05)
    for m, n, supply in [(1, 1, 0.5), (1, 1, 50.0), (6, 4, 0.75), (40, 7, 0.05),
                         (40, 7, 50.0), (70, 1, 0.75), (200, 120, 1.0)]:
        for _ in range(4):
            budgets = rng.uniform(0.5, 100.0, m)
            demands = rng.uniform(0.5, 100.0, n)
            yield LendingGame(budgets, demands * supply * budgets.sum() / demands.sum(), 0.02, 0.08)


@pytest.mark.parametrize("block_floats", [1, 64, 1000, equilibrium.BLOCK_FLOATS])
def test_certify_matches_kkt_check_bits(monkeypatch, block_floats):
    # certify takes the rank-one profile's rows a block at a time and skips
    # the zero non-negativity multipliers' terms: its four residuals keep
    # the bits of the dense check on the whole profile, on each solved game
    # and on a result crafted from it, with shares and budget multipliers
    # of both signs and signed zeros.
    monkeypatch.setattr(equilibrium, "BLOCK_FLOATS", block_floats)
    rng = seeded_rng(27)
    kinds = set()
    fields = ("primal_residual", "stationarity_residual", "dual_residual", "slackness_residual")
    for g in solved_games_of_every_kind(rng):
        res = solve_equilibrium(g)
        kinds.add(("none", "some", "all")[(res.threshold_index > 0) + (res.threshold_index == g.m)])
        share = rng.uniform(-0.5, 1.0, g.m) * res.share
        share[rng.random(g.m) < 0.2] = 0.0
        share[rng.random(g.m) < 0.2] = -0.0
        mu_b = rng.uniform(-0.1, 0.1, g.m) * g.rate_span
        mu_b[rng.random(g.m) < 0.2] = -0.0
        crafted = dataclasses.replace(res, share=share, multipliers_budget=mu_b)
        for r in (res, crafted):
            got = certify(g, r)
            want = kkt_check(g, r.profile, r.multipliers_budget, r.multipliers_nonneg)
            assert [getattr(got, f).hex() for f in fields] == [getattr(want, f).hex() for f in fields]
            assert got == want
    assert kinds == {"none", "some", "all"}


def reference_profile(game):
    """The equilibrium profile as rows filled apart: the exhausted rows from
    one outer product, every other row from the common fraction."""
    mbar, perm = compute_threshold_index(game)
    exhausted, unexhausted = perm[:mbar], perm[mbar:]
    total_d = game.total_demand
    common_frac = (1.0 - game.budgets[exhausted].sum() / total_d) / (game.m - mbar + 1)
    profile = np.empty((game.m, game.n))
    profile[exhausted] = np.outer(game.budgets[exhausted] / total_d, game.demands)
    profile[unexhausted] = common_frac * game.demands
    return profile


def test_profile_matches_rows_filled_apart():
    # One outer product of the row shares and the demands writes the same
    # bits as the exhausted and common rows written apart, whether no
    # lender, some or every lender is exhausted.
    rng = seeded_rng(23)
    exhausted = set()
    for m, n, supply in [(1, 1, 0.5), (6, 4, 0.75), (50, 30, 0.75), (40, 7, 0.05),
                         (40, 7, 50.0), (200, 120, 1.0)]:
        for _ in range(20):
            budgets = rng.uniform(0.5, 100.0, m)
            demands = rng.uniform(0.5, 100.0, n)
            g = LendingGame(budgets, demands * supply * budgets.sum() / demands.sum(), 0.02, 0.08)
            res = solve_equilibrium(g)
            exhausted.add(("none", "some", "all")[(res.threshold_index > 0) + (res.threshold_index == m)])
            assert res.profile.tobytes() == reference_profile(g).tobytes()
    assert exhausted == {"none", "some", "all"}


def test_solve_holds_no_profile_sized_array():
    # The solver keeps the row shares and a reference to the demands, not
    # the profile: its traced peak is a few m- and n-vectors.  The
    # non-negativity multipliers are a read-only view of one zero.
    for m, n in [(600, 600), (2000, 50), (50, 2000)]:
        g = sized_game(seeded_rng(22), m, n)
        tracemalloc.start()
        try:
            res = solve_equilibrium(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 10 * (m + n) < 8 * m * n
        assert res.demands is g.demands
        assert res.multipliers_nonneg.shape == (m, n)
        assert not res.multipliers_nonneg.flags.writeable
        assert np.all(res.multipliers_nonneg == 0.0)
        assert not np.signbit(res.multipliers_nonneg).any()


def test_nash_property():
    rng = seeded_rng(14)
    for _ in range(50):
        g = random_game(rng, 8, 8)
        res = solve_equilibrium(g)
        assert best_response_gains(g, res.profile).max() <= 1e-9


def test_uniform_rates():
    rng = seeded_rng(15)
    for _ in range(50):
        g = random_game(rng, 10, 10)
        assert rate_spread(g, solve_equilibrium(g).profile) <= 1e-12


def test_permutation_equivariance():
    rng = seeded_rng(16)
    for _ in range(50):
        g = random_game(rng, 8, 8)
        res = solve_equilibrium(g)
        lperm = rng.permutation(g.m)
        bperm = rng.permutation(g.n)
        g2 = LendingGame(g.budgets[lperm], g.demands[bperm], g.rate_min, g.rate_max)
        res2 = solve_equilibrium(g2)
        assert np.abs(res2.profile - res.profile[np.ix_(lperm, bperm)]).max() <= 1e-12


def test_degenerate_oversized_supply():
    # Aggregate budget far above demand still solves with the same formulas.
    g = LendingGame([50.0, 60.0, 70.0], [3.0], 0.02, 0.08)
    res = solve_equilibrium(g)
    assert res.threshold_index == 0
    assert certify(g, res, 1e-10).passed
