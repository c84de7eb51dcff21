import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lendgame import (
    LendingGame,
    best_response,
    best_response_gain,
    best_response_gains,
    best_response_profile,
    residual_supply,
    solve_equilibrium,
    utilities,
    utility,
)
from lendgame.oracle import grid_best_response, random_game, random_profile

from conftest import seeded_rng


def test_residual_supply():
    g = LendingGame([5.0, 5.0], [4.0, 4.0], 0.02, 0.08)
    s = np.array([[1.0, 2.0], [3.0, 0.5]])
    assert np.allclose(residual_supply(g, s, 0), [3.0, 0.5])
    assert np.allclose(residual_supply(g, s, 1), [1.0, 2.0])


def test_interior_optimum():
    g = LendingGame([5.0, 100.0], [10.0], 0.02, 0.08)
    s = np.array([[0.0], [4.0]])  # residual supply for lender 0 is 4
    assert best_response(g, s, 0) == pytest.approx([3.0], abs=1e-12)


def test_saturated_market_lends_nothing():
    g = LendingGame([5.0, 100.0], [10.0, 8.0], 0.02, 0.08)
    s = np.array([[0.0, 0.0], [10.0, 9.0]])
    assert np.allclose(best_response(g, s, 0), 0.0)


def test_symmetric_water_fill():
    g = LendingGame([6.0], [10.0, 10.0], 0.02, 0.08)
    x = best_response(g, np.zeros((1, 2)), 0)
    assert x == pytest.approx([3.0, 3.0], abs=1e-12)


def test_budget_clipped_single_borrower(two_lender_game):
    zero = np.zeros((2, 1))
    assert best_response(two_lender_game, zero, 0) == pytest.approx([1.0], abs=1e-12)
    assert best_response(two_lender_game, zero, 1) == pytest.approx([3.0], abs=1e-12)


def test_gain_hand_values(two_lender_game):
    zero = np.zeros((2, 1))
    assert best_response_gain(two_lender_game, zero, 0) == pytest.approx(0.05, abs=1e-12)
    assert best_response_gain(two_lender_game, zero, 1) == pytest.approx(0.09, abs=1e-12)


def test_gain_zero_at_equilibrium():
    rng = seeded_rng(20)
    for _ in range(30):
        g = random_game(rng, 6, 6)
        star = solve_equilibrium(g).profile
        for i in range(g.m):
            assert abs(best_response_gain(g, star, i)) <= 1e-10


def test_fixed_point_at_equilibrium():
    rng = seeded_rng(21)
    for _ in range(30):
        g = random_game(rng, 6, 6)
        star = solve_equilibrium(g).profile
        for i in range(g.m):
            assert np.abs(best_response(g, star, i) - star[i]).max() <= 1e-9


def test_optimality_certificate():
    # Active coordinates share a common marginal, inactive ones fall below
    # it, and the common marginal is zero when the budget is slack.
    rng = seeded_rng(22)
    for _ in range(100):
        g = random_game(rng, 6, 6)
        s = random_profile(rng, g)
        i = int(rng.integers(g.m))
        x = best_response(g, s, i)
        t = residual_supply(g, s, i)
        marginals = g.rate_span * (1.0 - (2.0 * x + t) / g.demands)
        active = x > 1e-12
        slack = x.sum() < g.budgets[i] - 1e-9
        if active.any():
            lam = marginals[active].mean()
            assert np.abs(marginals[active] - lam).max() <= 1e-9
            if slack:
                assert abs(lam) <= 1e-9
            else:
                assert lam >= -1e-9
            assert np.all(marginals[~active] <= lam + 1e-9)


def test_monotone_in_residual_supply():
    rng = seeded_rng(23)
    for _ in range(50):
        g = random_game(rng, 4, 5)
        s = random_profile(rng, g)
        i = int(rng.integers(g.m))
        x = best_response(g, s, i)
        j = int(rng.integers(g.n))
        k = int(rng.integers(g.m))
        if k == i:
            continue
        bumped = s.copy()
        bumped[k, j] += 0.5 * float(g.demands[j])
        x2 = best_response(g, bumped, i)
        assert x2[j] <= x[j] + 1e-10
        others = np.arange(g.n) != j
        if x.sum() >= g.budgets[i] - 1e-9:
            assert np.all(x2[others] >= x[others] - 1e-10)


def test_grid_oracle_one_dim():
    g = LendingGame([5.0, 100.0], [10.0], 0.02, 0.08)
    s = np.array([[0.0], [4.0]])
    grid = grid_best_response(g, s, 0, grid_step=1e-4)
    assert grid == pytest.approx([3.0], abs=2e-4)


def test_grid_oracle_matches_water_fill():
    rng = seeded_rng(24)
    for _ in range(6):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        g = LendingGame(rng.uniform(0.5, 4.0, m), rng.uniform(1.0, 6.0, n), 0.02, 0.08)
        s = random_profile(rng, g)
        i = int(rng.integers(m))
        exact = best_response(g, s, i)
        grid = grid_best_response(g, s, i, grid_step=1e-3)
        assert np.abs(exact - grid).max() <= 2e-3
        dev_exact, dev_grid = s.copy(), s.copy()
        dev_exact[i] = exact
        dev_grid[i] = grid
        assert utility(g, dev_exact, i) >= utility(g, dev_grid, i) - 1e-5


def test_bad_index(two_lender_game):
    with pytest.raises(IndexError):
        best_response(two_lender_game, np.zeros((2, 1)), 2)


def loop_water_fill(demands, residual, budget):
    """The scalar water-fill the batched kernel replaced, one lender at a
    time with a loop over the breakpoints: the reference it is held to."""
    free = demands > residual
    x = np.where(free, 0.5 * (demands - residual), 0.0)
    if x.sum() <= budget:
        return x
    d = demands[free]
    b = 1.0 - residual[free] / d
    order = np.argsort(b)[::-1]
    d, b = d[order], b[order]
    cum_db, cum_d = np.cumsum(d * b), np.cumsum(d)
    for k in range(1, d.size + 1):
        lam = (cum_db[k - 1] - 2.0 * budget) / cum_d[k - 1]
        lower = b[k] if k < d.size else 0.0
        if lower <= lam <= b[k - 1]:
            break
    x[free] = np.maximum(0.0, 0.5 * demands[free] * ((1.0 - residual[free] / demands[free]) - lam))
    return x


def test_kernel_matches_loop_reference():
    # The same arithmetic, but tied breakpoints may be summed in another
    # order, so agreement is required to 1e-12 of the instance's scale.
    rng = seeded_rng(25)
    for k in range(300):
        g = random_game(rng, 12, 12)
        s = g.zero_profile() if k % 3 == 0 else random_profile(rng, g)
        ref = np.stack([loop_water_fill(g.demands, residual_supply(g, s, i), g.budgets[i])
                        for i in range(g.m)])
        size = max(g.budgets.max(), g.demands.max())
        assert np.abs(best_response_profile(g, s) - ref).max() <= 1e-12 * size


def test_no_free_row_beside_budget_bound_row():
    # Lender 1 oversupplies both borrowers (its row is over budget), so
    # lender 0 has no free coordinate while lender 1's budget binds.  Under a
    # feasible profile the two cannot meet: if lender 0 has no free
    # coordinate, every other lender's unconstrained total is at most half
    # its own row sum, so its budget is slack.
    g = LendingGame([1.0, 1.0], [4.0, 4.0], 0.02, 0.08)
    s = np.array([[0.0, 0.0], [4.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = best_response_profile(g, s)
    assert np.array_equal(out, [[0.0, 0.0], [0.5, 0.5]])


@st.composite
def scaled_games(draw):
    """A game and profile drawn at unit scale, then multiplied by 10^k:
    (game, profile, scale), where scale = span * max(budget, demand) is the
    natural size of a utility."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    unit = st.floats(0.1, 10.0)
    frac = st.floats(0.0, 1.0, allow_subnormal=False)
    budgets = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    demands = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    # Row i spends a fraction use_i of its budget, split in proportion to
    # fill.  Subnormal fill weights would break the proportions and put the
    # row over budget.
    fill = np.array(draw(st.lists(frac, min_size=m * n, max_size=m * n))).reshape(m, n)
    use = np.array(draw(st.lists(frac, min_size=m, max_size=m)))
    rows = fill.sum(axis=1, keepdims=True)
    profile = np.divide(fill * (use * budgets)[:, None], rows,
                        out=np.zeros((m, n)), where=rows > 0)
    k = draw(st.integers(-9, 12))
    game = LendingGame(budgets * 10.0**k, demands * 10.0**k, 0.02, 0.08)
    scale = game.rate_span * max(game.budgets.max(), game.demands.max())
    return game, profile * 10.0**k, scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_games())
def test_batched_kernel_properties(instance):
    g, s, scale = instance
    size = scale / g.rate_span
    profile = best_response_profile(g, s)
    gains = best_response_gains(g, s)
    base = utilities(g, s)
    for i in range(g.m):
        x = best_response(g, s, i)
        # (a) the single-lender view is the profile's row, bit for bit.
        assert x.tobytes() == profile[i].tobytes()
        # (b) feasibility and the optimality certificate of
        # test_optimality_certificate, with tolerances relative to the scale.
        assert x.min() >= 0.0 and x.sum() <= g.budgets[i] * (1.0 + 1e-12)
        t = residual_supply(g, s, i)
        marginals = g.rate_span * (1.0 - (2.0 * x + t) / g.demands)
        active = x > 1e-12 * size
        slack = x.sum() < g.budgets[i] - 1e-9 * size
        if active.any():
            lam = marginals[active].mean()
            assert np.abs(marginals[active] - lam).max() <= 1e-9
            if slack:
                assert abs(lam) <= 1e-9
            else:
                assert lam >= -1e-9
            assert np.all(marginals[~active] <= lam + 1e-9)
        # (c) the closed-form gain matches the utility difference.
        deviated = s.copy()
        deviated[i] = x
        assert abs(gains[i] - (utilities(g, deviated)[i] - base[i])) <= 1e-12 * scale
        assert gains[i] >= -1e-12 * scale
