import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lendgame import (
    LendingGame,
    best_response,
    best_response_gains,
    best_response_profile,
    solve_equilibrium,
    utilities,
    utility,
)
from lendgame.best_response import _capped_projection
from lendgame.game import check_lender
from lendgame.oracle import random_game, random_profile

from conftest import seeded_rng


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
    assert best_response_gains(two_lender_game, zero)[0] == pytest.approx(0.05, abs=1e-12)
    assert best_response_gains(two_lender_game, zero)[1] == pytest.approx(0.09, abs=1e-12)


def test_gain_zero_at_equilibrium():
    rng = seeded_rng(20)
    for _ in range(30):
        g = random_game(rng, 6, 6)
        star = solve_equilibrium(g).profile
        for i in range(g.m):
            assert abs(best_response_gains(g, star)[i]) <= 1e-10


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
        t = s.sum(axis=0) - s[i]
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


def grid_best_response(
    game: LendingGame,
    profile: np.ndarray,
    i: int,
    grid_step: float = 1e-3,
) -> np.ndarray:
    """Exhaustive grid-search best response for lender i (n <= 3 only).

    Every coordinate and the budget are restricted to multiples of
    grid_step; the grid optimum is found by exact dynamic programming over
    the discrete allocations, which enumerates the same set of candidates as
    brute force.
    """
    if game.n > 3:
        raise ValueError("grid oracle is limited to n <= 3")
    check_lender(game, i)
    s = np.asarray(profile, dtype=float)
    residual = s.sum(axis=0) - s[i]
    budget = float(game.budgets[i])
    k_max = int(np.floor(budget / grid_step + 1e-12))
    amounts = np.arange(k_max + 1) * grid_step
    # Per-borrower payoff on the grid (rate-span factor dropped: positive).
    payoff = [amounts * (game.demands[j] - residual[j] - amounts) / game.demands[j] for j in range(game.n)]

    best = payoff[0].copy()          # best value using exactly k units so far
    choices = [np.arange(k_max + 1)]
    for j in range(1, game.n):
        new_best = np.full(k_max + 1, -np.inf)
        choice = np.zeros(k_max + 1, dtype=int)
        for k in range(k_max + 1):   # units given to borrower j
            cand = np.full(k_max + 1, -np.inf)
            cand[k:] = best[: k_max + 1 - k] + payoff[j][k]
            better = cand > new_best
            new_best[better] = cand[better]
            choice[better] = k
        best = new_best
        choices.append(choice)

    total = int(np.argmax(best))
    x = np.zeros(game.n)
    for j in range(game.n - 1, 0, -1):
        k = int(choices[j][total])
        x[j] = k * grid_step
        total -= k
    x[0] = total * grid_step
    return x


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
    # A boolean is no lender index: True would read as lender 1 in a range
    # check and as a new axis in s[True].
    s = np.zeros((2, 1))
    for i in (two_lender_game.m, -1, 1.0, True, np.True_):
        for fn in (best_response, utility, grid_best_response):
            with pytest.raises(IndexError):
                fn(two_lender_game, s, i)


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
        ref = np.stack([loop_water_fill(g.demands, s.sum(axis=0) - s[i], g.budgets[i])
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
        t = s.sum(axis=0) - s[i]
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


def reference_capped_projection(b, cap, w=None):
    """The kernel before the full-prefix shortcut: the last-prefix rule on
    every over-cap row.  Returns x and, per over-cap row, the index of the
    prefix the rule picked (None when no row is over the cap)."""
    x = np.maximum(b, 0.0) if w is None else w * np.maximum(b, 0.0)
    over = x.sum(axis=-1) > cap
    if not over.any():
        return x, None
    rows = b[over]
    top = np.sort(rows, axis=1)[:, ::-1]
    if w is None:
        prefix_w = np.arange(1, top.shape[1] + 1)
        prefix_b = np.cumsum(top, axis=1)
    else:
        w_sorted = w[np.argsort(rows, axis=1)[:, ::-1]]
        prefix_w = np.cumsum(w_sorted, axis=1)
        prefix_b = np.cumsum(w_sorted * top, axis=1)
    row_cap = np.asarray(cap)[over, None] if np.ndim(cap) else cap
    bounds = (prefix_b - row_cap) / prefix_w
    last = np.where(top > bounds, np.arange(top.shape[1]), 0).max(axis=1)
    lam = bounds[np.arange(len(bounds)), last]
    shift = np.maximum(rows - lam[:, None], 0.0)
    x[over] = shift if w is None else w * shift
    return x, last


def kernel_inputs():
    """(b, cap, w): the 20,000 inputs of the projection's bit-for-bit test
    in test_dynamics.py, each with weights w = d / 2."""
    rng = seeded_rng(34)
    weights = seeded_rng(35)
    for k in range(20_000):
        n = int(rng.integers(1, 13))
        shape = (n,) if k % 2 == 0 else (int(rng.integers(1, 9)), n)
        kind = (k // 2) % 4
        if kind == 1:
            v = rng.integers(-3, 4, shape).astype(float)
            cap = rng.integers(1, 5, shape[:-1]).astype(float)
        else:
            v = rng.uniform(-1.0, 2.0, shape)
            cap = rng.uniform(0.05, 3.0, shape[:-1])
        if kind == 2:
            v = -np.abs(v)
        elif kind == 3:
            v[rng.random(shape[:-1]) < 0.5] *= -1.0
        if len(shape) == 1 or k % 4 == 1:
            cap = float(rng.uniform(0.05, 3.0))
        scale = 10.0 ** int(rng.integers(-9, 13))
        d = weights.integers(1, 9, n).astype(float) if kind == 1 else weights.uniform(0.5, 100.0, n)
        yield v * scale, cap * scale, 0.5 * d


def test_kernel_shortcut_matches_reference_bit_for_bit():
    # Unit and w = d / 2 weights, as the projection and the best responses
    # call the kernel.  The full-prefix shortcut applies when the rule picks
    # the last prefix in every over-cap row; both it and the general rule
    # must run often.
    branches = {"shortcut": 0, "general": 0}
    for b, cap, w in kernel_inputs():
        for weights in (None, w):
            out = _capped_projection(b, cap, weights)
            ref, last = reference_capped_projection(b, cap, weights)
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), (b, cap, weights)
            if last is not None:
                branches["shortcut" if (last == b.shape[-1] - 1).all() else "general"] += 1
    assert branches["shortcut"] >= 1_000 and branches["general"] >= 1_000, branches


def test_kernel_tie_at_full_prefix_bound():
    # The smallest b equals the full prefix's bound exactly: small integers
    # and half-integer weights, scaled by powers of two, keep
    # cap = sum w b - min b sum w exact.  The shortcut needs the smallest b
    # strictly above the bound, so ties take the general rule, which picks
    # an earlier prefix.
    rng = seeded_rng(36)
    for _ in range(2_000):
        n = int(rng.integers(2, 13))
        b = rng.integers(1, 7, n).astype(float)
        b[0] = b.min() + 1.0
        scale = 2.0 ** int(rng.integers(-30, 41))
        for w in (None, 0.5 * rng.integers(1, 9, n)):
            ww = np.ones(n) if w is None else w
            cap = float((ww * b).sum() - b.min() * ww.sum()) * scale
            out = _capped_projection(b * scale, cap, w)
            ref, last = reference_capped_projection(b * scale, cap, w)
            assert out.tobytes() == ref.tobytes(), (b, cap, w)
            assert last[0] < n - 1


@pytest.mark.parametrize("w, expected", [
    (None, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    (np.array([0.5, 2.0, 1.5]), [[0.6, 0.3999999999999999, 0.0], [0.0, 0.0, 0.0]]),
], ids=["unit", "weighted"])
def test_kernel_no_warning_on_rows_under_the_cap(w, expected):
    # The kernel works on whole rows.  A row under the cap must not enter
    # its arithmetic: here the prefix sums of the second row would
    # overflow.  The expected bytes are those of the kernel that gathered
    # the over-cap rows and never touched the others.
    b = np.array([[2.0, 1.0, 0.5], [-1e308, -1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _capped_projection(b, np.array([1.0, 1.0]), w)
    assert out.tobytes() == np.array(expected).tobytes()


def test_kernel_mixed_rows_match_reference_bit_for_bit():
    # Batches in which some rows are over their own cap and some are not,
    # the latter including huge, infinite and NaN entries that the
    # arithmetic of an over-cap row would turn into warnings.
    rng = seeded_rng(37)
    weights = seeded_rng(38)
    fills = (-1e308, -np.inf, np.nan, 0.0, -0.0)
    for k in range(2_000):
        rows, n = int(rng.integers(2, 10)), int(rng.integers(1, 13))
        b = rng.uniform(-1.0, 2.0, (rows, n)) * 10.0 ** int(rng.integers(-9, 13))
        x = np.maximum(b, 0.0)
        cap = x.sum(axis=1) * rng.uniform(0.2, 1.8, rows)
        under = rng.random(rows) < 0.5
        cap[under] = np.inf if k % 5 == 0 else x[under].sum(axis=1) * 2.0 + 1.0
        for i in np.flatnonzero(under & (rng.random(rows) < 0.5)):
            b[i, rng.random(n) < 0.5] = fills[k % len(fills)]
        for w in (None, 0.5 * weights.uniform(0.5, 100.0, n)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = _capped_projection(b, cap, w)
            ref, _ = reference_capped_projection(b, cap, w)
            assert out.tobytes() == ref.tobytes(), (b, cap, w)
