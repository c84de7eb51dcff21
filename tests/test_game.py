import numpy as np
import pytest

from lendgame import (
    LendingGame,
    interest_rates,
    potential,
    potential_gradient,
    potential_telescoped,
    solve_equilibrium,
    utility,
    validate_profile,
)
from lendgame.oracle import finite_difference_gradient, random_game, random_profile

from conftest import seeded_rng


def test_game_invariants_rejected():
    with pytest.raises(ValueError, match="budget"):
        LendingGame([0.0, 1.0], [1.0], 0.02, 0.08)
    with pytest.raises(ValueError, match="demand"):
        LendingGame([1.0], [-1.0], 0.02, 0.08)
    with pytest.raises(ValueError, match="corridor"):
        LendingGame([1.0], [1.0], 0.08, 0.02)
    with pytest.raises(ValueError, match="corridor"):
        LendingGame([1.0], [1.0], 0.0, 0.08)


@pytest.mark.parametrize("budgets, demands, rate_min, rate_max", [
    ([1.0, np.inf], [1.0], 0.02, 0.08),
    ([1.0], [np.inf], 0.02, 0.08),
    ([1.0], [1.0], 0.02, np.inf),
    ([1.0], [1.0], np.nan, 0.08),
], ids=["budget", "demand", "rate_max", "rate_min"])
def test_game_rejects_non_finite(budgets, demands, rate_min, rate_max):
    with pytest.raises(ValueError, match="finite"):
        LendingGame(budgets, demands, rate_min, rate_max)


def test_profile_validation():
    game = LendingGame([1.0, 2.0], [3.0], 0.02, 0.08)
    validate_profile(game, [[0.5], [2.0]])
    with pytest.raises(ValueError, match="shape"):
        validate_profile(game, [[0.5, 0.5]])
    with pytest.raises(ValueError, match="negative"):
        validate_profile(game, [[-0.5], [0.0]])
    with pytest.raises(ValueError, match="budget"):
        validate_profile(game, [[1.5], [0.0]])


def test_profile_validation_rejects_non_finite():
    game = LendingGame([1.0, 2.0], [3.0], 0.02, 0.08)
    with pytest.raises(ValueError, match="lender 1 has non-finite"):
        validate_profile(game, [[0.5], [np.nan]])
    with pytest.raises(ValueError, match="lender 0 has non-finite"):
        validate_profile(game, [[np.inf], [0.0]])


def test_interest_rate_endpoints(two_lender_game):
    g = two_lender_game
    assert interest_rates(g, np.zeros((2, 1)))[0] == pytest.approx(0.08)
    full = np.array([[2.0], [4.0]])  # supply equals demand
    assert interest_rates(g, full)[0] == pytest.approx(0.02)


def test_interest_rate_midpoint(two_lender_game):
    s = np.array([[1.0], [2.5]])
    assert interest_rates(two_lender_game, s)[0] == pytest.approx(0.045, abs=1e-15)


def test_interest_rate_oversupply_below_corridor():
    g = LendingGame([20.0], [6.0], 0.02, 0.08)
    s = np.array([[12.0]])
    assert interest_rates(g, s)[0] == pytest.approx(-0.04, abs=1e-15)


def test_utility_examples():
    g = LendingGame([20.0], [10.0], 0.02, 0.08)
    assert utility(g, np.array([[0.0]]), 0) == 0.0
    assert utility(g, np.array([[5.0]]), 0) == pytest.approx(0.15, abs=1e-15)
    # Oversupply: rate 0.008 < rate_min, margin -0.012 on 12 units.
    assert utility(g, np.array([[12.0]]), 0) == pytest.approx(-0.144, abs=1e-12)
    # Same oversupply amount against demand 6: rate -0.04, utility -0.72.
    g6 = LendingGame([20.0], [6.0], 0.02, 0.08)
    assert utility(g6, np.array([[12.0]]), 0) == pytest.approx(-0.72, abs=1e-12)


def test_potential_hand_value(two_lender_game):
    s = np.array([[1.0], [2.5]])
    assert potential(two_lender_game, s) == pytest.approx(0.1125, abs=1e-12)
    assert potential_telescoped(two_lender_game, s) == pytest.approx(0.05 + 0.0625, abs=1e-12)


def test_potential_zero_profile(two_lender_game):
    assert potential(two_lender_game, np.zeros((2, 1))) == 0.0


def test_potential_single_lender_equals_utility():
    rng = seeded_rng(3)
    for _ in range(20):
        g = random_game(rng, max_m=1, max_n=6)
        s = random_profile(rng, g)
        assert potential(g, s) == pytest.approx(utility(g, s, 0), abs=1e-12)


def test_potential_forms_agree():
    rng = seeded_rng(4)
    for _ in range(100):
        g = random_game(rng, 8, 8)
        s = random_profile(rng, g)
        assert potential(g, s) == pytest.approx(potential_telescoped(g, s), abs=1e-10)


def test_stacked_potential_matches_single_calls_bit_for_bit():
    # run evaluates a block of profiles in one call; each entry must have
    # the bits of the single call, for n up to 12 and magnitudes 1e-9 to 1e12.
    rng = seeded_rng(6)
    profiles = 0
    for k in range(600):
        m, n = (int(x) for x in rng.integers(1, 13, 2))
        scale = 10.0 ** int(rng.integers(-9, 13))
        g = LendingGame(rng.uniform(0.5, 100.0, m) * scale, rng.uniform(0.5, 100.0, n) * scale,
                        0.02, float(rng.uniform(0.03, 0.3)))
        stack = rng.uniform(0.0, 10.0, (int(rng.integers(1, 70)), m, n)) * scale
        if k % 2:
            stack = stack[None]  # two leading axes
        stacked = potential(g, stack)
        single = np.array([potential(g, s) for s in stack.reshape(-1, m, n)])
        assert stacked.shape == stack.shape[:-2]
        assert stacked.tobytes() == single.tobytes(), k
        profiles += single.size
    assert profiles > 10_000


def test_potential_difference_identity():
    # Exact-potential property: a unilateral deviation changes the potential
    # by exactly the deviator's utility change.
    rng = seeded_rng(5)
    for _ in range(200):
        g = random_game(rng, 8, 8)
        s = random_profile(rng, g)
        k = int(rng.integers(g.m))
        deviated = s.copy()
        deviated[k] = random_profile(rng, g)[k]
        d_phi = potential(g, deviated) - potential(g, s)
        d_u = utility(g, deviated, k) - utility(g, s, k)
        assert d_phi == pytest.approx(d_u, abs=1e-10)


def test_gradient_zero_profile(two_lender_game):
    grad = potential_gradient(two_lender_game, np.zeros((2, 1)))
    assert np.allclose(grad, 0.06)


def test_gradient_matches_finite_differences():
    rng = seeded_rng(6)
    for _ in range(20):
        g = random_game(rng, 6, 6)
        s = random_profile(rng, g)
        fd = finite_difference_gradient(g, s, 1e-5)
        assert np.abs(fd - potential_gradient(g, s)).max() < 1e-6


def test_gradient_zero_rows_for_unexhausted_lenders():
    rng = seeded_rng(7)
    for _ in range(30):
        g = random_game(rng, 8, 6)
        res = solve_equilibrium(g)
        grad = potential_gradient(g, res.profile)
        unexhausted = np.setdiff1d(np.arange(g.m), res.exhausted_set)
        if unexhausted.size:
            assert np.abs(grad[unexhausted]).max() < 1e-12


def test_gradient_variation_bound():
    rng = seeded_rng(8)
    for _ in range(100):
        g = random_game(rng, 8, 8)
        s, s2 = random_profile(rng, g), random_profile(rng, g)
        lhs = np.abs(potential_gradient(g, s) - potential_gradient(g, s2)).max()
        rhs = g.gradient_variation_bound() * np.abs(s - s2).sum()
        assert lhs <= rhs + 1e-12


def test_rate_corridor_without_oversupply():
    rng = seeded_rng(9)
    for _ in range(50):
        g = random_game(rng, 6, 6)
        s = random_profile(rng, g)
        # Scale columns down so no borrower is oversupplied.
        supply = s.sum(axis=0)
        over = supply > g.demands
        if over.any():
            s[:, over] *= (g.demands[over] / supply[over])
        rates = interest_rates(g, s)
        assert np.all(rates >= g.rate_min - 1e-12)
        assert np.all(rates <= g.rate_max + 1e-12)


def test_package_exports_no_modules():
    import types

    import lendgame

    assert lendgame.__all__
    for name in lendgame.__all__:
        assert not isinstance(getattr(lendgame, name), types.ModuleType), name
