"""Scale invariance: budgets and demands times 10^k, k in -9..12, pass or
fail every check the same way as at unit scale."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lendgame import (
    LendingGame,
    best_response_gains,
    certify,
    potential,
    solve_equilibrium,
    validate_profile,
)
from lendgame.cli import main, parse_scenario
from lendgame.oracle import random_profile
from lendgame.verify import check_instance

from conftest import seeded_rng

SCALES = range(-9, 13)


@st.composite
def unit_games(draw):
    """A game with budgets and demands in [0.1, 1], and a check seed."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    unit = st.floats(0.1, 1.0)
    budgets = draw(st.lists(unit, min_size=m, max_size=m))
    demands = draw(st.lists(unit, min_size=n, max_size=n))
    rate_min = draw(st.floats(0.005, 0.1))
    rate_max = rate_min + draw(st.floats(0.01, 0.1))
    return (np.array(budgets), np.array(demands), rate_min, rate_max), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(unit_games())
def test_checks_pass_at_every_scale(instance):
    (budgets, demands, rate_min, rate_max), seed = instance
    for k in SCALES:
        game = LendingGame(budgets * 10.0**k, demands * 10.0**k, rate_min, rate_max)
        result = solve_equilibrium(game)
        validate_profile(game, result.profile)
        assert certify(game, result).passed, k
        data = json.loads(json.dumps({"lenders": game.budgets.tolist(),
                                      "borrowers": game.demands.tolist(),
                                      "rate_min": rate_min, "rate_max": rate_max,
                                      "initial_profile": result.profile.tolist()}))
        assert np.array_equal(parse_scenario(data).initial_profile, result.profile)
        failed = [(name, detail) for name, ok, detail in check_instance(game, seeded_rng(seed))
                  if not ok]
        assert not failed, (k, failed)


def test_validate_profile_slack_is_relative_to_budget():
    big = LendingGame([1e11], [3e11], 0.02, 0.08)
    validate_profile(big, [[1e11 * (1.0 + 1e-12)]])
    small = LendingGame([1e-3], [3e-3], 0.02, 0.08)
    for profile in ([[1e-3 + 1e-11]], [[-1e-11]]):
        with pytest.raises(ValueError):
            validate_profile(small, profile)


def test_improvement_bound_exact_single_pair():
    # c < d / 9.  With one lender and one borrower the best response is the
    # equilibrium, so the gain equals the gap exactly.
    game = LendingGame([1.0], [100.0], 0.02, 0.08)
    s = random_profile(seeded_rng(0), game)  # the first profile check_instance draws
    gain = float(best_response_gains(game, s)[0])
    gap = potential(game, solve_equilibrium(game).profile) - potential(game, s)
    a = game.gradient_variation_bound()
    assert abs(gain - gap) <= 1e-15 * game.utility_scale
    old_bound = gap * gap / (4.0 * a * game.budgets.max() ** 2)
    new_bound = gap * gap / (4.0 * a * game.cash_scale ** 2)
    assert gain < old_bound          # the bound with c_max is false here
    assert gain >= new_bound         # the bound with the diameter holds
    rows = {name: ok for name, ok, _ in check_instance(game, seeded_rng(0))}
    assert rows["improvement_bound"]


def test_verify_single_pair_seed_302_passes(capsys):
    assert main(["verify", "--random", "1", "--seed", "302"]) == 0
    assert "FAIL" not in capsys.readouterr().out
