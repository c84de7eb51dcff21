import numpy as np
import pytest

from lendgame import (
    LendingGame,
    concavity_gap,
    finite_difference_gradient,
    hessian_quadratic_form,
    jacobian_quadratic_form,
    potential,
    projected_gradient_solve,
    solve_equilibrium,
)
from lendgame import oracle
from lendgame.best_response import _capped_projection
from lendgame.dynamics import project_capped_simplex
from lendgame.game import BLOCK_FLOATS, potential_gradient
from lendgame.oracle import certificate_step, gradient_tol_for_profile_tol, random_game, random_profile

from conftest import seeded_rng


def test_solver_monopoly(monopoly_game):
    sol = projected_gradient_solve(monopoly_game, tol=1e-10)
    assert sol.converged
    assert sol.profile[0, 0] == pytest.approx(5.0, abs=1e-8)


def test_solver_two_lender(two_lender_game):
    sol = projected_gradient_solve(two_lender_game, tol=1e-10)
    assert np.abs(sol.profile - [[1.0], [2.5]]).max() <= 1e-6


def test_solver_never_exceeds_optimum():
    rng = seeded_rng(40)
    for _ in range(20):
        g = random_game(rng, 8, 8)
        star_value = potential(g, solve_equilibrium(g).profile)
        sol = projected_gradient_solve(g, tol=1e-8)
        assert sol.achieved_potential <= star_value + 1e-12


def test_solver_partial_result_on_cap(two_lender_game):
    sol = projected_gradient_solve(two_lender_game, tol=1e-15, max_iters=3)
    assert not sol.converged
    assert sol.iterations == 3


def _ill_conditioned_game():
    """8 x 8, max d / min d = 20: condition number (m + 1) * 20 = 180."""
    return LendingGame(np.linspace(2.0, 30.0, 8), np.linspace(1.0, 20.0, 8), 0.02, 0.08)


def _plain_step_move(g, profile):
    """Sup-norm move of one plain projected-gradient step of the certificate."""
    step = certificate_step(g)
    plain = project_capped_simplex(profile + step * potential_gradient(g, profile), g.budgets)
    return float(np.abs(plain - profile).max()), step


def test_solver_certificate_holds_independently():
    rng = seeded_rng(46)
    for g in [_ill_conditioned_game()] + [random_game(rng, 8, 8) for _ in range(20)]:
        tol = gradient_tol_for_profile_tol(g, 1e-8 * g.cash_scale)
        sol = projected_gradient_solve(g, tol=tol)
        assert sol.converged
        move, step = _plain_step_move(g, sol.profile)
        assert move <= tol * step


def test_solver_keeps_iterating_when_certificate_fails():
    # m = 7, n = 1, interior start with grad Phi = delta (1, -1, ..., -1): the
    # first 1/L step moves by delta / L <= tol / L, but at its end the
    # gradient's first entry is 2 (m - 1) / (m + 1) delta = 1.5 delta > tol.
    m, delta = 7, 1e-6
    g = LendingGame(np.full(m, 10.0), [1.0], 0.02, 0.08)
    direction = -np.ones((m, 1))
    direction[0] = 1.0
    start = 1.0 / (m + 1) + np.linalg.solve(-g.rate_span * (np.eye(m) + 1.0), delta * direction)
    tol = 1.2 * delta
    sol = projected_gradient_solve(g, tol=tol, start=start)
    assert sol.converged and sol.iterations > 1
    move, step = _plain_step_move(g, sol.profile)
    assert move <= tol * step


def _preconditioned_step(g, y):
    """The oracle's step from y: z = y + (d / L_W) grad(y), projected in the
    metric sum_ij x_ij^2 / d_j, with L_W = span (m + 1)."""
    d, lip = g.demands, g.rate_span * (g.m + 1)
    z = y + (d / lip) * potential_gradient(g, y)
    return _capped_projection(z / d, g.budgets, d)


def test_solver_restarts_momentum(monkeypatch):
    # The gradient is evaluated at the momentum point y.  Without a restart,
    # y_{k+1} = x_k + beta_k (x_k - x_{k-1}) with beta_k > 0 from the second
    # step on; a restart makes the next step (and the one after) plain, so a
    # later gradient point is exactly the preconditioned step from the one
    # before.  Moves above tol in the scaled norm L_W |D / d|_max rule out
    # the certificate's evaluations.
    g = _ill_conditioned_game()
    tol = gradient_tol_for_profile_tol(g, 1e-8 * g.cash_scale)
    lip = g.rate_span * (g.m + 1)
    points = []

    def recording_gradient(game, s):
        points.append(np.array(s, copy=True))
        return potential_gradient(game, s)

    monkeypatch.setattr(oracle, "potential_gradient", recording_gradient)
    assert projected_gradient_solve(g, tol=tol).converged
    plain_steps = [
        j for j in range(1, len(points) - 1)
        if np.abs((points[j + 1] - points[j]) / g.demands).max() * lip > tol
        and points[j + 1].tobytes() == _preconditioned_step(g, points[j]).tobytes()
    ]
    assert plain_steps


def test_solver_iteration_count_regression():
    # The fixed-step loop at 1 / (2L) needed 5,509 iterations on this game at
    # this tolerance, the Euclidean accelerated loop 315; the accelerated
    # loop in the 1/d metric needs 18.
    g = _ill_conditioned_game()
    sol = projected_gradient_solve(g, tol=gradient_tol_for_profile_tol(g, 1e-8 * g.cash_scale))
    assert sol.converged
    assert sol.iterations <= 315 // 8


def test_solver_iterations_flat_in_demand_ratio():
    # In the 1/d metric the condition number is m + 1 whatever the demands.
    # The Euclidean loop took 7, 272 and 1,027 iterations at ratios 1, 20
    # and 400; the preconditioned loop takes 7, 15 and 11.
    counts = []
    for r in (1.0, 20.0, 400.0):
        g = LendingGame(np.linspace(2.0, 30.0, 8), np.geomspace(20.0 / r, 20.0, 8), 0.02, 0.08)
        sol = projected_gradient_solve(g, tol=gradient_tol_for_profile_tol(g, 1e-8 * g.cash_scale))
        assert sol.converged
        counts.append(sol.iterations)
    assert max(counts) <= 3 * counts[0]


def test_solver_tolerance_floored_at_rounding_level():
    # verify asks for 6e-11 here, below the 7.5e-10 that the plain-step map
    # reads at the closed form itself: the loop ran for 51 s.
    g = LendingGame([18.59, 83.93, 24.78, 82.63, 1.116, 6.259], [1e-6, 100.0], 0.02, 0.08)
    sol = projected_gradient_solve(g, tol=gradient_tol_for_profile_tol(g, 1e-8 * g.cash_scale))
    assert sol.converged and sol.iterations < 1000
    assert np.abs(sol.profile - solve_equilibrium(g).profile).max() <= 1e-6 * g.cash_scale


def test_fd_gradient_zero_profile(two_lender_game):
    fd = finite_difference_gradient(two_lender_game, np.zeros((2, 1)))
    assert np.allclose(fd, 0.06, atol=1e-9)


def test_fd_gradient_h_independence():
    # The potential is quadratic, so central differences are h-independent
    # up to rounding.
    rng = seeded_rng(41)
    g = random_game(rng, 4, 4)
    s = random_profile(rng, g)
    f1 = finite_difference_gradient(g, s, 1e-4)
    f2 = finite_difference_gradient(g, s, 1e-6)
    assert np.abs(f1 - f2).max() <= 1e-6


def _loop_fd_gradient(game, profile, h):
    """Reference: one potential call per perturbed profile."""
    s = np.asarray(profile, dtype=float)
    out = np.empty_like(s)
    for i in range(game.m):
        for j in range(game.n):
            plus = s.copy()
            minus = s.copy()
            plus[i, j] += h
            minus[i, j] -= h
            out[i, j] = (potential(game, plus) - potential(game, minus)) / (2.0 * h)
    return out


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e6, 1e12])
def test_fd_gradient_matches_loop_bytes(scale):
    rng = seeded_rng(47)
    for _ in range(20):
        g = random_game(rng, 8, 8)
        g = LendingGame(g.budgets * scale, g.demands * scale, g.rate_min, g.rate_max)
        s = random_profile(rng, g)
        h = 1e-5 * g.cash_scale
        assert finite_difference_gradient(g, s).tobytes() == _loop_fd_gradient(g, s, h).tobytes()


def test_fd_gradient_matches_loop_bytes_1x1(monopoly_game):
    s = np.array([[2.5]])
    expected = _loop_fd_gradient(monopoly_game, s, 1e-3)
    assert finite_difference_gradient(monopoly_game, s, 1e-3).tobytes() == expected.tobytes()


def test_fd_gradient_matches_loop_bytes_across_chunks():
    # 20 x 15 = 300 entries: 600 perturbed profiles, evaluated in chunks of
    # BLOCK_FLOATS // 300 = 218, so chunk boundaries fall inside both the
    # plus and the minus halves.
    rng = seeded_rng(48)
    g = LendingGame(rng.uniform(0.5, 100.0, 20), rng.uniform(0.5, 100.0, 15), 0.02, 0.08)
    assert BLOCK_FLOATS // (g.m * g.n) < g.m * g.n
    s = random_profile(rng, g)
    h = 1e-5 * g.cash_scale
    assert finite_difference_gradient(g, s).tobytes() == _loop_fd_gradient(g, s, h).tobytes()


@pytest.mark.parametrize("h", [0.0, -1e-5])
def test_fd_gradient_refuses_a_step_that_is_not_positive(two_lender_game, h):
    with pytest.raises(ValueError, match="h must be positive"):
        finite_difference_gradient(two_lender_game, np.zeros((2, 1)), h)


def test_concavity_gap_zero_for_equal_profiles(two_lender_game):
    s = np.array([[0.5], [1.0]])
    measured, closed = concavity_gap(two_lender_game, s, s, 0.3)
    assert measured == pytest.approx(0.0, abs=1e-15)
    assert closed == pytest.approx(0.0, abs=1e-15)


def test_concavity_gap_lambda_symmetry():
    rng = seeded_rng(42)
    g = random_game(rng, 4, 4)
    s, s2 = random_profile(rng, g), random_profile(rng, g)
    m1, c1 = concavity_gap(g, s, s2, 0.3)
    m2, c2 = concavity_gap(g, s2, s, 0.7)
    assert m1 == pytest.approx(m2, abs=1e-12)
    assert c1 == pytest.approx(c2, abs=1e-12)


def test_concavity_gap_identity():
    rng = seeded_rng(43)
    for _ in range(200):
        g = random_game(rng, 6, 6)
        s, s2 = random_profile(rng, g), random_profile(rng, g)
        lam = float(rng.uniform(0.05, 0.95))
        measured, closed = concavity_gap(g, s, s2, lam)
        assert measured == pytest.approx(closed, abs=1e-12)
        if not np.allclose(s, s2):
            assert closed > 0.0


def test_concavity_gap_rejects_bad_lambda(two_lender_game):
    s = np.zeros((2, 1))
    with pytest.raises(ValueError):
        concavity_gap(two_lender_game, s, s, 1.0)


def test_jacobian_quadratic_form_hand_values():
    g = LendingGame([5.0, 5.0], [6.0], 0.02, 0.08)
    assert jacobian_quadratic_form(g, np.array([1.0, 0.0])) == pytest.approx(-0.02, abs=1e-15)
    assert jacobian_quadratic_form(g, np.array([1.0, 1.0])) == pytest.approx(-0.06, abs=1e-15)
    assert hessian_quadratic_form(g, np.array([1.0, 1.0])) == pytest.approx(-0.06, abs=1e-15)


def test_jacobian_zero_vector(two_lender_game):
    assert jacobian_quadratic_form(two_lender_game, np.zeros(2)) == 0.0


def test_jacobian_wrong_length(two_lender_game):
    with pytest.raises(ValueError):
        jacobian_quadratic_form(two_lender_game, np.zeros(3))


def test_jacobian_negative_definite():
    rng = seeded_rng(44)
    for _ in range(200):
        g = random_game(rng, 6, 6)
        v = rng.standard_normal(g.m * g.n)
        qf = jacobian_quadratic_form(g, v)
        assert qf < 0.0
        assert qf == pytest.approx(hessian_quadratic_form(g, v), abs=1e-12 * max(1.0, abs(qf)))


def test_oracle_equivalence_small_batch():
    rng = seeded_rng(45)
    for _ in range(20):
        g = random_game(rng, 8, 8)
        star = solve_equilibrium(g).profile
        tol = min(1e-9, gradient_tol_for_profile_tol(g, 1e-6))
        sol = projected_gradient_solve(g, tol=tol)
        assert sol.converged
        assert np.abs(sol.profile - star).max() <= 1e-6
