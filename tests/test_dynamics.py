import inspect
from dataclasses import replace

import numpy as np
import pytest

from lendgame import (
    VARIANTS,
    DynamicsConfig,
    LendingGame,
    Trajectory,
    best_response,
    best_response_gains,
    best_response_profile,
    integrate_continuous,
    pg_step_bound,
    potential,
    potential_gradient,
    project_capped_simplex,
    run,
    solve_equilibrium,
    step_eager,
    step_pseudo_gradient,
    step_randomised,
    validate_profile,
)
from lendgame.best_response import _capped_projection
from lendgame.dynamics import FIELDS, ConfigError, _continuous, _lender_draw
from lendgame.game import check
from lendgame.oracle import random_game, random_profile

from conftest import seeded_rng


def random_square_game(seed, m, n):
    r = np.random.default_rng(seed)
    return LendingGame(r.uniform(0.5, 100.0, m), r.uniform(0.5, 100.0, n), 0.02, 0.08)


def test_projection_examples():
    assert np.allclose(project_capped_simplex(np.array([-1.0, 2.0]), 1.0), [0.0, 1.0])
    assert np.allclose(project_capped_simplex(np.array([0.2, 0.3]), 1.0), [0.2, 0.3])
    assert np.allclose(project_capped_simplex(np.array([1.0, 1.0]), 1.0), [0.5, 0.5])


def test_projection_against_grid():
    # Euclidean projection minimises the distance over the feasible grid.
    rng = seeded_rng(30)
    for _ in range(50):
        v = rng.uniform(-2.0, 2.0, 2)
        cap = float(rng.uniform(0.5, 2.0))
        p = project_capped_simplex(v, cap)
        xs = np.linspace(0.0, cap, 201)
        grid = np.array([(a, b) for a in xs for b in xs if a + b <= cap + 1e-12])
        dists = np.linalg.norm(grid - v, axis=1)
        assert np.linalg.norm(p - v) <= dists.min() + 1e-6


def reference_project_capped_simplex(v, cap):
    """The projection's own sort-and-mean rule, from before it became the
    unit-weight call of the best-response kernel: the reference it is held
    to bit for bit."""
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    over = clipped.sum(axis=-1) > cap
    if not over.any():
        return clipped
    rows = np.atleast_2d(v)
    u = np.sort(rows, axis=1)[:, ::-1]
    mean = (np.cumsum(u, axis=1) - np.reshape(cap, (-1, 1))) / np.arange(1, u.shape[1] + 1)
    # rho: last sorted position still above its shifted running mean.
    rho = u.shape[1] - 1 - np.argmax(u[:, ::-1] > mean[:, ::-1], axis=1)
    theta = mean[np.arange(len(u)), rho].reshape(over.shape + (1,))
    return np.where(over[..., None], np.maximum(v - theta, 0.0), clipped)


def test_projection_matches_reference_bit_for_bit():
    # Even k: one vector; odd k: a matrix, with a scalar cap half the time.
    # Values are continuous, small integers (tied values) or non-positive,
    # some matrices mix all-non-positive rows with others, and every input
    # is scaled by 10^e, e in -9..12.
    rng = seeded_rng(34)
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
        out = project_capped_simplex(v * scale, cap * scale)
        ref = reference_project_capped_simplex(v * scale, cap * scale)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), (k, v, cap)


def test_projection_cap_below_rounding():
    # A cap of zero, or one below the rounding error of the largest value,
    # zeroes every coordinate.  No prefix passes its own test there, and the
    # last-prefix rule alone would pick the level of the whole row.
    assert np.array_equal(project_capped_simplex(np.array([1.0, 0.5]), 0.0), [0.0, 0.0])
    assert np.array_equal(project_capped_simplex(np.array([[1.0, 0.5], [3.0, 3.0]]), [1e-20, 1.0]),
                          [[0.0, 0.0], [0.5, 0.5]])


def test_eager_fixed_point(two_lender_game):
    star = solve_equilibrium(two_lender_game).profile
    new, _, gain = step_eager(two_lender_game, star, 0.7)
    assert np.abs(new - star).max() <= 1e-12
    assert abs(gain) <= 1e-12


def test_eager_zero_start_picks_largest_gain(two_lender_game):
    new, lender, gain = step_eager(two_lender_game, np.zeros((2, 1)), 1.0)
    assert lender == 1
    assert gain == pytest.approx(0.09, abs=1e-12)
    assert new[1, 0] == pytest.approx(3.0, abs=1e-12)
    assert new[0, 0] == 0.0


def test_eager_single_lender_one_step(monopoly_game):
    star = solve_equilibrium(monopoly_game).profile
    new, _, _ = step_eager(monopoly_game, np.zeros((1, 1)), 1.0)
    assert np.abs(new - star).max() <= 1e-12


def test_randomised_fixed_point(two_lender_game):
    star = solve_equilibrium(two_lender_game).profile
    rng = seeded_rng(0)
    new, _ = step_randomised(two_lender_game, star, 1.0, np.array([0.5, 0.5]), rng)
    assert np.abs(new - star).max() <= 1e-12


def test_randomised_point_mass_equals_deterministic(two_lender_game):
    rng = seeded_rng(1)
    s = np.zeros((2, 1))
    new, lender = step_randomised(two_lender_game, s, 0.5, np.array([1.0 - 1e-12, 1e-12]), rng)
    assert lender == 0
    assert new[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_randomised_reproducible():
    g = random_square_game(5, 4, 3)
    cfg = DynamicsConfig(variant="randomised", alpha=0.8, max_iters=200, stop_gap=1e-15, seed=42)
    t1 = run(g, g.zero_profile(), cfg)
    t2 = run(g, g.zero_profile(), cfg)
    assert np.array_equal(t1.lenders, t2.lenders)
    assert np.array_equal(t1.potentials, t2.potentials)


def test_pseudo_gradient_fixed_point(two_lender_game):
    star = solve_equilibrium(two_lender_game).profile
    step = 0.5 * pg_step_bound(two_lender_game)
    new = step_pseudo_gradient(two_lender_game, star, np.ones(2), step)
    assert np.abs(new - star).max() <= 1e-10


def test_pseudo_gradient_unprojected_step_at_zero():
    g = LendingGame([100.0, 100.0], [10.0], 0.02, 0.08)
    step = 0.5 * pg_step_bound(g)
    new = step_pseudo_gradient(g, g.zero_profile(), np.ones(2), step)
    assert np.allclose(new, step * g.rate_span)


def test_pseudo_gradient_step_bound_enforced(two_lender_game):
    bound = pg_step_bound(two_lender_game)
    with pytest.raises(ValueError, match="stability bound"):
        step_pseudo_gradient(two_lender_game, np.zeros((2, 1)), np.ones(2), 2.0 * bound)
    cfg = DynamicsConfig(variant="pseudo_gradient", pg_step=2.0 * bound)
    with pytest.raises(ValueError, match="stability bound"):
        cfg.resolved(two_lender_game)


def hessian_spectral_radius(game):
    """Spectral radius of the potential's Hessian, from eigvalsh of the
    explicit matrix.  The gradient is affine in the profile, so column k of
    the Hessian is grad(e_k) - grad(0), e_k the k-th unit profile."""
    base = potential_gradient(game, game.zero_profile()).ravel()
    size = game.m * game.n
    hessian = np.empty((size, size))
    for k in range(size):
        unit = np.zeros(size)
        unit[k] = 1.0
        hessian[:, k] = potential_gradient(game, unit.reshape(game.m, game.n)).ravel() - base
    return float(np.abs(np.linalg.eigvalsh(hessian)).max())


def test_pg_step_bound_is_the_reciprocal_spectral_radius():
    # Column j's Hessian block is -(span / d_j)(I + 11^T), with eigenvalues
    # -span (m + 1) / d_j and -span / d_j, so rho = span (m + 1) / min d and
    # the bound is 1 / (rho max w), max w = 1 for unit weights.  The
    # differences above are exact to about eps max d relative (grad(0) is
    # span and grad(e_k) - grad(0) is span / d_j or 2 span / d_j), and
    # eigvalsh adds a few eps.
    rng = seeded_rng(50)
    for _ in range(50):
        g = random_game(rng, 8, 8)
        rho = hessian_spectral_radius(g)
        assert pg_step_bound(g) * rho == pytest.approx(1.0, abs=1e-12)
        w = rng.uniform(0.1, 3.0, g.m)
        assert pg_step_bound(g, w) * w.max() * rho == pytest.approx(1.0, abs=1e-12)


def test_default_pg_step_is_the_bound_and_steps_below_it_are_accepted(two_lender_game):
    bound = pg_step_bound(two_lender_game)
    assert DynamicsConfig(variant="pseudo_gradient").resolved(two_lender_game).pg_step == bound
    # 0.75 / rho lay above the bound 1 / (2 rho) of earlier releases.
    cfg = DynamicsConfig(variant="pseudo_gradient", pg_step=0.75 * bound).resolved(two_lender_game)
    assert cfg.pg_step == 0.75 * bound


def test_defaults_meet_their_rows():
    # A scenario's dynamics block is checked only in the fields it gives, so
    # every default must meet its own row of FIELDS.
    defaults = vars(DynamicsConfig())
    assert check(FIELDS, defaults) == {key: value for key, value in defaults.items() if value is not None}


@pytest.mark.parametrize("m, n, every", [(1, 1, 10), (20, 25, 10), (1, 501, 11), (50, 90, 90),
                                         (1000, 1000, 20000)])
def test_default_snapshot_every_grows_with_the_game(m, n, every):
    # 10 while m n <= 500, where every game of the benchmark lies, and
    # ceil(m n / 50) above: about 50 snapshot floats per step.
    g = LendingGame(np.ones(m), np.ones(n), 0.02, 0.08)
    assert DynamicsConfig().resolved(g).snapshot_every == every
    assert DynamicsConfig(snapshot_every=7).resolved(g).snapshot_every == 7


def test_pseudo_gradient_at_the_default_step_meets_its_descent_and_rate_bounds():
    # Projected gradient ascent with step h on a potential that is
    # L-smooth and mu-strongly concave, in the metric sum_i |x_i|^2 / w_i
    # where the weighted step is plain (L = rho max w, mu = span min w /
    # max d, see pg_step_bound):
    # - Descent.  The projection gives <grad, x+ - x> >= |x+ - x|^2 / h, and
    #   smoothness gives phi(x+) >= phi(x) + <grad, x+ - x> - L |x+ - x|^2 / 2,
    #   so phi(x+) - phi(x) >= (1 / h - L / 2) |x+ - x|^2 >= 0 for h <= 1 / L.
    # - Rate.  The projected-gradient inequality with strong concavity gives,
    #   for every feasible z, gap(x+) <= gap(z) + (1 / h - mu) |z - x|^2 / 2
    #   (in gap form, with gap(x) = phi* - phi(x) and 1 / h >= L).  With
    #   z = x + theta (x* - x), concavity bounds gap(z) by
    #   (1 - theta) gap(x) - mu theta (1 - theta) |x - x*|^2 / 2; at
    #   theta = h mu the |x - x*|^2 terms cancel, so
    #   gap(x+) <= (1 - h mu) gap(x)  (Beck, First-Order Methods in
    #   Optimization, SIAM 2017, ch. 10).
    # Both hold at the default step h = 1 / L up to the rounding of the
    # recorded potentials, at most floor = 64 m eps utility_scale here.
    rng = seeded_rng(51)
    eps = np.finfo(float).eps
    for k in range(200):
        g = random_game(rng, 12, 12)
        w = rng.uniform(0.1, 3.0, g.m) if k % 2 else np.ones(g.m)
        cfg = DynamicsConfig(variant="pseudo_gradient", pg_weights=w, max_iters=300,
                             stop_gap=1e-300).resolved(g)
        traj = run(g, random_profile(rng, g), cfg)
        floor = 64 * g.m * eps * g.utility_scale
        mu = g.rate_span / g.demands.max()
        rate = 1.0 - cfg.pg_step * mu * w.min()
        assert np.diff(traj.potentials).min() >= -floor
        gaps = traj.lyapunov_gaps
        assert np.all(gaps[1:] <= rate * gaps[:-1] + floor)


def test_config_validation(two_lender_game):
    with pytest.raises(ValueError, match="alpha"):
        DynamicsConfig(alpha=0.0).resolved(two_lender_game)
    with pytest.raises(ValueError, match="variant"):
        DynamicsConfig(variant="fictitious_play").resolved(two_lender_game)
    with pytest.raises(ValueError, match="lender_weights"):
        DynamicsConfig(lender_weights=np.array([1.0, 0.0])).resolved(two_lender_game)


def test_boolean_weights_refused(monopoly_game, two_lender_game):
    # numpy reads true as 1: one lender with weight [true] was a valid
    # distribution, and pg_weights [true, 1.0] ran with weights [1, 1].
    with pytest.raises(ConfigError, match="lender_weights"):
        DynamicsConfig(variant="randomised", lender_weights=[True]).resolved(monopoly_game)
    with pytest.raises(ConfigError, match="pg_weights"):
        DynamicsConfig(variant="pseudo_gradient", pg_weights=np.array([True, True])).resolved(two_lender_game)


def test_lender_weights_checked_at_the_draw_tolerance():
    # Generator.choice accepts probabilities summing to 1 within sqrt(eps)
    # (about 1.5e-8); the config accepts exactly those.
    g = LendingGame([3.0, 4.0], [6.0, 7.0], 0.02, 0.08)
    near = DynamicsConfig(variant="randomised", lender_weights=[0.5 + 1e-8, 0.5], max_iters=5)
    assert run(g, g.zero_profile(), near).iterations >= 1
    for off in (2e-8, 5e-6):
        with pytest.raises(ValueError, match="lender_weights"):
            DynamicsConfig(lender_weights=[0.5 + off, 0.5]).resolved(g)


def test_continuous_exponential_solution(monopoly_game):
    traj = integrate_continuous(monopoly_game, np.zeros((1, 1)), 0.01, 2.0)
    snapshots = dict(traj.snapshots)
    for t in (0.5, 1.0, 2.0):
        value = snapshots[int(round(t / 0.01))][0, 0]
        assert value == pytest.approx(5.0 * (1.0 - np.exp(-t)), abs=1e-5)


def test_continuous_fixed_point(two_lender_game):
    star = solve_equilibrium(two_lender_game).profile
    traj = integrate_continuous(two_lender_game, star, 0.01, 1.0)
    assert np.abs(traj.final_profile - star).max() <= 1e-10
    assert np.abs(traj.lyapunov_gaps).max() <= 1e-12


def test_integrate_continuous_defaults_are_the_configs():
    params = inspect.signature(integrate_continuous).parameters
    assert params["ode_step"].default == DynamicsConfig().ode_step
    assert params["horizon"].default == DynamicsConfig().horizon


def test_continuous_step_that_leaves_the_budget_set_is_projected_back():
    # Above ode_step ~ 1.2956 an RK4 step is no longer a convex combination
    # of best responses.  This 2 x 2 game, its profile and its step (the 4th
    # draw from Philox(14) of budgets and demands in [0.5, 100), the first
    # demand times 0.01, random_profile, and h in [1.3, 5.5706 / 3]) give
    # a raw step whose row 0 sums to 1.0151 times its budget.
    g = LendingGame([20.327137284645122, 92.7896089706178], [0.9130022899437421, 95.52962260970284],
                    0.02, 0.08)
    s = np.array([[1.7280908438203488, 18.089901175714715], [3.68879288981471, 64.46776554058397]])
    h = 1.7338472594940222

    def field_at(x):
        return best_response_profile(g, x) - x

    k1 = field_at(s)
    k2 = field_at(s + 0.5 * h * k1)
    k3 = field_at(s + 0.5 * h * k2)
    k4 = field_at(s + h * k3)
    raw = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert raw[0].sum() > 1.015 * g.budgets[0]
    want = _capped_projection(raw, g.budgets)
    assert _continuous(g, s, h).tobytes() == want.tobytes()
    cfg = DynamicsConfig(variant="continuous", ode_step=h, max_iters=1, stop_gap=1e-300)
    got = run(g, s, cfg).final_profile
    assert got.tobytes() == want.tobytes()
    validate_profile(g, got)


def test_continuous_lyapunov_monotone_random_games():
    for seed in range(10):
        g = random_square_game(600 + seed, 3, 3)
        traj = integrate_continuous(g, g.zero_profile(), 0.01, 50.0)
        gaps = traj.lyapunov_gaps
        assert np.all(np.diff(gaps) <= 1e-8 * 0.01)
        assert gaps[-1] <= 1e-6
        assert gaps.min() >= -1e-10


def test_monotone_potential_asynchronous():
    rng = seeded_rng(31)
    for variant in ("eager", "randomised"):
        for _ in range(5):
            g = random_game(rng, 5, 5)
            alpha = float(rng.uniform(0.1, 1.0))
            cfg = DynamicsConfig(variant=variant, alpha=alpha, max_iters=300,
                                 stop_gap=1e-12, seed=int(rng.integers(1 << 31)))
            traj = run(g, random_profile(rng, g), cfg)
            assert np.all(np.diff(traj.potentials) >= -1e-10)
            assert np.all(traj.lyapunov_gaps >= -1e-10)


def test_feasibility_preserved_all_variants():
    rng = seeded_rng(32)
    g = random_game(rng, 4, 4)
    start = random_profile(rng, g)
    for variant in ("eager", "randomised", "pseudo_gradient"):
        cfg = DynamicsConfig(variant=variant, max_iters=100, stop_gap=1e-13,
                             snapshot_every=1, seed=9)
        traj = run(g, start, cfg)
        for _, snap in traj.snapshots:
            validate_profile(g, snap)
    traj = integrate_continuous(g, start, 0.02, 5.0, snapshot_every=1)
    for _, snap in traj.snapshots:
        validate_profile(g, snap)


def test_run_iteration_cap_status(two_lender_game):
    cfg = DynamicsConfig(variant="eager", alpha=0.01, max_iters=3, stop_gap=1e-12)
    traj = run(two_lender_game, np.zeros((2, 1)), cfg)
    assert traj.status == "iteration_cap"
    assert traj.iterations == 3


def test_run_converges_eager():
    g = random_square_game(7, 5, 4)
    cfg = DynamicsConfig(variant="eager", alpha=1.0, stop_gap=1e-8, max_iters=10_000)
    traj = run(g, g.zero_profile(), cfg)
    assert traj.status == "converged"
    assert traj.final_gap <= 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_stop_rule_parity(variant):
    g = random_square_game(8, 5, 4)
    tiny_gap = DynamicsConfig(variant=variant, max_iters=3, stop_gap=1e-300)
    capped = run(g, g.zero_profile(), tiny_gap)
    assert capped.status == "iteration_cap"
    assert capped.iterations == 3
    cfg = DynamicsConfig(variant=variant)
    traj = run(g, g.zero_profile(), cfg)
    assert traj.status == "converged"
    assert traj.lyapunov_gaps[-1] <= cfg.stop_gap
    assert np.all(traj.lyapunov_gaps[1:-1] > cfg.stop_gap)


def test_continuous_horizon_caps_steps():
    g = random_square_game(8, 5, 4)
    cfg = DynamicsConfig(variant="continuous", ode_step=0.01, horizon=0.05, stop_gap=1e-300)
    traj = run(g, g.zero_profile(), cfg)
    assert traj.status == "iteration_cap"
    assert traj.iterations == 5 == round(cfg.horizon / cfg.ode_step)
    assert traj.times[-1] == pytest.approx(0.05, abs=1e-15)


def test_continuous_horizon_rounds_to_at_least_one_step():
    g = random_square_game(8, 5, 4)
    cfg = DynamicsConfig(variant="continuous", ode_step=0.01, horizon=0.006, stop_gap=1e-300)
    assert run(g, g.zero_profile(), cfg).iterations == 1
    for horizon in (0.005, 0.004, 1e-300):
        with pytest.raises(ConfigError, match="horizon"):
            run(g, g.zero_profile(), replace(cfg, horizon=horizon))
    # Other variants do not read the horizon.
    assert run(g, g.zero_profile(), replace(cfg, variant="eager", max_iters=2)).iterations == 2
    # horizon / ode_step overflows to inf; max_iters caps the run.
    huge = replace(cfg, horizon=1e300, ode_step=1e-10, max_iters=3)
    assert run(g, g.zero_profile(), huge).iterations == 3


def test_continuous_converges_just_inside_rk4_bound():
    g = LendingGame([1.0, 10.0], [6.0, 3.0], 0.02, 0.08)
    bound = 5.570587126810578 / (g.m + 1)
    cfg = DynamicsConfig(variant="continuous", ode_step=0.98 * bound)
    assert run(g, g.zero_profile(), cfg).status == "converged"
    with pytest.raises(ConfigError, match="ode_step"):
        run(g, g.zero_profile(), replace(cfg, ode_step=1.01 * bound))


def test_gradient_ball_bound():
    # Directional derivative persists at half its value within the stated
    # l1-ball radius.
    rng = seeded_rng(33)
    checked = 0
    while checked < 50:
        g = random_game(rng, 6, 6)
        s = random_profile(rng, g)
        v = rng.standard_normal((g.m, g.n))
        from lendgame import potential_gradient
        vdot = float((v * potential_gradient(g, s)).sum())
        if vdot <= 0:
            continue
        a = g.gradient_variation_bound()
        radius = vdot / (2.0 * a * float(np.abs(v).max()))
        direction = rng.standard_normal((g.m, g.n))
        direction /= np.abs(direction).sum()
        s_near = s + float(rng.uniform(0.0, radius)) * direction
        vdot_near = float((v * potential_gradient(g, s_near)).sum())
        assert vdot_near >= 0.5 * vdot - 1e-12
        checked += 1


def test_eager_target_is_best_response_row():
    rng = seeded_rng(41)
    for _ in range(50):
        g = random_game(rng, 8, 8)
        s = random_profile(rng, g)
        out, i, gain = step_eager(g, s, 0.5)
        expected = s[i] + 0.5 * (best_response(g, s, i) - s[i])
        assert out[i].tobytes() == expected.tobytes()
        assert gain == best_response_gains(g, s)[i]


def test_lender_draw_matches_generator_choice():
    # run draws the randomised lender from a CDF built once per run; the
    # lenders must be those of Generator.choice, draw for draw.
    r = np.random.default_rng(7)
    cases = {"uniform": np.full(5, 0.2), "random": r.dirichlet(np.ones(7)),
             "near_point_mass": np.array([1.0 - 1e-12, 1e-12])}
    for name, weights in cases.items():
        for seed in range(4):  # 4 x 25,000 = 100,000 draws per weighting
            draw = _lender_draw(weights, seeded_rng(seed))
            reference = seeded_rng(seed)
            got = [draw() for _ in range(25_000)]
            want = [int(reference.choice(weights.size, p=weights)) for _ in range(25_000)]
            assert got == want, (name, seed)


def reference_run(game, initial_profile, config):
    """The step-by-step loop `run` replaced, with the step bodies it called:
    one potential per step, every per-run constant recomputed per step,
    Generator.choice for the randomised lender.  The reference `run` is
    held to byte for byte."""
    cfg = config.resolved(game)
    s = validate_profile(game, initial_profile).copy()
    n_steps = cfg.max_iters
    if cfg.variant == "continuous":
        n_steps = round(min(cfg.horizon / cfg.ode_step, n_steps))

    def blend(s, i, target):
        out = s.copy()
        out[i] = s[i] + cfg.alpha * (target - s[i])
        return out

    def field_at(x):
        return best_response_profile(game, x) - x

    phi_star = potential(game, solve_equilibrium(game).profile)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    phi = potential(game, s)
    steps, times, lenders, potentials, gaps = [0], [0.0], [-1], [phi], [phi_star - phi]
    snapshots = [(0, s.copy())]
    status = "iteration_cap"
    for t in range(1, n_steps + 1):
        lender, time = -1, float(t)
        if cfg.variant == "eager":
            gains = best_response_gains(game, s)
            lender = int(np.argmax(gains))
            s = blend(s, lender, best_response_profile(game, s)[lender])
        elif cfg.variant == "randomised":
            lender = int(rng.choice(game.m, p=cfg.lender_weights))
            s = blend(s, lender, best_response(game, s, lender))
        elif cfg.variant == "pseudo_gradient":
            assert cfg.pg_step <= pg_step_bound(game, cfg.pg_weights)
            moved = s + cfg.pg_step * np.asarray(cfg.pg_weights)[:, None] * potential_gradient(game, s)
            s = project_capped_simplex(moved, game.budgets)
        else:
            h = cfg.ode_step
            k1 = field_at(s)
            k2 = field_at(s + 0.5 * h * k1)
            k3 = field_at(s + 0.5 * h * k2)
            k4 = field_at(s + h * k3)
            s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.clip(s, 0.0, None, out=s)
            excess = s.sum(axis=1) / game.budgets
            over = excess > 1.0
            if over.any():
                s[over] /= excess[over, None]
            time = t * cfg.ode_step
        phi = potential(game, s)
        gap = phi_star - phi
        steps.append(t)
        times.append(time)
        lenders.append(lender)
        potentials.append(phi)
        gaps.append(gap)
        if t % cfg.snapshot_every == 0:
            snapshots.append((t, s.copy()))
        if gap <= cfg.stop_gap:
            status = "converged"
            break
    return Trajectory(steps=np.array(steps), times=np.array(times), lenders=np.array(lenders),
                      potentials=np.array(potentials), lyapunov_gaps=np.array(gaps),
                      snapshots=snapshots, final_profile=s, status=status)


def assert_same_trajectory(got, want, context):
    for field in ("steps", "times", "lenders", "potentials", "lyapunov_gaps", "final_profile"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (field, context)
    assert got.status == want.status, context
    assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots], context
    for (t, a), (_, b) in zip(got.snapshots, want.snapshots):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), ("snapshot", t, context)


def scaled_game_and_start(rng, scale):
    g = random_game(rng, 12, 12)
    start = random_profile(rng, g)
    return LendingGame(g.budgets * scale, g.demands * scale, g.rate_min, g.rate_max), start * scale


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_matches_reference_random_games(variant):
    # Games up to 12 x 12 at magnitudes 1e-9 to 1e12.  stop_gap is a fixed
    # fraction of the utility scale, so some runs stop early, some late and
    # some at the cap; snapshot_every is 1, 7 or more than the cap.
    rng = seeded_rng(50 + VARIANTS.index(variant))
    for k in range(12):
        g, start = scaled_game_and_start(rng, 10.0 ** int(rng.integers(-9, 13)))
        cfg = DynamicsConfig(variant=variant, alpha=float(rng.uniform(0.2, 1.0)),
                             max_iters=int(rng.integers(1, 400)), ode_step=0.05,
                             stop_gap=g.utility_scale * 10.0 ** -float(rng.uniform(2, 8)),
                             snapshot_every=(1, 7, 1000)[k % 3], seed=int(rng.integers(1 << 31)))
        assert_same_trajectory(run(g, start, cfg), reference_run(g, start, cfg), (variant, k))


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_matches_reference_at_every_stop_step(variant):
    # stop_gap set to the reference's gap at step T stops the run at T, for
    # every T up to 100: on the first step of the run, on the first and the
    # last step of each block, and in between.
    g = random_square_game(60, 4, 3)
    start = g.zero_profile()
    base = DynamicsConfig(variant=variant, alpha=0.3, max_iters=100, stop_gap=1e-300,
                          ode_step=0.01, snapshot_every=7, seed=3)
    gaps = reference_run(g, start, base).lyapunov_gaps
    stops = [t for t in range(1, 101) if gaps[t] < gaps[:t].min()]
    assert len(stops) >= 90
    for t in stops:
        cfg = replace(base, stop_gap=float(gaps[t]))
        traj = run(g, start, cfg)
        assert traj.iterations == t and traj.status == "converged"
        assert_same_trajectory(traj, reference_run(g, start, cfg), (variant, t))


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_matches_reference_at_every_step_cap(variant):
    g = random_square_game(61, 3, 5)
    for max_iters in range(1, 80):
        cfg = DynamicsConfig(variant=variant, alpha=0.3, max_iters=max_iters, stop_gap=1e-300,
                             snapshot_every=3, seed=4)
        traj = run(g, g.zero_profile(), cfg)
        assert traj.iterations == max_iters and traj.status == "iteration_cap"
        assert_same_trajectory(traj, reference_run(g, g.zero_profile(), cfg), (variant, max_iters))


def test_run_matches_reference_on_a_large_game():
    # 260 x 260 floats exceed a block's budget: every block is one step.
    rng = seeded_rng(63)
    g = LendingGame(rng.uniform(0.5, 100.0, 260), rng.uniform(0.5, 100.0, 260), 0.02, 0.08)
    start = random_profile(rng, g)
    for variant in ("pseudo_gradient", "randomised"):
        cfg = DynamicsConfig(variant=variant, max_iters=12, stop_gap=1e-300, snapshot_every=5, seed=6)
        assert_same_trajectory(run(g, start, cfg), reference_run(g, start, cfg), variant)


def test_run_matches_reference_horizon_cap_and_equilibrium_start():
    g = random_square_game(62, 5, 4)
    capped = DynamicsConfig(variant="continuous", ode_step=0.01, horizon=0.57, stop_gap=1e-300,
                            snapshot_every=1)
    traj = run(g, g.zero_profile(), capped)
    assert traj.iterations == 57
    assert_same_trajectory(traj, reference_run(g, g.zero_profile(), capped), "horizon")
    star = solve_equilibrium(g).profile
    for variant in VARIANTS:
        cfg = DynamicsConfig(variant=variant, seed=5)
        traj = run(g, star, cfg)
        assert traj.iterations == 1 and traj.status == "converged"
        assert_same_trajectory(traj, reference_run(g, star, cfg), ("equilibrium", variant))
