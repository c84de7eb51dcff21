"""Independent verification machinery.

Nothing here reuses the closed-form equilibrium: the potential maximiser
(accelerated projected gradient, FISTA with adaptive restart in the metric
sum_ij x_ij^2 / d_j, where the potential's condition number is m + 1 for any
demands; its answer is certified by one plain Euclidean projected-gradient
step), the finite-difference gradient and the closed-form
concavity/Jacobian identities each provide a second route to a quantity the
production code computes directly.  The maximiser's projection is the
weighted capped-simplex kernel that the best responses use, with weights d
in place of d / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import _capped_projection
from .game import BLOCK_FLOATS, LendingGame, potential, potential_gradient, validate_profile


@dataclass(frozen=True)
class OracleSolution:
    profile: np.ndarray
    achieved_potential: float
    iterations: int
    final_projected_gradient_norm: float
    converged: bool


def gradient_tol_for_profile_tol(game: LendingGame, profile_tol: float) -> float:
    """Stopping tolerance on the plain projected-gradient map that guarantees
    the returned profile is within roughly profile_tol of the maximiser.

    The tolerance applies to the oracle's certificate: one plain projected
    gradient step of certificate_step(game) from the returned profile, divided
    by that step.  The potential is strongly concave with modulus
    span / max_j d_j, so the distance to the optimum is at most about that
    map's norm divided by the modulus; a safety factor of 10 absorbs the
    constants.
    """
    modulus = game.rate_span / float(game.demands.max())
    return 0.1 * profile_tol * modulus


def certificate_step(game: LendingGame) -> float:
    """Step of the oracle's plain projected-gradient certificate,
    min_j d_j / (2 span (m + 1)): half the largest step 1 / rho at which
    plain projected gradient ascent provably raises the potential (see
    dynamics.pg_step_bound).  The oracle is a check on the dynamics, so it
    keeps its own step rather than following theirs."""
    return float(game.demands.min() / (2.0 * game.rate_span * (game.m + 1)))


def _plain_step_norm(game: LendingGame, s: np.ndarray, step: float) -> float:
    """Sup-norm of the projected-gradient map at s for the given step."""
    nxt = _capped_projection(s + step * potential_gradient(game, s), game.budgets)
    return float(np.abs(nxt - s).max() / step)


def projected_gradient_solve(
    game: LendingGame,
    tol: float = 1e-9,
    max_iters: int = 500_000,
    start: np.ndarray | None = None,
) -> OracleSolution:
    """Maximise the potential by accelerated projected gradient ascent.

    FISTA (Beck & Teboulle 2009) with gradient-based adaptive restart
    (O'Donoghue & Candes 2015), in the metric sum_ij x_ij^2 / d_j.  In
    column j the Hessian of the potential is -(span / d_j)(I + 11^T); in
    that metric it is -span (I + 11^T), so the gradient's Lipschitz constant
    is L_W = span * (m + 1) and the condition number is m + 1, whatever the
    demands.  Each step goes from the momentum point y to
    z = y + (d / L_W) grad(y) and projects z onto the budget set in the same
    metric: the weighted kernel with w = d, as a best response uses it with
    w = d / 2.  The momentum is reset (t = 1, y = x_new) whenever it points
    against the step in that metric, (y - x_new) . D^-1 (x_new - x) > 0.
    Once the scaled step L_W (x_new - y) / d is at most tol in sup-norm, the
    new iterate is certified with one plain Euclidean projected-gradient step
    of certificate_step(game): it is returned when that map's sup-norm is also
    at most tol, otherwise the iteration goes on.  The potential is strictly
    concave, so the limit is the unique maximiser.  tol is raised to that
    map's rounding level, eps * cash_scale / certificate_step(game), for the
    stop, the certificate and `converged`.  `iterations` counts
    accelerated steps; on exhausting max_iters the partial solution is
    returned with converged=False.
    """
    step = certificate_step(game)
    # The plain-step map reads up to about eps * cash_scale / step at the
    # maximiser itself, from rounding, so no smaller tol can be certified.
    tol = max(tol, np.finfo(float).eps * game.cash_scale / step)
    d = game.demands
    lip = game.rate_span * (game.m + 1)
    d_over_lip = d / lip
    x = game.zero_profile() if start is None else validate_profile(game, start).copy()
    y = x
    t = 1.0
    it = 0
    for it in range(1, max_iters + 1):
        z = y + d_over_lip * potential_gradient(game, y)
        nxt = _capped_projection(z / d, game.budgets, d)
        moved = (nxt - y) / d
        if np.abs(moved).max() * lip <= tol:
            norm = _plain_step_norm(game, nxt, step)
            if norm <= tol:
                x = nxt
                break
        if np.vdot(moved, nxt - x) < 0:  # (y - x_new) . D^-1 (x_new - x) > 0
            t, y = 1.0, nxt
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = nxt + ((t - 1.0) / t_next) * (nxt - x)
            t = t_next
        x = nxt
    else:  # max_iters exhausted: report the plain-step map at the partial solution
        norm = _plain_step_norm(game, x, step)
    return OracleSolution(
        profile=x,
        achieved_potential=potential(game, x),
        iterations=it,
        final_projected_gradient_norm=norm,
        converged=norm <= tol,
    )


def finite_difference_gradient(game: LendingGame, profile: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central finite differences of the potential, entry by entry; the
    step h defaults to 1e-5 of the cash scale.

    The 2 m n perturbed profiles, first every s + h e_ij and then every
    s - h e_ij, go to the stacked potential in chunks of at most about
    BLOCK_FLOATS floats; its entries have the bits of one call per profile.
    """
    if h is None:
        h = 1e-5 * game.cash_scale
    if h <= 0:
        raise ValueError("h must be positive")
    s = np.asarray(profile, dtype=float)
    flat = s.reshape(-1)
    size = flat.size
    bumped = np.concatenate((flat + h, flat - h))
    phi = np.empty(2 * size)
    chunk = max(1, BLOCK_FLOATS // size)
    for lo in range(0, 2 * size, chunk):
        k = np.arange(lo, min(lo + chunk, 2 * size))
        stack = np.tile(flat, (len(k), 1))
        stack[np.arange(len(k)), k % size] = bumped[k]
        phi[k] = potential(game, stack.reshape((len(k),) + s.shape))
    return ((phi[:size] - phi[size:]) / (2.0 * h)).reshape(s.shape)


def concavity_gap(game: LendingGame, s, s_prime, lam: float) -> tuple[float, float]:
    """Measured and closed-form concavity gap of the potential.

    measured  = Phi(lam*s + (1-lam)*s') - lam*Phi(s) - (1-lam)*Phi(s')
    closed    = lam*(1-lam) * sum_j span/(2 d_j) * (sum_i D_ij^2 + (sum_i D_ij)^2)

    with D = s - s': -lam*(1-lam)/2 times the Hessian's quadratic form at D,
    jacobian_quadratic_form.  Both are strictly positive whenever s != s'.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    s = np.asarray(s, dtype=float)
    s_prime = np.asarray(s_prime, dtype=float)
    blend = lam * s + (1.0 - lam) * s_prime
    measured = potential(game, blend) - lam * potential(game, s) - (1.0 - lam) * potential(game, s_prime)
    closed = -0.5 * lam * (1.0 - lam) * jacobian_quadratic_form(game, s - s_prime)
    return float(measured), closed


def jacobian_quadratic_form(game: LendingGame, v: np.ndarray) -> float:
    """Quadratic form of the (constant) pseudo-gradient Jacobian:
    sum_j (rate_min - rate_max)/d_j * (sum_i v_ij^2 + (sum_i v_ij)^2).
    Strictly negative for nonzero v."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != game.m * game.n:
        raise ValueError(f"expected a vector of length {game.m * game.n}, got {v.size}")
    vm = v.reshape(game.m, game.n)
    return float(
        np.sum(
            (game.rate_min - game.rate_max) / game.demands
            * ((vm * vm).sum(axis=0) + vm.sum(axis=0) ** 2)
        )
    )


def hessian_quadratic_form(game: LendingGame, v: np.ndarray) -> float:
    """Same quadratic form contracted entrywise against the explicit Hessian
    (diagonal 2*(rate_min-rate_max)/d_j, same-borrower off-diagonal
    (rate_min-rate_max)/d_j); cross-validates jacobian_quadratic_form."""
    v = np.asarray(v, dtype=float).reshape(game.m, game.n)
    total = 0.0
    for j in range(game.n):
        coeff = (game.rate_min - game.rate_max) / game.demands[j]
        block = np.full((game.m, game.m), coeff)
        block[np.diag_indices(game.m)] = 2.0 * coeff
        total += float(v[:, j] @ block @ v[:, j])
    return total


def random_game(rng: np.random.Generator, max_m: int = 12, max_n: int = 12) -> LendingGame:
    """Random instance for property runs: sizes up to (max_m, max_n),
    budgets and demands in [0.5, 100), corridor inside (0, 0.2)."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    rate_min = float(rng.uniform(0.005, 0.1))
    rate_max = float(rng.uniform(rate_min + 0.01, 0.2))
    return LendingGame(
        budgets=rng.uniform(0.5, 100.0, size=m),
        demands=rng.uniform(0.5, 100.0, size=n),
        rate_min=rate_min,
        rate_max=rate_max,
    )


def random_profile(rng: np.random.Generator, game: LendingGame) -> np.ndarray:
    """Random feasible profile: uniform rows scaled into the budget set."""
    s = rng.uniform(0.0, 1.0, size=(game.m, game.n))
    scale = rng.uniform(0.0, 1.0, size=game.m) * game.budgets / s.sum(axis=1)
    return s * scale[:, None]
