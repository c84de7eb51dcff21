"""The `verify` suite: the paper's statements checked on one instance.

Each check gives one row (name, passed, detail): the exact potential, its
concavity and gradient, the unique Nash equilibrium at one market rate
inside the corridor, its KKT certificate, and its agreement with the
independent maximiser of `oracle`.  Every tolerance is a relative epsilon
times one of the game's scales.  `verify` runs the suite on a sequence of
instances and tallies the rows per check.
"""

from __future__ import annotations

import numpy as np

from . import equilibrium as eq
from . import game as gm
from . import oracle as orc
from .best_response import best_response_gains

Row = tuple[str, bool, str]


def gradient_ball_radius(game: gm.LendingGame, v: np.ndarray, vdot: float, a: float) -> float:
    """l1 radius around s within which v . grad Phi stays >= vdot / 2, where
    vdot = v . grad Phi(s) > 0 and a = game.gradient_variation_bound()."""
    # grad Phi_ij moves by -span (D_ij + sum_k D_kj) / d_j under a step D, so
    # |v . H D| <= |v|_max span / d_min sum_ij (|D_ij| + sum_k |D_kj|)
    #          = |v|_max span (m + 1) / d_min |D|_1 = (m + 1) a |v|_max |D|_1 / 2
    # with a = 2 span / d_min, so v . grad Phi stays >= vdot / 2 while
    # |D|_1 <= vdot / ((m + 1) a |v|_max).  The bound is tight: n = 1,
    # v = 1 and every D_i = |D|_1 / m reach it.
    return vdot / ((game.m + 1) * a * float(np.abs(v).max()))


def check_instance(game: gm.LendingGame, rng: np.random.Generator) -> list[Row]:
    """All invariant suites on one instance; (name, passed, detail) rows."""
    cash, rate, util = game.cash_scale, game.rate_span, game.utility_scale
    a = game.gradient_variation_bound()
    results = []
    s = orc.random_profile(rng, game)
    s2 = orc.random_profile(rng, game)
    phi_s = gm.potential(game, s)
    grad_s = gm.potential_gradient(game, s)

    # Potential identity under a unilateral deviation.
    k = int(rng.integers(game.m))
    dev = s.copy()
    dev[k] = orc.random_profile(rng, game)[k]
    d_phi = gm.potential(game, dev) - phi_s
    d_u = gm.utility(game, dev, k) - gm.utility(game, s, k)
    results.append(("potential_identity", abs(d_phi - d_u) <= 1e-10 * util, f"residual {abs(d_phi - d_u):.3g}"))

    forms = abs(phi_s - gm.potential_telescoped(game, s))
    results.append(("potential_forms", forms <= 1e-10 * util, f"residual {forms:.3g}"))

    lam = float(rng.uniform(0.05, 0.95))
    measured, closed = orc.concavity_gap(game, s, s2, lam)
    ok = abs(measured - closed) <= 1e-12 * util and (closed > 0 or np.array_equal(s, s2))
    results.append(("concavity_gap", ok, f"residual {abs(measured - closed):.3g}"))

    fd = orc.finite_difference_gradient(game, s)
    g_res = float(np.abs(fd - grad_s).max())
    results.append(("gradient_fd", g_res <= 1e-6 * rate, f"residual {g_res:.3g}"))

    lhs = float(np.abs(grad_s - gm.potential_gradient(game, s2)).max())
    rhs = a * float(np.abs(s - s2).sum())
    results.append(("gradient_variation", lhs <= rhs + 1e-12 * rate, f"excess {lhs - rhs:.3g}"))

    v = rng.standard_normal(game.m * game.n)
    qf = orc.jacobian_quadratic_form(game, v)
    hf = orc.hessian_quadratic_form(game, v)
    ok = qf < 0 and abs(qf - hf) <= 1e-12 * abs(qf)
    results.append(("jacobian_negative_definite", ok, f"value {qf:.3g}"))

    # Gradient ball bound (directional-derivative persistence).
    v = rng.standard_normal((game.m, game.n))
    vdot = float((v * grad_s).sum())
    if vdot > 0:
        radius = gradient_ball_radius(game, v, vdot, a)
        direction = rng.standard_normal((game.m, game.n))
        direction /= np.abs(direction).sum()
        s_near = s + float(rng.uniform(0.0, radius)) * direction
        vdot_near = float((v * gm.potential_gradient(game, s_near)).sum())
        results.append(("gradient_ball", vdot_near >= 0.5 * vdot - 1e-12 * rate, f"lhs {vdot_near:.3g}"))
    else:
        results.append(("gradient_ball", True, "inactive (non-positive derivative)"))

    # Improvement bound: some lender's best-response gain reaches
    # gap^2 / (4 m^4 n^2 a D^2), with the diameter D = max(c_max, d_max),
    # which is the cash scale.  Derivation:
    # - concavity gives gap <= m * g, g = max_i grad_i Phi . (s*_i - s_i),
    #   and grad_i Phi is lender i's own utility gradient;
    # - the own-row curvature of u_i is at most a, so moving t in [0, 1] of
    #   the way to s*_i gains at least t g - a t^2 |s*_i - s_i|^2 / 2, with
    #   |s*_i - s_i|^2 <= 2 c_max^2: an interior t gains at least
    #   g^2 / (4 a c_max^2) >= gap^2 / (4 m^2 a c_max^2);
    # - the step-capped branch t = 1 gains at least g / 2, which reaches
    #   the bound while g <= 2 m^2 n^2 a D^2.  As g <= 2 c_max span
    #   max(1, (m + 1) c_max / d_min), that is covered only when D >= d_min
    #   too: with c_max for D, 1 x 1 games with c < d / 9 fail.
    result = eq.solve_equilibrium(game)
    star = result.profile   # built on access, so built once here
    phi_star = gm.potential(game, star)
    gap = phi_star - phi_s
    bound = gap * gap / (4.0 * game.m**4 * game.n**2 * a * cash**2)
    max_gain = float(best_response_gains(game, s).max())
    results.append(("improvement_bound", max_gain >= bound - 1e-12 * util, f"gain {max_gain:.3g} bound {bound:.3g}"))

    sol = orc.projected_gradient_solve(game, tol=orc.gradient_tol_for_profile_tol(game, 1e-8 * cash))
    dist = float(np.abs(sol.profile - star).max())
    results.append(("oracle_equivalence", dist <= 1e-6 * cash, f"l_inf {dist:.3g}"))

    report = eq.certify(game, result, tolerance=1e-10)
    results.append(("kkt_residuals", report.passed, f"max residual {max(report.primal_residual, report.stationarity_residual, report.dual_residual, report.slackness_residual):.3g}"))

    results.extend(check_candidate(game, star))

    oversupply = float((star.sum(axis=0) - game.demands).max())
    results.append(("no_oversupply", oversupply <= 1e-9 * cash, f"excess {oversupply:.3g}"))

    perm = rng.permutation(game.m)
    permuted = gm.LendingGame(game.budgets[perm], game.demands, game.rate_min, game.rate_max)
    p_res = eq.solve_equilibrium(permuted)
    p_dist = float(np.abs(p_res.profile - star[perm]).max())
    results.append(("permutation_equivariance", p_dist <= 1e-12 * cash, f"l_inf {p_dist:.3g}"))
    return results


def check_candidate(game: gm.LendingGame, candidate: np.ndarray) -> list[Row]:
    """Equilibrium-candidate checks used in scenario verify mode."""
    spread = eq.rate_spread(game, candidate)
    nash_gain = float(best_response_gains(game, candidate).max())
    return [("uniform_rates", spread <= 1e-12 * game.rate_span, f"spread {spread:.3g}"),
            ("nash_check", nash_gain <= 1e-9 * game.utility_scale, f"gain {nash_gain:.3g}")]


def verify(instances, indexed: bool) -> tuple[list[str], str | None]:
    """Run the suite on each (game, rng, candidate or None) of instances, in
    order; returns the PASS/FAIL table, one line per check in the order the
    checks first ran, and the first failed row's message, or None.  With
    indexed, the message names the check as check[k], k the instance's
    position in instances."""
    tally: dict[str, list[int]] = {}   # check -> [rows, rows passed]
    failure = None
    for k, (game, rng, candidate) in enumerate(instances):
        rows = check_instance(game, rng)
        if candidate is not None:
            rows += check_candidate(game, candidate)
        for name, ok, detail in rows:
            counts = tally.setdefault(name, [0, 0])
            counts[0] += 1
            counts[1] += int(ok)
            if not ok and failure is None:
                label = f"{name}[{k}]" if indexed else name
                failure = f"property {label} failed ({detail})"
    table = [f"{'PASS' if good == total else 'FAIL'}  {name}  {good}/{total}" for name, (total, good) in tally.items()]
    return table, failure
