"""Closed-form Nash equilibrium of the lending game, with KKT certification.

The unique equilibrium maximises the strictly concave potential over the
product of budget simplices.  After sorting lenders by budget, a threshold
index splits them into an exhausted set (the lowest-budget lenders, who lend
their entire budget, split across borrowers proportionally to demand) and
the rest, who all lend the same demand-proportional amount.  Every borrower
then offers the same market rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import LendingGame, interest_rates, potential_gradient


# Most floats in a block of kkt_check's rows.  A certificate then holds one
# m x n array, the profile, and a block; each block sums the profile's
# columns again, 4 times on a 1000 x 1000 game.
KKT_BLOCK_FLOATS = 1 << 18


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium profile plus the certificates produced alongside it."""

    profile: np.ndarray                # (m, n) equilibrium lending matrix
    threshold_index: int               # number of budget-exhausted lenders
    exhausted_set: np.ndarray          # original indices of those lenders
    multipliers_budget: np.ndarray     # (m,) budget-constraint multipliers
    multipliers_nonneg: np.ndarray     # (m, n) non-negativity multipliers: a read-only view of 0.0
    market_rate: float


@dataclass(frozen=True)
class KktReport:
    """Raw residuals of the four KKT condition groups at a candidate point;
    `passed` compares each with `tolerance` times its game scale."""

    primal_residual: float
    stationarity_residual: float
    dual_residual: float
    slackness_residual: float
    tolerance: float
    passed: bool


def compute_threshold_index(game: LendingGame) -> tuple[int, np.ndarray]:
    """Number of budget-exhausted lenders and the budget-sorted permutation.

    Returns (mbar, perm) where perm sorts budgets non-decreasingly (stable,
    so budget ties keep original order) and mbar is the least k such that the
    (k+1)-th smallest budget strictly exceeds the equal share
    (sum d - sum of the k smallest budgets) / (m - k + 1), or m if none
    does.  Every share comes from one prefix sum of the sorted budgets.
    """
    m = game.m
    perm = np.argsort(game.budgets, kind="stable")
    sorted_budgets = game.budgets[perm]
    spent = np.concatenate(([0.0], np.add.accumulate(sorted_budgets[:-1])))
    share = (game.total_demand - spent) / np.arange(m + 1, 1, -1)
    # Strict comparison on purpose: equality keeps the lender in the
    # exhausted set, matching the dual-feasibility argument.
    above = np.flatnonzero(sorted_budgets > share)
    return (int(above[0]) if above.size else m), perm


def solve_equilibrium(game: LendingGame) -> EquilibriumResult:
    """Unique pure Nash equilibrium in O(mn + m log m).

    Exhausted lenders lend c_i * d_j / sum(d); the rest lend the common
    amount (1 - sum_exhausted(c) / sum(d)) / (m - mbar + 1) * d_j.  Budget
    multipliers are nonzero only on the exhausted set.
    """
    mbar, perm = compute_threshold_index(game)
    m, n = game.m, game.n
    total_d = game.total_demand
    exhausted = perm[:mbar]
    unexhausted = perm[mbar:]
    exhausted_frac = game.budgets[exhausted].sum() / total_d
    common_frac = (1.0 - exhausted_frac) / (m - mbar + 1)

    # Every row from one outer product, so no m x n temporary is made.
    share = np.empty(m)
    share[exhausted] = game.budgets[exhausted] / total_d
    share[unexhausted] = common_frac
    profile = np.outer(share, game.demands)

    mu_budget = np.zeros(m)
    mu_budget[exhausted] = (game.rate_min - game.rate_max) * (
        game.budgets[exhausted] / total_d - common_frac
    )

    return EquilibriumResult(
        profile=profile,
        threshold_index=mbar,
        exhausted_set=np.sort(exhausted),
        multipliers_budget=mu_budget,
        multipliers_nonneg=np.broadcast_to(0.0, (m, n)),
        market_rate=float(game.rate_min / (m - mbar + 1) * (m - mbar + exhausted_frac)
                          + game.rate_max / (m - mbar + 1) * (1.0 - exhausted_frac)),
    )


def kkt_check(
    game: LendingGame,
    profile: np.ndarray,
    multipliers_budget: np.ndarray,
    multipliers_nonneg: np.ndarray,
    tolerance: float = 1e-8,
) -> KktReport:
    """Residuals of the KKT system of the potential-maximisation problem.

    Stationarity residual is the max absolute value of
    potential_gradient(s)_ij - mu_i + mu_ij.
    `tolerance` is relative: primal to the cash scale, stationarity and dual
    to the rate span, slackness to the utility scale.

    The m x n terms are taken in blocks of rows of at most KKT_BLOCK_FLOATS
    floats.  A block's gradient is its one buffer: the stationarity terms
    are computed in it in place, and then -s, -mu_n and mu_n s in turn, so
    the check holds one block-sized temporary, not an m x n one.  These are
    the element-wise operations of the plain expressions, in the same order,
    and a maximum is exact, so every residual has the same bits; only a zero
    residual whose terms hold both signs of zero, on a game of more than one
    block, may differ in its sign.
    """
    s = np.asarray(profile, dtype=float)
    mu_b = np.asarray(multipliers_budget, dtype=float)
    mu_n = np.asarray(multipliers_nonneg, dtype=float)
    if s.shape != (game.m, game.n) or mu_b.shape != (game.m,) or mu_n.shape != s.shape:
        raise ValueError("shape mismatch between game, profile and multipliers")

    row_sums = s.sum(axis=1)
    step = max(1, KKT_BLOCK_FLOATS // game.n)
    maxima = np.array([_term_maxima(game, s, mu_b, mu_n, slice(start, start + step))
                       for start in range(0, game.m, step)]).max(axis=0)
    stationarity, primal_terms, dual_terms, slackness_terms = map(float, maxima)

    primal = max(float(np.maximum(row_sums - game.budgets, 0.0).max()), primal_terms)
    dual = max(float(np.maximum(-mu_b, 0.0).max()), dual_terms)
    slackness = max(float(np.abs(mu_b * (game.budgets - row_sums)).max()), slackness_terms)

    return KktReport(
        primal_residual=primal,
        stationarity_residual=stationarity,
        dual_residual=dual,
        slackness_residual=slackness,
        tolerance=tolerance,
        passed=(
            primal <= tolerance * game.cash_scale
            and max(stationarity, dual) <= tolerance * game.rate_span
            and slackness <= tolerance * game.utility_scale
        ),
    )


def _term_maxima(game: LendingGame, s, mu_b, mu_n, rows: slice) -> tuple:
    """Maxima of the stationarity, primal, dual and slackness terms of the
    lenders `rows`, computed in turn in the one buffer of their gradient."""
    buf = potential_gradient(game, s, rows)
    s, mu_n = s[rows], mu_n[rows]
    buf -= mu_b[rows, None]
    buf += mu_n
    return (np.abs(buf, out=buf).max(),
            np.maximum(np.negative(s, out=buf), 0.0, out=buf).max(),
            np.maximum(np.negative(mu_n, out=buf), 0.0, out=buf).max(),
            np.abs(np.multiply(mu_n, s, out=buf), out=buf).max())


def certify(game: LendingGame, result: EquilibriumResult, tolerance: float = 1e-8) -> KktReport:
    """KKT report for a solved equilibrium (convenience wrapper)."""
    return kkt_check(
        game,
        result.profile,
        result.multipliers_budget,
        result.multipliers_nonneg,
        tolerance,
    )


def rate_spread(game: LendingGame, profile: np.ndarray) -> float:
    """Max minus min borrower rate; zero (to rounding) at equilibrium."""
    rates = interest_rates(game, profile)
    return float(rates.max() - rates.min())
