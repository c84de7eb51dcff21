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

from .game import BLOCK_FLOATS, LendingGame, _gradient_rows, interest_rates, potential_gradient


@dataclass(frozen=True)
class EquilibriumResult:
    """The equilibrium, as row shares times the demands, plus the
    certificates produced alongside it.  The profile has rank one: lender i
    lends share[i] * d_j to borrower j, so it is built only on request."""

    share: np.ndarray                  # (m,) each lender's fraction of every demand
    demands: np.ndarray                # (n,) the game's demands, not a copy
    threshold_index: int               # number of budget-exhausted lenders
    exhausted_set: np.ndarray          # original indices of those lenders
    multipliers_budget: np.ndarray     # (m,) budget-constraint multipliers
    market_rate: float

    def rows(self, lenders, out=None) -> np.ndarray:
        """The profile rows of `lenders` (a slice or an index array), in out
        or in a new array."""
        return np.outer(self.share[lenders], self.demands, out=out)

    @property
    def profile(self) -> np.ndarray:
        """(m, n) equilibrium lending matrix, built anew on each access."""
        return self.rows(slice(None))

    @property
    def multipliers_nonneg(self) -> np.ndarray:
        """(m, n) non-negativity multipliers: a read-only view of 0.0."""
        return np.broadcast_to(0.0, (self.share.size, self.demands.size))


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
    """Unique pure Nash equilibrium in O(n + m log m) time and O(m + n)
    memory.

    Exhausted lenders lend c_i * d_j / sum(d); the rest lend the common
    amount (1 - sum_exhausted(c) / sum(d)) / (m - mbar + 1) * d_j.  Budget
    multipliers are nonzero only on the exhausted set.
    """
    mbar, perm = compute_threshold_index(game)
    m = game.m
    total_d = game.total_demand
    exhausted = perm[:mbar]
    exhausted_frac = game.budgets[exhausted].sum() / total_d
    common_frac = (1.0 - exhausted_frac) / (m - mbar + 1)

    share = np.full(m, common_frac)
    share[exhausted] = game.budgets[exhausted] / total_d
    mu_budget = np.zeros(m)
    mu_budget[exhausted] = (game.rate_min - game.rate_max) * (share[exhausted] - common_frac)

    return EquilibriumResult(
        share=share,
        demands=game.demands,
        threshold_index=mbar,
        exhausted_set=np.sort(exhausted),
        multipliers_budget=mu_budget,
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

    The dense reference: plain expressions on whole arrays, which hold a
    few m x n temporaries.  `certify` is tested against its bits."""
    s = np.asarray(profile, dtype=float)
    mu_b = np.asarray(multipliers_budget, dtype=float)
    mu_n = np.asarray(multipliers_nonneg, dtype=float)
    if s.shape != (game.m, game.n) or mu_b.shape != (game.m,) or mu_n.shape != s.shape:
        raise ValueError("shape mismatch between game, profile and multipliers")
    row_sums = np.add.reduce(s, axis=1)
    grad = potential_gradient(game, s) - mu_b[:, None] + mu_n
    return _report(
        game, tolerance,
        primal=max(float(np.maximum(row_sums - game.budgets, 0.0).max()),
                   float(np.maximum(-s, 0.0).max())),
        stationarity=float(np.abs(grad).max()),
        dual=max(float(np.maximum(-mu_b, 0.0).max()), float(np.maximum(-mu_n, 0.0).max())),
        slackness=max(float(np.abs(mu_b * (game.budgets - row_sums)).max()),
                      float(np.abs(mu_n * s).max())),
    )


def certify(game: LendingGame, result: EquilibriumResult, tolerance: float = 1e-8) -> KktReport:
    """KKT report for a solved equilibrium: that of kkt_check(game,
    result.profile, result.multipliers_budget, result.multipliers_nonneg,
    tolerance), bit for bit, with no m x n array.

    The profile's rows are made in blocks of at most BLOCK_FLOATS floats, in
    one block-sized buffer.  A block's gradient is computed in the buffer,
    then its stationarity terms in place; the primal terms' -min s is taken
    before the gradient overwrites the block.  A block's maxima are exact,
    so they can differ from those of the whole arrays only in the sign of a
    zero.  The primal terms max(-s_ij, 0) enter as -min s, which differs
    from their maximum only where it is at most a zero.  No residual shows
    either difference: the stationarity terms are absolute values, and the
    primal residual is Python's max of a term over m-vectors, which is a
    zero or more, and of its blocks' maxima, and Python's max keeps the
    first of equal values.  So every residual has the bits of the plain
    expressions.

    The terms that only the non-negativity multipliers touch are skipped;
    that keeps every residual's bits too.  Those multipliers are +0.0: in a
    stationarity term `+= 0.0` changes only the sign of a -0.0, which `abs`
    drops next, and a dual term max(-0.0, 0.0) or a slackness term
    |0.0 * s| (s finite) is a zero, which Python's max never takes over the
    term before it."""
    m, n = game.m, game.n
    mu_b = result.multipliers_budget
    supply = _column_sums(result)
    step = max(1, BLOCK_FLOATS // n)
    buf = np.empty((min(step, m), n))
    row_sums = np.empty(m)
    maxima = []
    for start in range(0, m, step):
        rows = slice(start, start + step)
        s = result.rows(rows, out=buf[:min(step, m - start)])
        row_sums[rows] = np.add.reduce(s, axis=1)
        primal_term = -s.min()
        grad = _gradient_rows(game, s, supply, out=s)
        grad -= mu_b[rows, None]
        maxima.append((np.abs(grad, out=grad).max(), primal_term))
    stationarity, primal_term = map(float, np.max(maxima, axis=0))
    return _report(
        game, tolerance,
        primal=max(float(np.maximum(row_sums - game.budgets, 0.0).max()), primal_term),
        stationarity=stationarity,
        dual=float(np.maximum(-mu_b, 0.0).max()),
        slackness=float(np.abs(mu_b * (game.budgets - row_sums)).max()),
    )


def _report(game: LendingGame, tolerance: float, primal: float, stationarity: float,
            dual: float, slackness: float) -> KktReport:
    """The KKT report of these residuals, under the one pass rule."""
    passed = (primal <= tolerance * game.cash_scale
              and max(stationarity, dual) <= tolerance * game.rate_span
              and slackness <= tolerance * game.utility_scale)
    return KktReport(primal, stationarity, dual, slackness, tolerance, passed)


def _column_sums(result: EquilibriumResult) -> np.ndarray:
    """np.add.reduce(result.profile, axis=0), with its bits, from blocks of
    rows of at most BLOCK_FLOATS floats.  With two or more columns,
    numpy adds the rows in order, one after another; here each block is
    added below the sums of the rows before it, carried as one more row
    that starts at -0.0, which leaves every sum's bits as they are.  A
    profile of one column is one contiguous run, which numpy sums pairwise,
    so it is summed whole: it is m floats."""
    m, n = result.share.size, result.demands.size
    if n == 1:
        return np.add.reduce(result.profile, axis=0)
    step = max(1, BLOCK_FLOATS // n)
    buf = np.full((min(step, m) + 1, n), -0.0)
    for start in range(0, m, step):
        k = min(step, m - start)
        result.rows(slice(start, start + k), out=buf[1:k + 1])
        buf[0] = np.add.reduce(buf[:k + 1], axis=0)
    return buf[0].copy()


def rate_spread(game: LendingGame, profile: np.ndarray) -> float:
    """Max minus min borrower rate; zero (to rounding) at equilibrium."""
    rates = interest_rates(game, profile)
    return float(rates.max() - rates.min())
