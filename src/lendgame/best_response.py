"""Exact best responses, computed for all lenders at once.

Fixing the other lenders, a lender's utility is a concave separable
quadratic in its own lending vector, maximised over the budget-capped
orthant {x >= 0, sum x <= c}.  The unconstrained per-borrower optimum is
(d_j - R_j) / 2 where R_j is the supply from the other lenders; when the
budget binds, the optimum is found by sort-based water-filling over the
breakpoints at which coordinates hit zero (the weighted form of the
simplex projection of Duchi et al., ICML 2008).

One row-batched kernel serves every lender: O(mn log n) for a whole
profile, with no Python loop over lenders or breakpoints.  The single-lender
functions are row views of it, and the best-response gains come from the
closed-form row utility in O(mn).
"""

from __future__ import annotations

import numpy as np

from .game import LendingGame


def residual_supply(game: LendingGame, profile: np.ndarray, i: int) -> np.ndarray:
    """Per-borrower supply from everyone except lender i."""
    s = np.asarray(profile, dtype=float)
    return s.sum(axis=0) - s[i]


def _water_fill(demands: np.ndarray, residual: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Maximise sum_j x_j (d_j - R_j - x_j) / d_j over {x >= 0, sum x <= c}
    for every row R of the residual matrix and its budget c; the rate-span
    factor is a positive constant and does not change the argmax.
    """
    free = demands > residual  # coordinates with positive marginal at zero
    x = np.where(free, 0.5 * (demands - residual), 0.0)
    bound = x.sum(axis=1) > budgets
    if not bound.any():
        return x

    # Budget binds: find the level lam > 0 with
    # sum_j d_j max(0, b_j - lam) / 2 = c, where b_j = 1 - R_j / d_j is the
    # breakpoint at which coordinate j drops out.  With the breakpoints in
    # decreasing order, every prefix k gives the lower bound
    # (sum_{top k} d b - 2c) / sum_{top k} d on lam, tight for the prefix of
    # coordinates above lam, so lam is the largest.  Non-free coordinates
    # need no mask: with b <= 0 < lam their prefixes never give the largest
    # bound and they end at zero, and every prefix weight is positive.
    # np.sort(b) equals b in argsort order, tied values included.
    b = 1.0 - residual[bound] / demands
    order = np.argsort(b, axis=1)[:, ::-1]
    d = demands[order]
    cum_db = np.cumsum(d * np.sort(b, axis=1)[:, ::-1], axis=1)
    lam = ((cum_db - 2.0 * budgets[bound, None]) / np.cumsum(d, axis=1)).max(axis=1)
    x[bound] = np.maximum(0.0, 0.5 * demands * (b - lam[:, None]))
    return x


def _check_lender(game: LendingGame, i: int) -> None:
    if not 0 <= i < game.m:
        raise IndexError(f"lender index {i} out of range for m={game.m}")


def best_response(game: LendingGame, profile: np.ndarray, i: int) -> np.ndarray:
    """Unique utility-maximising strategy of lender i against the others."""
    _check_lender(game, i)
    residual = residual_supply(game, profile, i)
    return _water_fill(game.demands, residual[None], game.budgets[i:i + 1])[0]


def best_response_profile(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Stacked best responses of all lenders against the frozen profile."""
    s = np.asarray(profile, dtype=float)
    return _water_fill(game.demands, s.sum(axis=0) - s, game.budgets)


def _gains_and_profile(game: LendingGame, profile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-response gains and best-response profile from one kernel call.

    Lender i's utility at row x is span * sum_j x_j (1 - (R_j + x_j) / d_j),
    so the gain of x over s_i is span * sum_j (x - s)(1 - (R + x + s) / d).
    """
    s = np.asarray(profile, dtype=float)
    residual = s.sum(axis=0) - s
    x = _water_fill(game.demands, residual, game.budgets)
    gains = game.rate_span * ((x - s) * (1.0 - (residual + x + s) / game.demands)).sum(axis=1)
    return gains, x


def best_response_gains(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Utility improvement each lender obtains by switching to its best
    response; non-negative by optimality."""
    return _gains_and_profile(game, profile)[0]


def best_response_gain(game: LendingGame, profile: np.ndarray, i: int) -> float:
    """Best-response gain of lender i: one row of :func:`best_response_gains`."""
    _check_lender(game, i)
    return float(best_response_gains(game, profile)[i])
