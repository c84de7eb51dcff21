"""Exact best responses, computed for all lenders at once.

Fixing the other lenders, a lender's utility is a concave separable
quadratic in its own lending vector x, maximised over the budget-capped
orthant {x >= 0, sum x <= c}.  With R_j the supply from the other lenders,
b_j = 1 - R_j / d_j and w_j = d_j / 2, it is rate_span times
sum_j x_j b_j - x_j^2 / (2 w_j), so the best response is the projection of
w b onto the budget set in the metric sum_j x_j^2 / w_j: water-filling, the
weighted simplex projection of Duchi et al. (ICML 2008).  One row-batched
kernel serves every best response, the oracle's projection in the metric
sum_j x_j^2 / d_j and, with unit weights, the Euclidean projection of the
pseudo-gradient dynamics: O(mn log n) for a whole profile, with no Python
loop over lenders or breakpoints.  It evaluates every row of its batch in
the same fixed sequence of numpy calls, the rows within their cap zeroed
first, since on the small games of the dynamics a call costs what its
numpy calls cost.  The single-lender functions are row views of it, and the
best-response gains come from the closed-form row utility in O(mn).
"""

from __future__ import annotations

import numpy as np

from .game import LendingGame, check_lender


def _capped_projection(b: np.ndarray, cap, w: np.ndarray | None = None) -> np.ndarray:
    """x = w max(0, b - lam): the projection of w b onto {x >= 0, sum x <= cap}
    in the metric sum_j x_j^2 / w_j.  b is one vector, or a matrix projected
    row by row with a scalar cap or one cap per row; w > 0 is shared by every
    row, and None means unit weights.

    The inputs are small (at most 12 x 12 in the dynamics), so the cost is
    the number of numpy calls, not of floats.  The kernel therefore
    evaluates whole rows: the rows within their cap are zeroed first, pass
    through the arithmetic without overflow or NaN, and get their lam = 0
    answer back at the end; gathering the over-cap rows and scattering
    them back would take more calls.  The prefix sums call
    np.add.accumulate and the row sums np.add.reduce on purpose: np.cumsum
    and .sum call the same ufuncs, with the same bits, through a Python
    wrapper that costs more than the sum."""
    x = np.maximum(b, 0.0)
    if w is not None:
        x *= w
    over = np.add.reduce(x, axis=-1) > cap
    n_over = np.count_nonzero(over)   # answers both any() and all()
    if not n_over:
        return x  # lam = 0
    every = n_over == over.size
    if not every:
        mask = over[..., None]
        b = np.where(mask, b, 0.0)

    # The cap binds: find lam > 0 with sum_j w_j max(0, b_j - lam) = cap.
    # With b in decreasing order, every prefix k gives the lower bound
    # (sum_{top k} w b - cap) / sum_{top k} w on lam, tight for the prefix
    # of coordinates above lam: the last prefix whose smallest b lies above
    # its bound (Duchi et al.'s rule).  That is the largest bound, but where
    # a coordinate ends exactly at zero bounds tie and the max would let
    # rounding choose.  The first prefix always counts, which keeps lam near
    # max b when the cap is below b's rounding error.  b sorted equals b
    # in argsort order, ties included; unit weights need no argsort.
    n = b.shape[-1]
    top = b.copy()
    top.sort(axis=-1)
    top = top[..., ::-1]
    if w is None:
        prefix_b = np.add.accumulate(top, axis=-1)
        total_w = n
    else:
        w_sorted = w[b.argsort(axis=-1)[..., ::-1]]
        prefix_w = np.add.accumulate(w_sorted, axis=-1)
        w_sorted *= top
        prefix_b = np.add.accumulate(w_sorted, axis=-1)
        total_w = prefix_w[..., -1:]
    row_cap = np.asarray(cap)[..., None] if np.ndim(cap) else cap
    # Shortcut: when the smallest b of every over-cap row lies strictly
    # above the full prefix's bound, the rule picks the last prefix, so that
    # bound is lam, with the same bits: the same expression on the same
    # numbers.  A tie falls to the selection.  Near the equilibrium nearly
    # every capped row keeps its full support.  A zeroed row passes the
    # test when its cap is positive, as 0 > -cap / sum w; a zero cap sends
    # the call to the selection, which gives the same bits.
    lam = (prefix_b[..., -1:] - row_cap) / total_w
    if np.count_nonzero(top[..., -1:] > lam) < lam.size:
        bounds = (prefix_b - row_cap) / (np.arange(1, n + 1) if w is None else prefix_w)
        last = np.maximum.reduce(np.where(top > bounds, np.arange(n), 0), axis=-1)
        lam = np.take_along_axis(bounds, last[..., None], axis=-1)
    shift = b - lam
    np.maximum(shift, 0.0, out=shift)
    if w is not None:
        shift *= w
    if every:
        return shift
    np.copyto(x, shift, where=mask)
    return x


def _best_responses(game: LendingGame, s: np.ndarray, rows=slice(None)):
    """Best responses of the lenders `rows` (all, or one index) to profile s,
    and the residual supplies, from everyone else, that they answer."""
    residual = np.add.reduce(s, axis=0) - s[rows]
    x = _capped_projection(1.0 - residual / game.demands, game.budgets[rows], 0.5 * game.demands)
    return x, residual


def best_response(game: LendingGame, profile: np.ndarray, i: int) -> np.ndarray:
    """Unique utility-maximising strategy of lender i against the others."""
    check_lender(game, i)
    return _best_responses(game, np.asarray(profile, dtype=float), i)[0]


def best_response_profile(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Stacked best responses of all lenders against the frozen profile."""
    return _best_responses(game, np.asarray(profile, dtype=float))[0]


def _gains_and_profile(game: LendingGame, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-response gains and best-response profile at s, from one kernel
    call.

    Lender i's utility at row x is span * sum_j x_j (1 - (R_j + x_j) / d_j),
    so the gain of x over s_i is span * sum_j (x - s)(1 - (R + x + s) / d).
    """
    x, residual = _best_responses(game, s)
    gains = game.rate_span * np.add.reduce((x - s) * (1.0 - (residual + x + s) / game.demands), axis=1)
    return gains, x


def best_response_gains(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Utility improvement each lender obtains by switching to its best
    response; non-negative by optimality."""
    return _gains_and_profile(game, np.asarray(profile, dtype=float))[0]
