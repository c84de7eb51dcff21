"""Core model of the interbank lending game.

A game instance is a set of lenders with cash budgets, a set of borrowers
with demands, and a rate corridor [rate_min, rate_max].  A strategy profile
is an (m, n) matrix of non-negative lending amounts with row sums bounded
by the budgets.  Borrower rates fall linearly in received supply; the game
admits an exact potential whose unique maximiser is the Nash equilibrium.

All functions here are pure and operate on plain numpy arrays; lender and
borrower indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LendingGame:
    """Immutable problem instance: budgets, demands and the rate corridor."""

    budgets: np.ndarray
    demands: np.ndarray
    rate_min: float
    rate_max: float

    def __post_init__(self):
        budgets = np.asarray(self.budgets, dtype=float)
        demands = np.asarray(self.demands, dtype=float)
        if budgets.ndim != 1 or budgets.size < 1:
            raise ValueError("budgets must be a non-empty 1-D array")
        if demands.ndim != 1 or demands.size < 1:
            raise ValueError("demands must be a non-empty 1-D array")
        if not np.all(budgets > 0):
            raise ValueError("every lender budget must be positive")
        if not np.all(demands > 0):
            raise ValueError("every borrower demand must be positive")
        if not (np.isfinite(budgets).all() and np.isfinite(demands).all()):
            raise ValueError("budgets and demands must be finite")
        if not (np.isfinite(self.rate_min) and np.isfinite(self.rate_max)):
            raise ValueError("rate_min and rate_max must be finite")
        if not (0 < self.rate_min < self.rate_max):
            raise ValueError(
                "rate corridor invariant violated: need 0 < rate_min < rate_max"
            )
        budgets.setflags(write=False)
        demands.setflags(write=False)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "demands", demands)

    @property
    def m(self) -> int:
        return self.budgets.size

    @property
    def n(self) -> int:
        return self.demands.size

    @property
    def rate_span(self) -> float:
        return self.rate_max - self.rate_min

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    @property
    def cash_scale(self) -> float:
        """Largest budget or demand.  Every tolerance is a relative epsilon
        times this, rate_span or utility_scale: the game is scale-free."""
        return float(max(self.budgets.max(), self.demands.max()))

    @property
    def utility_scale(self) -> float:
        """rate_span * cash_scale: the unit of utility and potential tolerances."""
        return self.rate_span * self.cash_scale

    def gradient_variation_bound(self) -> float:
        """Largest rate 2 * (rate_max - rate_min) / d_j at which the potential
        gradient can vary (the constant of the gradient-Lipschitz and
        improvement bounds)."""
        return float(2.0 * self.rate_span / self.demands.min())

    def zero_profile(self) -> np.ndarray:
        return np.zeros((self.m, self.n))


def validate_profile(game: LendingGame, profile) -> np.ndarray:
    """Check shape, finiteness, non-negativity and budget feasibility of a
    profile.  Row i may exceed c_i, or dip below 0, by 1e-9 * c_i.

    Oversupplied borrowers are legal (dynamics pass through such states);
    only the per-lender constraints are enforced.  Returns the profile as a
    float array.
    """
    s = np.asarray(profile, dtype=float)
    if s.shape != (game.m, game.n):
        raise ValueError(
            f"profile shape {s.shape} does not match game ({game.m}, {game.n})"
        )
    slack = 1e-9 * game.budgets
    if (s < -slack[:, None]).any():
        raise ValueError("profile has negative lending amounts")
    row_sums = s.sum(axis=1)
    # NaN and inf entries propagate into their row sums.
    if not np.isfinite(row_sums).all():
        i = int(np.argmin(np.isfinite(row_sums)))
        raise ValueError(f"lender {i} has non-finite lending amounts")
    excess = row_sums - game.budgets
    over = excess > slack
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"lender {i} exceeds its budget by {excess[i]:.3g}")
    return s


def interest_rates(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Vector of borrower interest rates: linear in received supply, equal to
    rate_max at zero supply and rate_min at full demand.  Can fall below
    rate_min when a borrower is oversupplied."""
    supply = np.asarray(profile, dtype=float).sum(axis=0)
    return (game.rate_min - game.rate_max) * supply / game.demands + game.rate_max


def interest_rate(game: LendingGame, profile: np.ndarray, j: int) -> float:
    if not 0 <= j < game.n:
        raise IndexError(f"borrower index {j} out of range for n={game.n}")
    return float(interest_rates(game, profile)[j])


def prefix_interest_rate(game: LendingGame, profile: np.ndarray, j: int, z: int) -> float:
    """Interest rate of borrower j counting only supply from the first z lenders."""
    if not 0 <= j < game.n:
        raise IndexError(f"borrower index {j} out of range for n={game.n}")
    if not 0 <= z <= game.m:
        raise IndexError(f"prefix length {z} out of range for m={game.m}")
    s = np.asarray(profile, dtype=float)
    prefix_supply = s[:z, j].sum()
    return float((game.rate_min - game.rate_max) * prefix_supply / game.demands[j] + game.rate_max)


def utilities(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Per-lender utilities: interest earned above the deposit-facility rate.

    Negative entries arise when a lender funds oversupplied borrowers.
    """
    s = np.asarray(profile, dtype=float)
    margin = interest_rates(game, s) - game.rate_min
    return s @ margin


def utility(game: LendingGame, profile: np.ndarray, i: int) -> float:
    if not 0 <= i < game.m:
        raise IndexError(f"lender index {i} out of range for m={game.m}")
    return float(utilities(game, profile)[i])


def potential(game: LendingGame, profile: np.ndarray) -> float | np.ndarray:
    """Potential of the game, evaluated in quadratic form (production path):

        sum_j [ -(span / 2 d_j) * (sum_i s_ij^2 + (sum_i s_ij)^2)
                + span * sum_i s_ij ]

    with span = rate_max - rate_min.  O(mn), no prefix sums.  profile is
    one (m, n) profile, giving a float, or a stack (..., m, n), giving an
    array of shape (...) whose entries have the bits of the single calls.
    """
    s = np.asarray(profile, dtype=float)
    phi = _potential(game, s, s.sum(axis=-2))
    return float(phi) if phi.ndim == 0 else phi


def _potential(game: LendingGame, s: np.ndarray, col: np.ndarray):
    """Potential of profile(s) s with column sums col = s.sum(axis=-2)."""
    sq = (s * s).sum(axis=-2)
    span = game.rate_span
    return (-span / (2.0 * game.demands) * (sq + col * col) + span * col).sum(axis=-1)


def potential_telescoped(game: LendingGame, profile: np.ndarray) -> float:
    """Potential evaluated through the telescoping prefix-rate sum (debug
    path; must agree with :func:`potential` to within 1e-10 of the utility
    scale)."""
    s = np.asarray(profile, dtype=float)
    prefix = np.cumsum(s, axis=0)  # prefix[i, j] = sum_{k <= i} s_kj
    rates = (game.rate_min - game.rate_max) * prefix / game.demands + game.rate_max
    return float(((rates - game.rate_min) * s).sum())


def potential_gradient(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Gradient of the potential: entry (i, j) is
    (rate_min - rate_max) * ((s_ij + sum_k s_kj) / d_j - 1)."""
    s = np.asarray(profile, dtype=float)
    return _potential_gradient(game, s, s.sum(axis=0))


def _potential_gradient(game: LendingGame, s: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Potential gradient at s with column sums col = s.sum(axis=0)."""
    return (game.rate_min - game.rate_max) * ((s + col) / game.demands - 1.0)
