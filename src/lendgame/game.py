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

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

# Most floats in one block of a computation taken in blocks: the profiles
# of a block of steps in `dynamics.run`, the perturbed profiles of a chunk
# in `oracle.finite_difference_gradient` and the profile rows of a block of
# the KKT check.  On a small game a block saves numpy's per-call overhead;
# on a large one the bound keeps what a block holds at 512 KiB.
BLOCK_FLOATS = 1 << 16


def real(value, ndim: int = 0):
    """value as a float, or a float array with ndim non-empty axes, or None.
    The one rule for a number from outside the program: a finite real or
    integer, never a boolean, which float() and numpy would read as 1."""
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):   # also ragged lists, huge integers
        return None
    types = set(map(type, np.asarray(value, dtype=object).flat))
    if (x.ndim != ndim or x.size == 0 or not np.isfinite(x).all()
            or not all(issubclass(t, numbers.Real) and t is not bool for t in types)):
        return None
    return x if ndim else float(x)


@dataclass(frozen=True)
class Rule:
    """A row of an input table: a key's type, shape and range.  kind is
    float (see `real`; an array if ndim > 0), int (never a boolean), dict or
    a tuple of the strings allowed.  Numbers lie in (low, high], integers
    in [low, inf); an optional key may be absent or null, its default."""

    kind: type | tuple = float
    ndim: int = 0
    low: float = -math.inf
    high: float = math.inf
    optional: bool = False
    what: str = ""   # what the key holds, for messages

    def __str__(self) -> str:
        text = f"a non-empty {self.ndim}-D array of finite numbers" if self.ndim else {
            float: "a finite number", int: "an integer", dict: "an object"}.get(self.kind, f"one of {self.kind}")
        if self.low > -math.inf:
            text += f" >= {self.low}" if self.kind is int else f" in ({self.low:g}, {self.high:g}]"
        return text + ", or null" * self.optional + (f" ({self.what})" if self.what else "")


def check(rules: dict[str, Rule], data: dict, error: type[ValueError] = ValueError) -> dict:
    """The entries of data that have rows in rules and are not null, each
    converted by its row: the one checker of every input table.  Raises
    error naming the first key that breaks its row; a missing key is null."""
    out = {}
    for key, rule in rules.items():
        value = data.get(key)
        if value is None and rule.optional:
            continue
        x = real(value, rule.ndim) if rule.kind is float else value
        if rule.kind is float:
            ok = x is not None and bool(np.logical_and(x > rule.low, x <= rule.high).all())
        elif rule.kind is int:
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= rule.low
        else:
            ok = isinstance(value, dict) if rule.kind is dict else isinstance(value, str) and value in rule.kind
        if not ok:
            raise error(f"{key!r} must be {rule}, got {reprlib.repr(value)}")
        out[key] = x
    return out


@dataclass(frozen=True)
class LendingGame:
    """Immutable problem instance: budgets, demands and the rate corridor."""

    budgets: np.ndarray
    demands: np.ndarray
    rate_min: float
    rate_max: float

    def __post_init__(self):
        fields = ("budgets", "demands", "rate_min", "rate_max")
        values = check(GAME, dict(zip(GAME, map(self.__getattribute__, fields))))
        if not 0 < values["rate_min"] < values["rate_max"]:
            raise ValueError("rate corridor invariant violated: need 0 < rate_min < rate_max")
        for field, value in zip(fields, values.values()):
            object.__setattr__(self, field, value)
        self.budgets.setflags(write=False)
        self.demands.setflags(write=False)
        with np.errstate(over="ignore"):
            for name, scale in SCALES:
                if not sys.float_info.min <= scale(self) <= sys.float_info.max:
                    raise ValueError(f"{name} is {scale(self):.3g}, outside the normal float range")

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


# The game's inputs: LendingGame's fields, in order, under their scenario
# keys.  Read by LendingGame alone, which keeps the values as checked.
GAME = {
    "lenders": Rule(float, 1, low=0.0, what="lender budgets"),
    "borrowers": Rule(float, 1, low=0.0, what="borrower demands"),
    "rate_min": Rule(float, what="deposit facility rate"),
    "rate_max": Rule(float, what="marginal lending facility rate"),
}

# The keys a scenario adds to GAME's; `description` is free text.
SCENARIO = {
    "initial_profile": Rule(float, 2, optional=True),
    "dynamics": Rule(dict, optional=True),
}

# Derived rows of the game table, read by LendingGame.  The code squares
# or divides by these scales, so each must be a finite, normal float, or a
# run gives inf, NaN or a division by 0:
# - the potential squares column sums, up to m * cash_scale, and the
#   improvement bound divides by cash_scale^2;
# - the gradient-ball radius divides by a = 2 rate_span / d_min, and
#   dynamics.pg_step_bound and oracle.certificate_step are reciprocals of
#   a (m + 1) / 2 and a (m + 1), times the largest pg weight for the former;
# - the improvement bound squares potential gaps, in units of utility_scale
#   and below 2 P: |Phi| <= P = a (m * cash_scale)^2 on feasible profiles, as
#   the column sums add up to at most m c_max, so sum_j col_j^2 <= (m c_max)^2.
SCALES = (
    ("(m * cash_scale)^2 of 'lenders' and 'borrowers'", lambda g: np.square(g.m * g.cash_scale)),
    ("a = 2 rate_span / min d of 'rate_min', 'rate_max' and 'borrowers'", LendingGame.gradient_variation_bound),
    ("utility_scale^2 of 'rate_min', 'rate_max', 'lenders' and 'borrowers'", lambda g: np.square(g.utility_scale)),
    ("(a (m * cash_scale)^2)^2 of 'rate_min', 'rate_max', 'lenders' and 'borrowers'",
     lambda g: np.square(g.gradient_variation_bound() * np.square(g.m * g.cash_scale))),
)


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


def utilities(game: LendingGame, profile: np.ndarray) -> np.ndarray:
    """Per-lender utilities: interest earned above the deposit-facility rate.

    Negative entries arise when a lender funds oversupplied borrowers.
    """
    s = np.asarray(profile, dtype=float)
    margin = interest_rates(game, s) - game.rate_min
    return s @ margin


def check_lender(game: LendingGame, i: int) -> None:
    """Raise IndexError unless i is an integer lender index in [0, m).  A
    boolean is refused: s[True] adds an axis instead of picking lender 1."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < game.m:
        raise IndexError(f"lender index {i!r} out of range for m={game.m}")


def utility(game: LendingGame, profile: np.ndarray, i: int) -> float:
    check_lender(game, i)
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
    sq, col = np.add.reduce(s * s, axis=-2), np.add.reduce(s, axis=-2)
    span = game.rate_span
    phi = np.add.reduce(-span / (2.0 * game.demands) * (sq + col * col) + span * col, axis=-1)
    return float(phi) if phi.ndim == 0 else phi


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
    (rate_min - rate_max) * ((s_ij + sum_k s_kj) / d_j - 1).  Computed in
    the one array it returns, which callers may reuse."""
    s = np.asarray(profile, dtype=float)
    return _gradient_rows(game, s, np.add.reduce(s, axis=0))


def _gradient_rows(game: LendingGame, rows: np.ndarray, supply: np.ndarray, out=None) -> np.ndarray:
    """potential_gradient's entries in the profile rows `rows`, given the
    profile's column sums `supply`, computed in out (which may be rows) or
    in a new array.  A KKT certificate takes the column sums once and the
    rows a block at a time; every other caller goes through
    potential_gradient."""
    grad = np.add(rows, supply, out=out)
    grad /= game.demands
    grad -= 1.0
    grad *= game.rate_min - game.rate_max
    return grad
