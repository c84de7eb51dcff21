"""Best-response-style dynamics of the lending game.

Four variants, all provably convergent to the unique equilibrium:

* eager: at each step the lender with the largest best-response gain blends
  a fraction alpha toward its best response (asynchronous);
* randomised: the updating lender is drawn from a fixed positive
  distribution using a seeded counter-based generator (Philox);
* pseudo_gradient: all lenders simultaneously take a small step along their
  (weighted) utility gradients, followed by per-lender Euclidean projection
  back onto the budget-capped orthant (synchronous);
* continuous: the ODE ds_i/dt = BR_i(s) - s_i, integrated with classical
  fixed-step RK4.

`run` drives every variant through one loop.  Trajectories record the
potential and the Lyapunov gap (potential at equilibrium minus current
potential) at every step, with thinned profile snapshots.  A run stops at
the first step whose gap is at most stop_gap, or after max_iters steps;
the continuous variant is also capped at round(horizon / ode_step) steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .best_response import best_response, best_response_gains, best_response_profile
from .equilibrium import solve_equilibrium
from .game import LendingGame, potential, potential_gradient, validate_profile

VARIANTS = ("eager", "randomised", "pseudo_gradient", "continuous")

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration_cap"


class ConfigError(ValueError):
    """A dynamics configuration field is invalid; the message names it."""


def pg_step_bound(game: LendingGame, pg_weights: np.ndarray | None = None) -> float:
    """Largest stable step for the discretised pseudo-gradient dynamics.

    The pseudo-gradient Jacobian is constant with spectral radius at most
    2 * (rate_max - rate_min) * (m + 1) / min_j d_j (times the largest
    weight); the bound is its reciprocal.
    """
    wmax = 1.0 if pg_weights is None else float(np.asarray(pg_weights, dtype=float).max())
    return float(game.demands.min() / (2.0 * game.rate_span * (game.m + 1) * wmax))


def project_capped_simplex(v: np.ndarray, cap) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x <= cap}, row by row.

    v is one vector or a matrix whose rows are projected independently
    (cap is then a scalar or one cap per row).  Clip at zero; where the
    positive part fits under the cap it is the projection, otherwise
    project onto the simplex {x >= 0, sum x = cap} with the standard
    sort-based rule.
    """
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


def _positive_weights(name: str, value, m: int) -> np.ndarray:
    """value as m positive finite reals, or a ConfigError naming the field."""
    try:
        weights = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        weights = None
    if weights is None or weights.shape != (m,) or not (np.isfinite(weights) & (weights > 0)).all():
        raise ConfigError(f"{name} must be {m} positive finite reals, got {value!r}")
    return weights


@dataclass
class DynamicsConfig:
    """Parameters of a dynamics run.  Fields left as None get defaults
    derived from the game when the run starts."""

    variant: str = "eager"
    alpha: float = 1.0
    lender_weights: np.ndarray | None = None   # randomised variant; default uniform
    pg_weights: np.ndarray | None = None       # pseudo-gradient weights; default ones
    pg_step: float | None = None               # default: half the stability bound
    ode_step: float = 0.01
    horizon: float = 50.0
    max_iters: int = 100_000
    stop_gap: float = 1e-8
    snapshot_every: int = 10
    seed: int = 0

    def resolved(self, game: LendingGame) -> "DynamicsConfig":
        """Validated copy with game-dependent defaults filled in; raises
        ConfigError naming the first invalid field."""
        for name in ("max_iters", "snapshot_every", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("alpha", "pg_step", "ode_step", "horizon", "stop_gap"):
            value = getattr(self, name)
            if value is None and name == "pg_step":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if self.stop_gap <= 0:
            raise ConfigError("stop_gap must be positive")
        if self.ode_step <= 0:
            raise ConfigError("ode_step must be positive")

        if self.lender_weights is None:
            weights = np.full(game.m, 1.0 / game.m)
        else:
            weights = _positive_weights("lender_weights", self.lender_weights, game.m)
            if not np.isclose(weights.sum(), 1.0):
                raise ConfigError("lender_weights must be a distribution: they sum to "
                                  f"{weights.sum():.6g}, not 1")
        if self.pg_weights is None:
            pg_weights = np.ones(game.m)
        else:
            pg_weights = _positive_weights("pg_weights", self.pg_weights, game.m)

        bound = pg_step_bound(game, pg_weights)
        pg_step = self.pg_step if self.pg_step is not None else 0.5 * bound
        if not 0 < pg_step <= bound:
            raise ConfigError(
                f"pg_step {pg_step:.6g} outside the stability bound (0, {bound:.6g}]"
            )
        return replace(self, lender_weights=weights, pg_weights=pg_weights, pg_step=pg_step)


@dataclass
class Trajectory:
    """Recorded run: one scalar record per step, thinned profile snapshots."""

    steps: np.ndarray
    times: np.ndarray
    lenders: np.ndarray            # updating lender per step, -1 for synchronous
    potentials: np.ndarray
    lyapunov_gaps: np.ndarray
    snapshots: list[tuple[int, np.ndarray]]
    final_profile: np.ndarray
    status: str

    @property
    def iterations(self) -> int:
        return int(self.steps[-1]) if self.steps.size else 0

    @property
    def final_gap(self) -> float:
        return float(self.lyapunov_gaps[-1]) if self.lyapunov_gaps.size else float("nan")


def step_eager(game: LendingGame, profile: np.ndarray, alpha: float) -> tuple[np.ndarray, int, float]:
    """One eager update: the lender with the highest best-response gain
    (lowest index on ties) blends a fraction alpha toward its best response.
    Returns (new profile, chosen lender, that lender's gain)."""
    s = np.asarray(profile, dtype=float)
    gains = best_response_gains(game, s)
    i = int(np.argmax(gains))  # argmax takes the first maximum: lowest index
    target = best_response(game, s, i)
    out = s.copy()
    out[i] = s[i] + alpha * (target - s[i])
    return out, i, float(gains[i])


def step_randomised(
    game: LendingGame,
    profile: np.ndarray,
    alpha: float,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """One randomised update: draw the lender from the given distribution
    and apply the same alpha-blend toward its best response."""
    s = np.asarray(profile, dtype=float)
    i = int(rng.choice(game.m, p=weights))
    target = best_response(game, s, i)
    out = s.copy()
    out[i] = s[i] + alpha * (target - s[i])
    return out, i


def step_pseudo_gradient(
    game: LendingGame,
    profile: np.ndarray,
    pg_weights: np.ndarray,
    pg_step: float,
) -> np.ndarray:
    """One synchronous pseudo-gradient step: every lender moves along its
    weighted utility gradient, then is projected back onto its budget set."""
    if pg_step > pg_step_bound(game, pg_weights):
        raise ValueError("pg_step exceeds the stability bound")
    s = np.asarray(profile, dtype=float)
    moved = s + pg_step * np.asarray(pg_weights)[:, None] * potential_gradient(game, s)
    return project_capped_simplex(moved, game.budgets)


def step_continuous(game: LendingGame, profile: np.ndarray, ode_step: float) -> np.ndarray:
    """One classical RK4 step of ds_i/dt = BR_i(s) - s_i."""
    s = np.asarray(profile, dtype=float)
    h = float(ode_step)

    def field_at(x):
        return best_response_profile(game, x) - x

    k1 = field_at(s)
    k2 = field_at(s + 0.5 * h * k1)
    k3 = field_at(s + 0.5 * h * k2)
    k4 = field_at(s + h * k3)
    out = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # RK4 can leave the feasible set by integrator error only; clip it.
    np.clip(out, 0.0, None, out=out)
    excess = out.sum(axis=1) / game.budgets
    over = excess > 1.0
    if over.any():
        out[over] /= excess[over, None]
    return out


def integrate_continuous(
    game: LendingGame,
    initial_profile: np.ndarray,
    ode_step: float = 0.01,
    horizon: float = 50.0,
    snapshot_every: int = 10,
) -> Trajectory:
    """Integrate ds_i/dt = BR_i(s) - s_i with classical fixed-step RK4 up to
    the horizon: :func:`run` on the continuous variant, with the default
    stop_gap and max_iters."""
    config = DynamicsConfig(variant="continuous", ode_step=ode_step, horizon=horizon,
                            snapshot_every=snapshot_every)
    return run(game, initial_profile, config)


def run(game: LendingGame, initial_profile: np.ndarray, config: DynamicsConfig) -> Trajectory:
    """Run the configured variant until the Lyapunov gap falls to stop_gap
    or the step cap is hit (the latter is reported in the trajectory status,
    not raised).  The cap is max_iters, and for the continuous variant at
    most round(horizon / ode_step)."""
    cfg = config.resolved(game)
    s = validate_profile(game, initial_profile).copy()
    n_steps = cfg.max_iters
    if cfg.variant == "continuous":
        n_steps = min(n_steps, int(round(cfg.horizon / cfg.ode_step)))

    phi_star = potential(game, solve_equilibrium(game).profile)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    snapshot_every = max(1, cfg.snapshot_every)
    phi = potential(game, s)
    steps, times, lenders, potentials, gaps = [0], [0.0], [-1], [phi], [phi_star - phi]
    snapshots = [(0, s.copy())]
    status = STATUS_ITERATION_CAP
    for t in range(1, n_steps + 1):
        lender, time = -1, float(t)
        if cfg.variant == "eager":
            s, lender, _ = step_eager(game, s, cfg.alpha)
        elif cfg.variant == "randomised":
            s, lender = step_randomised(game, s, cfg.alpha, cfg.lender_weights, rng)
        elif cfg.variant == "pseudo_gradient":
            s = step_pseudo_gradient(game, s, cfg.pg_weights, cfg.pg_step)
        else:
            s = step_continuous(game, s, cfg.ode_step)
            time = t * cfg.ode_step
        phi = potential(game, s)
        gap = phi_star - phi
        steps.append(t)
        times.append(time)
        lenders.append(lender)
        potentials.append(phi)
        gaps.append(gap)
        if t % snapshot_every == 0:
            snapshots.append((t, s.copy()))
        if gap <= cfg.stop_gap:
            status = STATUS_CONVERGED
            break
    return Trajectory(steps=np.array(steps), times=np.array(times), lenders=np.array(lenders),
                      potentials=np.array(potentials), lyapunov_gaps=np.array(gaps),
                      snapshots=snapshots, final_profile=s, status=status)
