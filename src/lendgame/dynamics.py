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
  fixed-step RK4, each step projected back onto the budget sets.

`run` drives every variant through one loop.  Trajectories record the
potential and the Lyapunov gap (potential at equilibrium minus current
potential) at every step, with thinned profile snapshots.  A run stops at
the first step whose gap is at most stop_gap, or after max_iters steps;
the continuous variant is also capped at round(horizon / ode_step) steps,
which its config must make at least 1, and its ode_step must lie within
RK4's stability bound.

`run` takes steps in blocks and evaluates the block's potentials and gaps
in one call.  The steps a block computes after the stop step are dropped,
so the trajectory is the one a step-by-step loop records.  Each variant's
per-run constants are bound once.  A step sums its profile's columns once
per evaluation of its field, and a block's potentials sum the columns of
all its profiles in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .best_response import _best_responses, _capped_projection, _gains_and_profile
from .equilibrium import solve_equilibrium
from .game import BLOCK_FLOATS, LendingGame, Rule, check, potential, potential_gradient, validate_profile

VARIANTS = ("eager", "randomised", "pseudo_gradient", "continuous")

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration_cap"

# Longest block of steps whose potentials `run` evaluates in one call; its
# profiles hold at most game.BLOCK_FLOATS floats.
MAX_BLOCK = 32


class ConfigError(ValueError):
    """A dynamics configuration field is invalid; the message names it."""


def pg_step_bound(game: LendingGame, pg_weights: np.ndarray | None = None) -> float:
    """Step bound of the discretised pseudo-gradient dynamics:
    1 / (rho * max w), with rho = span * (m + 1) / min_j d_j.

    The potential's Hessian is constant and block diagonal by column: column
    j's m x m block is -(span / d_j)(I + 11^T), whose eigenvalues are
    -span (m + 1) / d_j (along 1) and -span / d_j (m - 1 times).  So its
    spectral radius, the gradient's Lipschitz constant, is exactly rho.  A
    step moves lender i by h w_i along its gradient and projects each lender
    onto its own budget set: in the metric sum_i |x_i|^2 / w_i that is
    projected gradient ascent with step h, on a potential with Lipschitz
    constant at most rho max w and strong concavity modulus at least
    mu min w, mu = span / max_j d_j.  For h <= 1 / (rho max w) the descent
    lemma makes every step raise the potential, and the gap contracts by at
    least 1 - h mu min w per step (Beck, First-Order Methods in
    Optimization, SIAM 2017, ch. 10).  The bound is 1 / rho, not the edge of
    stability 2 / rho: that gap bound needs h <= 1 / rho, and at 2 / rho the
    iteration is only marginally stable, since I + h H has the eigenvalue -1
    and the error along its eigenvector never shrinks.
    """
    wmax = 1.0 if pg_weights is None else float(np.asarray(pg_weights, dtype=float).max())
    return float(game.demands.min() / (game.rate_span * (game.m + 1) * wmax))


def project_capped_simplex(v: np.ndarray, cap) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x <= cap}, row by row.

    v is one vector or a matrix whose rows are projected independently
    (cap is then a scalar or one cap per row): the best-response kernel
    with unit weights.
    """
    return _capped_projection(np.asarray(v, dtype=float), cap)


def _field(default, rule: Rule):
    return field(default=default, metadata={"rule": rule})


@dataclass
class DynamicsConfig:
    """Parameters of a dynamics run, each field with its row of FIELDS.  None
    takes a default from the game when the run starts: uniform
    lender_weights, unit pg_weights, pg_step at its bound pg_step_bound and
    snapshot_every max(10, ceil(m n / 50)), so that snapshots add about 50
    floats per step or fewer."""

    variant: str = _field("eager", Rule(VARIANTS))
    alpha: float = _field(1.0, Rule(float, low=0.0, high=1.0))
    lender_weights: np.ndarray | None = _field(None, Rule(float, 1, low=0.0, optional=True))
    pg_weights: np.ndarray | None = _field(None, Rule(float, 1, low=0.0, optional=True))
    pg_step: float | None = _field(None, Rule(float, optional=True))
    ode_step: float = _field(0.01, Rule(float, low=0.0))
    horizon: float = _field(50.0, Rule(float, low=0.0))
    max_iters: int = _field(100_000, Rule(int, low=1))
    stop_gap: float = _field(1e-8, Rule(float, low=0.0))
    snapshot_every: int | None = _field(None, Rule(int, low=1, optional=True))
    seed: int = _field(0, Rule(int, low=0))

    def resolved(self, game: LendingGame) -> "DynamicsConfig":
        """Copy checked by FIELDS, then against the game and across fields, with
        the defaults filled in; raises ConfigError naming the first bad field."""
        cfg = replace(self, **check(FIELDS, vars(self), ConfigError))
        # round(horizon / ode_step) < 1 exactly when the ratio is at most 1/2.
        if cfg.variant == "continuous" and cfg.horizon / cfg.ode_step <= 0.5:
            raise ConfigError(f"horizon {cfg.horizon!r} gives no step of ode_step "
                              f"{cfg.ode_step!r}: round(horizon / ode_step) is 0")
        # The Jacobian of the field BR(s) - s is -I + Pi A, with
        # A = -(J - I) / 2 (x) I_n (J the m x m all-ones matrix) and Pi the
        # derivative of the best-response projection, which is self-adjoint
        # in the metric 1 / w, as A is.  So its spectrum is real and lies in
        # [-(m + 1) / 2, -1 / 2].  On the negative real axis RK4 is stable up
        # to |z| = 2.785293563..., the real root of z^3 + 4 z^2 + 12 z + 24,
        # so ode_step may reach twice that over m + 1.
        ode_bound = 5.570587126810578 / (game.m + 1)
        if cfg.variant == "continuous" and cfg.ode_step > ode_bound:
            raise ConfigError(f"ode_step {cfg.ode_step:.6g} outside the stability bound (0, {ode_bound:.6g}]")
        weights = np.full(game.m, 1.0 / game.m) if cfg.lender_weights is None else cfg.lender_weights
        pg_weights = np.ones(game.m) if cfg.pg_weights is None else cfg.pg_weights
        for name, w in (("lender_weights", weights), ("pg_weights", pg_weights)):
            if w.shape != (game.m,):
                raise ConfigError(f"{name} must hold {game.m} weights, one per lender, got {w.size}")
        # The tolerance Generator.choice applies to its probabilities.
        if abs(math.fsum(weights) - 1.0) > np.sqrt(np.finfo(float).eps):
            raise ConfigError("lender_weights must be a distribution: they sum to "
                              f"{math.fsum(weights):.17g}, not 1")
        bound = pg_step_bound(game, pg_weights)
        pg_step = cfg.pg_step if cfg.pg_step is not None else bound
        if not 0 < pg_step <= bound:
            raise ConfigError(f"pg_step {pg_step:.6g} outside the stability bound (0, {bound:.6g}]")
        snapshot_every = cfg.snapshot_every
        if snapshot_every is None:
            snapshot_every = max(10, math.ceil(game.m * game.n / 50))
        return replace(cfg, lender_weights=weights, pg_weights=pg_weights, pg_step=pg_step,
                       snapshot_every=snapshot_every)


FIELDS = {f.name: f.metadata["rule"] for f in fields(DynamicsConfig)}


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


def _blend(s: np.ndarray, i: int, target: np.ndarray, alpha: float) -> np.ndarray:
    """s with row i moved a fraction alpha toward target."""
    out = s.copy()
    out[i] = s[i] + alpha * (target - s[i])
    return out


def step_eager(game: LendingGame, profile: np.ndarray, alpha: float) -> tuple[np.ndarray, int, float]:
    """One eager update: the lender with the highest best-response gain
    (lowest index on ties) blends a fraction alpha toward its best response.
    Returns (new profile, chosen lender, that lender's gain)."""
    s = np.asarray(profile, dtype=float)
    gains, targets = _gains_and_profile(game, s)
    i = int(np.argmax(gains))  # argmax takes the first maximum: lowest index
    return _blend(s, i, targets[i], alpha), i, float(gains[i])


def _randomised(game: LendingGame, s: np.ndarray, alpha: float, i: int) -> np.ndarray:
    return _blend(s, i, _best_responses(game, s, i)[0], alpha)


def _pseudo_gradient(game: LendingGame, s: np.ndarray, scaled_step: np.ndarray) -> np.ndarray:
    """scaled_step is pg_step * pg_weights[:, None]."""
    return _capped_projection(s + scaled_step * potential_gradient(game, s), game.budgets)


def _continuous(game: LendingGame, s: np.ndarray, h: float) -> np.ndarray:
    def field_at(x):
        return _best_responses(game, x)[0] - x

    k1 = field_at(s)
    k2 = field_at(s + 0.5 * h * k1)
    k3 = field_at(s + 0.5 * h * k2)
    k4 = field_at(s + h * k3)
    # Above ode_step ~ 1.2956 a step is no longer a convex combination of
    # best responses and can leave the budget set.  It returns through the
    # projection onto the set, as a pseudo-gradient step does; a row within
    # its budget is only clipped at 0.
    return _capped_projection(s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), game.budgets)


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
    return _randomised(game, s, alpha, i), i


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
    return _pseudo_gradient(game, np.asarray(profile, dtype=float), pg_step * np.asarray(pg_weights)[:, None])


def _lender_draw(weights: np.ndarray, rng: np.random.Generator):
    """Draws of rng.choice(len(weights), p=weights), one per call, without
    choice's check of the weights on every draw: resolved() has checked
    them once, at choice's tolerance."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return lambda: int(cdf.searchsorted(rng.random(), side="right"))


def _stepper(game: LendingGame, cfg: DynamicsConfig):
    """The resolved config's step, s -> (next profile, updating lender or
    -1), with its per-run constants bound."""
    if cfg.variant == "eager":
        return lambda s: step_eager(game, s, cfg.alpha)[:2]
    if cfg.variant == "randomised":
        draw = _lender_draw(cfg.lender_weights, np.random.Generator(np.random.Philox(cfg.seed)))

        def randomised(s):
            i = draw()
            return _randomised(game, s, cfg.alpha, i), i

        return randomised
    if cfg.variant == "pseudo_gradient":
        scaled_step = cfg.pg_step * cfg.pg_weights[:, None]
        return lambda s: (_pseudo_gradient(game, s, scaled_step), -1)
    h = float(cfg.ode_step)
    return lambda s: (_continuous(game, s, h), -1)


def integrate_continuous(
    game: LendingGame,
    initial_profile: np.ndarray,
    ode_step: float = DynamicsConfig.ode_step,
    horizon: float = DynamicsConfig.horizon,
    snapshot_every: int | None = None,
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
        # min before round: horizon / ode_step may overflow to inf.
        n_steps = round(min(cfg.horizon / cfg.ode_step, n_steps))

    phi_star = potential(game, solve_equilibrium(game).profile)
    step = _stepper(game, cfg)
    phi = potential(game, s[None])
    lenders, potentials, gaps = [-1], [phi], [phi_star - phi]
    snapshots = [(0, s.copy())]
    max_block = min(MAX_BLOCK, max(1, BLOCK_FLOATS // s.size))
    block = np.empty((max_block,) + s.shape)
    status = STATUS_ITERATION_CAP
    t = 0  # steps recorded
    while t < n_steps and status != STATUS_CONVERGED:
        # Blocks grow with the steps taken.  A block's bookkeeping costs
        # about half a pseudo-gradient step on a small game, and a run
        # computes on average half its last block in vain.  Blocks of
        # t // 16 steps, at most MAX_BLOCK, kept the sum lowest: 0.7-3% of
        # the steps per variant are computed and dropped on dynamics-mix.
        k = min(max_block, max(1, t // 16), n_steps - t)
        for b in range(k):
            s, lender = step(s)
            block[b] = s
            lenders.append(lender)
        phi = potential(game, block[:k])
        gap = phi_star - phi
        hit = np.flatnonzero(gap <= cfg.stop_gap)
        if hit.size:
            status = STATUS_CONVERGED
            k = int(hit[0]) + 1
            del lenders[t + k + 1:]
        potentials.append(phi[:k])
        gaps.append(gap[:k])
        every = cfg.snapshot_every
        for u in range(t + every - t % every, t + k + 1, every):
            snapshots.append((u, block[u - t - 1].copy()))
        t += k

    steps = np.arange(t + 1)
    times = steps * float(cfg.ode_step) if cfg.variant == "continuous" else steps.astype(float)
    return Trajectory(steps=steps, times=times, lenders=np.array(lenders),
                      potentials=np.concatenate(potentials), lyapunov_gaps=np.concatenate(gaps),
                      snapshots=snapshots, final_profile=block[k - 1].copy(), status=status)
