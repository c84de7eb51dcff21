"""Interbank lending game: equilibrium solver, KKT certification and
convergent best-response dynamics."""

from types import ModuleType as _ModuleType

from .game import (
    LendingGame,
    interest_rates,
    potential,
    potential_gradient,
    potential_telescoped,
    utilities,
    utility,
    validate_profile,
)
from .equilibrium import (
    EquilibriumResult,
    KktReport,
    certify,
    compute_threshold_index,
    kkt_check,
    rate_spread,
    solve_equilibrium,
)
from .best_response import (
    best_response,
    best_response_gains,
    best_response_profile,
)
from .dynamics import (
    VARIANTS,
    DynamicsConfig,
    Trajectory,
    integrate_continuous,
    pg_step_bound,
    project_capped_simplex,
    run,
    step_eager,
    step_pseudo_gradient,
    step_randomised,
)
from .oracle import (
    OracleSolution,
    concavity_gap,
    finite_difference_gradient,
    hessian_quadratic_form,
    jacobian_quadratic_form,
    projected_gradient_solve,
    random_game,
    random_profile,
)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
__version__ = "0.1.0"
