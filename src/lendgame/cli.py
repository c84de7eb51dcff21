"""Command-line surface: solve / dynamics / verify / bench.

Scenario files are JSON with keys `lenders` (budgets), `borrowers`
(demands), `rate_min`, `rate_max`, optional `initial_profile` (row-major
array of arrays), optional `dynamics` (DynamicsConfig overrides) and
optional `description`.  Trajectories are exported as CSV with the column
order `step,time,lender_updated,potential,lyapunov_gap`, plus a side file
of thinned profile snapshots.  All numbers are emitted with 17 significant
digits so files diff meaningfully.

Exit codes: 0 success, 2 malformed scenario or flags, 3 I/O failure,
4 iteration cap reached, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .best_response import best_response_gains
from . import equilibrium as eq
from . import game as gm
from . import oracle as orc
from .dynamics import VARIANTS, ConfigError, DynamicsConfig, STATUS_CONVERGED, run

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_ITERATION_CAP = 4
EXIT_VERIFY_FAIL = 5


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class Scenario:
    game: gm.LendingGame
    initial_profile: np.ndarray | None
    dynamics: dict
    description: str

    def to_dict(self) -> dict:
        out = {
            "lenders": list(self.game.budgets),
            "borrowers": list(self.game.demands),
            "rate_min": self.game.rate_min,
            "rate_max": self.game.rate_max,
        }
        if self.initial_profile is not None:
            out["initial_profile"] = [list(row) for row in self.initial_profile]
        if self.dynamics:
            out["dynamics"] = dict(self.dynamics)
        if self.description:
            out["description"] = self.description
        return out


def parse_scenario(data: dict) -> Scenario:
    """Build and fully validate a scenario; raises ValueError with the
    violated invariant named."""
    for key in ("lenders", "borrowers", "rate_min", "rate_max"):
        if key not in data:
            raise ValueError(f"scenario is missing required key {key!r}")
    game = gm.LendingGame(
        budgets=np.asarray(data["lenders"], dtype=float),
        demands=np.asarray(data["borrowers"], dtype=float),
        rate_min=float(data["rate_min"]),
        rate_max=float(data["rate_max"]),
    )
    profile = None
    if data.get("initial_profile") is not None:
        profile = gm.validate_profile(game, np.asarray(data["initial_profile"], dtype=float))
    dynamics = data.get("dynamics", {})
    if not isinstance(dynamics, dict):
        raise ValueError("scenario key 'dynamics' must be an object")
    return Scenario(game=game, initial_profile=profile, dynamics=dynamics,
                    description=str(data.get("description", "")))


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("scenario file must contain a JSON object")
    return parse_scenario(data)


def load_scenario_or_exit(path: str) -> Scenario:
    """Load a scenario, or report the error and exit 3 (unreadable) or 2
    (malformed); `main` turns the exit into its return code."""
    try:
        return load_scenario(path)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: malformed scenario: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _out_path(path: str | None, default_name: str) -> str:
    if path is not None:
        return path
    return os.path.join(os.environ.get("LENDGAME_OUTPUT_DIR", "."), default_name)


def write_equilibrium_report(scenario: Scenario, out) -> eq.EquilibriumResult:
    game = scenario.game
    result = eq.solve_equilibrium(game)
    report = eq.certify(game, result, tolerance=1e-8)
    out.write(f"m {game.m}\nn {game.n}\n")
    out.write(f"threshold_index {result.threshold_index}\n")
    out.write("exhausted_set " + " ".join(str(i) for i in result.exhausted_set) + "\n")
    out.write(f"market_rate {fmt(result.market_rate)}\n")
    out.write("multipliers_budget " + " ".join(fmt(v) for v in result.multipliers_budget) + "\n")
    out.write("equilibrium_profile\n")
    for row in result.profile:
        out.write("  " + " ".join(fmt(v) for v in row) + "\n")
    out.write(f"kkt_primal_residual {fmt(report.primal_residual)}\n")
    out.write(f"kkt_stationarity_residual {fmt(report.stationarity_residual)}\n")
    out.write(f"kkt_dual_residual {fmt(report.dual_residual)}\n")
    out.write(f"kkt_slackness_residual {fmt(report.slackness_residual)}\n")
    out.write(f"kkt_passed {str(report.passed).lower()}\n")
    return result


def cmd_solve(args) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    try:
        if args.output is None:
            write_equilibrium_report(scenario, sys.stdout)
        else:
            with open(args.output, "w") as fh:
                result = write_equilibrium_report(scenario, fh)
            print(f"market_rate {fmt(result.market_rate)}")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def export_trajectory(traj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("step,time,lender_updated,potential,lyapunov_gap\n")
        for k in range(traj.steps.size):
            fh.write(
                f"{traj.steps[k]},{fmt(traj.times[k])},{traj.lenders[k]},"
                f"{fmt(traj.potentials[k])},{fmt(traj.lyapunov_gaps[k])}\n"
            )
    with open(path + ".profiles.csv", "w") as fh:
        if traj.snapshots:
            m, n = traj.snapshots[0][1].shape
            header = ["step"] + [f"s_{i}_{j}" for i in range(m) for j in range(n)]
            fh.write(",".join(header) + "\n")
            for step, profile in traj.snapshots:
                fh.write(str(step) + "," + ",".join(fmt(v) for v in profile.ravel()) + "\n")


def build_config(scenario: Scenario, args) -> DynamicsConfig:
    """Scenario `dynamics` overrides, then CLI flags; an unknown key raises
    ConfigError.  `run` validates the rest."""
    try:
        cfg = DynamicsConfig(**scenario.dynamics)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    if args.variant is not None:
        cfg.variant = args.variant.replace("-", "_")
    for key in ("alpha", "pg_step", "ode_step", "horizon", "max_iters", "stop_gap", "seed"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def cmd_dynamics(args) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    game = scenario.game
    start = scenario.initial_profile if scenario.initial_profile is not None else game.zero_profile()
    try:
        traj = run(game, start, build_config(scenario, args))
    except ConfigError as exc:
        print(f"error: invalid dynamics configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out_path = _out_path(args.output, "trajectory.csv")
    try:
        export_trajectory(traj, out_path)
    except OSError as exc:
        print(f"error: cannot write trajectory: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"status {traj.status}")
    print(f"iterations {traj.iterations}")
    print(f"final_gap {fmt(traj.final_gap)}")
    return EXIT_OK if traj.status == STATUS_CONVERGED else EXIT_ITERATION_CAP


def _check_instance(game: gm.LendingGame, rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    """All invariant suites on one instance; (name, passed, detail) rows."""
    results = []
    s = orc.random_profile(rng, game)
    s2 = orc.random_profile(rng, game)

    # Potential identity under a unilateral deviation.
    k = int(rng.integers(game.m))
    dev = s.copy()
    dev[k] = orc.random_profile(rng, game)[k]
    d_phi = gm.potential(game, dev) - gm.potential(game, s)
    d_u = gm.utility(game, dev, k) - gm.utility(game, s, k)
    results.append(("potential_identity", abs(d_phi - d_u) <= 1e-10, f"residual {abs(d_phi - d_u):.3g}"))

    forms = abs(gm.potential(game, s) - gm.potential_telescoped(game, s))
    results.append(("potential_forms", forms <= 1e-10, f"residual {forms:.3g}"))

    lam = float(rng.uniform(0.05, 0.95))
    measured, closed = orc.concavity_gap(game, s, s2, lam)
    ok = abs(measured - closed) <= 1e-12 and (closed > 0 or np.allclose(s, s2))
    results.append(("concavity_gap", ok, f"residual {abs(measured - closed):.3g}"))

    fd = orc.finite_difference_gradient(game, s, 1e-5)
    g_res = float(np.abs(fd - gm.potential_gradient(game, s)).max())
    results.append(("gradient_fd", g_res <= 1e-6, f"residual {g_res:.3g}"))

    a = game.gradient_variation_bound()
    lhs = float(np.abs(gm.potential_gradient(game, s) - gm.potential_gradient(game, s2)).max())
    rhs = a * float(np.abs(s - s2).sum())
    results.append(("gradient_variation", lhs <= rhs + 1e-12, f"excess {lhs - rhs:.3g}"))

    v = rng.standard_normal(game.m * game.n)
    qf = orc.jacobian_quadratic_form(game, v)
    hf = orc.hessian_quadratic_form(game, v)
    ok = qf < 0 and abs(qf - hf) <= 1e-12 * max(1.0, abs(qf))
    results.append(("jacobian_negative_definite", ok, f"value {qf:.3g}"))

    # Gradient ball bound (directional-derivative persistence).
    v = rng.standard_normal((game.m, game.n))
    vdot = float((v * gm.potential_gradient(game, s)).sum())
    if vdot > 0:
        radius = vdot / (2.0 * a * float(np.abs(v).max()))
        direction = rng.standard_normal((game.m, game.n))
        direction /= np.abs(direction).sum()
        s_near = s + float(rng.uniform(0.0, radius)) * direction
        vdot_near = float((v * gm.potential_gradient(game, s_near)).sum())
        results.append(("gradient_ball", vdot_near >= 0.5 * vdot - 1e-12, f"lhs {vdot_near:.3g}"))
    else:
        results.append(("gradient_ball", True, "inactive (non-positive derivative)"))

    # Improvement bound: some lender's best-response gain reaches the bound.
    result = eq.solve_equilibrium(game)
    phi_star = gm.potential(game, result.profile)
    gap = phi_star - gm.potential(game, s)
    bound = gap * gap / (4.0 * game.m**4 * game.n**2 * a * float(game.budgets.max()) ** 2)
    max_gain = float(best_response_gains(game, s).max())
    results.append(("improvement_bound", max_gain >= bound - 1e-12, f"gain {max_gain:.3g} bound {bound:.3g}"))

    sol = orc.projected_gradient_solve(
        game, tol=min(1e-9, orc.gradient_tol_for_profile_tol(game, 1e-6))
    )
    dist = float(np.abs(sol.profile - result.profile).max())
    results.append(("oracle_equivalence", dist <= 1e-6, f"l_inf {dist:.3g}"))

    report = eq.certify(game, result, tolerance=1e-10)
    results.append(("kkt_residuals", report.passed, f"max residual {max(report.primal_residual, report.stationarity_residual, report.dual_residual, report.slackness_residual):.3g}"))

    spread = eq.rate_spread(game, result.profile)
    results.append(("uniform_rates", spread <= 1e-12, f"spread {spread:.3g}"))

    nash_gain = float(best_response_gains(game, result.profile).max())
    results.append(("nash_check", nash_gain <= 1e-9, f"gain {nash_gain:.3g}"))

    oversupply = float((result.profile.sum(axis=0) - game.demands).max())
    results.append(("no_oversupply", oversupply <= 1e-9, f"excess {oversupply:.3g}"))

    perm = rng.permutation(game.m)
    permuted = gm.LendingGame(game.budgets[perm], game.demands, game.rate_min, game.rate_max)
    p_res = eq.solve_equilibrium(permuted)
    p_dist = float(np.abs(p_res.profile - result.profile[perm]).max())
    results.append(("permutation_equivariance", p_dist <= 1e-12, f"l_inf {p_dist:.3g}"))
    return results


def _check_candidate(game: gm.LendingGame, candidate: np.ndarray) -> list[tuple[str, bool, str]]:
    """Equilibrium-candidate checks used in scenario verify mode."""
    results = []
    nash_gain = float(best_response_gains(game, candidate).max())
    results.append(("nash_check", nash_gain <= 1e-9, f"gain {nash_gain:.3g}"))
    spread = eq.rate_spread(game, candidate)
    results.append(("uniform_rates", spread <= 1e-12, f"spread {spread:.3g}"))
    return results


def cmd_verify(args) -> int:
    rows: list[tuple[str, bool, str]] = []
    if args.scenario is not None:
        scenario = load_scenario_or_exit(args.scenario)
        game = scenario.game
        rng = np.random.Generator(np.random.Philox(args.seed))
        rows.extend(_check_instance(game, rng))
        if scenario.initial_profile is not None:
            rows.extend(_check_candidate(game, scenario.initial_profile))
    else:
        # Per-instance seeds come from spawning the master seed sequence, so
        # instance k is reproducible regardless of worker layout.
        children = np.random.SeedSequence(args.seed).spawn(args.random)
        for k in range(args.random):
            rng = np.random.Generator(np.random.Philox(children[k]))
            game = orc.random_game(rng, args.max_m, args.max_n)
            for name, ok, detail in _check_instance(game, rng):
                rows.append((f"{name}[{k}]", ok, detail))

    failed = [name for name, ok, _ in rows if not ok]
    # Aggregate per check for the pass/fail table.
    agg: dict[str, tuple[int, int]] = {}
    for name, ok, _ in rows:
        base = name.split("[")[0]
        total, good = agg.get(base, (0, 0))
        agg[base] = (total + 1, good + int(ok))
    for base, (total, good) in agg.items():
        status = "PASS" if good == total else "FAIL"
        print(f"{status}  {base}  {good}/{total}")
    if failed:
        first = failed[0]
        detail = next(d for n, ok, d in rows if n == first)
        print(f"error: property {first} failed ({detail})", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.m < 1 or args.n < 1 or args.repeats < 1:
        print("error: sizes and repeats must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    rng = np.random.Generator(np.random.Philox(args.seed))
    timings = []
    for _ in range(args.repeats):
        game = gm.LendingGame(
            budgets=rng.uniform(0.5, 100.0, size=args.m),
            demands=rng.uniform(0.5, 100.0, size=args.n),
            rate_min=0.02,
            rate_max=0.08,
        )
        t0 = time.perf_counter()
        eq.solve_equilibrium(game)
        timings.append(time.perf_counter() - t0)
    print(f"m {args.m}")
    print(f"n {args.n}")
    print(f"repeats {args.repeats}")
    print(f"mean_seconds {fmt(float(np.mean(timings)))}")
    print(f"min_seconds {fmt(float(np.min(timings)))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lendgame",
                                     description="Interbank lending game solver and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the equilibrium of a scenario")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_dyn = sub.add_parser("dynamics", help="simulate a dynamics variant")
    p_dyn.add_argument("scenario")
    p_dyn.add_argument("--variant", choices=[v.replace("_", "-") for v in VARIANTS], default=None)
    p_dyn.add_argument("--alpha", type=float, default=None)
    p_dyn.add_argument("--pg-step", dest="pg_step", type=float, default=None)
    p_dyn.add_argument("--ode-step", dest="ode_step", type=float, default=None)
    p_dyn.add_argument("--horizon", type=float, default=None)
    p_dyn.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p_dyn.add_argument("--stop-gap", dest="stop_gap", type=float, default=None)
    p_dyn.add_argument("--seed", type=int, default=None)
    p_dyn.add_argument("--output", default=None)
    p_dyn.set_defaults(func=cmd_dynamics)

    p_verify = sub.add_parser("verify", help="run invariant suites and oracle comparisons")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("scenario", nargs="?", default=None)
    group.add_argument("--random", type=int, default=None)
    p_verify.add_argument("--max-m", dest="max_m", type=int, default=8)
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the equilibrium solver")
    p_bench.add_argument("--m", type=int, required=True)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the documented code
        return int(exc.code) if exc.code is not None else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
