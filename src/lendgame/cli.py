"""Command-line surface: solve / dynamics / verify.

A scenario is a JSON object checked by the tables game.SCENARIO and
game.SCALES, and its `dynamics` block by dynamics.FIELDS on every command;
CLI flags override the block.  Trajectories are CSV with the columns
`step,time,lender_updated,potential,lyapunov_gap`, plus a side file of
thinned profile snapshots.  Every float that `solve` and `dynamics` write
is formatted with `%.17g` (17 significant digits, enough to read back the
same double), so outputs are byte-stable and diff meaningfully.

Exit codes: 0 success, 2 malformed scenario or flags, 3 I/O failure,
4 iteration cap reached, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .best_response import best_response_gains
from . import equilibrium as eq
from . import game as gm
from . import oracle as orc
from .dynamics import FIELDS, VARIANTS, ConfigError, DynamicsConfig, STATUS_CONVERGED, run

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_ITERATION_CAP = 4
EXIT_VERIFY_FAIL = 5


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# Entries per `%` in `_join_floats`.  Whole rows format no faster: on
# 1000-wide reports they left 20 MB free but held in the C heap
# (fragmentation), +8.7 MB of peak RSS; chunks of 16 to 128 left 0.4 MB.
_CHUNK = 64
_CHUNK_TEMPLATES = {sep: sep.join(("%.17g",) * _CHUNK) for sep in (" ", ",")}


def _join_floats(values: np.ndarray, sep: str) -> str:
    """sep.join(fmt(v) for v in values), formatted by one `%` per chunk of
    _CHUNK entries instead of one call per number; sep is " " or ","."""
    items = values.tolist()
    parts = []
    for k in range(0, len(items), _CHUNK):
        chunk = tuple(items[k:k + _CHUNK])
        template = (_CHUNK_TEMPLATES[sep] if len(chunk) == _CHUNK
                    else sep.join(("%.17g",) * len(chunk)))
        parts.append(template % chunk)
    return sep.join(parts)


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
    """Build and fully validate a scenario, its `dynamics` block included;
    raises ValueError naming the key or field, or the violated invariant."""
    values = gm.check(gm.SCENARIO, data)
    game = gm.LendingGame(values["lenders"], values["borrowers"], values["rate_min"], values["rate_max"])
    profile = values.get("initial_profile")
    if profile is not None:
        profile = gm.validate_profile(game, profile)
    dynamics = values.get("dynamics") or {}
    try:
        gm.check(FIELDS, vars(DynamicsConfig(**dynamics)))
    except (TypeError, ValueError) as exc:   # TypeError: a key that is no field
        raise ValueError(f"invalid dynamics configuration: {exc}") from None
    return Scenario(game=game, initial_profile=profile, dynamics=dynamics,
                    description=str(data.get("description", "")))


def _json_int(text: str) -> int:
    """A JSON integer; one beyond the float range is refused here, since
    every number in a scenario ends up a float or is compared with one."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits is beyond the float range")
    return value


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        data = json.load(fh, parse_int=_json_int)
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
    report = eq.certify(game, result)
    out.write(f"m {game.m}\nn {game.n}\n")
    out.write(f"threshold_index {result.threshold_index}\n")
    out.write("exhausted_set " + " ".join(str(i) for i in result.exhausted_set) + "\n")
    out.write(f"market_rate {fmt(result.market_rate)}\n")
    out.write("multipliers_budget " + _join_floats(result.multipliers_budget, " ") + "\n")
    out.write("equilibrium_profile\n")
    # Every lender outside the exhausted set lends the same row, so that
    # line is formatted once and written again for each row with the same
    # bits (bits, not values: -0.0 and 0.0 are written differently).
    bits = result.profile.view(np.uint64)
    free = np.ones(game.m, dtype=bool)
    free[result.exhausted_set] = False
    common = None   # (bits, line) of the first free lender's row
    if free.any():
        k = int(np.argmax(free))
        common = (bits[k], "  " + _join_floats(result.profile[k], " ") + "\n")
    for row, row_bits in zip(result.profile, bits):
        if common is not None and np.array_equal(row_bits, common[0]):
            out.write(common[1])
        else:
            out.write("  " + _join_floats(row, " ") + "\n")
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
        columns = (traj.steps, traj.times, traj.lenders, traj.potentials, traj.lyapunov_gaps)
        for row in zip(*(column.tolist() for column in columns)):
            fh.write("%d,%.17g,%d,%.17g,%.17g\n" % row)
    with open(path + ".profiles.csv", "w") as fh:
        if traj.snapshots:
            m, n = traj.snapshots[0][1].shape
            header = ["step"] + [f"s_{i}_{j}" for i in range(m) for j in range(n)]
            fh.write(",".join(header) + "\n")
            for step, profile in traj.snapshots:
                fh.write(f"{step}," + _join_floats(profile.ravel(), ",") + "\n")


def cmd_dynamics(args) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    game = scenario.game
    start = scenario.initial_profile if scenario.initial_profile is not None else game.zero_profile()
    flags = {key: value for key, value in vars(args).items() if key in FIELDS and value is not None}
    if args.variant is not None:
        flags["variant"] = args.variant.replace("-", "_")
    try:
        traj = run(game, start, replace(DynamicsConfig(**scenario.dynamics), **flags))
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


def _gradient_ball_radius(game: gm.LendingGame, v: np.ndarray, vdot: float) -> float:
    """l1 radius around s within which v . grad Phi stays >= vdot / 2, where
    vdot = v . grad Phi(s) > 0."""
    # grad Phi_ij moves by -span (D_ij + sum_k D_kj) / d_j under a step D, so
    # |v . H D| <= |v|_max span / d_min sum_ij (|D_ij| + sum_k |D_kj|)
    #          = |v|_max span (m + 1) / d_min |D|_1 = (m + 1) a |v|_max |D|_1 / 2
    # with a = 2 span / d_min, so v . grad Phi stays >= vdot / 2 while
    # |D|_1 <= vdot / ((m + 1) a |v|_max).  The bound is tight: n = 1,
    # v = 1 and every D_i = |D|_1 / m reach it.
    a = game.gradient_variation_bound()
    return vdot / ((game.m + 1) * a * float(np.abs(v).max()))


def _check_instance(game: gm.LendingGame, rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    """All invariant suites on one instance; (name, passed, detail) rows."""
    cash, rate, util = game.cash_scale, game.rate_span, game.utility_scale
    results = []
    s = orc.random_profile(rng, game)
    s2 = orc.random_profile(rng, game)

    # Potential identity under a unilateral deviation.
    k = int(rng.integers(game.m))
    dev = s.copy()
    dev[k] = orc.random_profile(rng, game)[k]
    d_phi = gm.potential(game, dev) - gm.potential(game, s)
    d_u = gm.utility(game, dev, k) - gm.utility(game, s, k)
    results.append(("potential_identity", abs(d_phi - d_u) <= 1e-10 * util, f"residual {abs(d_phi - d_u):.3g}"))

    forms = abs(gm.potential(game, s) - gm.potential_telescoped(game, s))
    results.append(("potential_forms", forms <= 1e-10 * util, f"residual {forms:.3g}"))

    lam = float(rng.uniform(0.05, 0.95))
    measured, closed = orc.concavity_gap(game, s, s2, lam)
    ok = abs(measured - closed) <= 1e-12 * util and (closed > 0 or np.array_equal(s, s2))
    results.append(("concavity_gap", ok, f"residual {abs(measured - closed):.3g}"))

    fd = orc.finite_difference_gradient(game, s)
    g_res = float(np.abs(fd - gm.potential_gradient(game, s)).max())
    results.append(("gradient_fd", g_res <= 1e-6 * rate, f"residual {g_res:.3g}"))

    a = game.gradient_variation_bound()
    lhs = float(np.abs(gm.potential_gradient(game, s) - gm.potential_gradient(game, s2)).max())
    rhs = a * float(np.abs(s - s2).sum())
    results.append(("gradient_variation", lhs <= rhs + 1e-12 * rate, f"excess {lhs - rhs:.3g}"))

    v = rng.standard_normal(game.m * game.n)
    qf = orc.jacobian_quadratic_form(game, v)
    hf = orc.hessian_quadratic_form(game, v)
    ok = qf < 0 and abs(qf - hf) <= 1e-12 * abs(qf)
    results.append(("jacobian_negative_definite", ok, f"value {qf:.3g}"))

    # Gradient ball bound (directional-derivative persistence).
    v = rng.standard_normal((game.m, game.n))
    vdot = float((v * gm.potential_gradient(game, s)).sum())
    if vdot > 0:
        radius = _gradient_ball_radius(game, v, vdot)
        direction = rng.standard_normal((game.m, game.n))
        direction /= np.abs(direction).sum()
        s_near = s + float(rng.uniform(0.0, radius)) * direction
        vdot_near = float((v * gm.potential_gradient(game, s_near)).sum())
        results.append(("gradient_ball", vdot_near >= 0.5 * vdot - 1e-12 * rate, f"lhs {vdot_near:.3g}"))
    else:
        results.append(("gradient_ball", True, "inactive (non-positive derivative)"))

    # Improvement bound: some lender's best-response gain reaches
    # gap^2 / (4 m^4 n^2 a D^2), with the diameter D = max(c_max, d_max),
    # which is the cash scale.  Derivation:
    # - concavity gives gap <= m * g, g = max_i grad_i Phi . (s*_i - s_i),
    #   and grad_i Phi is lender i's own utility gradient;
    # - the own-row curvature of u_i is at most a, so moving t in [0, 1] of
    #   the way to s*_i gains at least t g - a t^2 |s*_i - s_i|^2 / 2, with
    #   |s*_i - s_i|^2 <= 2 c_max^2: an interior t gains at least
    #   g^2 / (4 a c_max^2) >= gap^2 / (4 m^2 a c_max^2);
    # - the step-capped branch t = 1 gains at least g / 2, which reaches
    #   the bound while g <= 2 m^2 n^2 a D^2.  As g <= 2 c_max span
    #   max(1, (m + 1) c_max / d_min), that is covered only when D >= d_min
    #   too: with c_max for D, 1 x 1 games with c < d / 9 fail.
    result = eq.solve_equilibrium(game)
    phi_star = gm.potential(game, result.profile)
    gap = phi_star - gm.potential(game, s)
    bound = gap * gap / (4.0 * game.m**4 * game.n**2 * a * cash**2)
    max_gain = float(best_response_gains(game, s).max())
    results.append(("improvement_bound", max_gain >= bound - 1e-12 * util, f"gain {max_gain:.3g} bound {bound:.3g}"))

    sol = orc.projected_gradient_solve(game, tol=orc.gradient_tol_for_profile_tol(game, 1e-8 * cash))
    dist = float(np.abs(sol.profile - result.profile).max())
    results.append(("oracle_equivalence", dist <= 1e-6 * cash, f"l_inf {dist:.3g}"))

    report = eq.certify(game, result, tolerance=1e-10)
    results.append(("kkt_residuals", report.passed, f"max residual {max(report.primal_residual, report.stationarity_residual, report.dual_residual, report.slackness_residual):.3g}"))

    results.extend(_check_candidate(game, result.profile))

    oversupply = float((result.profile.sum(axis=0) - game.demands).max())
    results.append(("no_oversupply", oversupply <= 1e-9 * cash, f"excess {oversupply:.3g}"))

    perm = rng.permutation(game.m)
    permuted = gm.LendingGame(game.budgets[perm], game.demands, game.rate_min, game.rate_max)
    p_res = eq.solve_equilibrium(permuted)
    p_dist = float(np.abs(p_res.profile - result.profile[perm]).max())
    results.append(("permutation_equivariance", p_dist <= 1e-12 * cash, f"l_inf {p_dist:.3g}"))
    return results


def _check_candidate(game: gm.LendingGame, candidate: np.ndarray) -> list[tuple[str, bool, str]]:
    """Equilibrium-candidate checks used in scenario verify mode."""
    spread = eq.rate_spread(game, candidate)
    nash_gain = float(best_response_gains(game, candidate).max())
    return [("uniform_rates", spread <= 1e-12 * game.rate_span, f"spread {spread:.3g}"),
            ("nash_check", nash_gain <= 1e-9 * game.utility_scale, f"gain {nash_gain:.3g}")]


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


def _at_least(low: int):
    """argparse type for an integer flag >= low; argparse exits 2 otherwise."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


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
    group.add_argument("--random", type=_at_least(0), default=None)
    p_verify.add_argument("--max-m", dest="max_m", type=_at_least(1), default=8)
    p_verify.add_argument("--max-n", dest="max_n", type=_at_least(1), default=8)
    p_verify.add_argument("--seed", type=_at_least(0), default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: building takes about ten times as
    long as a parse, and a process may call `main` many times.  Built on the
    first call, not at import, so importing the module stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the documented code
        return int(exc.code) if exc.code is not None else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
