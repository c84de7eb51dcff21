"""Command-line surface: solve / dynamics / verify.

A scenario is a JSON object: LendingGame checks its game (game.GAME, then
game.SCALES), game.SCENARIO the keys it adds and dynamics.FIELDS the fields
its `dynamics` block gives, on every command; CLI flags override the block.
Trajectories are CSV with the columns
`step,time,lender_updated,potential,lyapunov_gap`, plus a side file of
thinned profile snapshots.  Every number that `solve` and `dynamics` write
is formatted by lendgame.fmt17 (`%.17g`, byte-stable); this module holds
the file layouts around the numbers and writes them as bytes.
`verify` runs the suite of lendgame.verify on one scenario or on K random
games and prints its PASS/FAIL table; here it only loads or draws the
instances.

Exit codes: 0 success, 2 malformed scenario or flags, 3 I/O failure
(an unreadable scenario, an output file or stdout that cannot be written,
a closed pipe included), 4 iteration cap reached, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import equilibrium as eq
from . import game as gm
from . import oracle as orc
from .dynamics import FIELDS, ConfigError, DynamicsConfig, STATUS_CONVERGED, run
from .fmt17 import blocks, float_text, fmt
from .verify import verify

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_ITERATION_CAP = 4
EXIT_VERIFY_FAIL = 5


@dataclass
class Scenario:
    game: gm.LendingGame
    initial_profile: np.ndarray | None
    dynamics: DynamicsConfig


def parse_scenario(data: dict) -> Scenario:
    """Build and fully validate a scenario, its `dynamics` block included;
    raises ValueError naming the key or field, or the violated invariant.
    Each value is checked once here, and the block's again when a dynamics
    run resolves its configuration; the block's defaults are the program's
    own."""
    game = gm.LendingGame(*map(data.get, gm.GAME))
    values = gm.check(gm.SCENARIO, data)
    profile = values.get("initial_profile")
    if profile is not None:
        profile = gm.validate_profile(game, profile)
    block = values.get("dynamics", {})
    try:
        dynamics = DynamicsConfig(**block)
        gm.check({key: rule for key, rule in FIELDS.items() if key in block}, block)
    except (TypeError, ValueError) as exc:   # TypeError: a key that is no field
        raise ValueError(f"invalid dynamics configuration: {exc}") from None
    return Scenario(game=game, initial_profile=profile, dynamics=dynamics)


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
    (malformed); `main` turns the exit into its return code.  JSON nested
    deeper than the interpreter's recursion limit is malformed too."""
    try:
        return load_scenario(path)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: malformed scenario: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _out_path(path: str | None, default_name: str) -> str:
    if path is not None:
        return path
    return os.path.join(os.environ.get("LENDGAME_OUTPUT_DIR", "."), default_name)


class _Decoded:
    """A text stream as a binary one: the bytes written, which are ASCII, go
    to it decoded, so they keep their place among its text and take its
    encoding and newline translation."""

    def __init__(self, text):
        self.text = text

    def write(self, data: bytes) -> int:
        return self.text.write(data.decode())


def _write_rows(out, share: np.ndarray, demands: np.ndarray, common: int | None) -> None:
    """Write each row of the profile np.outer(share, demands) to the binary
    stream out as "  " + float_text(row, n), which ends the line.  Every
    lender whose share has the bits of lender `common`'s (None if there is
    none) lends the same row, so that line is formatted once, as
    share[common] * demands, and written again for each of them (bits, not
    values: a share of -0.0 writes a row of -0, one of 0.0 a row of 0).
    The other rows, the fresh ones, are made from their shares and
    formatted in fmt17's blocks, and each block is written before the next
    is made, the common lines between its rows included."""
    m, n = share.size, demands.size
    same = np.zeros(m, dtype=bool)
    line = b""
    if common is not None:
        line = b"  " + float_text(share[common] * demands, n)
        bits = share.view(np.uint64)
        same = bits == bits[common]
    fresh = np.flatnonzero(~same)
    # The common lines before each fresh row, and after the last one.
    gaps = np.diff(fresh, prepend=-1, append=m) - 1
    for block in blocks(fresh.size, n):
        text = float_text(np.outer(share[fresh[block]], demands).ravel(), n)
        start = 0
        for gap in gaps[block].tolist():
            _write_common(out, line, gap, n)
            end = text.index(b"\n", start) + 1
            out.write(b"  " + text[start:end])
            start = end
    _write_common(out, line, int(gaps[-1]), n)


def _write_common(out, line: bytes, count: int, n: int) -> None:
    """Write `count` copies of line, a row of n floats, a block of rows to
    a write, so that a long run of common lines costs no more memory than a
    block of fresh rows."""
    for block in blocks(count, n):
        out.write(line * (block.stop - block.start))


def write_equilibrium_report(scenario: Scenario, out) -> eq.EquilibriumResult:
    """Solve and certify the scenario's game and write the report to out, a
    binary stream or a text stream (see _Decoded)."""
    if isinstance(out, io.TextIOBase):
        out = _Decoded(out)
    game = scenario.game
    result = eq.solve_equilibrium(game)
    report = eq.certify(game, result)
    exhausted = " ".join(str(i) for i in result.exhausted_set)
    head = (f"m {game.m}\nn {game.n}\nthreshold_index {result.threshold_index}\n"
            f"exhausted_set {exhausted}\nmarket_rate {fmt(result.market_rate)}\n"
            "multipliers_budget ")
    out.write(head.encode() + float_text(result.multipliers_budget, game.m)
              + b"equilibrium_profile\n")
    free = np.ones(game.m, dtype=bool)
    free[result.exhausted_set] = False
    _write_rows(out, result.share, result.demands, int(np.argmax(free)) if free.any() else None)
    out.write(f"kkt_primal_residual {fmt(report.primal_residual)}\n"
              f"kkt_stationarity_residual {fmt(report.stationarity_residual)}\n"
              f"kkt_dual_residual {fmt(report.dual_residual)}\n"
              f"kkt_slackness_residual {fmt(report.slackness_residual)}\n"
              f"kkt_passed {str(report.passed).lower()}\n".encode())
    return result


def cmd_solve(args) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    if args.output is None:
        write_equilibrium_report(scenario, sys.stdout)
        return EXIT_OK
    try:
        with open(args.output, "wb") as fh:
            result = write_equilibrium_report(scenario, fh)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"market_rate {fmt(result.market_rate)}")
    return EXIT_OK


def export_trajectory(traj, path: str) -> None:
    """Write the trajectory CSV and its snapshot side file: tables of floats
    formatted in fmt17's blocks, each block written before the next is
    formatted.  The integer columns (steps, lenders) are exact floats, the
    same as `%d` below 2^53."""
    with open(path, "wb") as fh:
        fh.write(b"step,time,lender_updated,potential,lyapunov_gap\n")
        columns = (traj.steps, traj.times, traj.lenders, traj.potentials, traj.lyapunov_gaps)
        for block in blocks(traj.steps.size, len(columns)):
            table = np.column_stack([column[block] for column in columns])
            fh.write(float_text(table.ravel(), len(columns), ","))
    with open(path + ".profiles.csv", "wb") as fh:
        if traj.snapshots:
            m, n = traj.snapshots[0][1].shape
            header = ["step"] + [f"s_{i}_{j}" for i in range(m) for j in range(n)]
            fh.write((",".join(header) + "\n").encode())
            for block in blocks(len(traj.snapshots), 1 + m * n):
                steps, profiles = zip(*traj.snapshots[block])
                table = np.column_stack((steps, np.reshape(profiles, (len(steps), m * n))))
                fh.write(float_text(table.ravel(), 1 + m * n, ","))


def cmd_dynamics(args) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    game = scenario.game
    start = scenario.initial_profile if scenario.initial_profile is not None else game.zero_profile()
    flags = {key: value for key, value in vars(args).items() if key in FIELDS and value is not None}
    if args.variant is not None:
        flags["variant"] = args.variant.replace("-", "_")
    try:
        traj = run(game, start, replace(scenario.dynamics, **flags))
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


def cmd_verify(args) -> int:
    if args.scenario is not None:
        scenario = load_scenario_or_exit(args.scenario)
        rng = np.random.Generator(np.random.Philox(args.seed))
        instances = [(scenario.game, rng, scenario.initial_profile)]
    else:
        # Per-instance seeds: the master seed sequence's children, one at a time.
        seeds = np.random.SeedSequence(args.seed)
        rngs = (np.random.Generator(np.random.Philox(seeds.spawn(1)[0])) for _ in range(args.random))
        instances = ((orc.random_game(rng, args.max_m, args.max_n), rng, None) for rng in rngs)
    table, failure = verify(instances, indexed=args.scenario is None)
    for line in table:
        print(line)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
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
    # A flag for each scalar row of FIELDS, checked by that row when the run
    # resolves its configuration.
    for name, rule in FIELDS.items():
        if rule.ndim:
            continue
        flag = "--" + name.replace("_", "-")
        if isinstance(rule.kind, tuple):
            p_dyn.add_argument(flag, choices=[v.replace("_", "-") for v in rule.kind], default=None)
        else:
            p_dyn.add_argument(flag, type=rule.kind, default=None)
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


def _detach_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's last flush of what stdout still buffers cannot fail again
    at exit.  A stdout that is no file (a caller's buffer) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            # argparse exits 2 on bad flags, which matches the documented code
            code = int(exc.code) if exc.code is not None else EXIT_BAD_INPUT
        sys.stdout.flush()   # a closed stdout fails here, not at exit
        return code
    except OSError as exc:
        # Scenario and output files have their own handlers, so this is
        # stdout: its reader has gone (EPIPE) or its device is full.
        _detach_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
