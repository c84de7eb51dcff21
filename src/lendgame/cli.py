"""Command-line surface: solve / dynamics / verify.

A scenario is a JSON object checked by the tables game.SCENARIO and
game.SCALES, and its `dynamics` block by dynamics.FIELDS on every command;
CLI flags override the block.  Trajectories are CSV with the columns
`step,time,lender_updated,potential,lyapunov_gap`, plus a side file of
thinned profile snapshots.  Every float that `solve` and `dynamics` write
is formatted with `%.17g` (17 significant digits, enough to read back the
same double), so outputs are byte-stable and diff meaningfully.  The
report's blocks of floats take an exactly rounded `%.17g` computed by
array operations (_float_text), which writes the same bytes as `%`.
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
import json
import os
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import equilibrium as eq
from . import game as gm
from . import oracle as orc
from .dynamics import FIELDS, VARIANTS, ConfigError, DynamicsConfig, STATUS_CONVERGED, run
from .verify import verify

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_ITERATION_CAP = 4
EXIT_VERIFY_FAIL = 5


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# Trajectory rows per `%` in `export_trajectory`.
_CHUNK = 64
_TRAJECTORY_ROW = "%d,%.17g,%d,%.17g,%.17g\n"

# `%.17g` by array operations, for the report's large blocks of floats.
#
# Digits.  For |x| in [1e-10, 1e25) let k = floor(log10 |x|).  The 17
# significant digits are the integer nearest to n = |x| 10^(16-k), which
# lies in [1e16, 1e17).  n' is n computed in long double as one product
# |x| 10^p, or one quotient |x| / 10^-p when p = 16 - k < 0.  With a
# 64-bit significand, 10^|p| is exact for |p| <= 27 (5^27 < 2^63), so n'
# carries one rounding: |n' - n| <= half an ulp of n' <= 2^-8, as
# n' < 2^57.  Rounding to nearest is monotone, and every half-integer
# below 2^63 is a long double, so n' lies on the same side as n of every
# half-integer, unless n' is one.  Hence where the fraction of n' is not
# 1/2, the integer nearest n' is the integer nearest n, and the digits
# are exactly rounded.  log10 can put k one off near a power of ten; a
# floor of n' outside [1e16, 1e17) shows it, and n' is computed again with
# k corrected.  These go through `%` itself: a fraction of exactly 1/2; a
# floor still outside the range; digits that round up to 1e17, which no
# double in the range has (n would lie within 5e-18 relative of 1e17, but
# the largest double below 10^j, for j from -9 to 25, lies at least 1.6e-17
# relative below it); 0, subnormals, inf, nan and anything else outside
# [1e-10, 1e25); and every value where long double has fewer than 64 bits
# (_EXACT false).
#
# Text.  `%g` writes fixed notation for -4 <= k < 17, else d.ddde+XX, and
# strips trailing zeros.  A window of the digit string, padded with '0's
# on the left and taken at an offset that depends on k, puts the integer
# digits left of a fixed column and the fraction right of it; a second
# window starts at the sign or the first digit.  Windows are fancy-indexed
# views whose items overlap (see _bytes_view), so each moves every row by
# its own offset in one copy.
_EXACT = np.finfo(np.longdouble).nmant >= 63
_ENTRIES = 2 ** 12   # floats per call of _format_chunk
_K_LO = -11          # k before correction lies in [-11, 25]
_MUL = np.array([np.longdouble(10) ** max(16 - k, 0) for k in range(_K_LO, 26)])
_DIV = np.array([np.longdouble(10) ** max(k - 16, 0) for k in range(_K_LO, 26)])
_G = np.arange(10_000, dtype=np.uint32)
# Each 4-digit group 0000..9999 as 4 ASCII bytes in a uint32, and its
# trailing zeros (4 for 0000).
_GROUP = (48 + _G // 1000 | (48 + _G // 100 % 10) << 8 | (48 + _G // 10 % 10) << 16
          | (48 + _G % 10) << 24).astype("<u4")
_GROUP_ZEROS = ((_G % 10 == 0).astype(np.uint8) + (_G % 100 == 0) + (_G % 1000 == 0)
                + (_G == 0))
del _G
_WIDTH = 40          # bytes per row of the digit and text buffers
_OUT = 25            # longest text, "-2.2250738585072014e-308", and a separator
# Item x of _PREFIX is x True and then False bools.
_PREFIX = np.tri(_OUT + 1, _OUT, -1, dtype=bool).view(f"V{_OUT}")[:, 0]


def _bytes_view(buf: np.ndarray, dtype: str, offset: int, stride: int) -> np.ndarray:
    """A 1-D view of buf's bytes: items of dtype at offset, offset + stride,
    and so on.  With stride 1 the items overlap: item i is the window of
    bytes that starts at offset + i."""
    size = np.dtype(dtype).itemsize
    return np.ndarray(((buf.nbytes - offset - size) // stride + 1,), dtype, buf, offset, (stride,))


def _scale(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a 10^(16 - k) for long doubles a, with one rounding."""
    i = k - _K_LO
    n = _MUL[i]
    n *= a
    big = np.flatnonzero(k > 16)
    n[big] /= _DIV[i[big]]
    return n


def _decimal(values: np.ndarray):
    """(digits, k, exact): the 17 significant digits of |values| as integers
    in [1e16, 1e17), their decimal exponents, and where they are exactly
    rounded (see above); digits and k are meaningless elsewhere."""
    x = np.abs(values)
    exact = (x >= 1e-10) & (x < 1e25) & _EXACT
    x[~exact] = 1.0
    k = np.floor(np.log10(x)).astype(np.intp)
    a = x.astype(np.longdouble)
    n = _scale(a, k)
    floor = n.astype(np.uint64)
    shift = (floor >= 10 ** 17).astype(np.int8) - (floor < 10 ** 16)
    off = np.flatnonzero(shift)
    k[off] += shift[off]
    n[off] = _scale(a[off], k[off])
    floor[off] = n[off].astype(np.uint64)
    n -= floor
    frac = n.astype(np.float64)   # exact: a multiple of 2^-10
    digits = floor + (frac > 0.5)
    exact &= (frac != 0.5) & (floor >= 10 ** 16) & (digits < 10 ** 17)
    return digits, k, exact


def _digit_rows(digits: np.ndarray):
    """(rows, sig): row i holds 20 '0's and then the 17 digits of digits[i];
    sig[i] counts them without trailing zeros.  An extra row pads the
    windows that run past the last one."""
    count = digits.size
    rows = np.full((count + 1, _WIDTH), ord("0"), np.uint8)
    # A lead digit and four 4-digit groups: one uint64 division splits the
    # digits into two halves below 10^9, and the rest is uint32 arithmetic.
    # The lead digit d is written as the group 000d, whose '0's fall on the
    # padding.
    high = digits // 10 ** 8
    low = (digits - high * 10 ** 8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = []
    for half in (low, high):
        head = half // 10 ** 4
        groups += [half - head * 10 ** 4, head]
    for at, group in zip((33, 29, 25, 21, 17), groups + [lead]):
        _bytes_view(rows, "<u4", at, _WIDTH)[:count] = _GROUP[group]
    # Trailing zeros, group by group from the last while a group is 0000;
    # the lead digit of 17 digits is not 0.
    sig = 17 - _GROUP_ZEROS[groups[0]]
    trailing = np.flatnonzero(groups[0] == 0)
    for group in groups[1:]:
        if not trailing.size:
            break
        group = group[trailing]
        sig[trailing] -= _GROUP_ZEROS[group]
        trailing = trailing[group == 0]
    return rows, sig


def _format_chunk(values: np.ndarray, seps: np.ndarray) -> bytes:
    """The `%.17g` texts of values, each followed by its separator."""
    count = values.size
    digits, k, exact = _decimal(values)
    rows, sig = _digit_rows(digits)
    # Fixed notation puts the point at column 18 of a text row and the
    # digit of 10^j at column 17 - j, or 18 - j for j < 0; column 0 leaves
    # room for the sign of a 17-digit integer.  Exponent notation takes the
    # layout of k = 0.
    expo = (k < -4) | (k > 16)
    kf = np.where(expo, 0, k)
    at = np.arange(count) * _WIDTH + kf + 4
    text = np.empty((count + 1, _WIDTH), np.uint8)
    _bytes_view(text, "V17", 1, _WIDTH)[:count] = _bytes_view(rows, "V17", 0, 1)[at]
    _bytes_view(text, "V20", 19, _WIDTH)[:count] = _bytes_view(rows, "V20", 17, 1)[at]
    del rows
    text[:, 18] = ord(".")
    start = 17 - np.maximum(kf, 0)
    end = np.where(sig - kf >= 2, 18 + sig - kf, 18)   # no bare point
    base = np.arange(count) * _WIDTH
    flat = text.reshape(-1)
    neg = np.flatnonzero(np.signbit(values) & exact)
    start[neg] -= 1
    flat[base[neg] + start[neg]] = ord("-")
    e = np.flatnonzero(expo & exact)
    if e.size:
        pos, ke = base[e] + end[e], k[e]
        flat[pos] = ord("e")
        flat[pos + 1] = np.where(ke < 0, ord("-"), ord("+"))
        flat[pos + 2] = 48 + np.abs(ke) // 10
        flat[pos + 3] = 48 + np.abs(ke) % 10
        end[e] += 4
    # Each text and its separator, from the sign or first digit on.
    out = _bytes_view(text, f"V{_OUT}", 0, 1)[base + start]
    del text
    length = end - start
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        out[slow] = np.array(texts, f"S{_OUT}").view(f"V{_OUT}")
        length[slow] = [len(t) for t in texts]
    out8 = out.view(np.uint8)
    out8[np.arange(count) * _OUT + length] = seps
    return out8[_PREFIX[length + 1].view(bool)].tobytes()


def _float_text(values: np.ndarray, n: int) -> bytes:
    """The `%.17g` texts of a 1-D float array, n to a line: each followed
    by a space, or by a newline if it ends a line.  Formatted _ENTRIES
    floats at a time."""
    parts = []
    for k in range(0, values.size, _ENTRIES):
        chunk = values[k:k + _ENTRIES]
        seps = np.full(chunk.size, ord(" "), np.uint8)
        seps[(n - 1 - k) % n::n] = ord("\n")   # after values k + j with (k + j + 1) % n == 0
        parts.append(_format_chunk(chunk, seps))
    return b"".join(parts)


def _join_floats(values: np.ndarray) -> str:
    """" ".join(fmt(v) for v in values)."""
    return _float_text(values, values.size)[:-1].decode()


@dataclass
class Scenario:
    game: gm.LendingGame
    initial_profile: np.ndarray | None
    dynamics: DynamicsConfig


def parse_scenario(data: dict) -> Scenario:
    """Build and fully validate a scenario, its `dynamics` block included;
    raises ValueError naming the key or field, or the violated invariant."""
    values = gm.check(gm.SCENARIO, data)
    game = gm.LendingGame(values["lenders"], values["borrowers"], values["rate_min"], values["rate_max"])
    profile = values.get("initial_profile")
    if profile is not None:
        profile = gm.validate_profile(game, profile)
    try:
        dynamics = DynamicsConfig(**values.get("dynamics", {}))
        gm.check(FIELDS, vars(dynamics))
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


def _write_rows(out, profile: np.ndarray, common: int | None) -> None:
    """Write each row of the profile as "  " + _join_floats(row) + "\n".
    Every lender outside the exhausted set lends the same row, that of
    lender `common` (None if there is none), so that line is formatted once
    and written again for each row with the same bits (bits, not values:
    -0.0 and 0.0 are written differently).  The other rows, the fresh ones,
    are gathered and formatted _ENTRIES // n rows at a time, so that every
    block but the last is full, and each block is written before the next
    is formatted, the common lines between its rows included."""
    m, n = profile.shape
    same = np.zeros(m, dtype=bool)
    line = ""
    if common is not None:
        line = "  " + _join_floats(profile[common]) + "\n"
        rows = np.ascontiguousarray(profile).view(np.dtype((np.void, 8 * n)))[:, 0]
        same = rows == rows[common]
    fresh = np.flatnonzero(~same)
    # The common lines before each fresh row, and after the last one.
    gaps = np.diff(fresh, prepend=-1, append=m) - 1
    step = max(1, _ENTRIES // n)
    for r in range(0, fresh.size, step):
        block = fresh[r:r + step]
        lines = _float_text(profile[block].ravel(), n).decode().split("\n")
        for gap, text in zip(gaps[r:r + block.size].tolist(), lines):
            _write_common(out, line, gap, step)
            out.write(f"  {text}\n")
    _write_common(out, line, int(gaps[-1]), step)


def _write_common(out, line: str, count: int, step: int) -> None:
    """Write `count` copies of line, at most `step` to a write, so that a
    long run of common lines costs no more memory than a block of rows."""
    for k in range(0, count, step):
        out.write(line * min(step, count - k))


def write_equilibrium_report(scenario: Scenario, out) -> eq.EquilibriumResult:
    game = scenario.game
    result = eq.solve_equilibrium(game)
    report = eq.certify(game, result)
    out.write(f"m {game.m}\nn {game.n}\n")
    out.write(f"threshold_index {result.threshold_index}\n")
    out.write("exhausted_set " + " ".join(str(i) for i in result.exhausted_set) + "\n")
    out.write(f"market_rate {fmt(result.market_rate)}\n")
    out.write("multipliers_budget " + _join_floats(result.multipliers_budget) + "\n")
    out.write("equilibrium_profile\n")
    free = np.ones(game.m, dtype=bool)
    free[result.exhausted_set] = False
    _write_rows(out, result.profile, int(np.argmax(free)) if free.any() else None)
    out.write(f"kkt_primal_residual {fmt(report.primal_residual)}\n")
    out.write(f"kkt_stationarity_residual {fmt(report.stationarity_residual)}\n")
    out.write(f"kkt_dual_residual {fmt(report.dual_residual)}\n")
    out.write(f"kkt_slackness_residual {fmt(report.slackness_residual)}\n")
    out.write(f"kkt_passed {str(report.passed).lower()}\n")
    return result


def cmd_solve(args) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    if args.output is None:
        write_equilibrium_report(scenario, sys.stdout)
        return EXIT_OK
    try:
        with open(args.output, "w") as fh:
            result = write_equilibrium_report(scenario, fh)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"market_rate {fmt(result.market_rate)}")
    return EXIT_OK


def export_trajectory(traj, path: str) -> None:
    """Write the trajectory CSV and its snapshot side file.  Trajectory rows
    are read from the arrays, formatted by one `%` and written a chunk of
    _CHUNK rows at a time, so no more than a chunk of them is ever held as
    Python objects or text; snapshot rows take one `%` each, with a template
    built per file."""
    with open(path, "w") as fh:
        fh.write("step,time,lender_updated,potential,lyapunov_gap\n")
        columns = (traj.steps, traj.times, traj.lenders, traj.potentials, traj.lyapunov_gaps)
        for k in range(0, traj.steps.size, _CHUNK):
            rows = zip(*(column[k:k + _CHUNK].tolist() for column in columns))
            chunk = tuple(chain.from_iterable(rows))
            fh.write((_TRAJECTORY_ROW * (len(chunk) // 5)) % chunk)
    with open(path + ".profiles.csv", "w") as fh:
        if traj.snapshots:
            m, n = traj.snapshots[0][1].shape
            header = ["step"] + [f"s_{i}_{j}" for i in range(m) for j in range(n)]
            fh.write(",".join(header) + "\n")
            row = "%d," + ",".join(("%.17g",) * (m * n)) + "\n"
            for step, profile in traj.snapshots:
                fh.write(row % (step, *profile.ravel().tolist()))


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
        # Per-instance seeds come from spawning the master seed sequence, so
        # instance k is reproducible regardless of worker layout.
        rngs = (np.random.Generator(np.random.Philox(child))
                for child in np.random.SeedSequence(args.seed).spawn(args.random))
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
