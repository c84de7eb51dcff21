"""The benchmark's workloads: scenario generation and output checks.

Inputs come only from the workload seed, through Philox generators, and
reach the program only as scenario files and command lines.

Instance cost spans three orders of magnitude and depends mostly on the
game's size and on the ratio of its largest to its smallest borrower
demand, which sets how many steps the oracle and the pseudo-gradient
dynamics take.  Each workload therefore runs a fixed design in fixed order,
in blocks: every block holds each size and each demand-ratio level the same
number of times, and any run of consecutive instances is close to
balanced.  The seed draws every value: budgets, demands within
their ratio, rate corridors, starting profiles and dynamics seeds.  Runs
with different seeds then do comparable work and their figures can be
compared.

The checks read what the CLI wrote and recompute with plain numpy; none of
them calls into lendgame.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)
DEMAND_RANGE = (0.5, 100.0)
BUDGET_RANGE = (0.5, 100.0)
# Largest ratio of largest to smallest demand.  Oracle and pseudo-gradient
# steps grow with the ratio; 20 keeps the slowest instance near one second
# and a run long enough in samples for steady percentiles.
MAX_DEMAND_RATIO = 20.0
TRAJECTORY_HEADER = "step,time,lender_updated,potential,lyapunov_gap"
DYNAMICS_VARIANTS = ("eager", "randomised", "pseudo_gradient", "continuous")
STOP_GAP = 1e-8
# Horizon and step at which the continuous variant reaches STOP_GAP on every
# generated instance; the variant runs the whole horizon.
ODE_HORIZON = 25.0
ODE_STEP = 0.1


@dataclass
class Instance:
    argv: list[str]
    output: str | None = None          # file the CLI writes
    scenario: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = [seed] + list(workload.encode())
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _demands(rng: np.random.Generator, n: int, level: int, levels: int) -> np.ndarray:
    """n demands: the largest uniform in the upper half of DEMAND_RANGE, the
    smallest a fixed fraction of it (level `level` of `levels` log-uniform
    quantiles of [1, MAX_DEMAND_RATIO]), the others uniform in between."""
    hi = DEMAND_RANGE[1]
    d_max = rng.uniform(hi / 2, hi)
    if n == 1:
        return np.array([d_max])
    d_min = d_max / MAX_DEMAND_RATIO ** ((level + 0.5) / levels)
    inner = rng.uniform(d_min, d_max, n - 2)
    return rng.permutation(np.concatenate(([d_min, d_max], inner)))


def _game(rng: np.random.Generator, m: int, n: int, level: int, levels: int) -> dict:
    rate_min = float(rng.uniform(0.005, 0.1))
    return {
        "lenders": rng.uniform(*BUDGET_RANGE, m).tolist(),
        "borrowers": _demands(rng, n, level, levels).tolist(),
        "rate_min": rate_min,
        "rate_max": float(rng.uniform(rate_min + 0.01, 0.2)),
    }


def _write(path: str, scenario: dict) -> None:
    with open(path, "w") as fh:
        json.dump(scenario, fh)


class Workload:
    name = ""
    block = 1        # instances per block of the design
    # Instances per second of the closed loop, checks included, at the
    # commit that added the benchmark on a 2-core shared host.  A run of
    # T seconds does the whole blocks nearest to T * rate, so it took about
    # T seconds there, and the instances it attempts, hence `attempted`
    # and `failed`, depend only on the seed and T.
    rate = 1.0

    def count(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds / self.block)) * self.block

    def generate(self, seed: int, count: int, workdir: str) -> list[Instance]:
        rng = _rng(seed, self.name)
        return [self.instance(rng, k, workdir) for k in range(count)]

    def instance(self, rng, k: int, workdir: str) -> Instance:
        raise NotImplementedError

    def check(self, inst: Instance, stdout: str) -> bool:
        """Whether the output of an instance that exited 0 is right."""
        raise NotImplementedError


class VerifyRandom(Workload):
    """`verify` on random games at the CLI's default sizes (up to 8 x 8)."""

    name = "verify-random"
    # Every (m, n) in 1..8 x 1..8 once per block, each at one of 8 levels
    # of the demand ratio; each 8 consecutive instances cover every m,
    # every n and every level once.
    block = 64
    rate = 17.0

    def instance(self, rng, k, workdir):
        a, b = divmod(k % self.block, 8)
        m, n, level = b + 1, (a + 3 * b) % 8 + 1, (a + 5 * b) % 8
        path = os.path.join(workdir, f"verify-{k}.json")
        _write(path, _game(rng, m, n, level, 8))
        return Instance(["verify", path, "--seed", str(int(rng.integers(2**31)))])

    def check(self, inst, stdout):
        lines = stdout.splitlines()
        return (any(line.startswith("PASS") for line in lines)
                and not any(line.startswith("FAIL") for line in lines))


class DynamicsMix(Workload):
    """`dynamics` on 3..12 x 3..12 games, cycling through the four variants."""

    name = "dynamics-mix"
    # Per block, each variant runs every m and every n in 3..12 once, each
    # at one of 10 levels of the demand ratio.
    block = 40
    rate = 6.2

    def instance(self, rng, k, workdir):
        v, j = k % 4, (k % self.block) // 4
        m, n, level = 3 + j, 3 + (3 * j + 7 * v) % 10, (7 * j + 3 * v) % 10
        variant = DYNAMICS_VARIANTS[v]
        scenario = _game(rng, m, n, level, 10)
        budgets = np.array(scenario["lenders"])
        start = rng.uniform(0.0, 1.0, (m, n))
        start *= (rng.uniform(0.0, 1.0, m) * budgets / start.sum(axis=1))[:, None]
        scenario["initial_profile"] = start.tolist()
        scenario["dynamics"] = {"variant": variant, "stop_gap": STOP_GAP,
                                "seed": int(rng.integers(2**31))}
        if variant == "continuous":
            scenario["dynamics"].update(horizon=ODE_HORIZON, ode_step=ODE_STEP)
        path = os.path.join(workdir, f"dynamics-{k}.json")
        _write(path, scenario)
        output = os.path.join(workdir, "trajectory.csv")
        return Instance(["dynamics", path, "--output", output], output)

    def check(self, inst, stdout):
        with open(inst.output) as fh:
            lines = fh.read().splitlines()
        if len(lines) < 2 or lines[0] != TRAJECTORY_HEADER:
            return False
        return float(lines[-1].split(",")[4]) <= STOP_GAP


class SolveLarge(Workload):
    """`solve` on 500..1000 x 500..1000 games with a report file."""

    name = "solve-large"
    # Per block, m and n each take every 50-wide band of 500..999 once.
    block = 10
    rate = 0.95

    def instance(self, rng, k, workdir):
        j = k % self.block
        m = 500 + 50 * j + int(rng.integers(50))
        n = 500 + 50 * ((3 * j + 1) % 10) + int(rng.integers(50))
        # Total demand is about 0.75 m times the mean budget, so lenders
        # with budgets below about the median exhaust them and the rest do
        # not: both branches of the solver run.
        scenario = {
            "lenders": rng.uniform(*BUDGET_RANGE, m).tolist(),
            "borrowers": (rng.uniform(*DEMAND_RANGE, n) * 0.75 * m / n).tolist(),
            "rate_min": 0.02,
            "rate_max": 0.08,
        }
        path = os.path.join(workdir, f"solve-{k}.json")
        _write(path, scenario)
        output = os.path.join(workdir, "report.txt")
        return Instance(["solve", path, "--output", output], output, scenario)

    def check(self, inst, stdout):
        budgets = np.array(inst.scenario["lenders"])
        demands = np.array(inst.scenario["borrowers"])
        m, n = budgets.size, demands.size
        # Read row by row, so the check holds one row at a time and the
        # peak memory stays the program's.
        fields, supply, rows = {}, np.zeros(n), 0
        with open(inst.output) as fh:
            for line in fh:
                if not line.startswith("  "):
                    key, _, value = line.rstrip("\n").partition(" ")
                    fields[key] = value
                    continue
                cells = line.split()
                if rows >= m or len(cells) != n:
                    return False
                try:
                    row = np.fromiter(map(float, cells), float, n)
                except ValueError:
                    return False
                if not (row >= 0.0).all() or row.sum() > budgets[rows] * (1.0 + 8.0 * n * EPS):
                    return False
                supply += row
                rows += 1
        if (rows, fields.get("m"), fields.get("n"), fields.get("kkt_passed")) != \
                (m, str(m), str(n), "true"):
            return False
        r_min, r_max = inst.scenario["rate_min"], inst.scenario["rate_max"]
        rates = r_max - (r_max - r_min) * supply / demands
        # Rounding of a column sum of m terms moves a rate by about
        # m * eps * rate_max; allow a factor of 8 above that.
        rate_tol = 8.0 * m * EPS * r_max
        return bool(rates.max() - rates.min() <= rate_tol
                    and np.abs(rates - float(fields["market_rate"])).max() <= rate_tol)


WORKLOADS = {w.name: w for w in (VerifyRandom(), DynamicsMix(), SolveLarge())}
