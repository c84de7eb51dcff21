"""The input boundary under a derandomised fuzz.

Valid scenarios and flags are mutated (swapped types, booleans, NaN and
inf, huge integers, nested or ragged lists, wrong shapes, missing and extra
keys, magnitudes near both ends of the float range) and run through
`cli.main` in this process.  Every run must end in a documented exit code
with no exception, and pyproject turns a RuntimeWarning, such as a numpy
overflow, into a failure.
"""

import contextlib
import copy
import io
import json
import re

from hypothesis import given, settings, strategies as st

from lendgame.cli import main

BASES = [
    {"lenders": [1.0, 10.0], "borrowers": [6.0, 3.0], "rate_min": 0.02, "rate_max": 0.08},
    {"lenders": [3.0, 4.0, 5.0], "borrowers": [6.0], "rate_min": 0.01, "rate_max": 0.05,
     "initial_profile": [[1.0], [2.0], [0.5]], "description": "three lenders",
     "dynamics": {"variant": "randomised", "seed": 3, "lender_weights": [0.2, 0.3, 0.5]}},
    {"lenders": [2.0], "borrowers": [1.0, 2.0, 4.0], "rate_min": 0.02, "rate_max": 0.2,
     "dynamics": {"variant": "continuous", "ode_step": 0.05, "horizon": 1.0}},
    {"lenders": [5, 5], "borrowers": [4, 4], "rate_min": 0.02, "rate_max": 0.08,
     "initial_profile": [[0, 1], [2, 0]],
     "dynamics": {"variant": "pseudo_gradient", "pg_weights": [1.0, 2.0], "alpha": 0.5}},
]
FIELDS = ["variant", "alpha", "lender_weights", "pg_weights", "pg_step", "ode_step", "horizon",
          "max_iters", "stop_gap", "snapshot_every", "seed", "alhpa"]
TARGETS = ["lenders", "borrowers", "rate_min", "rate_max", "initial_profile", "dynamics",
           "description", "extra"] + [f"dynamics.{field}" for field in FIELDS]
ODD = [True, False, None, "0.5", "x", "eager", float("nan"), float("inf"), -float("inf"),
       0, -1, 0.0, 1, 3, 0.5, 5e-324, 1e-300, 1e300, 1.7e308, 10**308, -(10**308), 10**400,
       [], {}, [1.0], [[1.0]], [1.0, [2.0]], [[1.0], [1.0, 2.0]], [True, 1.0], [1.0, 2.0, 3.0],
       {"a": 1}]
# Powers of ten near the ends of the float range and of the scales that
# the scenario table admits.
EDGES = [-330, -324, -310, -300, -200, -160, -155, -153, -150, -100, 100, 150, 153, 154, 155, 200,
         300, 308, 310]
FLAG_NUMBERS = ["0.5", "1", "0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "1e-3", "x"]


def _scaled(value, factor):
    """value with every number in it, not booleans, times factor."""
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * factor
    return value


def _mutate(data, target, op, odd, k):
    holder, key = data, target
    if target.startswith("dynamics."):
        if not isinstance(data.get("dynamics"), dict):
            data["dynamics"] = {}
        holder, key = data["dynamics"], target.split(".", 1)[1]
    if op == "drop":
        holder.pop(key, None)
    elif op == "set":
        holder[key] = odd
    elif op == "scale":
        holder[key] = _scaled(holder.get(key, 1.0), float(f"1e{k}"))
    elif op == "wrap":
        holder[key] = [holder.get(key)]
    elif isinstance(holder.get(key), list) and holder[key]:
        items = holder[key]
        i = k % len(items)
        if op == "element":
            items[i] = odd
        elif op == "truncate":
            del items[i]
        else:   # "append"
            items.append(copy.deepcopy(items[i]))


exponents = st.sampled_from(EDGES) | st.integers(-330, 310)
mutations = st.tuples(st.sampled_from(TARGETS),
                      st.sampled_from(["drop", "set", "scale", "wrap", "element", "truncate",
                                       "append"]),
                      st.sampled_from(ODD), exponents)


@st.composite
def runs(draw):
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    if draw(st.booleans()):
        # Every amount times 10^k: the game stays feasible at any magnitude.
        factor = float(f"1e{draw(exponents)}")
        for key in ("lenders", "borrowers", "initial_profile"):
            if key in data:
                data[key] = _scaled(data[key], factor)
    for target, op, odd, k in draw(st.lists(mutations, max_size=2)):
        _mutate(data, target, op, copy.deepcopy(odd), k)
    command = draw(st.sampled_from(["solve", "dynamics", "verify"]))
    flags = []
    if command == "dynamics":
        if draw(st.booleans()):
            flags += ["--variant", draw(st.sampled_from(
                ["eager", "randomised", "pseudo-gradient", "continuous", "pseudo_gradient"]))]
        for flag in ("--alpha", "--pg-step", "--ode-step", "--horizon", "--stop-gap", "--seed"):
            if draw(st.integers(0, 4)) == 0:
                flags += [flag, draw(st.sampled_from(FLAG_NUMBERS))]
        # A few steps at most, so that no run is slow.
        flags += ["--max-iters", draw(st.sampled_from(["1", "4", "20", "0", "-3", "x", "2.5"]))]
    elif command == "verify":
        flags += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x"]))]
    return data, command, flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs())
def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path_factory, run):
    data, command, flags = run
    workdir = tmp_path_factory.getbasetemp()
    path = workdir / "fuzz-scenario.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path), *flags]
    if command == "dynamics":
        argv += ["--output", str(workdir / "fuzz-trajectory.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, data, err.getvalue())
    stdout = out.getvalue()
    if code == 0 and command == "solve":
        assert "kkt_passed true" in stdout, (data, stdout)
        assert not re.search(r"\b(nan|inf)\b", stdout), (data, stdout)
    if command == "dynamics" and code in (0, 4):
        assert not re.search(r"\b(nan|inf)\b", stdout), (argv, data, stdout)
