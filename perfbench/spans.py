"""Span tracing of lendgame's layers from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
`lendgame` module that holds a reference to it, including names bound by
`from ... import`, so calls between modules are seen as well as calls from
the benchmark.  `Tracer.uninstall()` puts the originals back.

Each call is one span: name, start, end, the span that caused it and the
benchmark instance it belongs to.  Spans are kept in flat in-memory arrays
and written out once, by `Tracer.save`, when the run ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# The public functions traced, per module.  Small helpers such as
# `cli.fmt` (one call per number written) are left out: a span per call
# would cost more than the work it measures.  Their time is self time of
# the traced caller.
LAYERS = {
    "game": ("potential", "potential_gradient", "utilities", "validate_profile"),
    "equilibrium": ("solve_equilibrium", "certify", "kkt_check"),
    "best_response": ("best_response", "best_response_gains", "best_response_profile"),
    "dynamics": ("project_capped_simplex", "run", "step_eager", "step_randomised",
                 "step_pseudo_gradient", "integrate_continuous"),
    "oracle": ("projected_gradient_solve", "finite_difference_gradient",
               "hessian_quadratic_form"),
    "cli": ("main", "load_scenario", "write_equilibrium_report", "export_trajectory"),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
_BR_API = ("best_response.best_response", "best_response.best_response_gains",
           "best_response.best_response_profile")


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_instance = -1
        # Counts taken from the traced functions' arguments and results.
        self.counts = {"dynamics.run.iters": 0, "oracle.projected_gradient_solve.iters": 0,
                       "dynamics.continuous.steps": 0,
                       "best_response.rows_computed": 0, "best_response.rows_applied": 0}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        is_br = name in _BR_API
        on_result = _RESULT_COUNTS.get(name)
        br_ids = [NAMES.index(n) for n in _BR_API]
        tr = self

        def traced(*args, **kwargs):
            ix = len(tr.start)
            parent = tr._stack[-1] if tr._stack else -1
            tr.name.append(name_id)
            tr.parent.append(parent)
            tr.instance.append(tr.current_instance)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(ix)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[ix] = t0
                tr.end[ix] = t1
            # Best-response rows are counted once, at the outermost
            # best-response call, so the count does not depend on how the
            # module composes its own functions.
            if is_br and (parent < 0 or tr.name[parent] not in br_ids):
                tr.counts["best_response.rows_computed"] += (
                    1 if name == "best_response.best_response" else len(result))
            if on_result is not None:
                on_result(tr.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "lendgame" or key.startswith("lendgame.")]
        for mod_name, fns in LAYERS.items():
            # import_module, not `from lendgame import ...`: the package
            # re-exports `best_response` the function over the submodule.
            owner = importlib.import_module(f"lendgame.{mod_name}")
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "instance": np.frombuffer(self.instance, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time plus the derived counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = np.bincount(a["name"], weights=dur - child, minlength=len(NAMES))
        calls = np.bincount(a["name"], minlength=len(NAMES))
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(NAMES):
            if name != "cli.main":
                out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_time[i]), "s")
        out["cli.main.calls"] = (int(calls[NAMES.index("cli.main")]), "count")

        c = self.counts
        out["dynamics.run.iters"] = (c["dynamics.run.iters"], "count")
        out["oracle.projected_gradient_solve.iters"] = (
            c["oracle.projected_gradient_solve.iters"], "count")
        computed = c["best_response.rows_computed"]
        out["best_response.applied_per_computed"] = (
            c["best_response.rows_applied"] / computed if computed else 0.0, "ratio")
        # Field evaluations are the best_response_profile calls made
        # directly by the continuous integrator.
        brp = a["name"] == NAMES.index("best_response.best_response_profile")
        under_ode = np.zeros_like(brp)
        under_ode[brp & has_parent] = (
            a["name"][a["parent"][brp & has_parent]]
            == NAMES.index("dynamics.integrate_continuous"))
        steps = c["dynamics.continuous.steps"]
        out["dynamics.continuous.field_evals_per_step"] = (
            int(under_ode.sum()) / steps if steps else 0.0, "ratio")
        return out


def _count_run(counts, args, traj):
    counts["dynamics.run.iters"] += traj.iterations


def _count_oracle(counts, args, sol):
    counts["oracle.projected_gradient_solve.iters"] += sol.iterations


def _count_one_applied(counts, args, result):
    counts["best_response.rows_applied"] += 1


def _count_continuous(counts, args, traj):
    # Each RK4 step combines four stage fields, each a best response of
    # all m lenders; the fifth field evaluation (the residual check) is
    # not applied to the profile.
    game = args[0]
    counts["dynamics.continuous.steps"] += traj.iterations
    counts["best_response.rows_applied"] += 4 * game.m * traj.iterations


_RESULT_COUNTS = {
    "dynamics.run": _count_run,
    "oracle.projected_gradient_solve": _count_oracle,
    "dynamics.step_eager": _count_one_applied,
    "dynamics.step_randomised": _count_one_applied,
    "dynamics.integrate_continuous": _count_continuous,
}
