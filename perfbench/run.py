#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the lendgame command line.

    python3 perfbench/run.py --workload verify-random|dynamics-mix|solve-large
                             [--seed S] [--seconds T] [--trace 0|1]

Run from the root of a source checkout; lendgame is imported from `src/`.
One client calls `lendgame.cli.main(argv)` in this process, one instance at
a time (a closed loop), on scenario files generated from `--seed`, and
checks every instance's output.

`--seconds` sets the work of a run, not a deadline: a fixed number of
instances, the whole blocks of the workload's design nearest to seconds
times the workload's rate (see workloads.py), so a run took about that
long at the commit that added the benchmark.  Which instances a run
attempts, and so `attempted` and `failed`, depend only on the seed and the
seconds.  `--trace 0` runs each instance once and reports the end-to-end
metrics.  `--trace 1` runs half as many, each once untraced and once with
every traced function wrapped (see spans.py), and reports the per-layer
metrics and the tracing overhead.  Counts in a traced run repeat exactly
for the same seed and seconds.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print each metric
with its unit, the sample counts and the environment.  The full record,
and in a traced run the spans, are written under perfbench/work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

DEFAULT_SEED = 1
# Not used while the benchmark or a change is tuned; confirms a claim.
HELDOUT_SEED = 20261017
DEFAULT_SECONDS = 30
SETUP_REPEATS = 11


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "lendgame", "cli.py")):
        sys.exit(f"error: no lendgame sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    from lendgame import cli
    return cli


@dataclass
class LoopResult:
    times: list[float] = field(default_factory=list)   # seconds per CLI call
    failed: int = 0
    wrong: int = 0          # exited 0 but the output check failed
    report_bytes: int = 0
    export_bytes: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI invocation: exit code, stdout, stderr, seconds from entry
    to exit code (output files written)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is exit code 1 of the real CLI
            code = 1
            traceback.print_exc(file=err)
        elapsed = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def run_instance(cli, workload, inst, res: LoopResult, count_bytes: bool = False) -> None:
    code, stdout, stderr, elapsed = call(cli, inst.argv)
    res.times.append(elapsed)
    ok = code == 0 and workload.check(inst, stdout)
    if not ok:
        res.failed += 1
        res.wrong += code == 0
        if len(res.failures) < 5:
            res.failures.append({"argv": inst.argv, "exit": code, "stderr": stderr[-400:]})
    if count_bytes and inst.output:
        written = os.path.getsize(inst.output)
        if inst.argv[0] == "solve":
            res.report_bytes += written
        else:
            res.export_bytes += written + os.path.getsize(inst.output + ".profiles.csv")


def setup(workload, seed: int, seconds: float, workdir: str):
    """Fresh-interpreter import of lendgame.cli plus writing the scenario
    files, repeated; returns the instances and the median duration."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import lendgame.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        instances = workload.generate(seed, workload.count(seconds), workdir)
        durations.append(perf_counter() - t0)
    return instances, statistics.median(durations)


def end_to_end(res: LoopResult, setup_s: float) -> dict[str, tuple[float, str]]:
    times = np.array(res.times)
    return {
        "instances_per_s": ((res.attempted - res.failed) / times.sum(), "1/s"),
        "instance_p50_ms": (float(np.percentile(times, 50)) * 1e3, "ms"),
        "instance_p90_ms": (float(np.percentile(times, 90)) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(cli, workload, instances, seconds: float, tracer: Tracer):
    """The first seconds * rate / 2 instances, each untraced, then traced,
    so the run takes about as long as an untraced one."""
    count = min(len(instances), max(2, round(seconds * workload.rate / 2)))
    plain, traced = LoopResult(), LoopResult()
    for k in range(count):
        inst = instances[k]
        run_instance(cli, workload, inst, plain)
        tracer.current_instance = k
        tracer.install()
        try:
            run_instance(cli, workload, inst, traced, count_bytes=True)
        finally:
            tracer.uninstall()
    overhead = sum(traced.times) - sum(plain.times)
    metrics = tracer.layer_metrics()
    metrics["cli.report_bytes"] = (traced.report_bytes, "B")
    metrics["cli.export_bytes"] = (traced.export_bytes, "B")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / sum(plain.times), "ratio")
    return plain, traced, metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lendgame")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    instances, setup_s = setup(workload, args.seed, args.seconds, workdir)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "clients": 1, "instances": len(instances)}
    if args.trace == 0:
        res = LoopResult()
        start = perf_counter()
        for inst in instances:
            run_instance(cli, workload, inst, res)
        metrics = end_to_end(res, setup_s)
        record["run_s"] = perf_counter() - start
    else:
        tracer = Tracer()
        plain, traced, metrics = traced_run(cli, workload, instances, args.seconds, tracer)
        tracer.save(os.path.join(WORK, f"spans-{workload.name}.npz"))
        record["untraced"] = {k: v for k, (v, _) in end_to_end(plain, setup_s).items()}
        res = LoopResult(plain.times + traced.times, plain.failed + traced.failed,
                         plain.wrong + traced.wrong, failures=plain.failures + traced.failures)

    times = np.array(res.times)
    record.update({
        "samples": res.attempted,
        "samples_beyond_p90": int((times > np.percentile(times, 90)).sum()),
        "failed_frac": res.failed / res.attempted,
        "failures": res.failures,
        "instance_ms": [round(t * 1e3, 3) for t in res.times],
        "environment": environment(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    with open(os.path.join(WORK, f"{workload.name}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} clients 1")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"samples {record['samples']} beyond_p90 {record['samples_beyond_p90']}")
    print(f"failed_frac {record['failed_frac']:.6g} ratio ({res.failed}/{res.attempted})")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({"correct": res.wrong == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
