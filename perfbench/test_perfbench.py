"""Self-tests of the benchmark: output checks, exact counts, failure modes.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Metrics that count work rather than time it; a traced run must repeat
# them exactly for the same seed and seconds.
EXACT = re.compile(r"(\.calls|\.iters|field_evals_per_step|applied_per_computed|_bytes)$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _break_profile(path):
    """Set the first equilibrium entry to zero: that borrower's rate rises."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    row = lines.index("equilibrium_profile") + 1
    lines[row] = "  0 " + lines[row].split(None, 1)[1]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _raise_last_gap(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[4] = "1.0"
    lines[-1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_fail(path):
    print("FAIL  uniform_rates  0/1")


TAMPER = {"solve-large": _break_profile, "dynamics-mix": _raise_last_gap,
          "verify-random": _print_fail}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tampered_output_counts_as_failed(name, tmp_path, monkeypatch):
    cli = run.load_cli()
    workload = WORKLOADS[name]
    inst = workload.generate(seed=3, count=1, workdir=str(tmp_path))[0]

    res = run.LoopResult()
    run.run_instance(cli, workload, inst, res)
    assert (res.attempted, res.failed, res.wrong) == (1, 0, 0), res.failures

    real_main = cli.main

    def tampering_main(argv):
        code = real_main(argv)
        TAMPER[name](inst.output)
        return code

    monkeypatch.setattr(cli, "main", tampering_main)
    run.run_instance(cli, workload, inst, res)
    assert (res.attempted, res.failed, res.wrong) == (2, 1, 1)


def test_generation_repeats_for_a_seed(tmp_path):
    for d in "abc":
        (tmp_path / d).mkdir()
    for name, workload in WORKLOADS.items():
        a = workload.generate(5, workload.block, str(tmp_path / "a"))
        b = workload.generate(5, workload.block, str(tmp_path / "b"))
        c = workload.generate(6, workload.block, str(tmp_path / "c"))
        assert [" ".join(i.argv).replace("/a/", "/") for i in a] == \
            [" ".join(i.argv).replace("/b/", "/") for i in b], name
        for x in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / x).read_bytes() == (tmp_path / "b" / x).read_bytes()
        assert (tmp_path / "a" / os.path.basename(a[0].argv[1])).read_bytes() != \
            (tmp_path / "c" / os.path.basename(c[0].argv[1])).read_bytes(), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = last_json(bench("--workload", name, "--seed", "4", "--seconds", "2", "--trace", "1"))
    second = last_json(bench("--workload", name, "--seed", "4", "--seconds", "2", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    exact = [k for k in first["metrics"] if EXACT.search(k)]
    assert len(exact) == 29
    for key in exact:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    calls = first["metrics"]["cli.main.calls"]["value"]
    assert calls == first["attempted"] // 2
    if name == "dynamics-mix":
        assert first["metrics"]["dynamics.continuous.field_evals_per_step"]["value"] == 5.0
        assert first["metrics"]["dynamics.run.iters"]["value"] > 0
        assert first["metrics"]["cli.export_bytes"]["value"] > 0
    if name == "solve-large":
        assert first["metrics"]["cli.report_bytes"]["value"] > 0
        assert first["metrics"]["oracle.projected_gradient_solve.calls"]["value"] == 0
    if name == "verify-random":
        assert first["metrics"]["oracle.projected_gradient_solve.iters"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = last_json(bench("--workload", "dynamics-mix", "--seed", "2", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def test_untraced_instances_repeat_for_a_seed():
    name = "verify-random"
    first = last_json(bench("--workload", name, "--seed", "7", "--seconds", "1"))
    second = last_json(bench("--workload", name, "--seed", "7", "--seconds", "1"))
    assert first["attempted"] == second["attempted"] == WORKLOADS[name].count(1)
    assert first["failed"] == second["failed"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            shutil.copy(os.path.join(ROOT, "perfbench", name), tmp_path / "perfbench")
    proc = bench("--workload", "solve-large", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
