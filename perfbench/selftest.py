"""Quick end-to-end self-test of the benchmark, on small inputs.

    python3 perfbench/selftest.py

Runs the whole pipeline of run.py on the Sweedler algebra (``check``) and
on k[S3] over GF(7) (``integrals``): timed operations, output checks, the
negative control, the traced run and the metric printout, and compares the
printed metrics with BENCHMARK.json.  It then feeds the checkers corrupted
outputs, which they must reject, and runs the benchmark in a directory that
holds only BENCHMARK.json and the benchmark, where it must fail without a
result.  Takes a few seconds; exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import run

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def expect(cond: bool, what: str, failures: list):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_pipeline(spec: dict, failures: list):
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in ("selftest-sweedler", "selftest-integrals-s3"):
        for trace in (0, 1):
            proc = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit 0", failures)
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{label}: result keys", failures)
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: correct, none failed", failures)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace], f"{label}: metrics match BENCHMARK.json", failures)


def check_checkers(failures: list):
    H = run.build_builtin(run.WORKLOADS["selftest-sweedler"])
    w = run.WORKLOADS["selftest-sweedler"]
    dims = run.expectations(w, H)["dims"]
    expect(dims[("left", "split(H)", "H")] == 4 * 2, "sweedler: dim H e = 2", failures)
    good = {"all_equal": True, "fault_notes": [],
            "grid": [{"side": s, "P": P, "X": X, "equal": True, "identity_dim": d}
                     for (s, P, X), d in dims.items()]}
    expect(not checks.grid_problems(good, dims), "grid checker accepts a right grid", failures)
    for mutate, what in (
        (lambda p: p.update(all_equal=False), "all_equal false"),
        (lambda p: p["grid"].pop(), "a missing row"),
        (lambda p: p["grid"][0].update(identity_dim=p["grid"][0]["identity_dim"] + 1),
         "a wrong identity_dim"),
        (lambda p: p["grid"].append(dict(p["grid"][0], side="spherical")),
         "an unexpected spherical row"),
    ):
        bad = copy.deepcopy(good)
        mutate(bad)
        expect(bool(checks.grid_problems(bad, dims)), f"grid checker rejects {what}", failures)
    noted = dict(good, all_equal=False, fault_notes=["the fault breaks H-linearity"])
    expect(bool(checks.negative_control_problems(noted, run.GRID_SIDES)),
           "negative control rejects a fault that only the fault note catches", failures)
    rejected = dict(noted, grid=[dict(r, equal=r["X"] == "H") for r in good["grid"]])
    expect(not checks.negative_control_problems(rejected, run.GRID_SIDES),
           "negative control accepts a fault that grid rows reject", failures)

    w = run.WORKLOADS["selftest-integrals-s3"]
    A = run.expectations(w, run.build_builtin(w))["algebra"]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "plain", *w.argv()],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=60)
    payload = json.loads(proc.stdout)
    expect(not checks.integrals_problems(payload, A), "integrals checker accepts k[S3]", failures)
    for mutate, what in (
        (lambda p: p["pivot_candidates"].append(["1"] * A.dim), "a non-grouplike pivot"),
        (lambda p: p["left_cointegral"].__setitem__(0, "3"), "a perturbed Lambda"),
        (lambda p: p.update(spherical=False), "spherical false"),
        (lambda p: p["alpha"].__setitem__(0, "0"), "alpha != eps"),
    ):
        bad = copy.deepcopy(payload)
        mutate(bad)
        expect(bool(checks.integrals_problems(bad, A)), f"integrals checker rejects {what}",
               failures)


def check_bare_directory(failures: list):
    bare = os.path.join(HERE, "results", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench("selftest-sweedler", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources: nonzero exit, no result", failures)
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, run.SRC)
    failures: list[str] = []
    check_pipeline(spec, failures)
    check_checkers(failures)
    check_bare_directory(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
