"""Benchmark of the hopfchrom command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  One closed loop with one client:
this process starts one ``hopfchrom`` process at a time and waits for it,
and one operation is one command run in a fresh process to its verdict.
The inputs are deterministic builtins, so ``--seed`` selects nothing.

``--trace 0`` times operations for ``--seconds`` seconds and prints the
end-to-end metrics (medians over the run):

* ``wall_s``      -- from the call into ``hopfchrom.cli.main`` to its return;
* ``peak_rss_mb`` -- peak resident set size of the operation's process;
* ``setup_s``     -- from process launch until the command is called
                     (interpreter start plus ``import hopfchrom``), from
                     separate launches that stop there, five before each
                     operation and at least 20 per run.

``--trace 1`` runs the command three times -- untouched, under the span
tracer and under the operation counter (see probes.py) -- and prints the
per-layer metrics.  Spans, and the wall times of the three runs, go to
``perfbench/results/``.

Every operation's output is checked (checks.py); for ``check`` workloads a
negative control with ``--inject-fault`` runs after the timed operations and
must be rejected.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
from child import REPORT_TAG, ROOT, SRC

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
SETUP_LAUNCHES_PER_OP = 5
MIN_SETUP_LAUNCHES = 20
CHILD_TIMEOUT_S = 150
MUL_BENCH_S = 0.3

X_LABELS = {"trivial": "triv", "regular": "H", "alpha": "alpha"}
GRID_SIDES = ("left", "right")  # no spherical row: Taft algebras are not unimodular


@dataclass(frozen=True)
class Workload:
    command: str        # "check" or "integrals"
    builtin: str
    field: str
    modules: tuple = ()  # X modules of a check grid; empty means all three
    fault: str = ""      # --inject-fault R,C of the negative control (check only)

    def argv(self) -> list[str]:
        args = [self.command, "--builtin", self.builtin, "--field", self.field]
        if self.modules:
            args += ["--modules", ",".join(self.modules)]
        return args + ["--json"]


# Each fault breaks the rows with a 1-dimensional X on both sides, not only
# the X = H rows; a fault at (0,0) breaks no row of grid-taft4-cyc8.
WORKLOADS = {
    "grid-taft5-gf11": Workload("check", "taft:5", "GF:11", fault="0,104"),
    "integrals-uqsl2-gf7": Workload("integrals", "uqsl2:3", "GF:7"),
    "grid-taft4-cyc8": Workload("check", "taft:4", "Cyc:8", ("trivial", "alpha"),
                                fault="0,51"),
    # small inputs for selftest.py; not in BENCHMARK.json
    "selftest-sweedler": Workload("check", "sweedler", "Q", fault="0,15"),
    "selftest-integrals-s3": Workload("integrals", "group:S3", "GF:7"),
}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# -- the package, in this process, for the expected values ---------------------

def build_builtin(w: Workload):
    """The builtin Hopf algebra, built the way the command builds it."""
    from hopfchrom.cli import _make_builtin, _parse_field

    return _make_builtin(w.builtin, _parse_field(w.field))


def expectations(w: Workload, H) -> dict:
    """What a correct output must satisfy, from exported structure constants."""
    from hopfchrom.algebras import find_nontrivial_idempotent
    from hopfchrom.fileformat import algebra_to_dict

    A = checks.Algebra(algebra_to_dict(H))
    if w.command == "integrals":
        return {"algebra": A}
    P_dims = {"H": A.dim}
    idem = find_nontrivial_idempotent(H)
    if idem is None:  # every grid input has a split summand
        raise RuntimeError(f"{w.builtin} has no idempotent to split")
    P_dims["split(H)"] = checks.split_dimension(A, H.format_vector(idem))
    X_dims = {"triv": 1, "H": A.dim, "alpha": 1}
    modules = w.modules or tuple(X_LABELS)
    dims = {
        (side, P, X_LABELS[m]): X_dims[X_LABELS[m]] * dP
        for side in GRID_SIDES for P, dP in P_dims.items() for m in modules
    }
    return {"dims": dims}


def output_problems(w: Workload, expected: dict, stdout: str) -> list[str]:
    try:
        payload = json.loads(stdout)
        if w.command == "integrals":
            return checks.integrals_problems(payload, expected["algebra"])
        return checks.grid_problems(payload, expected["dims"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def mul_ns(H) -> float:
    """Nanoseconds per field ``mul`` on the algebra's own nonzero
    multiplication constants, in this process."""
    f = H.field
    vals = sorted({v for row in H.mult for terms in row for v in terms.values()}, key=repr)
    pairs = [(a, b) for a in vals for b in vals][:4096]
    mul = f.mul
    calls, spent = 0, 0.0
    while spent < MUL_BENCH_S:
        t0 = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        spent += time.perf_counter() - t0
        calls += len(pairs)
    return spent / calls * 1e9


# -- child processes -----------------------------------------------------------

@dataclass
class Launch:
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    exit: int | None
    stdout: str
    probe: dict | None


def launch(mode: str, argv: list[str]) -> Launch | None:
    """Run child.py once; None if it died without a report."""
    t_launch = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, mode, *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    tagged = [ln for ln in err.splitlines() if ln.startswith(REPORT_TAG)]
    if not tagged:
        sys.stderr.write(err[-2000:])
        return None
    rep = json.loads(tagged[-1][len(REPORT_TAG):])
    return Launch(
        setup_s=rep["t_call"] - t_launch,
        wall_s=rep["t_done"] - rep["t_call"],
        peak_rss_mb=rep["maxrss_kb"] / 1024,
        exit=rep["exit"],
        stdout=out,
        probe=rep["probe"],
    )


class Tally:
    """Operations attempted and failed, and whether outputs were right."""

    def __init__(self, w: Workload, expected: dict):
        self.w, self.expected = w, expected
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def op(self, mode: str) -> Launch | None:
        self.attempted += 1
        res = launch(mode, self.w.argv())
        if res is None or res.exit != 0:
            self.failed += 1
            return None
        self.problems += output_problems(self.w, self.expected, res.stdout)
        return res

    def negative_control(self):
        """The same command with one chromatic entry perturbed must be
        rejected by the grid itself, on each side."""
        if self.w.command != "check":
            return
        res = launch("plain", self.w.argv() + ["--inject-fault", self.w.fault])
        if res is None or res.exit != 1:
            self.problems.append("negative control: the perturbed chromatic map was "
                                 f"not rejected with exit 1 ({res and res.exit})")
            return
        try:
            problems = checks.negative_control_problems(json.loads(res.stdout), GRID_SIDES)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"malformed output: {exc!r}"]
        self.problems += [f"negative control: {p}" for p in problems]


# -- the two kinds of run --------------------------------------------------------

def timed_run(w: Workload, tally: Tally, seconds: float) -> tuple[dict, dict]:
    launch("setup", [])  # discarded: the first launch may compile bytecode
    setups, ops = [], []

    def time_setup(n: int):
        for _ in range(n):
            res = launch("setup", [])
            if res is not None:
                setups.append(res.setup_s)

    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        time_setup(SETUP_LAUNCHES_PER_OP)  # spread over the run, like the ops
        res = tally.op("plain")
        if res is not None:
            ops.append(res)
    time_setup(max(0, MIN_SETUP_LAUNCHES - len(setups)))
    tally.negative_control()
    if not ops or not setups:
        raise RuntimeError("no operation completed")
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in ops),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ops),
        "setup_s": statistics.median(setups),
    }
    detail = {"setup_s": setups,
              "ops": [{"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
                       "setup_s": r.setup_s} for r in ops]}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            detail)


def unit_of(metric: str) -> str:
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_yield"):
        return "ratio"
    return "count"


def traced_run(w: Workload, tally: Tally, H) -> tuple[dict, dict]:
    plain = tally.op("plain")
    spanned = tally.op("spans")
    counted = tally.op("counts")
    tally.negative_control()
    if plain is None or spanned is None or counted is None:
        raise RuntimeError("a traced operation failed")
    sp, cn = spanned.probe, counted.probe
    stats = sp["stats"]
    calls = {name: s[0] for name, s in stats.items()}
    self_s = {name: s[1] for name, s in stats.items()}
    tested = sp["counts"]["integrals.pivot_tested"]
    values = {
        "fields.mul_calls": cn["ops"]["mul"],
        "fields.add_calls": cn["ops"]["add"],
        "fields.inv_calls": cn["ops"]["inv"],
        "fields.mul_ns": mul_ns(H),
        "linalg.matmul_calls": calls["linalg.matmul"],
        "linalg.matmul_s": self_s["linalg.matmul"],
        "linalg.kron_calls": calls["linalg.kron"],
        "linalg.kron_s": self_s["linalg.kron"],
        "linalg.kron_entries": cn["kron_entries"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_s": self_s["linalg.rref"],
        "linalg.max_nnz": cn["max_nnz"],
        "linalg.max_side": cn["max_side"],
        "hopf.hopf_make_calls": calls["hopf.hopf_make"],
        "hopf.hopf_make_s": self_s["hopf.hopf_make"],
        "hopf.multiply_calls": calls["hopf.multiply"],
        "hopf.multiply_s": self_s["hopf.multiply"],
        "algebras.builtin_self_s": self_s["algebras.builtin"],
        "integrals.normalized_pair_calls": calls["integrals.normalized_pair"],
        "integrals.normalized_pair_s": self_s["integrals.normalized_pair"],
        "integrals.pivot_candidates_s": self_s["integrals.pivot_candidates"],
        "integrals.pivot_tested": tested,
        "integrals.pivot_yield": sp["pivots_found"] / tested if tested else 0.0,
        "hmod.is_h_linear_calls": calls["hmod.is_h_linear"],
        "hmod.is_h_linear_s": self_s["hmod.is_h_linear"],
        "hmod.word_action_calls": calls["hmod.word_action"],
        "hmod.word_action_s": self_s["hmod.word_action"],
        "calculus.evaluate_s": self_s["calculus.evaluate"],
        "calculus.evaluate_nodes": calls["calculus.evaluate"],
        "chromatic.build_s": self_s["chromatic.build"],
        "chromatic.retract_s": self_s["chromatic.retract"],
        "chromatic.verify_calls": calls["chromatic.verify"],
        "chromatic.verify_s": self_s["chromatic.verify"],
    }
    metrics = {k: {"value": v, "unit": unit_of(k)}
               for k, v in values.items()}
    trace = {"untraced_wall_s": plain.wall_s, "spans_wall_s": spanned.wall_s,
             "counts_wall_s": counted.wall_s,
             "span_fields": ["id", "parent", "name", "start", "end"],
             "spans": sp["spans"]}
    return metrics, trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted for a uniform command line; the inputs do not depend on it")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopfchrom", "cli.py")):
        sys.stderr.write(f"no hopfchrom sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    w = WORKLOADS[args.workload]
    H = build_builtin(w)
    try:
        tally = Tally(w, expectations(w, H))
        if args.trace:
            metrics, detail = traced_run(w, tally, H)
        else:
            metrics, detail = timed_run(w, tally, args.seconds)
    except (RuntimeError, ValueError) as exc:
        sys.stderr.write(f"{args.workload}: {exc}\n")
        return 1
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "problems": tally.problems, "detail": detail}, fh)
    for problem in dict.fromkeys(tally.problems):
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
