"""Outside-in instrumentation of hopfchrom for the traced benchmark run.

Nothing under ``src/`` knows about this module.  It replaces public
functions and methods of the already imported package with wrappers, in the
defining module and in every ``hopfchrom`` module that imported the same
object by name, so calls made through any path are seen.

Two passes are kept apart on purpose:

* ``SpanTracer`` records one span (id, parent, name, start, end) per call of
  a layer function and the self time of each span: its duration minus the
  part its child spans cover.  Scalar operations are not wrapped here, so
  the millions of ``mul`` calls do not distort the layer times.
* ``Counter`` wraps the scalar operations of every field class and the
  matrix kernels, and counts calls, Kronecker entries and the largest
  matrix built.  Its timings are not used.

A target that no longer exists (a refactor renamed or inlined it) raises
``LookupError`` at install time, so the traced run fails instead of reading
0; the tables below are updated together with such a refactor.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute path) of every function it covers
SPAN_TARGETS = {
    "linalg.matmul": [("hopfchrom.linalg", "Matrix.__matmul__")],
    "linalg.kron": [("hopfchrom.linalg", "Matrix.kron")],
    "linalg.rref": [("hopfchrom.linalg", "Matrix.rref")],
    "hopf.hopf_make": [("hopfchrom.hopf", "hopf_make")],
    "hopf.multiply": [("hopfchrom.hopf", "HopfAlgebra.multiply")],
    "algebras.builtin": [
        ("hopfchrom.algebras", name)
        for name in ("group_algebra", "dual_group_algebra", "sweedler_h4",
                     "taft", "small_quantum_sl2")
    ],
    "integrals.normalized_pair": [("hopfchrom.integrals", "normalized_pair")],
    "integrals.pivot_candidates": [("hopfchrom.integrals", "pivot_candidates")],
    "hmod.is_h_linear": [("hopfchrom.hmod", "is_h_linear")],
    "hmod.word_action": [("hopfchrom.hmod", "word_action"),
                         ("hopfchrom.hmod", "word_element_action")],
    "calculus.evaluate": [("hopfchrom.calculus", "evaluate")],
    "chromatic.build": [
        ("hopfchrom.chromatic", name)
        for name in ("chromatic_left_hopf", "chromatic_right_hopf",
                     "chromatic_spherical")
    ],
    "chromatic.retract": [("hopfchrom.chromatic", "chromatic_retract")],
    "chromatic.verify": [("hopfchrom.chromatic", "verify_chromatic_identity")],
}

# Counted, not spanned: one call tests one pivot candidate, and a span here
# would move the pivot search's own time out of integrals.pivot_candidates.
CALL_COUNT_TARGETS = {
    "integrals.pivot_tested": [("hopfchrom.integrals", "_pivot_condition_failures")],
}

FIELD_CLASSES = ("PrimeField", "RationalField", "CyclotomicField")
FIELD_OPS = ("mul", "add", "inv")
MATRIX_KERNELS = ("__matmul__", "kron", "rref")


def _resolve(modname: str, path: str):
    """(owner, attribute, original); LookupError when the target is gone."""
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            break
    else:
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is not None:
            return owner, attr, orig
    raise LookupError(f"probe target {modname}.{path} not found; update probes.py")


def _install(modname: str, path: str, make_wrapper):
    """Replace the target everywhere in hopfchrom."""
    owner, attr, orig = _resolve(modname, path)
    wrapper = functools.wraps(orig)(make_wrapper(orig))
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for name, mod in list(sys.modules.items()):
            if name.startswith("hopfchrom") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)


class SpanTracer:
    """Span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id or -1, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.pivots_found = 0
        self._stack: list[list] = []      # open spans: [id, start, child seconds]

    def install(self):
        for name, targets in SPAN_TARGETS.items():
            self.stats[name] = [0, 0.0]
            for m, p in targets:
                _install(m, p, functools.partial(self._span_wrapper, name))
        for name, targets in CALL_COUNT_TARGETS.items():
            self.counts[name] = 0
            for m, p in targets:
                _install(m, p, functools.partial(self._count_wrapper, name))
        # wraps the span wrapper installed above, so it sees every caller too
        _install("hopfchrom.integrals", "pivot_candidates", self._pivot_wrapper)

    def _span_wrapper(self, name, fn):
        stack, spans, stat = self._stack, self.spans, self.stats[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += 1
                stat[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans.append((frame[0], parent, name, frame[1], end))
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _pivot_wrapper(self, fn):
        def found(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.pivots_found += len(result)
            return result
        return found

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "pivots_found": self.pivots_found,
            "spans": self.spans,
        }


class Counter:
    """Scalar-operation and matrix-size counters."""

    def __init__(self):
        self.ops = {op: 0 for op in FIELD_OPS}
        self.kron_entries = 0
        self.max_nnz = 0
        self.max_side = 0

    def install(self):
        for cls in FIELD_CLASSES:
            for op in FIELD_OPS:
                _install("hopfchrom.fields", f"{cls}.{op}",
                         functools.partial(self._op_wrapper, op))
        for kernel in MATRIX_KERNELS:
            _install("hopfchrom.linalg", f"Matrix.{kernel}",
                     functools.partial(self._matrix_wrapper, kernel))

    def _op_wrapper(self, op, fn):
        ops = self.ops

        def counted(*args):
            ops[op] += 1
            return fn(*args)
        return counted

    def _note(self, m):
        nnz = m.nnz()
        self.max_nnz = max(self.max_nnz, nnz)
        self.max_side = max(self.max_side, m.nrows, m.ncols)
        return nnz

    def _matrix_wrapper(self, kernel, fn):
        def sized(*args, **kwargs):
            result = fn(*args, **kwargs)
            if kernel == "rref":
                self._note(args[0])
            else:
                nnz = self._note(result)
                if kernel == "kron":
                    self.kron_entries += nnz
            return result
        return sized

    def report(self) -> dict:
        return {
            "ops": self.ops,
            "kron_entries": self.kron_entries,
            "max_nnz": self.max_nnz,
            "max_side": self.max_side,
        }
