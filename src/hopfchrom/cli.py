"""Command-line front end.

    hopfchrom verify    (FILE | --builtin NAME)            axiom suite
    hopfchrom integrals (FILE | --builtin NAME)            Lambda, lambda, alpha, a, pivots
    hopfchrom chromatic (FILE | --builtin NAME) --side S   chromatic matrix dump
    hopfchrom check     (FILE | --builtin NAME) [--side S] defining-identity grid

Builtins: group:Z<n>, group:S<n>, dualgroup:Z<n>, dualgroup:S<n>, sweedler,
taft:<n>, uqsl2:<n>; scalars live in --field Q | GF:<p> | Cyc:<n> (default Q).
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .algebras import (
    GroupTable,
    dual_group_algebra,
    find_nontrivial_idempotent,
    group_algebra,
    small_quantum_sl2,
    sweedler_h4,
    taft,
)
from .calculus import ExprEnv, ExprSyntaxError, evaluate, morphisms_equal, parse_expr
from .chromatic import (
    NotSphericalError,
    chromatic_retract,
    split_idempotent,
    verify_chromatic_identity,
)
from .fields import FieldError, FieldSpec, field_make
from .fileformat import FileFormatError, load_algebra
from .hmod import (
    ModuleAxiomError,
    Morphism,
    MorphismTypeError,
    words_match,
)
from .hopf import MAX_DIM, HopfAxiomError, HopfDataError
from .integrals import (
    PivotSearchInconclusive,
    is_unimodular,
    normalized_pair,
    pivot_candidates,
)
from .linalg import Matrix

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise HopfDataError(f"{what} needs an integer, got {text!r}") from None


def _parse_field(text: str):
    if text in ("Q", "q"):
        return field_make(FieldSpec("rationals"))
    if text.startswith("GF:"):
        return field_make(FieldSpec("prime-field", p=_int_arg(text[3:], "GF:<p>")))
    if text.startswith("Cyc:"):
        return field_make(FieldSpec("cyclotomic", n=_int_arg(text[4:], "Cyc:<n>")))
    raise FieldError(f"unknown field {text!r}, use Q, GF:<p> or Cyc:<n>")


def _bounded(n: int, dim: int, name: str) -> int:
    """``n``, once the builtin's dimension ``dim`` is known to be within MAX_DIM."""
    if dim > MAX_DIM:
        raise HopfDataError(f"{name} is above the dimension bound of {MAX_DIM}")
    return n


def _make_builtin(name: str, field):
    if name == "sweedler":
        return sweedler_h4(field)
    if name.startswith("taft:"):
        n = _int_arg(name[5:], "taft:<n>")
        return taft(_bounded(n, n * n, name), field)
    if name.startswith("uqsl2:"):
        n = _int_arg(name[6:], "uqsl2:<n>")
        return small_quantum_sl2(_bounded(n, n ** 3, name), field)
    for prefix, maker in (("group:", group_algebra), ("dualgroup:", dual_group_algebra)):
        if name.startswith(prefix):
            spec = name[len(prefix):]
            if spec.startswith("Z"):
                n = _int_arg(spec[1:], "group order")
                table = GroupTable.cyclic(_bounded(n, n, name))
            elif spec.startswith("S"):
                n = _int_arg(spec[1:], "group order")
                order = math.prod(range(1, min(n, MAX_DIM) + 1))  # n!, capped
                table = GroupTable.symmetric(_bounded(n, order, name))
            else:
                raise HopfDataError(f"unknown group {spec!r}, use Z<n> or S<n>")
            return maker(table, field, name)
    raise HopfDataError(
        f"unknown builtin {name!r}; try group:Z2, group:S3, dualgroup:Z2, "
        "sweedler, taft:3"
    )


def _load(args) -> object:
    if args.builtin:
        return _make_builtin(args.builtin, _parse_field(args.field))
    if not args.path:
        raise HopfDataError("give an algebra file or --builtin NAME")
    return load_algebra(args.path)


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)


def _morphism_payload(H, mor: Morphism) -> dict:
    f = H.field
    return {
        "source": [m.label for m in mor.source],
        "target": [m.label for m in mor.target],
        "source_dim": mor.matrix.ncols,
        "target_dim": mor.matrix.nrows,
        "entries": [
            [i, j, f.format(v)] for i, j, v in sorted(mor.matrix.nonzero_items())
        ],
    }


def cmd_verify(args) -> int:
    try:
        H = _load(args)
    except HopfAxiomError as exc:
        _emit(args, {"verified": False, "axiom": exc.axiom, "indices": list(exc.indices)},
              [f"FAIL {exc}"])
        return EXIT_VERIFICATION
    _emit(args, {"verified": True, "algebra": H.name, "dim": H.dim,
                 "field": str(H.field.spec)},
          [f"PASS {H.name}: all Hopf axioms hold exactly "
           f"(dim {H.dim} over {H.field.spec})"])
    return EXIT_OK


def cmd_integrals(args) -> int:
    H = _load(args)
    data = normalized_pair(H)
    f = H.field
    unimodular = is_unimodular(H)
    try:
        pivots, pivots_note = pivot_candidates(H), None
    except PivotSearchInconclusive as exc:
        pivots, pivots_note = exc.pivots, str(exc)
    spherical = bool(unimodular and pivots)
    payload = {
        "algebra": H.name,
        "dim": H.dim,
        "field": str(f.spec),
        "basis": list(H.basis_names),
        "left_cointegral": H.format_vector(data.left_cointegral),
        "right_integral": H.format_vector(data.right_integral),
        "alpha": H.format_vector(data.alpha),
        "distinguished_grouplike": H.format_vector(data.distinguished_grouplike),
        "unimodular": unimodular,
        "pivot_candidates": [H.format_vector(p.g) for p in pivots],
        "pivot_search": pivots_note or "done",
        "spherical": spherical,
        "chosen_pivot": H.format_vector(pivots[0].g) if spherical else None,
    }
    lines = [
        f"algebra: {H.name} (dim {H.dim} over {f.spec})",
        f"basis: {', '.join(H.basis_names)}",
        f"left cointegral Lambda: {payload['left_cointegral']}",
        f"right integral lambda : {payload['right_integral']}",
        f"alpha (on basis)      : {payload['alpha']}",
        f"distinguished a       : {payload['distinguished_grouplike']}",
        f"unimodular            : {'yes' if unimodular else 'no'}",
    ]
    if pivots_note:
        lines.append(f"pivot search          : {pivots_note}")
    lines.append(f"pivot candidates      : {payload['pivot_candidates'] or '(none)'}")
    lines.append(f"spherical             : {'yes, pivot ' + str(payload['chosen_pivot']) if spherical else 'no'}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_chromatic(args) -> int:
    H = _load(args)
    mor = ExprEnv(H).chromatic(args.side)
    payload = {"algebra": H.name, "side": args.side, **_morphism_payload(H, mor)}
    lines = [
        f"{args.side} chromatic map of {H.name}: "
        f"{'*'.join(payload['source'])} -> {'*'.join(payload['target'])} "
        f"({payload['target_dim']}x{payload['source_dim']})",
    ]
    lines += [f"  [{i},{j}] = {s}" for i, j, s in payload["entries"]]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        lines = lines[:1] + [f"written to {args.out}"]
    _emit(args, payload, lines)
    return EXIT_OK


def _check_expr(args, env: ExprEnv) -> int:
    H = env.H
    lhs = evaluate(parse_expr(args.expr, env))
    if args.equals:
        rhs = evaluate(parse_expr(args.equals, env))
        equal = morphisms_equal(lhs, rhs)
    elif words_match(lhs.source, lhs.target):
        equal = lhs.matrix == Matrix.identity(H.field, lhs.matrix.nrows)
    else:
        equal = None
    payload = {"algebra": H.name, "expr": args.expr, "equals": args.equals,
               "equal": equal, **_morphism_payload(H, lhs)}
    lines = [f"expr: {args.expr}",
             f"  type: {'*'.join(payload['source']) or '1'} -> "
             f"{'*'.join(payload['target']) or '1'}"]
    if equal is None:
        lines += [f"  [{i},{j}] = {s}" for i, j, s in payload["entries"]]
    else:
        lines.append(f"  equals {'rhs' if args.equals else 'identity'}: {equal}")
    _emit(args, payload, lines)
    return EXIT_OK if equal in (True, None) else EXIT_VERIFICATION


def _check_options(args):
    """``--expr`` replaces the grid, so the grid's options cannot ride along."""
    if args.expr is None:
        if args.equals is not None:
            raise HopfDataError("--equals needs --expr")
        return
    for opt, used in (("--side", args.side is not None),
                      ("--modules", args.modules is not None),
                      ("--no-split", args.no_split),
                      ("--inject-fault", args.inject_fault is not None)):
        if used:
            raise HopfDataError(f"{opt} applies to the grid, not to --expr")


def cmd_check(args) -> int:
    _check_options(args)
    H = _load(args)
    env = ExprEnv(H)
    if args.expr is not None:
        return _check_expr(args, env)

    skipped = []
    if args.side not in (None, "all"):
        sides = [args.side]
    else:
        # the spherical row joins when the pivot search decides H is spherical
        sides = ["left", "right"]
        try:
            if env.pivot is not None:
                sides.append("spherical")
        except PivotSearchInconclusive as exc:
            skipped.append(f"spherical row skipped: {exc}")
    bases = {side: env.chromatic(side) for side in sides}

    G = env.module("H")
    wanted = args.modules.split(",") if args.modules not in (None, "all") else [
        "trivial", "regular", "alpha"]
    xmods = [env.module(w.strip()) for w in wanted]

    fams = []
    if not args.no_split:
        idem = find_nontrivial_idempotent(H)
        if idem is not None:
            e = Morphism((G,), (G,), H.element_right_mult(idem))
            fams.append(split_idempotent(e))

    reports = []
    fault_notes = []
    all_ok = True
    for side, base in bases.items():
        if args.inject_fault is not None:
            r, c = args.inject_fault
            nrows, ncols = base.matrix.shape
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise HopfDataError(
                    f"--inject-fault {r},{c} is outside the {nrows}x{ncols} "
                    f"{side} chromatic matrix")
            bumped = base.matrix + Matrix.from_entries(
                H.field, nrows, ncols, {(r, c): H.field.one})
            base = replace(base, matrix=bumped)
            # a chromatic map is an H-mod morphism; a fault may break that
            # even when every grid identity still holds
            if not base.h_linear:
                fault_notes.append(
                    f"injected fault at ({r},{c}) breaks H-linearity of the "
                    f"{side} map")
                all_ok = False
        for c_map in [base] + [chromatic_retract(base, fam) for fam in fams]:
            for X in xmods:
                rep = verify_chromatic_identity(c_map, X)
                reports.append(rep)
                all_ok = all_ok and rep.equal
    payload = {"algebra": H.name, "all_equal": all_ok,
               "fault_notes": fault_notes,
               "grid": [r.as_dict() for r in reports]}
    if skipped:
        payload["skipped"] = skipped
    lines = skipped + [f"REJECTED  {note}" for note in fault_notes]
    for r in reports:
        status = "equal    " if r.equal else "NOT-EQUAL"
        line = (f"{status} side={r.side:9s} P={r.P_label:10s} X={r.X_label:6s} "
                f"dim={r.identity_dim:4d} {r.elapsed:7.3f}s")
        if r.mismatch:
            line += f"  first mismatch at ({r.mismatch['row']},{r.mismatch['col']}):" \
                    f" {r.mismatch['got']} != {r.mismatch['expected']}"
        lines.append(line)
    lines.append(f"{'all identities hold' if all_ok else 'FAILURES found'} "
                 f"({len(reports)} checks)")
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _fault(text: str):
    r, c = text.split(",")
    return int(r), int(c)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfchrom",
        description="Exact Hopf-algebra integrals and chromatic maps in H-mod.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", nargs="?", help="structure-constant algebra file")
        p.add_argument("--builtin", help="builtin algebra name, e.g. group:S3, taft:3")
        p.add_argument("--field", default="Q", help="Q | GF:<p> | Cyc:<n> (builtins only)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="run the Hopf axiom suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integrals", help="integrals, cointegrals, pivots, sphericality")
    common(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("chromatic", help="dump a chromatic map matrix")
    common(p)
    p.add_argument("--side", choices=("left", "right", "spherical"), required=True)
    p.add_argument("--out", help="write the morphism as JSON to this path")
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("check", help="verify the defining identities on a grid")
    common(p)
    p.add_argument("--side", choices=("left", "right", "spherical", "all"),
                   help="grid sides (default all)")
    p.add_argument("--modules",
                   help="comma list from trivial,regular,alpha (X of the grid; default all)")
    p.add_argument("--no-split", action="store_true",
                   help="skip the idempotent-summand P")
    p.add_argument("--inject-fault", type=_fault, metavar="R,C",
                   help="perturb one entry of the chromatic matrix (negative control)")
    p.add_argument("--expr", help="evaluate a morphism expression instead of the grid; "
                   "takes none of the grid options")
    p.add_argument("--equals", help="second expression to compare against (needs --expr)")
    p.set_defaults(func=cmd_check)
    return ap


def _join_fault_value(argv: list[str]) -> list[str]:
    """``--inject-fault R,C`` as one ``--inject-fault=R,C`` token, so that a
    negative R reaches the range check instead of reading as an option."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--inject-fault" else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_fault_value(argv))
    try:
        return args.func(args)
    except (HopfAxiomError, NotSphericalError, ModuleAxiomError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (FileFormatError, FieldError, HopfDataError, ExprSyntaxError,
            MorphismTypeError, PivotSearchInconclusive, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
