"""Structure-constant algebra files (JSON).

Schema (see docs/file-format.md for the full description and an example):

    {
      "field": {"kind": "rationals" | "prime-field" | "cyclotomic",
                "p": <prime, prime-field only>, "n": <conductor, cyclotomic only>},
      "name": "optional label",
      "dim": n,
      "basis_names": [n strings],
      "unit": [n scalar strings],
      "counit": [n scalar strings],
      "mult": [[i, j, k, "scalar"], ...],      # e_i e_j += scalar e_k
      "comult": [[k, i, j, "scalar"], ...],    # Delta e_k += scalar e_i ox e_j
      "antipode": [[i, j, "scalar"], ...]      # S(e_j) += scalar e_i
    }

The sparse entry lists are the terms ``hopf_make`` takes; scalars use the
field's literal grammar ("a/b", decimal residue, or "[c0,c1,...]").  Loading
always runs the full axiom suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .fields import Field, FieldError, FieldSpec, field_make
from .hopf import MAX_DIM, HopfAlgebra, _comult_terms, _mult_terms, hopf_make

__all__ = ["FileFormatError", "algebra_to_dict", "algebra_from_dict",
           "save_algebra", "load_algebra", "module_to_dict", "module_from_dict",
           "save_module", "load_module"]


class FileFormatError(ValueError):
    """Malformed algebra file; the message carries the offending field."""


def _field_from_dict(d: dict) -> Field:
    if not isinstance(d, dict) or "kind" not in d:
        raise FileFormatError("field: expected an object with a 'kind'")
    try:
        return field_make(FieldSpec(d["kind"], p=d.get("p"), n=d.get("n")))
    except FieldError as exc:
        raise FileFormatError(f"field: {exc}") from exc


def algebra_to_dict(H: HopfAlgebra) -> dict:
    """Exact, human-auditable export; round-trips through algebra_from_dict."""
    f = H.field
    mult = [[i, j, k, f.format(c)] for i, j, k, c in sorted(_mult_terms(H.mult))]
    comult = [[k, i, j, f.format(c)] for k, i, j, c in sorted(_comult_terms(H.comult))]
    antipode = [
        [i, j, f.format(v)] for i, j, v in sorted(H.antipode.nonzero_items())
    ]
    return {
        "field": {k: v for k, v in asdict(f.spec).items() if v is not None},
        "name": H.name,
        "dim": H.dim,
        "basis_names": list(H.basis_names),
        "unit": [f.format(v) for v in H.unit],
        "counit": [f.format(v) for v in H.counit],
        "mult": mult,
        "comult": comult,
        "antipode": antipode,
    }


def _parse_scalar(field: Field, text, where: str):
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: scalar must be a string, got {text!r}")
    try:
        return field.parse(text)
    except FieldError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _parse_vector(field: Field, data, dim: int, where: str) -> list:
    if not isinstance(data, list) or len(data) != dim:
        raise FileFormatError(f"{where}: expected a list of {dim} scalar strings")
    return [_parse_scalar(field, s, f"{where}[{i}]") for i, s in enumerate(data)]


def _parse_triplets(field: Field, data, dim: int, arity: int, where: str):
    if not isinstance(data, list):
        raise FileFormatError(f"{where}: expected a list of entries")
    out = []
    for pos, item in enumerate(data):
        label = f"{where}[{pos}]"
        if not isinstance(item, list) or len(item) != arity + 1:
            raise FileFormatError(
                f"{label}: expected [{', '.join('index' for _ in range(arity))}, scalar]"
            )
        idx = item[:arity]
        for v in idx:
            if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < dim):
                raise FileFormatError(f"{label}: index {v!r} out of range 0..{dim - 1}")
        out.append((*idx, _parse_scalar(field, item[arity], label)))
    return out


def algebra_from_dict(data: dict) -> HopfAlgebra:
    if not isinstance(data, dict):
        raise FileFormatError("top level must be a JSON object")
    for key in ("field", "dim", "basis_names", "unit", "counit", "mult",
                "comult", "antipode"):
        if key not in data:
            raise FileFormatError(f"missing required key {key!r}")
    field = _field_from_dict(data["field"])
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FileFormatError(f"dim: expected a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise FileFormatError(f"dim: {dim} is above the bound of {MAX_DIM}")
    names = data["basis_names"]
    if not isinstance(names, list) or len(names) != dim:
        raise FileFormatError(f"basis_names: expected {dim} names")
    for i, b in enumerate(names):
        if not isinstance(b, str):
            raise FileFormatError(f"basis_names[{i}]: name must be a string, got {b!r}")
    name = data.get("name", "file-algebra")
    if not isinstance(name, str):
        raise FileFormatError(f"name: expected a string, got {name!r}")
    unit = _parse_vector(field, data["unit"], dim, "unit")
    counit = _parse_vector(field, data["counit"], dim, "counit")
    mult = _parse_triplets(field, data["mult"], dim, 3, "mult")
    comult = _parse_triplets(field, data["comult"], dim, 3, "comult")
    antipode = _parse_triplets(field, data["antipode"], dim, 2, "antipode")
    return hopf_make(field, names, mult, unit, comult, counit, antipode, name=name)


def module_to_dict(M) -> dict:
    """Serialize an H-module with its algebra embedded; same conventions
    (sparse index/scalar-string entries) as the algebra format."""
    f = M.H.field
    action = []
    for h in range(M.H.dim):
        for r, c, v in sorted(M.action[h].nonzero_items()):
            action.append([h, r, c, f.format(v)])
    return {
        "algebra": algebra_to_dict(M.H),
        "label": M.label,
        "dim": M.dim,
        "action": action,  # entries [h, row, col, scalar]: rho(e_h)[row][col]
    }


def module_from_dict(data: dict, H: HopfAlgebra | None = None):
    """Load a module; validates the action axioms.  Pass ``H`` to reuse an
    existing algebra instead of rebuilding the embedded one."""
    from .hmod import module_make
    from .linalg import Matrix, sparse_sum

    if not isinstance(data, dict):
        raise FileFormatError("module: top level must be a JSON object")
    for key in ("algebra", "dim", "action"):
        if key not in data:
            raise FileFormatError(f"module: missing required key {key!r}")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise FileFormatError(f"module dim: expected a count, got {dim!r}")
    if dim > MAX_DIM ** 2:  # dim H ox H at the largest H
        raise FileFormatError(f"module dim: {dim} is above the bound of {MAX_DIM ** 2}")
    if H is None:
        H = algebra_from_dict(data["algebra"])
    field = H.field
    terms = [[] for _ in range(H.dim)]
    for pos, item in enumerate(data["action"]):
        label = f"action[{pos}]"
        if not isinstance(item, list) or len(item) != 4:
            raise FileFormatError(f"{label}: expected [h, row, col, scalar]")
        h, r, c = item[:3]
        for v, bound in ((h, H.dim), (r, dim), (c, dim)):
            if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < bound):
                raise FileFormatError(f"{label}: index {v!r} out of range 0..{bound - 1}")
        val = _parse_scalar(field, item[3], label)
        terms[h].append(((r, c), val))
    action = [Matrix.from_entries(field, dim, dim, sparse_sum(field, t)) for t in terms]
    return module_make(H, action, data.get("label", "file-module"))


def save_module(M, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(module_to_dict(M), fh, indent=1)
        fh.write("\n")


def load_module(path: str, H: HopfAlgebra | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return module_from_dict(data, H)


def save_algebra(H: HopfAlgebra, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(H), fh, indent=1)
        fh.write("\n")


def load_algebra(path: str) -> HopfAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return algebra_from_dict(data)
