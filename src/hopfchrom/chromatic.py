"""Chromatic maps in H-mod and exact verification of their defining identities.

The left map, based at the regular module for itself, sends
``e_x ox y -> lambda(S(y_(1)) x) alpha_H(y_(2)) ox y_(3) ox y_(4)``; the right
map is the same contraction with the legs on the opposite side,
``y ox e_x -> y_(1) ox y_(2) ox alpha_H(y_(3)) lambda(S(x) y_(4))``, and the
spherical map contracts lambda against ``g x`` on ``Delta^2(y)``.  All three
are filled by one loop (``_sweedler_map``) from H's own coproduct.  Each
extends to any projective P through a retract family {f_i: P -> H,
g_i: H -> P} with sum g_i f_i = id_P, produced here by splitting H-linear
idempotents.

``verify_chromatic_identity`` evaluates the defining composite with the
morphism calculus, on every column of its source word, and compares it with
the identity, entry by entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .calculus import Prim, compose, evaluate, identity, tensor
from .hmod import (
    HModule,
    Morphism,
    ModuleAxiomError,
    MorphismTypeError,
    alpha_module,
    dual_module,
    evaluation_morphisms,
    is_h_linear,
    lambda_endomorphism,
    lambda_transform,
    pivotal_evaluation_morphisms,
    regular_module,
    word_dim,
    word_label,
    words_match,
)
from .hopf import HopfAlgebra, pairing
from .integrals import (
    IntegralData,
    PivotData,
    _pivot_condition_failures,
    is_unimodular,
    normalized_pair,
)
from .linalg import Matrix

__all__ = [
    "NotSphericalError",
    "RetractFamily",
    "ChromaticReport",
    "chromatic_left_hopf",
    "chromatic_right_hopf",
    "chromatic_spherical",
    "split_idempotent",
    "chromatic_retract",
    "verify_chromatic_identity",
]


class NotSphericalError(ValueError):
    """Spherical chromatic data requested for a non-spherical algebra."""


def _lambda_pair_table(H: HopfAlgebra, lam: list, rs: list | None = None) -> list[list]:
    """Table ``t[i][x] = lambda(S(e_i) r_x)``, with ``r_x = e_x`` by default."""
    rs = rs or [H.basis_vector(x) for x in range(H.dim)]
    return [[pairing(H.field, lam, H.multiply(H.antipode_vector(i), r)) for r in rs]
            for i in range(H.dim)]


def _sweedler_map(H: HopfAlgebra, legs: list, table: list[list], right: bool) -> Matrix:
    """The ``n^2 x n^2`` matrix summing ``c * table[i][x]`` into row ``r``.

    ``legs[y]`` lists the terms ``(i, r, c)`` of the Sweedler expansion of
    ``e_y`` with alpha already contracted: ``i`` is the leg paired with
    lambda through ``table``, ``r`` the flat index of the two output legs.
    The column is ``x*n + y`` (left, spherical) or ``y*n + x`` (right).
    """
    f = H.field
    n = H.dim
    sx, sy = (1, n) if right else (n, 1)
    entries: dict = {}
    for y, terms in enumerate(legs):
        for i, row, c in terms:
            if c == f.zero:
                continue
            for x, v in enumerate(table[i]):
                if v == f.zero:
                    continue
                key = (row, x * sx + y * sy)
                entries[key] = f.add(entries.get(key, f.zero), f.mul(c, v))
    return Matrix.from_entries(f, n * n, n * n, entries)


def chromatic_left_hopf(H: HopfAlgebra, data: IntegralData | None = None,
                        check: bool = True) -> Morphism:
    """Left chromatic map ldld(H) ox H -> alpha ox H ox H based at H for H."""
    data = data or normalized_pair(H)
    f, n, alpha = H.field, H.dim, data.alpha
    legs = [[(y1, y3 * n + y4, f.mul(c, alpha[y2]))
             for (y1, y2, y3, y4), c in H.coproduct_iter(3, H.basis_vector(y)).items()]
            for y in range(n)]
    table = _lambda_pair_table(H, data.right_integral)
    G = regular_module(H)
    Gll = dual_module(dual_module(G, "left"), "left")
    mor = Morphism((Gll, G), (alpha_module(H, data), G, G),
                   _sweedler_map(H, legs, table, right=False))
    if check and not is_h_linear(mor):
        raise ModuleAxiomError("left chromatic map failed the intertwiner check")
    return mor


def chromatic_right_hopf(H: HopfAlgebra, data: IntegralData | None = None,
                         check: bool = True) -> Morphism:
    """Right chromatic map H ox rdrd(H) -> H ox H ox alpha based at H for H.

    ``y ox e_x -> y_(1) ox y_(2) ox alpha(y_(3)) lambda(S(e_x) y_(4))``: the
    Sweedler contraction of the left map with its legs on the opposite side,
    built from H's own coproduct.
    """
    data = data or normalized_pair(H)
    f, n, alpha = H.field, H.dim, data.alpha
    legs = [[(y4, y1 * n + y2, f.mul(c, alpha[y3]))
             for (y1, y2, y3, y4), c in H.coproduct_iter(3, H.basis_vector(y)).items()]
            for y in range(n)]
    table = [list(col) for col in zip(*_lambda_pair_table(H, data.right_integral))]
    G = regular_module(H)
    Grr = dual_module(dual_module(G, "right"), "right")
    mor = Morphism((G, Grr), (G, G, alpha_module(H, data)),
                   _sweedler_map(H, legs, table, right=True))
    if check and not is_h_linear(mor):
        raise ModuleAxiomError("right chromatic map failed the intertwiner check")
    return mor


def chromatic_spherical(H: HopfAlgebra, data: IntegralData | None = None,
                        pivot: PivotData | None = None,
                        check: bool = True) -> Morphism:
    """Spherical chromatic map x ox y -> lambda(S(y_(1)) g x) y_(2) ox y_(3)."""
    data = data or normalized_pair(H)
    if pivot is None or not is_unimodular(H, data) or \
            _pivot_condition_failures(H, data, pivot.g):
        raise NotSphericalError(f"{H.name} is not spherical (or pivot invalid)")
    n = H.dim
    legs = [[(y1, y2 * n + y3, c)
             for (y1, y2, y3), c in H.coproduct_iter(2, H.basis_vector(y)).items()]
            for y in range(n)]
    # table[i][x] = lambda(S(e_i) g e_x)
    table = _lambda_pair_table(H, data.right_integral,
                               [H.multiply(pivot.g, H.basis_vector(x)) for x in range(n)])
    G = regular_module(H)
    mor = Morphism((G, G), (G, G), _sweedler_map(H, legs, table, right=False))
    if check and not is_h_linear(mor):
        raise ModuleAxiomError("spherical chromatic map failed the intertwiner check")
    return mor


@dataclass
class RetractFamily:
    """P with H-linear maps f_i: P -> H, g_i: H -> P and sum g_i f_i = id_P."""

    P: HModule
    maps: tuple  # of (f_i, g_i) Morphism pairs

    @classmethod
    def make(cls, P: HModule, maps, check: bool = True) -> "RetractFamily":
        fam = cls(P, tuple(tuple(p) for p in maps))
        if check:
            fam.validate()
        return fam

    def validate(self):
        f = self.P.H.field
        G = regular_module(self.P.H)
        for fi, gi in self.maps:
            if not words_match(fi.source, (self.P,)) or not words_match(fi.target, (G,)):
                raise MorphismTypeError(f"bad retract map {fi!r}")
            if not words_match(gi.target, (self.P,)) or not words_match(
                    gi.source, fi.target):
                raise MorphismTypeError(f"bad retract map {gi!r}")
            if not is_h_linear(fi) or not is_h_linear(gi):
                raise ModuleAxiomError("retract family maps must be H-linear")
        total = Matrix.combination(f, self.P.dim, self.P.dim,
                                   ((f.one, gi.matrix @ fi.matrix) for fi, gi in self.maps))
        if total != Matrix.identity(f, self.P.dim):
            raise ModuleAxiomError("retract family does not sum to id_P")


def _submatrix(mat: Matrix, row_range, col_range) -> Matrix:
    r0, r1 = row_range
    c0, c1 = col_range
    entries = {}
    for i in range(r0, r1):
        for j, v in mat._rows[i].items():
            if c0 <= j < c1:
                entries[(i - r0, j - c0)] = v
    return Matrix.from_entries(mat.field, r1 - r0, c1 - c0, entries)


def split_idempotent(e: Morphism, label: str | None = None,
                     check: bool = True) -> RetractFamily:
    """Split an H-linear idempotent on a direct sum of regular modules.

    The source must be a single module whose coordinates are consecutive
    blocks of dim H (e.g. the regular module itself, or a block-diagonal
    H + H); the image, with basis the pivot columns of e, becomes P.
    """
    if len(e.source) != 1 or not words_match(e.source, e.target):
        raise MorphismTypeError("idempotent must be an endomorphism of one module")
    Q = e.source[0]
    H = Q.H
    n = H.dim
    if Q.dim % n != 0:
        raise MorphismTypeError(f"{Q.label!r} is not a sum of regular blocks")
    if check:
        if e.matrix @ e.matrix != e.matrix:
            raise ModuleAxiomError("endomorphism is not idempotent")
        if not is_h_linear(e):
            raise ModuleAxiomError("idempotent is not H-linear")
    f = H.field
    _, rank, pivots = e.matrix.rref()
    B = Matrix.from_columns(f, [e.matrix.col_list(j) for j in pivots]) \
        if rank else Matrix.zeros(f, Q.dim, 0)
    # the image is H-stable; transport the action along the basis B
    actions = []
    for k in range(H.dim):
        if rank:
            actions.append(B.solve_matrix(Q.action[k] @ B))
        else:
            actions.append(Matrix.zeros(f, 0, 0))
    P = HModule(H, rank, actions, label or f"split({Q.label})")
    if rank == 0:
        return RetractFamily.make(P, [], check=check)
    G = regular_module(H)
    coords = B.solve_matrix(e.matrix)  # rank x Q.dim with coords(e v) = B-coefficients
    maps = []
    for blk in range(Q.dim // n):
        fi = Morphism((P,), (G,), _submatrix(B, (blk * n, (blk + 1) * n), (0, rank)))
        gi = Morphism((G,), (P,), _submatrix(coords, (0, rank), (blk * n, (blk + 1) * n)))
        maps.append((fi, gi))
    return RetractFamily.make(P, maps, check=check)


def chromatic_retract(H: HopfAlgebra, c: Morphism, fam: RetractFamily,
                      side: str, check: bool = True) -> Morphism:
    """Extend a chromatic map based at H to one based at P along a retract."""
    P = fam.P
    if side in ("left", "spherical"):  # P is the last leg of both words
        kept_s, kept_t = c.source[:-1], c.target[:-1]
        source, target = kept_s + (P,), kept_t + (P,)
        terms = [compose(tensor(identity(kept_t), Prim(gi)), Prim(c),
                         tensor(identity(kept_s), Prim(fi)))
                 for fi, gi in fam.maps]
    elif side == "right":  # P is the first leg
        kept_s, kept_t = c.source[1:], c.target[1:]
        source, target = (P,) + kept_s, (P,) + kept_t
        terms = [compose(tensor(Prim(gi), identity(kept_t)), Prim(c),
                         tensor(Prim(fi), identity(kept_s)))
                 for fi, gi in fam.maps]
    else:
        raise ValueError(f"side must be left, right or spherical, got {side!r}")
    total = Matrix.combination(H.field, word_dim(target), word_dim(source),
                               ((H.field.one, evaluate(t).matrix) for t in terms))
    mor = Morphism(source, target, total)
    if check and not is_h_linear(mor):
        raise ModuleAxiomError("retracted chromatic map failed the intertwiner check")
    return mor


@dataclass
class ChromaticReport:
    """Result of one defining-identity verification."""

    algebra: str
    side: str
    P_label: str
    X_label: str
    equal: bool
    mismatch: dict | None
    elapsed: float
    identity_dim: int

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "side": self.side,
            "P": self.P_label,
            "X": self.X_label,
            "equal": self.equal,
            "mismatch": self.mismatch,
            "elapsed_s": round(self.elapsed, 6),
            "identity_dim": self.identity_dim,
        }


def verify_chromatic_identity(H: HopfAlgebra, data: IntegralData, c: Morphism,
                              P: HModule, X: HModule, side: str,
                              pivot: PivotData | None = None) -> ChromaticReport:
    """Evaluate the defining composite for ``side`` and compare with the identity.

    G is the regular module (the projective generator).  ``c`` must be a
    chromatic map of the matching type based at P.  The composite is applied
    factor by factor to all dim(X ox P) identity columns (``evaluate``), so
    every column is decided, and no ``id ox f ox id`` over the four-leg word
    is formed as a Kronecker product.
    """
    t0 = time.perf_counter()
    G = regular_module(H)
    if side == "left":
        Gl = dual_module(G, "left")
        _, coev_gl, _, _ = evaluation_morphisms(Gl, check=False)
        ev_g, _, _, _ = evaluation_morphisms(G, check=False)
        if not words_match(c.source, coev_gl.target[1:] + (P,)) or \
                not words_match(c.target[1:], (G, P)):
            raise MorphismTypeError(
                f"left chromatic map has words {word_label(c.source)} -> "
                f"{word_label(c.target)}, expected ld(ld(H))*{P.label} -> "
                f"alpha*H*{P.label}"
            )
        start = (X, P)
        expr = compose(
            tensor(identity((X,)), Prim(ev_g), identity((P,))),
            tensor(Prim(lambda_transform(H, data, (X, Gl), "left", check=False)),
                   identity((G, P))),
            tensor(identity((X, Gl)), Prim(c)),
            tensor(identity((X,)), Prim(coev_gl), identity((P,))),
        )
    elif side == "right":
        Gr = dual_module(G, "right")
        _, _, _, coevt_gr = evaluation_morphisms(Gr, check=False)
        _, _, evt_g, _ = evaluation_morphisms(G, check=False)
        if not words_match(c.source, (P,) + coevt_gr.target[:1]) or \
                not words_match(c.target[:-1], (P, G)):
            raise MorphismTypeError(
                f"right chromatic map has words {word_label(c.source)} -> "
                f"{word_label(c.target)}, expected {P.label}*rd(rd(H)) -> "
                f"{P.label}*H*alpha"
            )
        start = (P, X)
        expr = compose(
            tensor(identity((P,)), Prim(evt_g), identity((X,))),
            tensor(identity((P, G)),
                   Prim(lambda_transform(H, data, (Gr, X), "right", check=False))),
            tensor(Prim(c), identity((Gr, X))),
            tensor(identity((P,)), Prim(coevt_gr), identity((X,))),
        )
    elif side == "spherical":
        if pivot is None:
            raise NotSphericalError("spherical verification needs a pivot")
        Gl = dual_module(G, "left")
        ev_g, _, _, _ = evaluation_morphisms(G, check=False)
        _, coevt_piv = pivotal_evaluation_morphisms(G, pivot.g, pivot.g_inverse,
                                                    check=False)
        if not words_match(c.source, (G, P)) or not words_match(c.target, (G, P)):
            raise MorphismTypeError(
                f"spherical chromatic map has words {word_label(c.source)} -> "
                f"{word_label(c.target)}, expected H*{P.label} -> H*{P.label}"
            )
        start = (X, P)
        expr = compose(
            tensor(identity((X,)), Prim(ev_g), identity((P,))),
            tensor(Prim(lambda_endomorphism(H, data, (X, Gl), check=False)), Prim(c)),
            tensor(identity((X,)), Prim(coevt_piv), identity((P,))),
        )
    else:
        raise ValueError(f"side must be left, right or spherical, got {side!r}")

    got = evaluate(expr)
    want = Matrix.identity(H.field, word_dim(start))
    diff = got.matrix.first_difference(want)
    mismatch = None
    if diff is not None:
        i, j, a, b = diff
        mismatch = {
            "row": i,
            "col": j,
            "got": H.field.format(a),
            "expected": H.field.format(b),
        }
    return ChromaticReport(
        algebra=H.name,
        side=side,
        P_label=P.label,
        X_label=X.label,
        equal=diff is None,
        mismatch=mismatch,
        elapsed=time.perf_counter() - t0,
        identity_dim=word_dim(start),
    )
