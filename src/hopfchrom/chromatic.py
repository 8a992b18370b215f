"""Chromatic maps in H-mod and exact verification of their defining identities.

The left map, based at the regular module for itself, sends
``e_x ox y -> lambda(S(y_(1)) x) alpha_H(y_(2)) ox y_(3) ox y_(4)``; the right
map is the same contraction with the legs on the opposite side,
``y ox e_x -> y_(1) ox y_(2) ox alpha_H(y_(3)) lambda(S(x) y_(4))``, and the
spherical map contracts lambda against ``g x`` on ``Delta^2(y)``.  All three
are filled by one loop (``_sweedler_map``) from H's own coproduct into a
``ChromaticMap``, a Morphism that carries its side (and pivot).  Each extends,
keeping both, to any projective P through a retract family {f_i: P -> H,
g_i: H -> P} with sum g_i f_i = id_P, produced by splitting idempotents.

``verify_chromatic_identity(c, X)`` takes H, side, pivot and P from c, evaluates
the defining composite with the morphism calculus and compares it with the
identity, entry by entry: at X = H on the dim P columns that generate X ox P
as an H-module when ``c.h_linear`` holds (a ``ChromaticMap`` decides its
H-linearity once, on first use; every other factor is a structure morphism,
H-linear by the rule in ``hmod``), and otherwise on every column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .calculus import Prim, compose, evaluate, evaluate_rows, identity, tensor
from .hmod import (
    HModule,
    Morphism,
    ModuleAxiomError,
    MorphismTypeError,
    alpha_module,
    dual_module,
    evaluation_morphisms,
    is_h_linear,
    lambda_transform,
    pivotal_evaluation_morphisms,
    regular_module,
    word_dim,
    words_match,
)
from .hopf import HopfAlgebra
from .integrals import (
    PivotData,
    _pivot_condition_failures,
    is_unimodular,
    normalized_pair,
)
from .linalg import Matrix, sparse_sum

__all__ = [
    "NotSphericalError",
    "ChromaticMap",
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


@dataclass(repr=False)
class ChromaticMap(Morphism):
    """A chromatic map based at the last leg of its words (``left``,
    ``spherical``) or at the first (``right``); a spherical map carries the
    pivot its identity twists by, which must pass the pivot conditions, the
    others none."""

    side: str
    pivot: PivotData | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.side not in ("left", "right", "spherical"):
            raise ValueError(f"side must be left, right or spherical, got {self.side!r}")
        if (self.pivot is None) == (self.side == "spherical"):
            raise ValueError(f"a {self.side} chromatic map "
                             f"{'needs a' if self.pivot is None else 'takes no'} pivot")
        if self.pivot is not None and (fails := _pivot_condition_failures(self.H, self.pivot.g)):
            raise NotSphericalError(f"not a pivot of {self.H.name}: fails {', '.join(fails)}")

    @cached_property
    def h_linear(self) -> bool:
        """``is_h_linear(self)``, decided on first use and kept with the map."""
        return is_h_linear(self)


def _lambda_pair_table(H: HopfAlgebra, lam: list, R: Matrix | None = None) -> Matrix:
    """Table ``t[i][x] = lambda(S(e_i) r_x)``, with ``r_x`` the column ``x`` of
    ``R`` (``e_x`` by default): ``S^T nu R`` for ``nu[j][l] = lambda(e_j e_l)``,
    read once off H's multiplication tensor."""
    f, n = H.field, H.dim
    nu = sparse_sum(f, (((j, l), f.mul(c, lam[k]))
                        for j, row in enumerate(H.mult) for l, col in enumerate(row)
                        for k, c in col.items() if lam[k] != f.zero))
    table = H.antipode.transpose() @ Matrix.from_entries(f, n, n, nu)
    return table if R is None else table @ R


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
    entries = sparse_sum(f, (((row, x * sx + y * sy), f.mul(c, v))
                             for y, terms in enumerate(legs)
                             for i, row, c in terms if c != f.zero
                             for x, v in enumerate(table[i]) if v != f.zero))
    return Matrix.from_entries(f, n * n, n * n, entries)


def _checked(c: ChromaticMap) -> ChromaticMap:
    if not c.h_linear:
        raise ModuleAxiomError(f"{c.side} chromatic map failed the intertwiner check")
    return c


def chromatic_left_hopf(H: HopfAlgebra) -> ChromaticMap:
    """Left chromatic map ldld(H) ox H -> alpha ox H ox H based at H for H."""
    data = normalized_pair(H)
    f, n, alpha = H.field, H.dim, data.alpha
    legs = [[(y1, y3 * n + y4, f.mul(c, alpha[y2]))
             for (y1, y2, y3, y4), c in H.coproduct_iter(3, H.basis_vector(y)).items()]
            for y in range(n)]
    table = _lambda_pair_table(H, data.right_integral).dense()
    G = regular_module(H)
    Gll = dual_module(dual_module(G, "left"), "left")
    return _checked(ChromaticMap((Gll, G), (alpha_module(H), G, G),
                                 _sweedler_map(H, legs, table, right=False), "left"))


def chromatic_right_hopf(H: HopfAlgebra) -> ChromaticMap:
    """Right chromatic map H ox rdrd(H) -> H ox H ox alpha based at H for H.

    ``y ox e_x -> y_(1) ox y_(2) ox alpha(y_(3)) lambda(S(e_x) y_(4))``: the
    Sweedler contraction of the left map with its legs on the opposite side,
    built from H's own coproduct.
    """
    data = normalized_pair(H)
    f, n, alpha = H.field, H.dim, data.alpha
    legs = [[(y4, y1 * n + y2, f.mul(c, alpha[y3]))
             for (y1, y2, y3, y4), c in H.coproduct_iter(3, H.basis_vector(y)).items()]
            for y in range(n)]
    table = _lambda_pair_table(H, data.right_integral).transpose().dense()
    G = regular_module(H)
    Grr = dual_module(dual_module(G, "right"), "right")
    return _checked(ChromaticMap((G, Grr), (G, G, alpha_module(H)),
                                 _sweedler_map(H, legs, table, right=True), "right"))


def chromatic_spherical(H: HopfAlgebra, pivot: PivotData | None = None) -> ChromaticMap:
    """Spherical chromatic map x ox y -> lambda(S(y_(1)) g x) y_(2) ox y_(3)."""
    if pivot is None or not is_unimodular(H):
        raise NotSphericalError(f"{H.name} is not spherical")
    n = H.dim
    legs = [[(y1, y2 * n + y3, c)
             for (y1, y2, y3), c in H.coproduct_iter(2, H.basis_vector(y)).items()]
            for y in range(n)]
    # table[i][x] = lambda(S(e_i) g e_x)
    table = _lambda_pair_table(H, normalized_pair(H).right_integral,
                               H.element_left_mult(pivot.g)).dense()
    G = regular_module(H)
    return _checked(ChromaticMap((G, G), (G, G),
                                 _sweedler_map(H, legs, table, right=False),
                                 "spherical", pivot))


@dataclass
class RetractFamily:
    """P with H-linear maps f_i: P -> H, g_i: H -> P and sum g_i f_i = id_P."""

    P: HModule
    maps: tuple  # of (f_i, g_i) Morphism pairs

    @classmethod
    def make(cls, P: HModule, maps) -> "RetractFamily":
        fam = cls(P, tuple(tuple(p) for p in maps))
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


def split_idempotent(e: Morphism) -> RetractFamily:
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
    if e.matrix @ e.matrix != e.matrix:
        raise ModuleAxiomError("endomorphism is not idempotent")
    if not is_h_linear(e):
        raise ModuleAxiomError("idempotent is not H-linear")
    f = H.field
    label = f"split({Q.label})"
    _, rank, pivots = e.matrix.rref()
    if rank == 0:
        return RetractFamily.make(HModule(H, 0, [Matrix.zeros(f, 0, 0)] * n, label), [])
    B = Matrix.from_columns(f, [e.matrix.col_list(j) for j in pivots])
    # the image is H-stable; transport the action along the basis B
    P = HModule(H, rank, [B.solve_matrix(a @ B) for a in Q.action], label)
    G = regular_module(H)
    coords = B.solve_matrix(e.matrix)  # rank x Q.dim with coords(e v) = B-coefficients
    maps = []
    for start in range(0, Q.dim, n):  # one (f_i, g_i) per regular block of Q
        block = range(start, start + n)
        fi = Morphism((P,), (G,), Matrix.from_rows(f, [B.row_list(r) for r in block]))
        gi = Morphism((G,), (P,), Matrix.from_columns(f, [coords.col_list(j) for j in block]))
        maps.append((fi, gi))
    return RetractFamily.make(P, maps)


def chromatic_retract(c: ChromaticMap, fam: RetractFamily) -> ChromaticMap:
    """Extend a chromatic map based at H to one based at P along a retract,
    keeping c's side and pivot.

    No intertwiner check runs here (a sum of composites of H-linear maps is
    H-linear); the retract decides its own ``h_linear`` once, on first use, as
    an independent check.
    """
    P = fam.P
    if c.side == "right":  # P is the first leg
        kept_s, kept_t = c.source[1:], c.target[1:]
        source, target = (P,) + kept_s, (P,) + kept_t
        terms = [compose(tensor(Prim(gi), identity(kept_t)), Prim(c),
                         tensor(Prim(fi), identity(kept_s)))
                 for fi, gi in fam.maps]
    else:  # left and spherical: P is the last leg
        kept_s, kept_t = c.source[:-1], c.target[:-1]
        source, target = kept_s + (P,), kept_t + (P,)
        terms = [compose(tensor(identity(kept_t), Prim(gi)), Prim(c),
                         tensor(identity(kept_s), Prim(fi)))
                 for fi, gi in fam.maps]
    f = c.H.field
    total = Matrix.combination(f, word_dim(target), word_dim(source),
                               ((f.one, evaluate(t).matrix) for t in terms))
    return ChromaticMap(source, target, total, c.side, c.pivot)


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
    columns: int  # source columns evaluated: dim P (generator columns) or identity_dim

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
            "columns": self.columns,
        }


def verify_chromatic_identity(c: ChromaticMap, X: HModule) -> ChromaticReport:
    """Evaluate the defining composite for c's side and compare with the identity.

    G is the regular module (the projective generator), and P is the leg
    that c's side bases it at: the last one for left and spherical maps, the
    first for right ones.  The composite is typed before it is applied, so a
    map whose words do not fit its side raises MorphismTypeError, and it is
    applied factor by factor, so no ``id ox f ox id`` over the four-leg word
    is formed as a Kronecker product.

    At X = H, when ``c.h_linear`` holds (a ``ChromaticMap`` decides its
    H-linearity once, on first use), the composite is H-linear (its other
    factors are structure morphisms; see the ``hmod`` policy) and X ox P is
    free on the dim P columns 1 ox p (p ox 1 on the right; Montgomery, *Hopf
    Algebras and Their Actions on Rings*, 1993), so those columns decide the
    identity.  Every other row, and a reduced check that finds a mismatch, is
    decided on all dim(X ox P) columns, which locate the first mismatch.

    Naturality: the composite E_X is natural in X and additive, so if
    E_H = id then E_X = id for every X.  X is a quotient pi: H^m -> X of a free
    module, and E_X (pi ox id_P) = (pi ox id_P) E_{H^m} = pi ox id_P with
    pi ox id_P onto.  The X = triv and alpha rows confirm it independently.
    """
    t0 = time.perf_counter()
    H, side = c.H, c.side
    P = c.source[0] if side == "right" else c.source[-1]
    G = regular_module(H)
    if side == "left":
        ev_g, _ = evaluation_morphisms(G, "left")
        Gl = ev_g.source[0]
        _, coev_gl = evaluation_morphisms(Gl, "left")
        expr = compose(
            tensor(identity((X,)), Prim(ev_g), identity((P,))),
            tensor(Prim(lambda_transform(H, (X, Gl), "left")), identity((G, P))),
            tensor(identity((X, Gl)), Prim(c)),
            tensor(identity((X,)), Prim(coev_gl), identity((P,))),
        )
    elif side == "right":
        evt_g, _ = evaluation_morphisms(G, "right")
        Gr = evt_g.source[1]
        _, coevt_gr = evaluation_morphisms(Gr, "right")
        expr = compose(
            tensor(identity((P,)), Prim(evt_g), identity((X,))),
            tensor(identity((P, G)), Prim(lambda_transform(H, (Gr, X), "right"))),
            tensor(Prim(c), identity((Gr, X))),
            tensor(identity((P,)), Prim(coevt_gr), identity((X,))),
        )
    else:
        ev_g, _ = evaluation_morphisms(G, "left")
        Gl = ev_g.source[0]
        _, coevt_piv = pivotal_evaluation_morphisms(G, c.pivot.g)
        expr = compose(
            tensor(identity((X,)), Prim(ev_g), identity((P,))),
            tensor(Prim(lambda_transform(H, (X, Gl), "spherical")), Prim(c)),
            tensor(identity((X,)), Prim(coevt_piv), identity((P,))),
        )

    f, n = H.field, X.dim * P.dim
    rows = None
    if X.same_as(G) and c.h_linear:
        # the free generators 1 ox p of X ox P, or p ox 1 of P ox X on the right
        sx, sp = (1, X.dim) if side == "right" else (P.dim, 1)
        rows = Matrix.from_entries(f, P.dim, n, {(p, i * sx + p * sp): u for p in range(P.dim)
                                                 for i, u in enumerate(H.unit) if u != f.zero})
        if evaluate_rows(expr, rows) != rows:
            rows = None  # decide, and locate the first mismatch, on every column
    diff = None
    if rows is None:
        diff = evaluate(expr).matrix.first_difference(Matrix.identity(f, n))
    mismatch = None
    if diff is not None:
        i, j, a, b = diff
        mismatch = {
            "row": i,
            "col": j,
            "got": f.format(a),
            "expected": f.format(b),
        }
    return ChromaticReport(
        algebra=H.name,
        side=side,
        P_label=P.label,
        X_label=X.label,
        equal=diff is None,
        mismatch=mismatch,
        elapsed=time.perf_counter() - t0,
        identity_dim=n,
        columns=n if rows is None else rows.nrows,
    )
