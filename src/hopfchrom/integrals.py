"""Integrals, cointegrals, distinguished grouplikes, pivots, sphericality.

All spaces are computed as exact nullspaces of stacked linear systems and are
asserted one-dimensional (true for every finite-dimensional Hopf algebra;
failure signals corrupted input).  The normalization lambda(Lambda) = 1 pins
the scale, alpha_H is defined by Lambda S(h) = alpha_H(h) Lambda, and the
distinguished grouplike a of H by lambda(h_(2)) h_(1) = lambda(h) a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .fields import (
    CyclotomicField,
    Field,
    PrimeField,
    RationalField,
    _poly_deg,
    _poly_divmod,
    _rational_is_square,
)
from .hopf import HopfAlgebra, HopfDataError, pairing, vec_scale
from .linalg import Matrix, stacked_nullspace

__all__ = [
    "IntegralData",
    "PivotData",
    "PivotSearchInconclusive",
    "cointegral_space",
    "integral_space",
    "alpha_left_ideal",
    "normalized_pair",
    "is_unimodular",
    "pivot_candidates",
    "is_spherical_hmod",
]


class PivotSearchInconclusive(RuntimeError):
    """The pivot search could not be made exhaustive and found no candidate."""


@dataclass
class IntegralData:
    """Normalized integral package of one Hopf algebra."""

    H: HopfAlgebra
    left_cointegral: list      # Lambda in H,  h Lambda = eps(h) Lambda
    right_integral: list       # lambda in H*, lambda(h_(1)) h_(2) = lambda(h) 1
    alpha: list                # alpha_H in H*, Lambda S(h) = alpha_H(h) Lambda
    distinguished_grouplike: list  # a in H, lambda(h_(2)) h_(1) = lambda(h) a


@dataclass
class PivotData:
    """A grouplike pivot g with S^2 = conj(g) and the unibalanced condition."""

    g: list
    g_inverse: list


def _eigen_space(H: HopfAlgebra, mult_matrix, chi: list) -> Matrix:
    """Basis of ``{x in H : mult_matrix(i) x = chi(e_i) x for all i}``."""
    ident = Matrix.identity(H.field, H.dim)
    return stacked_nullspace([mult_matrix(i) - ident.scale(chi[i]) for i in range(H.dim)])


def cointegral_space(H: HopfAlgebra, side: str) -> Matrix:
    """Basis (one column) of left or right cointegrals in H."""
    mult = H.left_mult_matrix if side == "left" else H.right_mult_matrix
    basis = _eigen_space(H, mult, H.counit)
    if basis.ncols != 1:
        raise HopfDataError(
            f"{side} cointegral space of {H.name} has dimension {basis.ncols}, "
            "expected 1: corrupted input data"
        )
    return basis


def integral_space(H: HopfAlgebra, side: str) -> Matrix:
    """Basis (one column) of left or right integrals in H*."""
    f = H.field
    n = H.dim
    zero = f.zero
    entries: dict = {}
    # right:  sum_i lambda_i c[k][(i, j)] = lambda_k u_j   rows (k, j)
    # left:   sum_j lambda_j c[k][(i, j)] = lambda_k u_i   rows (k, i)
    for k in range(n):
        for (i, j), c in H.comult[k].items():
            if side == "right":
                entries[(k * n + j, i)] = f.add(entries.get((k * n + j, i), zero), c)
            else:
                entries[(k * n + i, j)] = f.add(entries.get((k * n + i, j), zero), c)
    for k in range(n):
        for m in range(n):
            u = H.unit[m]
            if u != zero:
                key = (k * n + m, k)
                entries[key] = f.sub(entries.get(key, zero), u)
    basis = Matrix.from_entries(f, n * n, n, entries).nullspace()
    if basis.ncols != 1:
        raise HopfDataError(
            f"{side} integral space of {H.name} has dimension {basis.ncols}, "
            "expected 1: corrupted input data"
        )
    return basis


def alpha_left_ideal(H: HopfAlgebra, alpha: list) -> Matrix:
    """Basis of ``{x in H : h x = alpha(h) x for all h}``."""
    return _eigen_space(H, H.left_mult_matrix, alpha)


def _lambda_legs(H: HopfAlgebra, lam: list, k: int) -> tuple[list, list]:
    """``((lambda ox id) Delta(e_k), (id ox lambda) Delta(e_k))`` as dense vectors."""
    f = H.field
    right = H.zero_vector()
    left = H.zero_vector()
    for (p, q), c in H.comult[k].items():
        right[q] = f.add(right[q], f.mul(c, lam[p]))
        left[p] = f.add(left[p], f.mul(c, lam[q]))
    return right, left


def _check_integral_invariants(H: HopfAlgebra, data: IntegralData):
    f = H.field
    lam, Lam = data.right_integral, data.left_cointegral
    alpha, a = data.alpha, data.distinguished_grouplike
    for i in range(H.dim):
        e = H.basis_vector(i)
        # h Lambda = eps(h) Lambda
        if H.multiply(e, Lam) != vec_scale(f, H.counit[i], Lam):
            raise HopfDataError(f"left cointegral condition fails at basis {i}")
        # Lambda S(h) = alpha(h) Lambda
        if H.multiply(Lam, H.antipode_vector(i)) != vec_scale(f, alpha[i], Lam):
            raise HopfDataError(f"alpha characterization fails at basis {i}")
        # lambda(h_(1)) h_(2) = lambda(h) 1  and  lambda(h_(2)) h_(1) = lambda(h) a
        right, left = _lambda_legs(H, lam, i)
        if right != vec_scale(f, lam[i], H.unit_vector()):
            raise HopfDataError(f"right integral condition fails at basis {i}")
        if left != vec_scale(f, lam[i], a):
            raise HopfDataError(f"distinguished grouplike condition fails at basis {i}")
    if pairing(f, lam, Lam) != f.one:
        raise HopfDataError("normalization lambda(Lambda) = 1 fails")
    # alpha is an algebra map
    if pairing(f, alpha, H.unit_vector()) != f.one:
        raise HopfDataError("alpha(1) != 1")
    for i in range(H.dim):
        for j in range(H.dim):
            got = pairing(f, alpha, H.multiply(H.basis_vector(i), H.basis_vector(j)))
            if got != f.mul(alpha[i], alpha[j]):
                raise HopfDataError(f"alpha multiplicativity fails at ({i},{j})")
    if not H.is_grouplike(a):
        raise HopfDataError("distinguished element a is not grouplike")


def normalized_pair(H: HopfAlgebra) -> IntegralData:
    """Lambda, lambda with lambda(Lambda) = 1, plus alpha_H and a; verified."""
    f = H.field
    Lam = cointegral_space(H, "left").col_list(0)
    lam = integral_space(H, "right").col_list(0)
    s = pairing(f, lam, Lam)
    if s == f.zero:
        raise HopfDataError("lambda(Lambda) = 0: corrupted Hopf data")
    lam = vec_scale(f, f.inv(s), lam)
    # alpha(e_j) from Lambda S(e_j) = alpha_j Lambda, one coordinate suffices
    p = next(i for i, v in enumerate(Lam) if v != f.zero)
    alpha = []
    for j in range(H.dim):
        w = H.multiply(Lam, H.antipode_vector(j))
        t = f.div(w[p], Lam[p])
        if w != vec_scale(f, t, Lam):
            raise HopfDataError(f"inconsistent alpha system at basis {j}")
        alpha.append(t)
    # a from lambda(h_(2)) h_(1) = lambda(h) a
    a = None
    vs = []
    for k in range(H.dim):
        _, v = _lambda_legs(H, lam, k)
        vs.append(v)
        if a is None and lam[k] != f.zero:
            a = vec_scale(f, f.inv(lam[k]), v)
    if a is None:
        raise HopfDataError("right integral is zero: corrupted Hopf data")
    for k in range(H.dim):
        if vs[k] != vec_scale(f, lam[k], a):
            raise HopfDataError(f"inconsistent distinguished grouplike at basis {k}")
    data = IntegralData(H, Lam, lam, alpha, a)
    _check_integral_invariants(H, data)
    return data


def is_unimodular(H: HopfAlgebra, data: IntegralData | None = None) -> bool:
    """True iff alpha_H equals the counit."""
    data = data or normalized_pair(H)
    return list(data.alpha) == list(H.counit)


# -- pivot search -------------------------------------------------------------

def _pivot_condition_failures(H: HopfAlgebra, data: IntegralData, v: list) -> list[str]:
    """Which of the three pivot conditions fail (empty list = valid pivot)."""
    fails = []
    if not H.is_grouplike(v):
        fails.append("grouplike")
    S2 = H.antipode_squared()
    ok = H.multiply(v, H.antipode_apply(v)) == H.unit_vector()
    for i in range(H.dim):
        if H.multiply(S2.col_list(i), v) != H.multiply(v, H.basis_vector(i)):
            ok = False
            break
    if not ok:
        fails.append("conjugation")
    # lambda(h_(2)) h_(1) = lambda(h) g^2 for all h; normalized_pair verified
    # lambda(h_(2)) h_(1) = lambda(h) a and lambda != 0, so this is g^2 = a
    if H.multiply(v, v) != data.distinguished_grouplike:
        fails.append("unibalanced")
    return fails


def _is_pivot(H: HopfAlgebra, data: IntegralData, v: list) -> bool:
    """Whether ``v`` is a pivot.  eps(v) = 1 (one pairing) and v^2 = a (one
    product) are necessary, so only candidates passing both reach the full
    three-condition check."""
    return (H.counit_apply(v) == H.field.one
            and H.multiply(v, v) == data.distinguished_grouplike
            and not _pivot_condition_failures(H, data, v))


def _intertwiner_space(H: HopfAlgebra) -> Matrix:
    """Nullspace of ``S^2(h) v = v h`` over all basis h."""
    S2 = H.antipode_squared()
    blocks = []
    for i in range(H.dim):
        blocks.append(H.element_left_mult(S2.col_list(i)) - H.right_mult_matrix(i))
    return stacked_nullspace(blocks)


def _poly_trim(field: Field, p: list) -> list:
    """``p`` without its zero leading coefficients."""
    return p[:_poly_deg(field, p) + 1]


def _poly_gcd(field: Field, a: list, b: list) -> list:
    """Monic gcd by Euclid's remainders, trimmed; ``[]`` for two zeros."""
    while _poly_deg(field, b) >= 0:
        a, b = b, _poly_divmod(field, a, b)[1]
    a = _poly_trim(field, a)
    if a:
        lead = field.inv(a[-1])
        a = [field.mul(lead, c) for c in a]
    return a


def _quadratic_roots(field: Field, c0, c1, c2):
    """Roots in the field of c2 s^2 + c1 s + c0; (roots, search_complete)."""
    if c2 == field.zero:
        if c1 == field.zero:
            return [], True  # nonzero constant (the zero poly never reaches here)
        return [field.neg(field.div(c0, c1))], True
    if isinstance(field, PrimeField):
        if field.p <= 20011:
            roots = [
                s for s in field.elements()
                if field.add(field.mul(c2, field.mul(s, s)),
                             field.add(field.mul(c1, s), c0)) == field.zero
            ]
            return roots, True
        return [], False
    if isinstance(field, RationalField):
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return [], True
        rt = _rational_is_square(disc)
        if rt is None:
            return [], True  # no rational roots, and Q-search is exhaustive
        roots = sorted({(-c1 + rt) / (2 * c2), (-c1 - rt) / (2 * c2)})
        return list(roots), True
    if isinstance(field, CyclotomicField):
        # solvable here only when the polynomial has rational coefficients
        consts = []
        for c in (c0, c1, c2):
            if any(x != Fraction(0) for x in c[1:]):
                return [], False
            consts.append(c[0])
        q0, q1, q2 = consts
        disc = q1 * q1 - 4 * q2 * q0
        rt = _rational_is_square(disc) if disc >= 0 else None
        if rt is None:
            return [], False  # roots may exist beyond Q inside the field
        roots = sorted({(-q1 + rt) / (2 * q2), (-q1 - rt) / (2 * q2)})
        return [field.coerce(r) for r in roots], True
    return [], False


def _grouplikes_on_plane(H: HopfAlgebra, u1: list, u2: list):
    """All grouplike s*u1 + t*u2; returns (vectors, search_complete)."""
    f = H.field
    e1 = H.counit_apply(u1)
    e2 = H.counit_apply(u2)
    if e1 == f.zero and e2 == f.zero:
        return [], True  # eps(v) = 1 unreachable
    if e2 == f.zero:
        u1, u2 = u2, u1
        e1, e2 = e2, e1
    # eliminate t along the counit line: t = alpha + beta s
    al = f.inv(e2)
    be = f.neg(f.div(e1, e2))
    d1 = H.coproduct(u1)
    d2 = H.coproduct(u2)
    polys = []
    for i in range(H.dim):
        for j in range(H.dim):
            key = (i, j)
            lin1 = d1.get(key, f.zero)
            lin2 = d2.get(key, f.zero)
            qss = f.mul(u1[i], u1[j])
            qst = f.add(f.mul(u1[i], u2[j]), f.mul(u2[i], u1[j]))
            qtt = f.mul(u2[i], u2[j])
            # Delta(v)_ij - (v ox v)_ij with t substituted, as a poly in s
            c2 = f.neg(f.add(qss, f.add(f.mul(qst, be), f.mul(qtt, f.mul(be, be)))))
            c1 = f.sub(
                f.add(lin1, f.mul(lin2, be)),
                f.add(f.mul(qst, al), f.mul(f.from_int(2), f.mul(qtt, f.mul(al, be)))),
            )
            c0 = f.sub(f.mul(lin2, al), f.mul(qtt, f.mul(al, al)))
            poly = _poly_trim(f, [c0, c1, c2])
            if poly:
                polys.append(poly)
    if not polys:
        return [], False  # every point of the line grouplike: impossible, bail out
    g = polys[0]
    for p in polys[1:]:
        g = _poly_gcd(f, g, p)
        if len(g) == 1:
            return [], True  # constant gcd: no common root
    if len(g) == 1:
        return [], True
    if len(g) == 2:
        roots, complete = [f.neg(f.div(g[0], g[1]))], True
    else:
        roots, complete = _quadratic_roots(f, g[0], g[1], g[2])
    out = []
    for s in roots:
        t = f.add(al, f.mul(be, s))
        v = [f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(u1, u2)]
        out.append(v)
    return out, complete


def pivot_candidates(H: HopfAlgebra, data: IntegralData | None = None,
                     hints: tuple = (), exhaust_limit: int = 20000):
    """All pivots found: grouplike g with S^2 = conj(g), unibalanced via lambda.

    The intertwiner space V of S^2(h) v = v h is searched completely when
    dim V <= 2 (counit-line elimination plus exact quadratic roots) or when
    the field is finite and |F|^dim V <= exhaust_limit; the unit, the basis
    vectors and user hints are always tested.  The exhaustive branch builds
    only the points with eps(v) = 1, and every candidate is checked by
    ``_is_pivot``: eps(v) = 1, then v^2 = a, then all three conditions.  Raises
    PivotSearchInconclusive when the search was not exhaustive and nothing
    was found -- distinct from a definitive empty answer.
    """
    data = data or normalized_pair(H)
    f = H.field
    V = _intertwiner_space(H)
    d = V.ncols
    candidates: list[list] = []
    complete = False
    if d == 0:
        complete = True
    elif d == 1:
        u1 = V.col_list(0)
        e1 = H.counit_apply(u1)
        if e1 != f.zero:
            candidates.append(vec_scale(f, f.inv(e1), u1))
        complete = True
    elif d == 2:
        vecs, complete = _grouplikes_on_plane(H, V.col_list(0), V.col_list(1))
        candidates.extend(vecs)
    if not complete and f.finite:
        points = f.characteristic() ** d
        if points <= exhaust_limit:
            # eps(V c) = sum_k c_k eps(u_k): build only the slice eps = 1
            eps = [H.counit_apply(V.col_list(k)) for k in range(d)]
            candidates.extend(V.apply(list(coeffs))
                              for coeffs in product(f.elements(), repeat=d)
                              if pairing(f, eps, coeffs) == f.one)
            complete = True
    # cheap deterministic candidates, useful when the search is not complete
    candidates.append(H.unit_vector())
    candidates.extend(H.basis_vector(i) for i in range(H.dim))
    candidates.extend([f.coerce(x) for x in h] for h in hints)

    seen = set()
    found = []
    for v in candidates:
        key = tuple(v)
        if key in seen:
            continue
        seen.add(key)
        if _is_pivot(H, data, v):
            found.append(v)
    if not found and not complete:
        raise PivotSearchInconclusive(
            f"pivot search inconclusive for {H.name}: dim V = {d} over {f.spec}"
        )

    def sort_key(pos, v):
        if v == H.unit_vector():
            return (0, 0)
        for i in range(H.dim):
            if v == H.basis_vector(i):
                return (1, i)
        return (2, pos)

    found = [v for _, v in sorted((sort_key(p, v), v) for p, v in enumerate(found))]
    return [PivotData(g=v, g_inverse=H.antipode_apply(v)) for v in found]


def is_spherical_hmod(H: HopfAlgebra, data: IntegralData | None = None,
                      hints: tuple = ()):
    """(spherical?, chosen pivot): unimodular and unibalanced-pivotal.

    The chosen pivot is deterministic: the unit if valid, else the first
    valid basis vector, else the first remaining candidate.
    """
    data = data or normalized_pair(H)
    if not is_unimodular(H, data):
        return False, None
    pivots = pivot_candidates(H, data, hints=hints)
    if not pivots:
        return False, None
    return True, pivots[0]
