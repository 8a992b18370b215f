"""Integrals, cointegrals, distinguished grouplikes, pivots, sphericality.

All spaces are computed as exact nullspaces of stacked linear systems and are
asserted one-dimensional (true for every finite-dimensional Hopf algebra;
failure signals corrupted input).  The normalization lambda(Lambda) = 1 pins
the scale, alpha_H is defined by Lambda S(h) = alpha_H(h) Lambda, and the
distinguished grouplike a of H by lambda(h_(2)) h_(1) = lambda(h) a.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# The exhaustive pivot search over GF(p) builds at most this many points of
# the counit slice (uqsl2:3 over GF(13) has 2,197; dualgroup:S3 over GF(7) 16,807).
PIVOT_EXHAUST_LIMIT = 20000


class PivotSearchInconclusive(RuntimeError):
    """The pivot search could not be made exhaustive and found no candidate."""


@dataclass
class IntegralData:
    """Normalized integral package of one Hopf algebra, kept on it by
    ``normalized_pair`` and shared by every caller, so read-only."""

    left_cointegral: list      # Lambda in H,  h Lambda = eps(h) Lambda
    right_integral: list       # lambda in H*, lambda(h_(1)) h_(2) = lambda(h) 1
    alpha: list                # alpha_H in H*, Lambda S(h) = alpha_H(h) Lambda
    distinguished_grouplike: list  # a in H, lambda(h_(2)) h_(1) = lambda(h) a


@dataclass
class PivotData:
    """A grouplike pivot g with S^2 = conj(g) and the unibalanced condition;
    its inverse is S(g)."""

    g: list


def _eigen_space(H: HopfAlgebra, mult_matrix, chi: list) -> Matrix:
    """Basis of ``{x in H : mult_matrix(i) x = chi(e_i) x for all i}``."""
    ident = Matrix.identity(H.field, H.dim)
    return stacked_nullspace([mult_matrix(i) - ident.scale(chi[i]) for i in range(H.dim)])


def _line(H: HopfAlgebra, basis: Matrix, what: str) -> Matrix:
    """``basis`` if it has one column, else corrupted input data."""
    if basis.ncols != 1:
        raise HopfDataError(
            f"{what} space of {H.name} has dimension {basis.ncols}, "
            "expected 1: corrupted input data"
        )
    return basis


def cointegral_space(H: HopfAlgebra, side: str) -> Matrix:
    """Basis (one column) of left or right cointegrals in H."""
    mult = H.left_mult_matrix if side == "left" else H.right_mult_matrix
    return _line(H, _eigen_space(H, mult, H.counit), f"{side} cointegral")


def integral_space(H: HopfAlgebra, side: str) -> Matrix:
    """Basis (one column) of left or right integrals in H*.

    The eigenspace of the regular action of H* with the counit of H* as
    eigenvalue: lambda e^j = e^j(1) lambda (right) or e^i lambda = e^i(1)
    lambda (left), where ``R_j[k][i] = c_k^{ij}`` is the matrix of
    ``phi -> phi e^j`` and ``L_i[k][j] = c_k^{ij}`` that of ``phi -> e^i phi``.
    """
    n = H.dim
    slices = [{} for _ in range(n)]
    for k, terms in enumerate(H.comult):
        for (i, j), c in terms.items():
            if side == "right":
                slices[j][(k, i)] = c
            else:
                slices[i][(k, j)] = c
    mats = [Matrix.from_entries(H.field, n, n, e) for e in slices]
    return _line(H, _eigen_space(H, mats.__getitem__, H.unit), f"{side} integral")


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
    for i, row in enumerate(H.mult):
        for j, col in enumerate(row):  # alpha(e_i e_j) = sum_k m_ij^k alpha_k
            got = pairing(f, [alpha[k] for k in col], col.values())
            if got != f.mul(alpha[i], alpha[j]):
                raise HopfDataError(f"alpha multiplicativity fails at ({i},{j})")
    if not H.is_grouplike(a):
        raise HopfDataError("distinguished element a is not grouplike")
    _check_lambda_certificate(H, Lam, alpha)


def _check_lambda_certificate(H: HopfAlgebra, Lam: list, alpha: list):
    """The Lambda-transformations x ox 1 -> T x, T = S^{-1}(Lambda), and 1 ox x ->
    S(Lambda) x are H-linear on every X iff T phi(h) = h T, phi(h) = h_(1) alpha(h_(2)),
    and S(Lambda) phi'(h) = h S(Lambda), phi'(h) = alpha(h_(1)) h_(2) (Radford,
    *Hopf Algebras*, 2012, ch. 10); both sides are linear in h, so the basis decides.
    Given h Lambda = eps(h) Lambda, both reduce to Lambda S(h) = alpha(h) Lambda."""
    T, U = H.antipode_inverse_apply(Lam), H.antipode_apply(Lam)
    for i in range(H.dim):
        e = H.basis_vector(i)
        phi_right, phi_left = _lambda_legs(H, alpha, i)
        if H.multiply(T, phi_left) != H.multiply(e, T):
            raise HopfDataError(f"left Lambda-transformation is not H-linear at basis {i}")
        if H.multiply(U, phi_right) != H.multiply(e, U):
            raise HopfDataError(f"right Lambda-transformation is not H-linear at basis {i}")


def normalized_pair(H: HopfAlgebra) -> IntegralData:
    """Lambda, lambda with lambda(Lambda) = 1, plus alpha_H and a; verified.

    Computed and verified once per algebra, then kept on ``H``: every consumer
    derives the data from ``H`` through this call.
    """
    if H._integral_data is not None:
        return H._integral_data
    f = H.field
    Lam = cointegral_space(H, "left").col_list(0)
    lam = integral_space(H, "right").col_list(0)
    s = pairing(f, lam, Lam)
    if s == f.zero:
        raise HopfDataError("lambda(Lambda) = 0: corrupted Hopf data")
    lam = vec_scale(f, f.inv(s), lam)
    # alpha from one coordinate of Lambda S(e_j), a from the first lambda_k != 0;
    # _check_integral_invariants verifies both characterizations on every basis h
    p = next(i for i, v in enumerate(Lam) if v != f.zero)
    inv_p = f.inv(Lam[p])
    alpha = [f.mul(H.multiply(Lam, H.antipode_vector(j))[p], inv_p)
             for j in range(H.dim)]
    k = next(k for k, v in enumerate(lam) if v != f.zero)
    a = vec_scale(f, f.inv(lam[k]), _lambda_legs(H, lam, k)[1])
    data = IntegralData(Lam, lam, alpha, a)
    _check_integral_invariants(H, data)
    H._integral_data = data
    return data


def is_unimodular(H: HopfAlgebra) -> bool:
    """True iff alpha_H equals the counit."""
    return list(normalized_pair(H).alpha) == list(H.counit)


# -- pivot search -------------------------------------------------------------

def _pivot_condition_failures(H: HopfAlgebra, v: list) -> list[str]:
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
    if H.multiply(v, v) != normalized_pair(H).distinguished_grouplike:
        fails.append("unibalanced")
    return fails


def _is_pivot(H: HopfAlgebra, v: list) -> bool:
    """Whether ``v`` is a pivot.  eps(v) = 1 (one pairing) and v^2 = a (one
    product) are necessary, so only candidates passing both reach the full
    three-condition check."""
    return (H.counit_apply(v) == H.field.one
            and H.multiply(v, v) == normalized_pair(H).distinguished_grouplike
            and not _pivot_condition_failures(H, v))


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
    if isinstance(field, (RationalField, CyclotomicField)):
        cyc = isinstance(field, CyclotomicField)
        if cyc:  # solvable here only when the polynomial has rational coefficients
            c0, c1, c2 = (field.rational(c) for c in (c0, c1, c2))
            if None in (c0, c1, c2):
                return [], False
        rt = _rational_is_square(c1 * c1 - 4 * c2 * c0)
        if rt is None:  # no rational root: the search is exhaustive over Q only
            return [], not cyc
        roots = sorted({(-c1 + rt) / (2 * c2), (-c1 - rt) / (2 * c2)})
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


def pivot_candidates(H: HopfAlgebra):
    """All pivots found: grouplike g with S^2 = conj(g), unibalanced via lambda.

    The intertwiner space V of S^2(h) v = v h is searched completely when
    dim V <= 2 (counit-line elimination plus exact quadratic roots) or when
    the field is finite and the slice eps(v) = 1 of V, which has |F|^(dim V - 1)
    points or none, has at most PIVOT_EXHAUST_LIMIT points; the unit and the
    basis vectors are always tested.  The exhaustive branch builds
    only the points of that slice, and every candidate is checked by
    ``_is_pivot``: eps(v) = 1, then v^2 = a, then all three conditions.  Raises
    PivotSearchInconclusive when the search was not exhaustive and nothing
    was found -- distinct from a definitive empty answer.
    """
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
        # eps(V c) = sum_k c_k eps(u_k), so the slice eps = 1 is empty when
        # eps vanishes on V; else it has |F|^(d-1) points, c_m fixed by the
        # others for the last m with eps(u_m) != 0, built in lexicographic order
        eps = [H.counit_apply(V.col_list(k)) for k in range(d)]
        live = [k for k in range(d) if eps[k] != f.zero]
        if not live:
            complete = True
        elif f.characteristic() ** (d - 1) <= PIVOT_EXHAUST_LIMIT:
            m = live[-1]
            inv_m = f.inv(eps[m])
            for rest in product(f.elements(), repeat=d - 1):
                c_m = f.mul(inv_m, f.sub(f.one, pairing(f, eps, rest[:m])))
                candidates.append(V.apply([*rest[:m], c_m, *rest[m:]]))
            complete = True
    # cheap deterministic candidates, useful when the search is not complete
    candidates.append(H.unit_vector())
    candidates.extend(H.basis_vector(i) for i in range(H.dim))

    seen = set()
    found = []
    for v in candidates:
        key = tuple(v)
        if key in seen:
            continue
        seen.add(key)
        if _is_pivot(H, v):
            found.append(v)
    if not found and not complete:
        raise PivotSearchInconclusive(
            f"pivot search inconclusive for {H.name}: dim V = {d} over {f.spec}"
        )

    # the unit first, then basis vectors in basis order, then the rest as found
    fixed = [H.unit_vector()] + [H.basis_vector(i) for i in range(H.dim)]
    found.sort(key=lambda v: fixed.index(v) if v in fixed else len(fixed))
    return [PivotData(g=v) for v in found]


def is_spherical_hmod(H: HopfAlgebra):
    """(spherical?, chosen pivot): unimodular and unibalanced-pivotal.

    The chosen pivot is deterministic: the unit if valid, else the first
    valid basis vector, else the first remaining candidate.
    """
    if not is_unimodular(H):
        return False, None
    pivots = pivot_candidates(H)
    if not pivots:
        return False, None
    return True, pivots[0]
