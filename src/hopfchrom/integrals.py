"""Integrals, cointegrals, distinguished grouplikes, pivots, sphericality.

All spaces are computed as exact nullspaces of stacked linear systems and are
asserted one-dimensional (true for every finite-dimensional Hopf algebra;
failure signals corrupted input).  The normalization lambda(Lambda) = 1 pins
the scale, alpha_H is defined by Lambda S(h) = alpha_H(h) Lambda, and the
distinguished grouplike a of H by lambda(h_(2)) h_(1) = lambda(h) a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import (
    Field,
    PrimeField,
    RationalField,
    _is_prime,
    _poly_deg,
    _poly_divmod,
    _poly_mul,
    _poly_sub,
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
    """The pivot search could not prove it found every pivot; ``pivots``
    holds those it found."""

    def __init__(self, message: str, pivots=()):
        super().__init__(message)
        self.pivots = list(pivots)


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


def _eigen_space(H: HopfAlgebra, mult_matrix, chi: list, indices) -> Matrix:
    """Basis of ``{x in H : mult_matrix(i) x = chi(e_i) x for all i in indices}``."""
    ident = Matrix.identity(H.field, H.dim)
    return stacked_nullspace([mult_matrix(i) - ident.scale(chi[i]) for i in indices])


def _line(H: HopfAlgebra, basis: Matrix, what: str) -> Matrix:
    """``basis`` if it has one column, else corrupted input data."""
    if basis.ncols != 1:
        raise HopfDataError(
            f"{what} space of {H.name} has dimension {basis.ncols}, "
            "expected 1: corrupted input data"
        )
    return basis


def cointegral_space(H: HopfAlgebra, side: str) -> Matrix:
    """Basis (one column) of left or right cointegrals in H.

    The conditions h Lambda = eps(h) Lambda (left) and Lambda h = eps(h)
    Lambda (right) are stacked over the algebra generators only (``(0,)``,
    the unit, for H = k): the h meeting either form a subalgebra containing
    1, since eps is an algebra map, so the kernel and its canonical basis
    are those of every basis h.
    """
    mult = H.left_mult_matrix if side == "left" else H.right_mult_matrix
    return _line(H, _eigen_space(H, mult, H.counit, H.algebra_generators() or (0,)),
                 f"{side} cointegral")


def _dual_regular_matrices(H: HopfAlgebra, side: str) -> list[Matrix]:
    """Matrices of ``phi -> phi e^j`` (right) or ``phi -> e^i phi`` (left) on
    H* in the dual basis: ``R_j[k][i] = c_k^{ij}`` and ``L_i[k][j] = c_k^{ij}``."""
    n = H.dim
    slices = [{} for _ in range(n)]
    for k, terms in enumerate(H.comult):
        for (i, j), c in terms.items():
            if side == "right":
                slices[j][(k, i)] = c
            else:
                slices[i][(k, j)] = c
    return [Matrix.from_entries(H.field, n, n, e) for e in slices]


def integral_space(H: HopfAlgebra, side: str) -> Matrix:
    """Basis (one column) of left or right integrals in H*.

    The eigenspace of the regular action of H* with the counit of H* as
    eigenvalue: lambda e^j = e^j(1) lambda (right) or e^i lambda = e^i(1)
    lambda (left).
    """
    mats = _dual_regular_matrices(H, side)
    return _line(H, _eigen_space(H, mats.__getitem__, H.unit, range(H.dim)),
                 f"{side} integral")


def alpha_left_ideal(H: HopfAlgebra, alpha: list) -> Matrix:
    """Basis of ``{x in H : h x = alpha(h) x for all h}``."""
    return _eigen_space(H, H.left_mult_matrix, alpha, range(H.dim))


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


# -- roots in F of one polynomial, coefficients low degree first ---------------

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


def _poly_powmod(field: Field, base: list, k: int, m: list) -> list:
    """``base^k mod m``, by repeated squaring."""
    def mulmod(a, b):
        return _poly_trim(field, _poly_divmod(field, _poly_mul(field, a, b), m)[1])

    acc = [field.one]
    while k:
        if k & 1:
            acc = mulmod(acc, base)
        base = mulmod(base, base)
        k >>= 1
    return acc


def _prime_field_roots(f: PrimeField, poly: list) -> list:
    """Roots of ``poly`` in GF(p).  Its gcd with x^p - x is the product of
    x - r over them, split by gcds with (x + d)^((p-1)/2) - 1 (von zur Gathen
    and Gerhard, *Modern Computer Algebra*, ch. 14)."""
    def split(g):
        if len(g) <= 2:
            return [f.neg(g[0])] if len(g) == 2 else []
        if f.p == 2:  # (p - 1)/2 = 0; x^2 + x is the one split g of degree 2
            return [0, 1]
        for d in range(f.p):  # r - s for two roots r != s: some d tells them apart
            h = _poly_gcd(f, g, _poly_sub(f, _poly_powmod(f, [d, 1], (f.p - 1) // 2, g), [1]))
            if 2 <= len(h) < len(g):
                return split(h) + split(_poly_divmod(f, g, h)[0])
        raise AssertionError(f"{g} does not split over {f.spec}")

    return split(_poly_gcd(f, poly, _poly_sub(f, _poly_powmod(f, [0, 1], f.p, poly), [0, 1])))


def _rational_roots(coeffs: list) -> list:
    """Rational roots of a monic rational polynomial p.  With D clearing its
    denominators, q(y) = D^deg p(y / D) is monic over Z, so its rational roots
    are integers within the Cauchy bound B: the roots of q mod a prime P > 2B,
    read in (-P/2, P/2) and tested exactly."""
    D, deg = math.lcm(*(c.denominator for c in coeffs)), len(coeffs) - 1
    q = [int(c * D ** (deg - i)) for i, c in enumerate(coeffs)]
    P = 2 * max(map(abs, q)) + 3
    while not _is_prime(P):
        P += 2
    found = _prime_field_roots(PrimeField(P), [c % P for c in q])
    found = [r if 2 * r < P else r - P for r in found]
    return sorted(Fraction(r, D) for r in found if sum(c * r ** i for i, c in enumerate(q)) == 0)


def _roots(field: Field, poly: list):
    """``(roots, unsplit)``: the sorted roots in ``field`` of the monic
    ``poly`` that the search finds, and the factor they leave, or None when
    they are all the roots.  That holds over GF(p) and Q.  Over Q(zeta_n)
    the candidates are the roots of unity +-zeta^k and the rational roots of
    the rational part of ``poly`` (a rational root zeroes every coordinate).
    """
    if isinstance(field, PrimeField):
        return sorted(_prime_field_roots(field, poly)), None
    if isinstance(field, RationalField):
        return _rational_roots(poly), None
    candidates = [field.coerce(r) for r in _rational_roots([Fraction(c[0], c[-1]) for c in poly])]
    candidates += [field.pow(z, k) for z in (field.zeta, field.neg(field.zeta))
                   for k in range(field.n)]
    roots = set()
    for r in candidates:  # divide each root out as often as it divides
        while (qr := _poly_divmod(field, poly, [field.neg(r), field.one]))[1][0] == field.zero:
            poly = qr[0]
            roots.add(r)
    if len(poly) == 2:  # a linear factor has its root in F
        roots.add(field.neg(poly[0]))
    return sorted(roots), (poly if len(poly) > 2 else None)


def _char_poly(f: Field, A: Matrix) -> list:
    """Characteristic polynomial of the square ``A``, monic, through its
    Hessenberg form (Cohen, *A Course in Computational Algebraic Number
    Theory*, 1993, alg. 2.2.9)."""
    n, h = A.nrows, A.dense()
    for m in range(1, n - 1):  # clear column m - 1 below row m by similarities
        i = next((i for i in range(m, n) if h[i][m - 1] != f.zero), None)
        if i is None:
            continue
        h[i], h[m] = h[m], h[i]
        for row in h:
            row[i], row[m] = row[m], row[i]
        t = f.inv(h[m][m - 1])
        for i in range(m + 1, n):
            if (u := f.mul(h[i][m - 1], t)) != f.zero:
                h[i] = [f.sub(x, f.mul(u, y)) for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = f.add(row[m], f.mul(u, row[i]))
    # p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i
    polys = [[f.one]]
    for m in range(n):
        p = _poly_sub(f, [f.zero] + polys[m], [f.mul(h[m][m], c) for c in polys[m]])
        prod = f.one
        for i in range(m - 1, -1, -1):
            if (prod := f.mul(prod, h[i + 1][i])) == f.zero:
                break
            p = _poly_sub(f, p, [f.mul(f.mul(h[i][m], prod), c) for c in polys[i]])
        polys.append(p)
    return polys[n]


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
    """Whether a line ``v`` of the intertwiner space V is a pivot: the search's
    one test of a candidate.  v lies in V = {v : S^2(h) v = v h}, and a
    grouplike v has v S(v) = eps(v) 1 = 1, so of the three pivot conditions
    only "grouplike" and g^2 = a are left to test."""
    return (H.is_grouplike(v)
            and H.multiply(v, v) == normalized_pair(H).distinguished_grouplike)


def _intertwiner_space(H: HopfAlgebra) -> Matrix:
    """Nullspace of ``S^2(h) v = v h`` over all h, stacked over the algebra
    generators only (``(0,)``, the unit, for H = k): S^2 is an algebra map,
    so the h meeting it form a subalgebra containing 1, and the kernel and
    its canonical basis are those of every basis h."""
    S2 = H.antipode_squared()
    return stacked_nullspace([H.element_left_mult(S2.col_list(i)) - H.right_mult_matrix(i)
                              for i in H.algebra_generators() or (0,)])


def _grouplike_space(W: Matrix, eps: list):
    """``(B, P)``: the reduced echelon basis B (rows) of the row space of ``W``
    and its pivot columns P; None when eps vanishes there (no grouplike)."""
    R, rank, pivots = W.rref()
    B = Matrix.from_rows(W.field, [R.row_list(r) for r in range(rank)])
    return (B, pivots) if rank and any(x != W.field.zero for x in B.apply(eps)) else None


def pivot_candidates(H: HopfAlgebra):
    """All pivots of H: the grouplikes g in the intertwiner space V of
    S^2(h) v = v h that pass ``_is_pivot``; the unit first, then basis
    vectors in basis order, then the rest in the search's order.

    g is a joint eigenvector of R_j(v) = v_(1) e^j(v_(2)), R_j[i][k] = c_k^{ij},
    with eigenvalue g_j, and a joint eigenspace of all R_j is
    {v : Delta(v) = v ox g'}, at most a line (Montgomery, *Hopf Algebras and
    Their Actions on Rings*, 1993).  So the search peels V: for j = 0, 1, ...
    a space of dim >= 2, with reduced echelon basis B and pivot columns P,
    becomes the spaces {B c : phi(R_j) B c = 0}, one for each x - l over the
    roots l in F of the characteristic polynomial of (R_j B)_P (for g = B c,
    (R_j B)_P c = g_j c), and one for the factor ``_roots`` leaves unsplit.
    Spaces where eps vanishes are dropped.  Each grouplike of V stays in
    exactly one space, so the lines left hold every pivot, unless an unsplit
    factor (over Q(zeta_n) only) leaves a space of dim >= 2: then
    PivotSearchInconclusive carries the pivots found and names the factor.
    """
    f, eps = H.field, list(H.counit)
    V = _grouplike_space(_intertwiner_space(H).transpose(), eps)
    spaces = [(*V, None)] if V else []  # (B, P, the last unsplit factor)
    for Rt in _dual_regular_matrices(H, "right"):  # R_j transposed
        if all(B.nrows == 1 for B, _, _ in spaces):
            break
        peeled = []
        for B, P, note in spaces:
            if B.nrows == 1:
                peeled.append((B, P, note))
                continue
            powers = [B, B @ Rt]  # rows R_j^k b for the basis rows b of B
            Mt = Matrix.from_rows(f, [[row[p] for p in P] for row in powers[1].dense()])
            roots, unsplit = _roots(f, _char_poly(f, Mt))
            for phi in [[f.neg(lam), f.one] for lam in roots] + ([unsplit] if unsplit else []):
                while len(powers) < len(phi):
                    powers.append(powers[-1] @ Rt)
                N = Matrix.combination(f, B.nrows, H.dim, zip(phi, powers)).transpose().nullspace()
                if (child := _grouplike_space(N.transpose() @ B, eps)):
                    peeled.append((*child, phi if phi is unsplit else note))
        spaces = peeled
    lines = [B.row_list(0) for B, _, _ in spaces if B.nrows == 1]
    found = [g for g in (vec_scale(f, f.inv(H.counit_apply(v)), v) for v in lines)
             if _is_pivot(H, g)]
    fixed = [H.unit_vector()] + [H.basis_vector(i) for i in range(H.dim)]
    pivots = [PivotData(g=v) for v in sorted(
        found, key=lambda v: fixed.index(v) if v in fixed else len(fixed))]
    left = [note for B, _, note in spaces if B.nrows > 1]
    if left:
        raise PivotSearchInconclusive(
            f"pivot search inconclusive for {H.name}: the rational roots and roots of unity "
            f"of {f.spec} do not split the eigenvalue polynomial {H.format_vector(left[0])} "
            f"(constant term first), so {len(left)} space(s) of dim >= 2 remain", pivots)
    return pivots


def is_spherical_hmod(H: HopfAlgebra):
    """(spherical?, chosen pivot): unimodular and unibalanced-pivotal.

    The chosen pivot is the first ``pivot_candidates`` lists: the unit if
    valid, else the first valid basis vector, else the first of the rest.  An
    inconclusive search that found a pivot still decides H spherical with it;
    one that found none propagates PivotSearchInconclusive.
    """
    if not is_unimodular(H):
        return False, None
    try:
        pivots = pivot_candidates(H)
    except PivotSearchInconclusive as exc:
        if not exc.pivots:
            raise
        pivots = exc.pivots
    return (True, pivots[0]) if pivots else (False, None)
