"""Builtin verification corpus: group algebras, duals, Sweedler H4, Taft.

Basis orders are fixed so every derived matrix is byte-reproducible:
group algebras follow the group table's element order, Taft algebras use
``g^i x^j`` sorted lexicographically by ``(i, j)``, Sweedler H4 uses
``{1, g, x, gx}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .fields import Field, FieldError, primitive_root_of_unity
from .hopf import HopfAlgebra, HopfDataError, hopf_make
from .linalg import sparse_sum

__all__ = [
    "GroupTable",
    "group_algebra",
    "dual_group_algebra",
    "sweedler_h4",
    "taft",
    "find_nontrivial_idempotent",
]


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a Cayley table over element indices."""

    order: int
    cayley: tuple  # cayley[i][j] = index of g_i g_j
    inverse: tuple
    identity: int
    names: tuple

    def __post_init__(self):
        n = self.order
        if len(self.cayley) != n or any(len(r) != n for r in self.cayley):
            raise HopfDataError("Cayley table must be order x order")
        c = self.cayley
        e = self.identity
        for i in range(n):
            if c[e][i] != i or c[i][e] != i:
                raise HopfDataError(f"identity axiom fails at element {i}")
            if c[i][self.inverse[i]] != e or c[self.inverse[i]][i] != e:
                raise HopfDataError(f"inverse axiom fails at element {i}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if c[c[i][j]][k] != c[i][c[j][k]]:
                        raise HopfDataError(
                            f"associativity fails at elements ({i},{j},{k})"
                        )

    @classmethod
    def from_table(cls, cayley, names=None) -> "GroupTable":
        n = len(cayley)
        cayley = tuple(tuple(r) for r in cayley)
        ident = None
        for e in range(n):
            if all(cayley[e][i] == i and cayley[i][e] == i for i in range(n)):
                ident = e
                break
        if ident is None:
            raise HopfDataError("table has no identity element")
        inverse = []
        for i in range(n):
            inv = [j for j in range(n) if cayley[i][j] == ident]
            if len(inv) != 1:
                raise HopfDataError(f"element {i} has no unique inverse")
            inverse.append(inv[0])
        if names is None:
            names = tuple(f"g{i}" for i in range(n))
        return cls(n, cayley, tuple(inverse), ident, tuple(names))

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        if n < 1:
            raise HopfDataError("cyclic group order must be >= 1")
        cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
        names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
        return cls.from_table(cayley, names)

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        """S_n on one-line permutations in lexicographic order."""
        if n < 1 or n > 5:
            raise HopfDataError("symmetric groups supported for 1 <= n <= 5")
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        # composition convention: (p o q)(x) = p(q(x))
        cayley = [
            [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
        ]
        names = ["".join(str(x) for x in p) for p in perms]
        return cls.from_table(cayley, names)


def group_algebra(G: GroupTable, field: Field, name: str | None = None) -> HopfAlgebra:
    """k[G]: Delta(g) = g ox g, eps(g) = 1, S(g) = g^{-1}."""
    n = G.order
    zero, one = field.zero, field.one
    mult = [(i, j, G.cayley[i][j], one) for i in range(n) for j in range(n)]
    comult = [(i, i, i, one) for i in range(n)]
    antipode = [(G.inverse[i], i, one) for i in range(n)]
    unit = [zero] * n
    unit[G.identity] = one
    counit = [one] * n
    return hopf_make(field, G.names, mult, unit, comult, counit, antipode,
                     name=name or f"group[{n}]")


def dual_group_algebra(G: GroupTable, field: Field, name: str | None = None) -> HopfAlgebra:
    """Functions on G, i.e. the dual Hopf algebra of k[G]."""
    H = group_algebra(G, field)
    return H.dual_hopf(name=name or f"dualgroup[{G.order}]")


def sweedler_h4(field: Field, name: str = "sweedler") -> HopfAlgebra:
    """Sweedler's 4-dimensional Hopf algebra on basis {1, g, x, gx}.

    Relations: g^2 = 1, x^2 = 0, xg = -gx; Delta g = g ox g,
    Delta x = x ox 1 + g ox x; S(g) = g, S(x) = -gx.
    """
    if field.characteristic() == 2:
        raise FieldError("Sweedler H4 needs characteristic != 2")
    one = field.one
    m1 = field.neg(one)
    zero = field.zero
    I, Gg, X, GX = 0, 1, 2, 3
    mult = [(I, j, j, one) for j in range(4)] + [  # 1 * e_j
        (Gg, I, Gg, one),
        (Gg, Gg, I, one),                 # g g = 1
        (Gg, X, GX, one),                 # g x = gx
        (Gg, GX, X, one),                 # g gx = x
        (X, I, X, one),
        (X, Gg, GX, m1),                  # x g = -gx; x x = x gx = 0
        (GX, I, GX, one),
        (GX, Gg, X, m1),                  # gx g = -x
    ]
    comult = [
        (I, I, I, one),                   # Delta 1
        (Gg, Gg, Gg, one),                # Delta g
        (X, X, I, one), (X, Gg, X, one),  # Delta x = x ox 1 + g ox x
        (GX, GX, Gg, one), (GX, I, GX, one),  # Delta gx = gx ox g + 1 ox gx
    ]
    unit = [one, zero, zero, zero]
    counit = [one, one, zero, zero]
    antipode = [
        (I, I, one),
        (Gg, Gg, one),
        (GX, X, m1),                      # S(x) = -gx
        (X, GX, one),                     # S(gx) = x
    ]
    return hopf_make(field, ("1", "g", "x", "gx"), mult, unit, comult, counit,
                     antipode, name=name)


def _monomial(*powers) -> str:
    """Basis name of a PBW monomial: ``g2x`` for ``("g", 2), ("x", 1)``, ``1`` if empty."""
    return "".join(s if k == 1 else f"{s}{k}" for s, k in powers if k) or "1"


def _gauss_binomials(field: Field, n: int, q):
    """Triangle of q-binomials [j choose t]_q for 0 <= t <= j < n."""
    rows = [[field.one]]
    for j in range(1, n):
        prev = rows[-1]
        row = [field.one]
        for t in range(1, j):
            # q-Pascal: [j,t] = [j-1,t-1] + q^t [j-1,t]
            row.append(field.add(prev[t - 1], field.mul(field.pow(q, t), prev[t])))
        row.append(field.one)
        rows.append(row)
    return rows


def taft(n: int, field: Field, name: str | None = None) -> HopfAlgebra:
    """Taft algebra of dimension n^2: g^n = 1, x^n = 0, xg = q gx.

    Needs a primitive n-th root of unity q in the field; basis ``g^i x^j``
    ordered lexicographically by ``(i, j)``.  ``taft(2, Q)`` is Sweedler H4
    up to basis order.
    """
    if n < 2:
        raise FieldError("Taft algebras need n >= 2")
    q = primitive_root_of_unity(field, n)
    dim = n * n
    zero = field.zero
    one = field.one

    def idx(i, j):
        return i * n + j

    qpow = [field.pow(q, k) for k in range(n * n + 1)]
    binom = _gauss_binomials(field, n, q)
    # (g^i x^j)(g^k x^l) = q^{jk} g^{i+k} x^{j+l}
    mult = [(idx(i, j), idx(k, l), idx((i + k) % n, j + l), qpow[j * k])
            for i in range(n) for j in range(n) for k in range(n) for l in range(n - j)]
    # Delta(g^i x^j) = sum_t [j,t]_q g^{i+t} x^{j-t} ox g^i x^t
    comult = [(idx(i, j), idx((i + t) % n, j - t), idx(i, t), binom[j][t])
              for i in range(n) for j in range(n) for t in range(j + 1)]
    unit = [zero] * dim
    unit[idx(0, 0)] = one
    counit = [zero] * dim
    for i in range(n):
        counit[idx(i, 0)] = one
    antipode = []
    for i in range(n):
        for j in range(n):
            # S(g^i x^j) = (-1)^j q^{-j(j-1)/2 - ij} g^{-i-j} x^j
            e = (-(j * (j - 1) // 2) - i * j) % n
            c = qpow[e]
            if j % 2:
                c = field.neg(c)
            antipode.append((idx((-i - j) % n, j), idx(i, j), c))
    names = [_monomial(("g", i), ("x", j)) for i in range(n) for j in range(n)]
    return hopf_make(field, names, mult, unit, comult, counit, antipode,
                     name=name or f"taft:{n}")


def small_quantum_sl2(n: int, field: Field, name: str | None = None) -> HopfAlgebra:
    """Restricted quantum sl2 at a primitive odd n-th root of unity q.

    Dimension n^3, PBW basis ``F^a K^b E^c`` in lexicographic (a, b, c) order.
    Relations: K^n = 1, E^n = F^n = 0, KE = q^2 EK, KF = q^{-2} FK,
    EF - FE = (K - K^{-1})/(q - q^{-1}); Delta(K) = K ox K,
    Delta(E) = 1 ox E + E ox K, Delta(F) = K^{-1} ox F + F ox 1;
    S(K) = K^{-1}, S(E) = -E K^{-1}, S(F) = -K F.  Optional stretch corpus
    entry; everything below is re-verified by the axiom suite.
    """
    if n < 3 or n % 2 == 0:
        raise FieldError("small quantum sl2 needs an odd n >= 3")
    q = primitive_root_of_unity(field, n)
    lam = field.sub(q, field.inv(q))  # q - q^{-1}, nonzero since n > 2
    lam_inv = field.inv(lam)
    dim = n ** 3
    zero = field.zero
    one = field.one

    powers = [field.pow(q, k) for k in range(n)]

    def qpow(m: int):
        return powers[m % n]

    # [m]_q = (q^m - q^{-m}) / (q - q^{-1}) for 0 <= m < n
    qint = [field.mul(field.sub(qpow(m), qpow(-m)), lam_inv) for m in range(n)]

    def idx(a, b, c):
        return (a * n + b) * n + c

    # left multiplication by the generators on a PBW monomial; F and K send
    # distinct monomials to distinct monomials, so their images need no sum
    def mul_F(elem):
        return {(a + 1, b, c): v for (a, b, c), v in elem.items() if a + 1 < n}

    def mul_K(elem):
        # K F^a = q^{-2a} F^a K
        return {(a, (b + 1) % n, c): field.mul(v, qpow(-2 * a))
                for (a, b, c), v in elem.items()}

    def mul_E(elem):
        def terms():
            for (a, b, c), v in elem.items():
                # E F^a = F^a E + [a] F^{a-1} (q^{-(a-1)} K - q^{a-1} K^{-1})/lam
                if c + 1 < n:
                    yield (a, b, c + 1), field.mul(v, qpow(-2 * b))
                if a > 0:
                    w = field.mul(v, qint[a])
                    yield (a - 1, (b + 1) % n, c), field.mul(w, qpow(-(a - 1)))
                    yield (a - 1, (b - 1) % n, c), field.neg(field.mul(w, qpow(a - 1)))

        return sparse_sum(field, terms())

    def mul_monomial(mono, elem):
        a, b, c = mono
        for _ in range(c):
            elem = mul_E(elem)
        for _ in range(b):
            elem = mul_K(elem)
        for _ in range(a):
            elem = mul_F(elem)
        return elem

    def prod(x: dict, y: dict) -> dict:
        return sparse_sum(field, ((key, field.mul(v, w)) for mono, v in x.items()
                                  for key, w in mul_monomial(mono, y).items()))

    monomials = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    mult = [(idx(*m1), idx(*m2), idx(*key), v)
            for m1 in monomials for m2 in monomials
            for key, v in mul_monomial(m1, {m2: one}).items()]

    # coproduct: powers of Delta(F), Delta(K), Delta(E) in H ox H
    def prod_tensor(x: dict, y: dict) -> dict:
        def terms():
            for (l1, r1), v in x.items():
                for (l2, r2), w in y.items():
                    vw = field.mul(v, w)
                    for kl, cl in mul_monomial(l1, {l2: one}).items():
                        for kr, cr in mul_monomial(r1, {r2: one}).items():
                            yield (kl, kr), field.mul(vw, field.mul(cl, cr))

        return sparse_sum(field, terms())

    unit_t = {((0, 0, 0), (0, 0, 0)): one}
    dF = {((0, n - 1, 0), (1, 0, 0)): one, ((1, 0, 0), (0, 0, 0)): one}
    dK = {((0, 1, 0), (0, 1, 0)): one}
    dE = {((0, 0, 0), (0, 0, 1)): one, ((0, 0, 1), (0, 1, 0)): one}
    powF, powK, powE = [unit_t], [unit_t], [unit_t]
    for _ in range(n - 1):
        powF.append(prod_tensor(powF[-1], dF))
        powK.append(prod_tensor(powK[-1], dK))
        powE.append(prod_tensor(powE[-1], dE))
    comult = [(idx(a, b, c), idx(*l), idx(*r), v)
              for (a, b, c) in monomials
              for (l, r), v in prod_tensor(powF[a], prod_tensor(powK[b], powE[c])).items()]

    unit = [zero] * dim
    unit[idx(0, 0, 0)] = one
    counit = [zero] * dim
    for b in range(n):
        counit[idx(0, b, 0)] = one

    # antipode: S(F^a K^b E^c) = S(E)^c S(K)^b S(F)^a
    sF = {(1, 1, 0): field.neg(qpow(-2))}     # -K F = -q^{-2} F K
    sK = {(0, n - 1, 0): one}
    sE = {(0, n - 1, 1): field.neg(qpow(2))}  # -E K^{-1} = -q^2 K^{-1} E
    spF, spK, spE = [{(0, 0, 0): one}], [{(0, 0, 0): one}], [{(0, 0, 0): one}]
    for _ in range(n - 1):
        spF.append(prod(spF[-1], sF))
        spK.append(prod(spK[-1], sK))
        spE.append(prod(spE[-1], sE))
    antipode = [(idx(*key), idx(a, b, c), v)
                for (a, b, c) in monomials
                for key, v in prod(spE[c], prod(spK[b], spF[a])).items()]

    names = [_monomial(("F", a), ("K", b), ("E", c)) for (a, b, c) in monomials]
    return hopf_make(field, names, mult, unit, comult, counit, antipode,
                     name=name or f"uqsl2:{n}")


def find_nontrivial_idempotent(H: HopfAlgebra) -> list | None:
    """A deterministic idempotent a with a*a = a and a not in {0, 1}.

    Tries idempotent basis vectors first, then the normalized sum of the
    grouplike basis vectors when their count is invertible.  Returns None if
    neither works.
    """
    f = H.field
    one_vec = H.unit_vector()
    for i in range(H.dim):
        e = H.basis_vector(i)
        if H.multiply(e, e) == e and e != one_vec:
            return e
    grouplike = [i for i in range(H.dim) if H.is_grouplike(H.basis_vector(i))]
    k = len(grouplike)
    if k >= 2:
        kf = f.from_int(k)
        if kf != f.zero:
            inv = f.inv(kf)
            v = H.zero_vector()
            for i in grouplike:
                v[i] = inv
            if H.multiply(v, v) == v and v != one_vec:
                return v
    return None
