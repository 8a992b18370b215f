"""Independent checks of hopfchrom's outputs, in the benchmark's own arithmetic.

The package is asked only for the exported structure constants of a builtin
(``fileformat.algebra_to_dict``, every scalar a string) and, for the split
summand of the ``check`` grid, for the idempotent that ``check`` splits off.
Everything else is recomputed here with plain Python integers (GF(p)) or
``Fraction`` coefficient vectors (Q and Q(zeta_n)): products in H, coproducts,
the antipode, and the rank of right multiplication by the idempotent.  The
checks are properties of the outputs, not stored copies of earlier output.
"""

from __future__ import annotations

from fractions import Fraction


class PrimeArith:
    """GF(p) on Python integers."""

    def __init__(self, p: int):
        self.p, self.zero, self.one = p, 0, 1

    def parse(self, text: str) -> int:
        return int(text) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


class RationalArith:
    """Q on Fractions."""

    zero, one = Fraction(0), Fraction(1)

    def parse(self, text: str) -> Fraction:
        return Fraction(text)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, lowest degree first."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                c = poly[i + len(div) - 1]  # Phi_d is monic
                quot[i] = c
                for j, dj in enumerate(div):
                    poly[i + j] -= c * dj
            poly = quot
    return poly


class CyclotomicArith:
    """Q(zeta_n) as coefficient tuples reduced modulo Phi_n."""

    def __init__(self, n: int):
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self.zero = tuple([Fraction(0)] * self.degree)
        self.one = self.reduce([Fraction(1)])
        self.zeta_powers = [self.reduce([0] * k + [1]) for k in range(n)]

    def reduce(self, coeffs) -> tuple:
        c = [Fraction(x) for x in coeffs] + [Fraction(0)] * self.degree
        for top in range(len(c) - 1, self.degree - 1, -1):
            lead = c[top]
            if lead:
                for j, m in enumerate(self.modulus):
                    c[top - self.degree + j] -= lead * m
        return tuple(c[: self.degree])

    def parse(self, text: str) -> tuple:
        body = text.strip()[1:-1]
        return self.reduce([Fraction(x) for x in body.split(",")] if body else [])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.degree)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.reduce(out)

    def conjugate(self, a, k: int):
        """The Galois image zeta -> zeta^k."""
        out = self.zero
        for i, x in enumerate(a):
            if x:
                out = self.add(out, tuple(x * z for z in self.zeta_powers[i * k % self.n]))
        return out

    def inv(self, a):
        # a times its other conjugates is the norm, a nonzero rational
        others = self.one
        for k in range(2, self.n):
            if _gcd(k, self.n) == 1:
                others = self.mul(others, self.conjugate(a, k))
        norm = self.mul(a, others)[0]
        return tuple(x / norm for x in others)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def arith_for(field: dict):
    """Arithmetic for an exported field description."""
    kind = field["kind"]
    if kind == "prime-field":
        return PrimeArith(field["p"])
    if kind == "rationals":
        return RationalArith()
    if kind == "cyclotomic":
        return CyclotomicArith(field["n"])
    raise ValueError(f"unknown field kind {kind!r}")


class Algebra:
    """Structure constants of an exported Hopf algebra, in own arithmetic."""

    def __init__(self, exported: dict):
        self.k = k = arith_for(exported["field"])
        self.dim = exported["dim"]
        self.unit = [k.parse(s) for s in exported["unit"]]
        self.counit = [k.parse(s) for s in exported["counit"]]
        self.mult: dict = {}      # (i, j) -> {k: c}
        for i, j, t, s in exported["mult"]:
            self.mult.setdefault((i, j), {})[t] = k.parse(s)
        self.comult: dict = {}    # t -> {(i, j): c}
        for t, i, j, s in exported["comult"]:
            self.comult.setdefault(t, {})[(i, j)] = k.parse(s)
        self.antipode: dict = {}  # j -> {i: c} with S(e_j) = sum_i c e_i
        for i, j, s in exported["antipode"]:
            self.antipode.setdefault(j, {})[i] = k.parse(s)

    def vector(self, strings) -> list:
        return [self.k.parse(s) for s in strings]

    def basis(self, i: int) -> list:
        v = [self.k.zero] * self.dim
        v[i] = self.k.one
        return v

    def multiply(self, x: list, y: list) -> list:
        k = self.k
        out = [k.zero] * self.dim
        for (i, j), terms in self.mult.items():
            if x[i] != k.zero and y[j] != k.zero:
                xy = k.mul(x[i], y[j])
                for t, c in terms.items():
                    out[t] = k.add(out[t], k.mul(xy, c))
        return out

    def scale(self, s, x: list) -> list:
        return [self.k.mul(s, v) for v in x]

    def antipode_apply(self, x: list) -> list:
        k = self.k
        out = [k.zero] * self.dim
        for j, xj in enumerate(x):
            if xj != k.zero:
                for i, c in self.antipode.get(j, {}).items():
                    out[i] = k.add(out[i], k.mul(xj, c))
        return out

    def pair(self, phi: list, x: list):
        k = self.k
        acc = k.zero
        for a, b in zip(phi, x):
            acc = k.add(acc, k.mul(a, b))
        return acc

    def is_grouplike(self, g: list) -> bool:
        k = self.k
        if self.pair(self.counit, g) != k.one:
            return False
        delta: dict = {}
        for t, gt in enumerate(g):
            if gt != k.zero:
                for key, c in self.comult.get(t, {}).items():
                    delta[key] = k.add(delta.get(key, k.zero), k.mul(gt, c))
        for i, gi in enumerate(g):
            for j, gj in enumerate(g):
                if delta.get((i, j), k.zero) != k.mul(gi, gj):
                    return False
        return True

    def rank_of_right_mult(self, e: list) -> int:
        """Rank of h -> h e, by Gauss-Jordan elimination."""
        k = self.k
        rows = [self.multiply(self.basis(i), e) for i in range(self.dim)]
        rank = 0
        for col in range(self.dim):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != k.zero), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            scale = k.inv(rows[rank][col])
            rows[rank] = [k.mul(scale, v) for v in rows[rank]]
            for r in range(len(rows)):
                f = rows[r][col]
                if r != rank and f != k.zero:
                    rows[r] = [k.add(v, k.neg(k.mul(f, p))) for v, p in zip(rows[r], rows[rank])]
            rank += 1
        return rank


def split_dimension(A: Algebra, idempotent_strings) -> int:
    """dim H e for the idempotent e that ``check`` splits off."""
    e = A.vector(idempotent_strings)
    if A.multiply(e, e) != e:
        raise ValueError("the split element is not idempotent")
    return A.rank_of_right_mult(e)


def grid_problems(payload: dict, expected_dims: dict) -> list[str]:
    """Problems with a ``check --json`` grid; ``expected_dims`` maps every
    expected (side, P label, X label) to its identity dimension."""
    problems = []
    if payload.get("all_equal") is not True:
        problems.append("all_equal is not true")
    if payload.get("fault_notes"):
        problems.append(f"fault notes: {payload['fault_notes']}")
    grid = payload.get("grid", [])
    rows = sorted((r["side"], r["P"], r["X"]) for r in grid)
    if rows != sorted(expected_dims):
        problems.append(f"grid rows {rows} are not {sorted(expected_dims)}")
    for r in grid:
        key = (r["side"], r["P"], r["X"])
        if r.get("equal") is not True:
            problems.append(f"{key} not equal")
        if key in expected_dims and r.get("identity_dim") != expected_dims[key]:
            problems.append(f"{key} identity_dim {r.get('identity_dim')} "
                            f"!= {expected_dims[key]}")
    return problems


def negative_control_problems(payload: dict, sides) -> list[str]:
    """Problems with a ``check --json`` grid run with ``--inject-fault``: the
    grid itself must reject the fault, with a row that is not equal on every
    side.  A fault note alone (the H-linearity test) does not count."""
    problems = []
    if payload.get("all_equal") is not False:
        problems.append("all_equal is not false")
    for side in sides:
        rows = [r for r in payload.get("grid", []) if r["side"] == side]
        if not any(r.get("equal") is False for r in rows):
            problems.append(f"no {side} row rejects the fault")
    return problems


def integrals_problems(payload: dict, A: Algebra) -> list[str]:
    """Problems with an ``integrals --json`` payload of a unimodular,
    spherical algebra, recomputed from its structure constants."""
    k = A.k
    problems = []
    Lam = A.vector(payload["left_cointegral"])
    lam = A.vector(payload["right_integral"])
    a = A.vector(payload["distinguished_grouplike"])
    if all(v == k.zero for v in Lam):
        problems.append("Lambda is zero")
    for h in range(A.dim):
        if A.multiply(A.basis(h), Lam) != A.scale(A.counit[h], Lam):
            problems.append(f"h Lambda != eps(h) Lambda at basis {h}")
            break
    if A.pair(lam, Lam) != k.one:
        problems.append("lambda(Lambda) != 1")
    if A.vector(payload["alpha"]) != A.counit or payload.get("unimodular") is not True:
        problems.append("not reported unimodular (alpha != eps)")
    pivots = [A.vector(g) for g in payload["pivot_candidates"]]
    if not pivots:
        problems.append("no pivot reported")
    for g in pivots:
        if not A.is_grouplike(g):
            problems.append(f"pivot {g} is not grouplike")
        for h in range(A.dim):
            e_h = A.basis(h)
            s2 = A.antipode_apply(A.antipode_apply(e_h))
            if A.multiply(s2, g) != A.multiply(g, e_h):
                problems.append(f"S^2(h) g != g h at basis {h} for pivot {g}")
                break
        if A.multiply(g, g) != a:
            problems.append(f"g^2 != a for pivot {g}")
    if payload.get("spherical") is not True:
        problems.append("not reported spherical")
    return problems
