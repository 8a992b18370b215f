"""Finite-dimensional Hopf algebras as structure-constant data.

``hopf_make`` runs the full bialgebra/antipode axiom suite and fails
atomically, naming the violated axiom and the basis indices of the first
offending coefficient.  Everything downstream may therefore assume a genuine
Hopf algebra.  Both sides of each axiom are contracted from the sparse
tensors, with no Kronecker product and no matrix side above ``n^2``;
associativity and ``Delta(xy) = Delta(x) Delta(y)`` are decided on the
columns of the algebra generators (``_algebra_generators``, ``_verify_axioms``).

``hopf_make`` takes the sparse terms of the algebra file format
(docs/file-format.md), summed over repeated indices, and stores them sparsely
(basis ``e_0 .. e_{n-1}``):

  * ``mult`` terms ``(i, j, k, c)``, ``e_i e_j += c e_k``: ``mult[i][j]`` is ``{k: m_ijk}``,
  * ``comult`` terms ``(k, i, j, c)``, ``Delta(e_k) += c e_i ox e_j``:
    ``comult[k]`` is ``{(i, j): c_kij}``,
  * ``antipode`` terms ``(i, j, c)``, ``S(e_j) += c e_i``: the matrix ``S[i][j]``,
  * elements of H (and of H*, in the dual basis) are dense payload lists.

Tensor legs are flattened row-major and left-nested: ``(i, j) -> i*n + j``.
"""

from __future__ import annotations

from .fields import Field
from .linalg import Matrix, SingularMatrixError, _Echelon, sparse_sum

__all__ = [
    "HopfAlgebra",
    "HopfAxiomError",
    "HopfDataError",
    "hopf_make",
    "vec_scale",
    "pairing",
]


# Largest dim H a file or builtin name may ask for, checked before any table or
# term list exists (verifying group:Z64 took 5 s and 100 MB on a 2-core Xeon).
MAX_DIM = 64


class HopfDataError(ValueError):
    """Structurally inconsistent input tensors (shape or entry errors)."""


class HopfAxiomError(ValueError):
    """A named Hopf-algebra axiom fails at specific basis indices."""

    def __init__(self, axiom: str, indices: tuple, detail: str = ""):
        self.axiom = axiom
        self.indices = indices
        msg = f"axiom violated: {axiom} at indices {indices}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# -- small dense-vector helpers ----------------------------------------------

def vec_scale(field: Field, s, a: list) -> list:
    return [field.mul(s, x) for x in a]


def pairing(field: Field, phi: list, v: list):
    """Dual pairing ``phi(v)`` of an H* element against an H element."""
    acc = field.zero
    for x, y in zip(phi, v):
        if x != field.zero and y != field.zero:
            acc = field.add(acc, field.mul(x, y))
    return acc


class HopfAlgebra:
    """Verified structure-constant Hopf algebra.  Build via :func:`hopf_make`."""

    def __init__(self, field, dim, basis_names, mult, unit, comult, counit,
                 antipode, antipode_inv, generators, name, _verified):
        if not _verified:
            raise HopfDataError("use hopf_make()")
        self.field = field
        self.dim = dim
        self.basis_names = tuple(basis_names)
        self.mult = mult          # tuple[tuple[dict[int, payload]]]
        self.unit = tuple(unit)   # coefficients of 1_H
        self.comult = comult      # tuple[dict[(int, int), payload]]
        self.counit = tuple(counit)
        self.antipode = antipode  # Matrix
        self._antipode_inv = antipode_inv  # Matrix, from the axiom suite
        self.name = name
        self._antipode_sq = None
        self._integral_data = None  # integrals.normalized_pair's verified result
        self._modules = {}  # hmod's regular, trivial and alpha modules, built once
        self._lambda_transforms = {}  # hmod.lambda_transform's, per (word, side)
        self._generators = generators  # _algebra_generators, from hopf_make
        self._left_mult = [None] * dim
        self._right_mult = [None] * dim

    # -- basic elements ------------------------------------------------------
    def basis_vector(self, i: int) -> list:
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def zero_vector(self) -> list:
        return [self.field.zero] * self.dim

    def unit_vector(self) -> list:
        return list(self.unit)

    def element(self, coeffs: dict[int, object] | list) -> list:
        """Dense element from a sparse ``{index: value}`` dict or a list."""
        if isinstance(coeffs, dict):
            v = self.zero_vector()
            for i, c in coeffs.items():
                v[i] = self.field.coerce(c)
            return v
        return [self.field.coerce(c) for c in coeffs]

    def format_vector(self, v: list) -> list[str]:
        return [self.field.format(x) for x in v]

    # -- algebra operations ----------------------------------------------------
    def multiply(self, a: list, b: list) -> list:
        """Bilinear extension of the multiplication tensor."""
        f = self.field
        zero = f.zero
        out = [zero] * self.dim
        for i, x in enumerate(a):
            if x == zero:
                continue
            row = self.mult[i]
            for j, y in enumerate(b):
                if y == zero:
                    continue
                xy = f.mul(x, y)
                for k, c in row[j].items():
                    out[k] = f.add(out[k], f.mul(xy, c))
        return out

    def algebra_generators(self) -> tuple:
        """Basis indices generating H as an algebra, found by ``hopf_make``
        (``_algebra_generators``); a map commuting with them commutes with H."""
        return self._generators

    def counit_apply(self, a: list):
        return pairing(self.field, list(self.counit), a)

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of ``v -> e_i v``."""
        if self._left_mult[i] is None:
            entries = {(k, j): c for j, col in enumerate(self.mult[i]) for k, c in col.items()}
            self._left_mult[i] = Matrix.from_entries(self.field, self.dim, self.dim, entries)
        return self._left_mult[i]

    def right_mult_matrix(self, j: int) -> Matrix:
        """Matrix of ``v -> v e_j``."""
        if self._right_mult[j] is None:
            entries = {(k, i): c for i, row in enumerate(self.mult) for k, c in row[j].items()}
            self._right_mult[j] = Matrix.from_entries(self.field, self.dim, self.dim, entries)
        return self._right_mult[j]

    def element_left_mult(self, a: list) -> Matrix:
        """Matrix of ``v -> a v``."""
        return self._element_mult(a, self.left_mult_matrix)

    def element_right_mult(self, a: list) -> Matrix:
        """Matrix of ``v -> v a``."""
        return self._element_mult(a, self.right_mult_matrix)

    def _element_mult(self, a: list, basis_matrix) -> Matrix:
        zero = self.field.zero
        terms = ((x, basis_matrix(i)) for i, x in enumerate(a) if x != zero)
        return Matrix.combination(self.field, self.dim, self.dim, terms)

    # -- coalgebra operations ---------------------------------------------------
    def coproduct(self, a: list) -> dict:
        """Sparse ``{(i, j): coeff}`` of ``Delta(a)``."""
        return self.coproduct_iter(1, a)

    def coproduct_iter(self, k: int, a: list) -> dict:
        """Sparse ``Delta^(k)(a)`` over basis (k+1)-tuples; ``Delta^(0) = id``.

        Uses the recursion ``Delta^(k) = (Delta ox id^{ox k-1}) Delta^(k-1)``;
        coassociativity (part of the verified axioms) makes every other
        parenthesization agree.
        """
        if k < 0:
            raise HopfDataError("coproduct_iter needs k >= 0")
        f = self.field
        cur = {(i,): x for i, x in enumerate(a) if x != f.zero}
        for _ in range(k):
            cur = sparse_sum(f, (((p, q) + key[1:], f.mul(v, c))
                                 for key, v in cur.items()
                                 for (p, q), c in self.comult[key[0]].items()))
        return cur

    # -- antipode ------------------------------------------------------------
    def antipode_apply(self, a: list) -> list:
        return self.antipode.apply(a)

    def antipode_inverse(self) -> Matrix:
        """``S^{-1}`` as a matrix, computed once by the axiom suite."""
        return self._antipode_inv

    def antipode_squared(self) -> Matrix:
        """``S^2`` as a matrix; cached."""
        if self._antipode_sq is None:
            self._antipode_sq = self.antipode @ self.antipode
        return self._antipode_sq

    def antipode_inverse_apply(self, a: list) -> list:
        return self.antipode_inverse().apply(a)

    def antipode_vector(self, i: int) -> list:
        return self.antipode.col_list(i)

    # -- derived Hopf algebras (each verified afresh by hopf_make) ---------------
    def dual_hopf(self, name: str | None = None) -> "HopfAlgebra":
        """H* with convolution product."""
        return hopf_make(
            self.field, tuple(nm + "^*" for nm in self.basis_names),
            [(i, j, k, c) for k, i, j, c in _comult_terms(self.comult)], self.counit,
            [(k, i, j, c) for i, j, k, c in _mult_terms(self.mult)], self.unit,
            [(j, i, c) for i, j, c in self.antipode.nonzero_items()],
            name=name or f"dual({self.name})",
        )

    def cop(self, name: str | None = None) -> "HopfAlgebra":
        """H with opposite coproduct and antipode ``S^{-1}``."""
        return hopf_make(
            self.field, self.basis_names, _mult_terms(self.mult), self.unit,
            [(k, j, i, c) for k, i, j, c in _comult_terms(self.comult)], self.counit,
            self.antipode_inverse().nonzero_items(), name=name or f"cop({self.name})",
        )

    # -- predicates ------------------------------------------------------------
    def is_grouplike(self, a: list) -> bool:
        """Exactly ``Delta(a) = a ox a`` and ``eps(a) = 1``."""
        f = self.field
        if self.counit_apply(a) != f.one:
            return False
        expect = {}
        for i, x in enumerate(a):
            if x == f.zero:
                continue
            for j, y in enumerate(a):
                if y != f.zero:
                    expect[(i, j)] = f.mul(x, y)
        return self.coproduct(a) == expect

    def __repr__(self) -> str:
        return f"HopfAlgebra({self.name!r}, dim={self.dim}, field={self.field.spec})"


def _sparse_structure(field, dim: int, mult, comult, antipode):
    """The stored ``mult``, ``comult`` and antipode matrix, summed from term
    lists; every index must lie in ``0..dim-1``, and zero sums are dropped."""

    def checked(terms, arity: int, what: str):
        for *key, c in terms:
            key = tuple(key)
            if len(key) != arity or not all(isinstance(i, int) and 0 <= i < dim for i in key):
                raise HopfDataError(f"{what} term {key + (c,)!r} needs {arity} "
                                    f"indices in 0..{dim - 1} and a value")
            yield key, field.coerce(c)

    def summed(terms, arity: int, what: str) -> dict:
        acc = sparse_sum(field, checked(terms, arity, what))
        return {key: acc[key] for key in sorted(acc)}

    sm = tuple(tuple({} for _ in range(dim)) for _ in range(dim))
    for (i, j, k), c in summed(mult, 3, "mult").items():
        sm[i][j][k] = c
    sc = tuple({} for _ in range(dim))
    for (k, i, j), c in summed(comult, 3, "comult").items():
        sc[k][(i, j)] = c
    return sm, sc, Matrix.from_entries(field, dim, dim, summed(antipode, 2, "antipode"))


def _algebra_generators(field, mult, unit) -> tuple:
    """Basis indices whose right-nested words ``g_1 (g_2 (... (g_k 1)))`` span
    the algebra ``mult``: a greedy pass keeps ``e_k`` when it is not in the
    span of these words, and stops at rank ``n``, reached when 1 is a unit
    (``e_k 1 = e_k``).  The span is spun in one echelon basis: each word that
    raises the rank is multiplied on the left by every kept generator, and a
    newly kept ``e_k`` by every word found so far, so each product is reduced
    once.  A zero unit makes every word zero, so it keeps no generator."""
    n = len(mult)
    zero, one = field.zero, field.one
    ech = _Echelon(field, n)
    words = [{i: v for i, v in enumerate(unit) if v != zero}]
    if not ech.insert(words[0]):
        return ()
    gens = []
    for k in range(n):
        if ech.full() or not ech.reduce({k: one}):
            continue
        gens.append(k)
        todo = [(k, w) for w in words]
        while todo and not ech.full():
            g, w = todo.pop()
            v = sparse_sum(field, ((r, field.mul(x, c)) for i, x in w.items()
                                   for r, c in mult[g][i].items()))
            if ech.insert(v):
                words.append(v)
                todo.extend((h, v) for h in gens)
    return tuple(gens)


def _mult_terms(mult):
    """``(i, j, k, m_ij^k)`` over the nonzero entries of a sparse ``mult``."""
    for i, row in enumerate(mult):
        for j, col in enumerate(row):
            for k, c in col.items():
                yield i, j, k, c


def _comult_terms(comult):
    """``(k, i, j, c_k^ij)`` over the nonzero entries of a sparse ``comult``."""
    for k, terms in enumerate(comult):
        for (i, j), c in terms.items():
            yield k, i, j, c


def _delta_products(field, mult, comult, firsts) -> dict:
    """Columns ``(i, j)``, ``i`` in ``firsts``, of ``(m ox m)(id ox tau ox id)
    (Delta ox Delta)``, i.e. ``Delta(e_i) Delta(e_j)``, as sparse
    ``{(a*n + b, i*n + j): sum c_i^pq c_j^rs m_pr^a m_qs^b}``."""
    n = len(mult)
    mul = field.mul

    def terms():
        for i in firsts:
            for j, dj in enumerate(comult):
                col = i * n + j
                for (p, q), x in comult[i].items():
                    for (r, s), y in dj.items():
                        xy = mul(x, y)
                        for a, u in mult[p][r].items():
                            xyu = mul(xy, u)
                            for b, v in mult[q][s].items():
                                yield (a * n + b, col), mul(xyu, v)

    return sparse_sum(field, terms())


def _decode(flat: int, n: int, legs: int) -> tuple:
    out = []
    for _ in range(legs):
        flat, r = divmod(flat, n)
        out.append(r)
    return tuple(reversed(out))


def _first_difference(field, lhs: dict, rhs: dict):
    """Row-major first ``(row, col)`` where two sparse sides differ, or None."""
    zero = field.zero
    return min((key for key in lhs.keys() | rhs.keys()
                if lhs.get(key, zero) != rhs.get(key, zero)), default=None)


def _expect_equal(field, lhs: dict, rhs: dict, axiom: str, decoder):
    key = _first_difference(field, lhs, rhs)
    if key is not None:
        a, b = (field.format(side.get(key, field.zero)) for side in (lhs, rhs))
        raise HopfAxiomError(axiom, decoder(*key), f"{a} != {b}")


def _verify_axioms(field, dim, mult, unit, comult, counit, S, gens) -> Matrix:
    """Raise HopfAxiomError at the first violated axiom, in a fixed order;
    return ``S^{-1}``, which the bijectivity check computes.

    Each side is the structure matrix it stands for (``m(m ox id)``, ...) as a
    sparse ``{(row, col): value}`` contracted from the tensors, compared in
    row-major order.  Associativity and ``Delta(xy) = Delta(x) Delta(y)`` are
    decided on the columns whose first factor is in ``gens``, whose words span
    H.  With a two-sided unit, the subspace ``A = {x : (xy)z = x(yz) for all
    y, z}`` holds 1, and g in gens, w in A give ``((gw)y)z = (g(wy))z =
    g((wy)z) = g(w(yz)) = (gw)(yz)``, so A = H; so is ``{x : Delta(xy) =
    Delta(x) Delta(y) for all y}``, given associativity, unitality and
    ``Delta(1) = 1 ox 1``.  Without its conditions, or on a mismatch, a check
    runs on every column, so it names the full check's first failure.
    """
    n, mul, zero, one = dim, field.mul, field.zero, field.one
    every = range(n)
    ident = {(j, j): one for j in every}

    def checked_on(sides, firsts):  # rerun a failing reduced check on every column
        lhs, rhs = sides(firsts)
        failed = firsts is not every and _first_difference(field, lhs, rhs) is not None
        return sides(every) if failed else (lhs, rhs)

    def associativity(firsts):  # (e_i e_j) e_k and e_i (e_j e_k), column (i, j, k)
        return (sparse_sum(field, (((r, (i * n + j) * n + k), mul(x, y))
                                   for i in firsts for j in every for p, x in mult[i][j].items()
                                   for k in every for r, y in mult[p][k].items())),
                sparse_sum(field, (((r, (i * n + j) * n + k), mul(x, y))
                                   for i in firsts for j in every for k in every
                                   for q, x in mult[j][k].items() for r, y in mult[i][q].items())))

    def comult_products(firsts):  # Delta(e_i e_j) and Delta(e_i) Delta(e_j)
        return (sparse_sum(field, (((a * n + b, i * n + j), mul(x, y))
                                   for i in firsts for j in every for k, x in mult[i][j].items()
                                   for (a, b), y in comult[k].items())),
                _delta_products(field, mult, comult, firsts))

    units = [(i, u) for i, u in enumerate(unit) if u != zero]
    counits = [(i, e) for i, e in enumerate(counit) if e != zero]
    left_unit = sparse_sum(field, (((r, j), mul(u, c)) for i, u in units
                                   for j in every for r, c in mult[i][j].items()))
    right_unit = sparse_sum(field, (((r, j), mul(u, c)) for i, u in units
                                    for j in every for r, c in mult[j][i].items()))
    delta_unit = sparse_sum(field, (((a * n + b, 0), mul(u, c)) for k, u in units
                                    for (a, b), c in comult[k].items()))
    unit_unit = {(a * n + b, 0): mul(x, y) for a, x in units for b, y in units}
    unital = left_unit == ident == right_unit

    _expect_equal(field, *checked_on(associativity, gens if unital else every),
                  "associativity", lambda r, c: _decode(c, n, 3) + (r,))
    _expect_equal(field, left_unit, ident, "unitality", lambda r, c: (c, r))
    _expect_equal(field, right_unit, ident, "unitality", lambda r, c: (c, r))
    # coassociativity: row (a, b, c) of (Delta ox id) Delta(e_k) and (id ox Delta) Delta(e_k)
    _expect_equal(field, sparse_sum(field, ((((a * n + b) * n + c, k), mul(x, y))
                                            for k, dk in enumerate(comult)
                                            for (p, c), x in dk.items()
                                            for (a, b), y in comult[p].items())),
                  sparse_sum(field, ((((a * n + b) * n + c, k), mul(x, y))
                                     for k, dk in enumerate(comult) for (a, q), x in dk.items()
                                     for (b, c), y in comult[q].items())),
                  "coassociativity", lambda r, c: (c,) + _decode(r, n, 3))
    # counitality: (eps ox id) Delta = id = (id ox eps) Delta
    _expect_equal(field, sparse_sum(field, (((j, k), mul(counit[a], c)) for k, dk
                                            in enumerate(comult) for (a, j), c in dk.items())),
                  ident, "counitality", lambda r, c: (c, r))
    _expect_equal(field, sparse_sum(field, (((j, k), mul(counit[a], c)) for k, dk
                                            in enumerate(comult) for (j, a), c in dk.items())),
                  ident, "counitality", lambda r, c: (c, r))
    # comultiplication is an algebra map, Delta(1) = 1 ox 1 included
    reduced = unital and delta_unit == unit_unit
    _expect_equal(field, *checked_on(comult_products, gens if reduced else every),
                  "comultiplication-algebra-map", lambda r, c: _decode(c, n, 2) + _decode(r, n, 2))
    _expect_equal(field, delta_unit, unit_unit, "comultiplication-algebra-map",
                  lambda r, c: _decode(r, n, 2))
    # counit is an algebra map
    _expect_equal(field, sparse_sum(field, (((0, i * n + j), mul(counit[k], c)) for i in every
                                            for j in every for k, c in mult[i][j].items())),
                  {(0, i * n + j): mul(x, y) for i, x in counits for j, y in counits},
                  "counit-algebra-map", lambda r, c: _decode(c, n, 2))
    _expect_equal(field, sparse_sum(field, (((0, 0), mul(e, unit[k])) for k, e in counits)),
                  {(0, 0): one}, "counit-algebra-map", lambda r, c: ())
    # antipode axiom: m(S ox id) Delta = u eps = m(id ox S) Delta, column k
    s_cols = [[(p, s) for p, s in enumerate(S.col_list(a)) if s != zero] for a in every]
    ue = {(r, k): mul(u, e) for r, u in units for k, e in counits}
    for left in (True, False):
        _expect_equal(field, sparse_sum(field, (
            ((r, k), mul(mul(c, s), m)) for k, dk in enumerate(comult) for (a, b), c in dk.items()
            for p, s in s_cols[a if left else b]
            for r, m in (mult[p][b] if left else mult[a][p]).items())),
            ue, "antipode-axiom", lambda r, c: (c, r))
    # bijectivity of S (automatic for genuine finite-dimensional Hopf data)
    try:
        return S.inverse()
    except SingularMatrixError:
        raise HopfAxiomError("antipode-invertibility", (), "S is singular")


def hopf_make(field: Field, basis_names, mult, unit, comult, counit, antipode,
              name: str = "H") -> HopfAlgebra:
    """Build and fully verify a Hopf algebra from the term lists of the module
    docstring and dense ``unit`` and ``counit`` vectors.  Construction fails
    atomically on the first violated axiom.
    """
    basis_names = tuple(str(b) for b in basis_names)
    dim = len(basis_names)
    if dim == 0:
        raise HopfDataError("dimension must be positive")
    if len(unit) != dim or len(counit) != dim:
        raise HopfDataError("unit/counit must have length dim")
    u = [field.coerce(v) for v in unit]
    eps = [field.coerce(v) for v in counit]
    sm, sc, S = _sparse_structure(field, dim, mult, comult, antipode)
    gens = _algebra_generators(field, sm, u)
    S_inv = _verify_axioms(field, dim, sm, u, sc, eps, S, gens)
    return HopfAlgebra(field, dim, basis_names, sm, u, sc, eps, S, S_inv, gens, name, True)
