"""Finite-dimensional Hopf algebras as structure-constant data.

``hopf_make`` runs the full bialgebra/antipode axiom suite and fails
atomically, naming the violated axiom and the basis indices of the first
offending coefficient.  Everything downstream may therefore assume a genuine
Hopf algebra.  Each axiom is an exact equality of two structure matrices with
no side above ``n^3``: ``Delta(xy) = Delta(x) Delta(y)`` is contracted directly
over the sparse tensors (``_delta_products``) instead of going through the
``n^4``-sided ``(m ox m)(id ox tau ox id)(Delta ox Delta)``.

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
from .linalg import Matrix, SingularMatrixError, sparse_sum

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
                 antipode, antipode_inv, name, _verified):
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
        self._generators = None
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
        """Basis indices whose elements generate H as an algebra, found on first
        use and kept.  A greedy pass keeps ``e_k`` when it enlarges the span of
        the words in the kept elements, closes that span under left
        multiplication by them, and stops at rank ``dim``, which certifies the
        set.  A map that commutes with these elements commutes with H.
        """
        if self._generators is None:
            f, gens, span = self.field, [], [self.unit_vector()]
            for k in range(self.dim):
                if len(span) == self.dim or \
                        Matrix.from_rows(f, span + [self.basis_vector(k)]).rank() == len(span):
                    continue
                gens.append(k)
                while True:  # close the span under left multiplication by gens
                    R, rank, _ = Matrix.from_rows(f, span + [
                        self.left_mult_matrix(g).apply(v) for g in gens for v in span]).rref()
                    if rank == len(span):
                        break
                    span = [R.row_list(i) for i in range(rank)]
            self._generators = tuple(gens)
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


def _structure_matrices(field, mult, comult):
    """``M`` (``n x n^2``, column ``(i, j)``) and ``D`` (``n^2 x n``, row ``(i, j)``)."""
    n = len(mult)
    M = Matrix.from_entries(field, n, n * n,
                            {(k, i * n + j): c for i, j, k, c in _mult_terms(mult)})
    D = Matrix.from_entries(field, n * n, n,
                            {(i * n + j, k): c for k, i, j, c in _comult_terms(comult)})
    return M, D


def _delta_products(field, mult, comult) -> Matrix:
    """``n^2 x n^2`` matrix of ``e_i ox e_j -> Delta(e_i) Delta(e_j)`` in H ox H.

    Column ``(i, j)``, row ``(a, b)`` is ``sum c_i^pq c_j^rs m_pr^a m_qs^b``,
    contracted over the sparse tensors: the matrix of
    ``(m ox m)(id ox tau ox id)(Delta ox Delta)`` without its ``n^4``-sided
    factors.
    """
    n = len(mult)
    mul = field.mul

    def terms():
        for i, di in enumerate(comult):
            for j, dj in enumerate(comult):
                col = i * n + j
                for (p, q), x in di.items():
                    for (r, s), y in dj.items():
                        xy = mul(x, y)
                        for a, u in mult[p][r].items():
                            xyu = mul(xy, u)
                            for b, v in mult[q][s].items():
                                yield (a * n + b, col), mul(xyu, v)

    return Matrix.from_entries(field, n * n, n * n, sparse_sum(field, terms()))


def _decode(flat: int, n: int, legs: int) -> tuple:
    out = []
    for _ in range(legs):
        flat, r = divmod(flat, n)
        out.append(r)
    return tuple(reversed(out))


def _expect_equal(lhs: Matrix, rhs: Matrix, axiom: str, decoder):
    diff = lhs.first_difference(rhs)
    if diff is not None:
        i, j, a, b = diff
        raise HopfAxiomError(axiom, decoder(i, j),
                             f"{lhs.field.format(a)} != {lhs.field.format(b)}")


def _verify_axioms(field, dim, mult, unit, comult, counit, S) -> Matrix:
    """Raise HopfAxiomError at the first violated axiom, in a fixed order;
    return ``S^{-1}``, which the bijectivity check computes.

    Every side is a product of structure matrices with no side above
    ``n^3``, except ``Delta(xy) = Delta(x) Delta(y)``, whose right-hand side
    is contracted from the sparse tensors (``_delta_products``).
    """
    n = dim
    ident = Matrix.identity(field, n)
    M, D = _structure_matrices(field, mult, comult)
    u_col = Matrix.from_columns(field, [unit])
    eps_row = Matrix.from_rows(field, [counit])

    # associativity: m(m ox id) = m(id ox m), n x n^3
    _expect_equal(
        M @ M.kron(ident),
        M @ ident.kron(M),
        "associativity",
        lambda r, c: _decode(c, n, 3) + (r,),
    )
    # unitality: 1 e_j = e_j = e_j 1
    _expect_equal(M @ u_col.kron(ident), ident, "unitality",
                  lambda r, c: (c, r))
    _expect_equal(M @ ident.kron(u_col), ident, "unitality",
                  lambda r, c: (c, r))
    # coassociativity, n^3 x n
    _expect_equal(
        D.kron(ident) @ D,
        ident.kron(D) @ D,
        "coassociativity",
        lambda r, c: (c,) + _decode(r, n, 3),
    )
    # counitality
    _expect_equal(eps_row.kron(ident) @ D, ident, "counitality",
                  lambda r, c: (c, r))
    _expect_equal(ident.kron(eps_row) @ D, ident, "counitality",
                  lambda r, c: (c, r))
    # comultiplication is an algebra map (incl. Delta(1) = 1 ox 1), n^2 x n^2,
    # the right-hand side contracted rather than built from n^4-sided factors
    _expect_equal(
        D @ M,
        _delta_products(field, mult, comult),
        "comultiplication-algebra-map",
        lambda r, c: _decode(c, n, 2) + _decode(r, n, 2),
    )
    _expect_equal(D @ u_col, u_col.kron(u_col), "comultiplication-algebra-map",
                  lambda r, c: _decode(r, n, 2))
    # counit is an algebra map
    _expect_equal(eps_row @ M, eps_row.kron(eps_row), "counit-algebra-map",
                  lambda r, c: _decode(c, n, 2))
    _expect_equal(
        eps_row @ u_col,
        Matrix.from_rows(field, [[field.one]]),
        "counit-algebra-map",
        lambda r, c: (),
    )
    # antipode axiom: m(S ox id)Delta = u eps = m(id ox S)Delta
    ue = u_col @ eps_row
    _expect_equal(M @ S.kron(ident) @ D, ue, "antipode-axiom",
                  lambda r, c: (c, r))
    _expect_equal(M @ ident.kron(S) @ D, ue, "antipode-axiom",
                  lambda r, c: (c, r))
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
    S_inv = _verify_axioms(field, dim, sm, u, sc, eps, S)
    return HopfAlgebra(field, dim, basis_names, sm, u, sc, eps, S, S_inv, name, True)
