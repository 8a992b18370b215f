import random
from fractions import Fraction

import pytest
from helpers import gauss_jordan_reference, permutation_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfchrom import (
    FieldMismatchError,
    FieldSpec,
    Matrix,
    NoSolutionError,
    ShapeError,
    SingularMatrixError,
    field_make,
)
from hopfchrom.linalg import sparse_sum

Q = field_make(FieldSpec("rationals"))
F7 = field_make(FieldSpec("prime-field", p=7))
C8 = field_make(FieldSpec("cyclotomic", n=8))
C3 = field_make(FieldSpec("cyclotomic", n=3))


def M(rows, field=Q):
    return Matrix.from_rows(field, rows)


def test_rref_identity_and_zero():
    ident = Matrix.identity(Q, 3)
    R, rank, pivots = ident.rref()
    assert R == ident and rank == 3 and pivots == (0, 1, 2)
    Z = Matrix.zeros(Q, 2, 4)
    R, rank, pivots = Z.rref()
    assert R == Z and rank == 0 and pivots == ()


def test_rref_rank_one():
    R, rank, pivots = M([[1, 2], [2, 4]]).rref()
    assert R == M([[1, 2], [0, 0]])
    assert rank == 1 and pivots == (0,)


def test_rref_idempotent():
    A = M([[2, 1, 0], [4, 2, 1], [0, 3, 3]])
    R, _, _ = A.rref()
    R2, _, _ = R.rref()
    assert R == R2


def test_nullspace_examples():
    assert Matrix.identity(Q, 4).nullspace().ncols == 0
    Z = Matrix.zeros(Q, 2, 2).nullspace()
    assert Z == Matrix.identity(Q, 2)
    A = M([[1, 2, 3]])
    N = A.nullspace()
    assert N.ncols == 2
    assert A @ N == Matrix.zeros(Q, 1, 2)


def test_nullspace_is_canonical():
    A = M([[1, 2, 3], [0, 0, 1]])
    N = A.nullspace()
    # free column 1: unit vector with back-substituted pivot coordinates
    assert N == Matrix.from_columns(Q, [[-2, 1, 0]])


def test_solve_examples():
    ident = Matrix.identity(Q, 3)
    b = [Fraction(1), Fraction(2), Fraction(5)]
    assert ident.solve(b) == b
    assert M([[1, 1]]).solve([2]) == [Fraction(2), Fraction(0)]
    with pytest.raises(NoSolutionError):
        M([[0]]).solve([1])


def test_invert_examples():
    ident = Matrix.identity(Q, 2)
    assert ident.inverse() == ident
    assert M([[2]]).inverse() == M([[Fraction(1, 2)]])
    A = M([[1, 1], [0, 1]])
    assert A.inverse() == M([[1, -1], [0, 1]])
    assert A @ A.inverse() == ident
    with pytest.raises(SingularMatrixError):
        M([[1, 2], [2, 4]]).inverse()


def test_kron_examples():
    assert Matrix.identity(Q, 2).kron(Matrix.identity(Q, 3)) == Matrix.identity(Q, 6)
    B = M([[1, 2], [3, 4]])
    assert M([[2]]).kron(B) == B.scale(2)
    # flat index law
    A = M([[0, 1], [1, 0]])
    K = A.kron(B)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert K.entry(i * 2 + k, j * 2 + l) == \
                        Q.mul(A.entry(i, j), B.entry(k, l))


def test_shape_and_field_errors():
    with pytest.raises(ShapeError):
        M([[1, 2]]) @ M([[1, 2]])
    with pytest.raises(Exception):
        M([[1]]) @ Matrix.from_rows(F7, [[1]])
    with pytest.raises(ShapeError):
        M([[1, 2], [3, 4]]).kron_apply(Matrix.identity(Q, 5), 1, 2)
    with pytest.raises(Exception):
        M([[1]]).kron_apply(Matrix.from_rows(F7, [[1]]), 1, 1)


def test_first_difference():
    A = M([[1, 0], [0, 1]])
    B = M([[1, 0], [1, 1]])
    assert A.first_difference(A) is None
    assert A.first_difference(B) == (1, 0, Fraction(0), Fraction(1))


def test_permutation_matrix():
    P = permutation_matrix(Q, [2, 0, 1])
    assert P.apply([Fraction(1), Fraction(2), Fraction(3)]) == \
        [Fraction(2), Fraction(3), Fraction(1)]
    assert P @ P @ P == Matrix.identity(Q, 3)


small_entries = st.integers(min_value=-4, max_value=4)


def rand_matrix(draw, rows, cols, field):
    data = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(field, data)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rank_nullity_and_annihilation(data):
    A = rand_matrix(data.draw, 3, 4, Q)
    N = A.nullspace()
    assert A @ N == Matrix.zeros(Q, 3, N.ncols)
    assert A.rank() + N.ncols == A.ncols


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kron_interchange(data):
    f = F7
    A = rand_matrix(data.draw, 2, 2, f)
    B = rand_matrix(data.draw, 2, 2, f)
    C = rand_matrix(data.draw, 2, 2, f)
    D = rand_matrix(data.draw, 2, 2, f)
    assert (A @ C).kron(B @ D) == (A.kron(B)) @ (C.kron(D))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rref_idempotence_random(data):
    A = rand_matrix(data.draw, 3, 3, F7)
    R, _, _ = A.rref()
    assert R.rref()[0] == R


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_solve_consistency(data):
    A = rand_matrix(data.draw, 3, 3, Q)
    x = [Fraction(v) for v in data.draw(
        st.lists(small_entries, min_size=3, max_size=3))]
    b = A.apply(x)
    got = A.solve(b)
    assert A.apply(got) == b


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kron_apply_matches_kronecker_product(data):
    f = F7
    dims = st.integers(min_value=1, max_value=3)
    outer, inner, ra, ca, width = (data.draw(dims) for _ in range(5))
    A = rand_matrix(data.draw, ra, ca, f)
    B = rand_matrix(data.draw, width, outer * ca * inner, f)  # one vector per row
    full = Matrix.identity(f, outer).kron(A).kron(Matrix.identity(f, inner))
    assert A.kron_apply(B, outer, inner) == B @ full.transpose()


def _scale_and_add(field, nrows, ncols, terms):
    out = Matrix.zeros(field, nrows, ncols)
    for c, A in terms:
        out = out + A.scale(c)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_combination_matches_scale_and_add(data):
    for f in (Q, F7):
        terms = [(f.coerce(data.draw(small_entries)), rand_matrix(data.draw, 2, 3, f))
                 for _ in range(data.draw(st.integers(0, 4)))]
        if data.draw(st.booleans()):
            # append the negated terms: the sum cancels exactly to zero
            terms += [(f.neg(c), A) for c, A in terms]
        got = Matrix.combination(f, 2, 3, terms)
        assert got == _scale_and_add(f, 2, 3, terms)
        assert all(v != f.zero for _, _, v in got.nonzero_items())


def test_combination_cancels_exactly_to_zero():
    A = M([[1, 0, 3], [0, 5, 6]], F7)
    # 3A + 4A = 7A = 0 over GF(7): every entry cancels and none may be kept
    got = Matrix.combination(F7, 2, 3, [(3, A), (4, A)])
    assert got == Matrix.zeros(F7, 2, 3) and got.nnz() == 0
    # partial cancellation keeps only the surviving entries
    B = M([[6, 0, 0], [0, 0, 1]], F7)
    got = Matrix.combination(F7, 2, 3, [(1, A), (1, B)])
    assert got == A + B and got._rows == [{2: 3}, {1: 5}]
    assert Matrix.combination(F7, 2, 3, []) == Matrix.zeros(F7, 2, 3)


def test_combination_rejects_mismatched_terms():
    with pytest.raises(ShapeError):
        Matrix.combination(Q, 2, 2, [(Q.one, Matrix.identity(Q, 3))])
    with pytest.raises(FieldMismatchError):
        Matrix.combination(Q, 2, 2, [(F7.one, Matrix.identity(F7, 2))])


def _naive_sum(f, terms):
    out = {}
    for key, v in terms:
        out[key] = f.add(out.get(key, f.zero), v)
    return {key: v for key, v in out.items() if v != f.zero}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_sum_matches_naive_dict_sum(data):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
    for f in (Q, F7, C8):
        # cyclotomic payloads from coefficient lists on 1, zeta, .., zeta^3
        value = st.lists(small_entries, min_size=4, max_size=4) if f is C8 else small_entries
        terms = [(data.draw(keys), f.coerce(data.draw(value)))
                 for _ in range(data.draw(st.integers(0, 8)))]
        if data.draw(st.booleans()):
            # the negated terms, interleaved: every key cancels exactly to zero
            terms = [t for key, v in terms for t in ((key, v), (key, f.neg(v)))]
        got = sparse_sum(f, iter(terms))
        want = _naive_sum(f, terms)
        assert got == want and list(got) == list(want)


def _random_rows(rng, field, nrows, ncols, density):
    """Dense rows of small entries, each nonzero with probability ``density``;
    over Q(zeta_3) an entry is a + b zeta."""
    def entry():
        if rng.random() >= density:
            return 0
        return [rng.randint(-3, 3), rng.randint(-3, 3)] if field is C3 else rng.randint(-3, 3)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _shape(rng, field, kind):
    def rows(r, c, d=0.5):
        return Matrix.from_rows(field, _random_rows(rng, field, r, c, d))

    if kind == "sparse":
        return rows(7, 9, 0.2)
    if kind == "tall":  # n^2 x n: n blocks B_i P sharing the kernel of P, rank P = 2
        n, P = 4, rows(2, 4) if rng.random() < 0.5 else rows(4, 2) @ rows(2, 4)
        blocks = [rows(4, P.nrows, 0.4) @ P for _ in range(n)]
        return Matrix(field, n * n, n, [dict(r) for b in blocks for r in b._rows])
    if kind == "wide":
        return rows(3, 10, 0.6)
    if kind == "zero":
        return Matrix.zeros(field, 5, 4)
    if kind == "deficient":  # rank at most 3
        return rows(6, 3) @ rows(3, 6)
    A, B = rows(6, 2) @ rows(2, 5), rows(6, 3)  # augmented [A | B]
    return Matrix(field, 6, 8, [{**a, **{5 + j: v for j, v in b.items()}}
                                for a, b in zip(A._rows, B._rows)])


@pytest.mark.parametrize("field", [F7, Q, C3], ids=["GF7", "Q", "Qzeta3"])
@pytest.mark.parametrize("kind", ["sparse", "tall", "wide", "zero", "deficient", "augmented"])
def test_rref_matches_column_scan_gauss_jordan(field, kind):
    """Row insertion gives the R, rank and pivots of column-by-column
    Gauss-Jordan elimination, leaves its input alone, and its nullspace is
    the annihilator of the row space."""
    rng = random.Random(f"{field.spec}-{kind}")
    for _ in range(12):
        A = _shape(rng, field, kind)
        before = [dict(r) for r in A._rows]
        R, rank, pivots = A.rref()
        ref_R, ref_rank, ref_pivots = gauss_jordan_reference(A)
        assert R._rows == ref_R._rows and (rank, pivots) == (ref_rank, ref_pivots)
        assert A._rows == before
        N = A.nullspace()
        assert A @ N == Matrix.zeros(field, A.nrows, N.ncols)
        assert N.ncols == A.ncols - rank


@pytest.mark.parametrize("field", [F7, Q, C3], ids=["GF7", "Q", "Qzeta3"])
def test_solve_and_inverse_still_reject_singular_systems(field):
    rng = random.Random(f"singular-{field.spec}")
    for _ in range(6):
        A = Matrix.from_rows(field, _random_rows(rng, field, 4, 3, 0.7)
                             ) @ Matrix.from_rows(field, _random_rows(rng, field, 3, 4, 0.7))
        with pytest.raises(SingularMatrixError):
            A.inverse()
        # a right-hand side outside the column space: a row of zeros in A
        # facing a nonzero entry of B
        Z = Matrix(field, 5, 4, [dict(r) for r in A._rows] + [{}])
        with pytest.raises(NoSolutionError):
            Z.solve_matrix(Matrix.from_entries(field, 5, 2, {(4, 1): 1}))
        X = Matrix.from_rows(field, _random_rows(rng, field, 4, 2, 0.7))
        assert A @ A.solve_matrix(A @ X) == A @ X
