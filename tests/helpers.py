"""Test-side helpers: dense tensor access, mutations, an independent
loop-based axiom oracle (deliberately *not* the library's matrix-identity
formulation, so axiom names reported by hopf_make can be cross-checked), a
Kronecker-product evaluator of expression trees, the reference for
``calculus.evaluate``, the Kronecker-sum action of an element on a tensor
word, the reference for ``hmod.word_element_action``, the
Kronecker/permutation form of the comultiplication-algebra-map sides, the
reference for the contraction in ``hopf_make``, the Kronecker-form axiom
suite on every column, the reference for ``hopf_make``'s sparse suite on
generator columns, the lambda-loop pivot conditions, the reference for
``integrals._pivot_condition_failures``, the right chromatic map
transported from the left map of H^cop, the reference for
``chromatic_right_hopf``, and the iterated coproduct expanded on the last
leg, the reference for ``HopfAlgebra.coproduct_iter``, the permutation
matrices those references build, column-scan Gauss-Jordan elimination, the
reference for ``Matrix.rref``, and the greedy generator pass that re-reduces
the whole span each round, the reference for ``hopf._algebra_generators``."""

from __future__ import annotations

from functools import reduce

from hopfchrom import (
    HopfAlgebra,
    HopfAxiomError,
    Matrix,
    Morphism,
    MorphismTypeError,
    normalized_pair,
)
from hopfchrom.calculus import Compose, Ident, Prim, Tensor
from hopfchrom.hmod import _as_word, word_dim, word_label, words_match
from hopfchrom.hopf import _decode, _delta_products, pairing, vec_scale
from hopfchrom.linalg import SingularMatrixError


def permutation_matrix(field, images: list[int]) -> Matrix:
    """Matrix sending basis vector ``j`` to basis vector ``images[j]``."""
    n = len(images)
    return Matrix.from_entries(field, n, n, {(i, j): field.one for j, i in enumerate(images)})


def kron_evaluate(expr) -> Morphism:
    """Reference evaluation: compose multiplies matrices, tensor takes
    Kronecker products, so every ``id ox f ox id`` is built in full."""
    if isinstance(expr, Prim):
        return expr.morphism
    if isinstance(expr, Ident):
        if not expr.word:
            raise MorphismTypeError("identity on the empty word needs context")
        return Morphism(expr.word, expr.word,
                        Matrix.identity(expr.word[0].H.field, word_dim(expr.word)))
    if isinstance(expr, Compose):
        fm = kron_evaluate(expr.f)
        gm = kron_evaluate(expr.g)
        if not words_match(fm.source, gm.target):
            raise MorphismTypeError(
                f"cannot compose: {expr.f!r} expects {word_label(fm.source)} "
                f"but {expr.g!r} produces {word_label(gm.target)}"
            )
        return Morphism(gm.source, fm.target, fm.matrix @ gm.matrix)
    if isinstance(expr, Tensor):
        fm = kron_evaluate(expr.f)
        gm = kron_evaluate(expr.g)
        return Morphism(fm.source + gm.source, fm.target + gm.target,
                        fm.matrix.kron(gm.matrix))
    raise MorphismTypeError(f"unknown expression node {expr!r}")


def kron_word_element_action(H: HopfAlgebra, word, a: list) -> Matrix:
    """Action of ``a`` on a tensor word as a sum of Kronecker products, one
    per Sweedler term with ``c`` folded into the first leg: the reference for
    ``hmod.word_element_action``."""
    word = _as_word(word)
    f = H.field
    if not word:
        return Matrix.from_rows(f, [[H.counit_apply(a)]])
    if len(word) == 1:
        return word[0].act(a)
    head, tail = word[0], word[1:]
    dim = word_dim(word)
    return Matrix.combination(f, dim, dim, (
        (f.one, reduce(Matrix.kron, (m.action[i] for m, i in zip(tail, key[1:])),
                       head.action[key[0]].scale(c)))
        for key, c in H.coproduct_iter(len(word) - 1, a).items()))


def coproduct_iter_last(H: HopfAlgebra, k: int, a: list) -> dict:
    """``Delta^(k)(a)`` by the recursion ``(id^{ox k-1} ox Delta) Delta^(k-1)``,
    which expands the last leg where the library expands the first."""
    f = H.field
    cur = {(i,): x for i, x in enumerate(a) if x != f.zero}
    for _ in range(k):
        nxt: dict = {}
        for key, v in cur.items():
            for (p, q), c in H.comult[key[-1]].items():
                nk = key[:-1] + (p, q)
                nxt[nk] = f.add(nxt.get(nk, f.zero), f.mul(v, c))
        cur = {key: v for key, v in nxt.items() if v != f.zero}
    return cur


def left_map_by_direct_expansion(H: HopfAlgebra, d) -> Matrix:
    """The left chromatic map expanded element by element from its formula,
    over ``coproduct_iter_last``, independently of the library's builder."""
    f = H.field
    n = H.dim
    lam, alpha = d.right_integral, d.alpha
    entries = {}
    for y in range(n):
        for key, c in coproduct_iter_last(H, 3, H.basis_vector(y)).items():
            y1, y2, y3, y4 = key
            for x in range(n):
                prod = H.multiply(H.antipode_vector(y1), H.basis_vector(x))
                scalar = f.mul(c, f.mul(alpha[y2], pairing(f, lam, prod)))
                if scalar == f.zero:
                    continue
                k = (y3 * n + y4, x * n + y)
                entries[k] = f.add(entries.get(k, f.zero), scalar)
    return Matrix.from_entries(f, n * n, n * n,
                               {k: v for k, v in entries.items() if v != f.zero})


def cop_transported_right_map(H: HopfAlgebra) -> Matrix:
    """The right chromatic map of H as the left chromatic map of H^cop, with
    H^cop's own normalized integral data, transported back along the
    order-reversing dictionary ``(i, j) -> (j, i)`` on both sides.  In H^cop
    a right chromatic map of H-mod is a left one, which settles the order of
    the Sweedler legs independently of the printed formula."""
    n = H.dim
    Hc = H.cop()
    left_cop = left_map_by_direct_expansion(Hc, normalized_pair(Hc))
    rev = permutation_matrix(H.field, [j * n + i for i in range(n) for j in range(n)])
    return rev @ left_cop @ rev


def kron_comult_algebra_map_sides(field, tensors: dict):
    """``(D M, (M ox M) swap23 (D ox D))`` built from dense tensors as full
    matrices, the n^4-sided permutation and Kronecker square included."""
    mult, comult = tensors["mult"], tensors["comult"]
    n = len(tensors["unit"])
    M = Matrix.from_entries(field, n, n * n, {
        (k, i * n + j): mult[i][j][k]
        for i in range(n) for j in range(n) for k in range(n)})
    D = Matrix.from_entries(field, n * n, n, {
        (i * n + j, k): comult[k][i][j]
        for i in range(n) for j in range(n) for k in range(n)})
    swap23 = permutation_matrix(field, [
        ((a * n + c) * n + b) * n + d
        for a in range(n) for b in range(n) for c in range(n) for d in range(n)
    ])
    return D @ M, M.kron(M) @ swap23 @ D.kron(D)


def _kron_expect_equal(lhs: Matrix, rhs: Matrix, axiom: str, decoder):
    diff = lhs.first_difference(rhs)
    if diff is not None:
        i, j, a, b = diff
        raise HopfAxiomError(axiom, decoder(i, j),
                             f"{lhs.field.format(a)} != {lhs.field.format(b)}")


def kron_verify_axioms(field, dim, mult, unit, comult, counit, S) -> Matrix:
    """The axiom suite as equalities of structure matrices built with
    Kronecker products, decided on every column: the reference for
    ``hopf._verify_axioms``, with the same arguments, axiom order, index
    decoding and messages.  Returns ``S^{-1}``."""
    n = dim
    ident = Matrix.identity(field, n)
    M = Matrix.from_entries(field, n, n * n, {
        (k, i * n + j): c for i, row in enumerate(mult) for j, col in enumerate(row)
        for k, c in col.items()})
    D = Matrix.from_entries(field, n * n, n, {
        (i * n + j, k): c for k, terms_k in enumerate(comult) for (i, j), c in terms_k.items()})
    u_col = Matrix.from_columns(field, [unit])
    eps_row = Matrix.from_rows(field, [counit])

    _kron_expect_equal(M @ M.kron(ident), M @ ident.kron(M), "associativity",
                       lambda r, c: _decode(c, n, 3) + (r,))
    _kron_expect_equal(M @ u_col.kron(ident), ident, "unitality", lambda r, c: (c, r))
    _kron_expect_equal(M @ ident.kron(u_col), ident, "unitality", lambda r, c: (c, r))
    _kron_expect_equal(D.kron(ident) @ D, ident.kron(D) @ D, "coassociativity",
                       lambda r, c: (c,) + _decode(r, n, 3))
    _kron_expect_equal(eps_row.kron(ident) @ D, ident, "counitality", lambda r, c: (c, r))
    _kron_expect_equal(ident.kron(eps_row) @ D, ident, "counitality", lambda r, c: (c, r))
    delta_products = Matrix.from_entries(field, n * n, n * n,
                                         _delta_products(field, mult, comult, range(n)))
    _kron_expect_equal(D @ M, delta_products, "comultiplication-algebra-map",
                       lambda r, c: _decode(c, n, 2) + _decode(r, n, 2))
    _kron_expect_equal(D @ u_col, u_col.kron(u_col), "comultiplication-algebra-map",
                       lambda r, c: _decode(r, n, 2))
    _kron_expect_equal(eps_row @ M, eps_row.kron(eps_row), "counit-algebra-map",
                       lambda r, c: _decode(c, n, 2))
    _kron_expect_equal(eps_row @ u_col, Matrix.from_rows(field, [[field.one]]),
                       "counit-algebra-map", lambda r, c: ())
    ue = u_col @ eps_row
    _kron_expect_equal(M @ S.kron(ident) @ D, ue, "antipode-axiom", lambda r, c: (c, r))
    _kron_expect_equal(M @ ident.kron(S) @ D, ue, "antipode-axiom", lambda r, c: (c, r))
    try:
        return S.inverse()
    except SingularMatrixError:
        raise HopfAxiomError("antipode-invertibility", (), "S is singular")


def pivot_condition_failures_reference(H: HopfAlgebra, data, v: list) -> list[str]:
    """The three pivot conditions, unibalancedness as the lambda loop
    ``lambda(h_(2)) h_(1) = lambda(h) v^2`` over every basis h."""
    f = H.field
    fails = []
    if not H.is_grouplike(v):
        fails.append("grouplike")
    S2 = H.antipode @ H.antipode
    ok = H.multiply(v, H.antipode_apply(v)) == H.unit_vector()
    for i in range(H.dim):
        if H.multiply(S2.col_list(i), v) != H.multiply(v, H.basis_vector(i)):
            ok = False
            break
    if not ok:
        fails.append("conjugation")
    lam = data.right_integral
    vv = H.multiply(v, v)
    for k in range(H.dim):
        left = H.zero_vector()
        for (i, j), c in H.comult[k].items():
            left[i] = f.add(left[i], f.mul(c, lam[j]))
        if left != vec_scale(f, lam[k], vv):
            fails.append("unibalanced")
            break
    return fails


def dense_tensors(H: HopfAlgebra):
    """Mutable dense copies of all structure tensors."""
    n = H.dim
    zero = H.field.zero
    return {
        "mult": [[[H.mult[i][j].get(k, zero) for k in range(n)]
                  for j in range(n)] for i in range(n)],
        "comult": [[[H.comult[k].get((i, j), zero) for j in range(n)]
                    for i in range(n)] for k in range(n)],
        "unit": list(H.unit),
        "counit": list(H.counit),
        "antipode": [list(r) for r in H.antipode.dense()],
    }


def terms(tensors: dict) -> dict:
    """``hopf_make`` keyword arguments from dense tensors: every entry as one
    term, zeros included (``hopf_make`` drops zero sums)."""
    r = range(len(tensors["unit"]))
    mult, comult, antipode = tensors["mult"], tensors["comult"], tensors["antipode"]
    return {
        "mult": [(i, j, k, mult[i][j][k]) for i in r for j in r for k in r],
        "unit": tensors["unit"],
        "comult": [(k, i, j, comult[k][i][j]) for k in r for i in r for j in r],
        "counit": tensors["counit"],
        "antipode": [(i, j, antipode[i][j]) for i in r for j in r],
    }


def mutate(tensors: dict, kind: str, index: tuple, field) -> dict:
    """Copy of the tensors with one entry bumped by +1."""
    out = {
        "mult": [[list(c) for c in r] for r in tensors["mult"]],
        "comult": [[list(c) for c in r] for r in tensors["comult"]],
        "unit": list(tensors["unit"]),
        "counit": list(tensors["counit"]),
        "antipode": [list(r) for r in tensors["antipode"]],
    }
    tgt = out[kind]
    if kind in ("mult", "comult"):
        i, j, k = index
        tgt[i][j][k] = field.add(tgt[i][j][k], field.one)
    elif kind == "antipode":
        i, j = index
        tgt[i][j] = field.add(tgt[i][j], field.one)
    else:
        (i,) = index
        tgt[i] = field.add(tgt[i], field.one)
    return out


def _mul_vec(field, mult, a, b):
    n = len(a)
    out = [field.zero] * n
    for i in range(n):
        if a[i] == field.zero:
            continue
        for j in range(n):
            if b[j] == field.zero:
                continue
            c = field.mul(a[i], b[j])
            for k in range(n):
                if mult[i][j][k] != field.zero:
                    out[k] = field.add(out[k], field.mul(c, mult[i][j][k]))
    return out


def _basis(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def _naive_rank(field, rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != field.zero:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != field.zero:
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def axiom_violated(field, tensors: dict, axiom: str) -> bool:
    """Loop-based check that one named axiom fails on dense tensors."""
    mult = tensors["mult"]
    comult = tensors["comult"]
    unit = tensors["unit"]
    counit = tensors["counit"]
    antipode = tensors["antipode"]
    n = len(unit)
    zero, one = field.zero, field.one
    basis = [_basis(field, n, i) for i in range(n)]

    if axiom == "associativity":
        for i in range(n):
            for j in range(n):
                ij = _mul_vec(field, mult, basis[i], basis[j])
                for k in range(n):
                    lhs = _mul_vec(field, mult, ij, basis[k])
                    rhs = _mul_vec(field, mult,
                                   basis[i], _mul_vec(field, mult, basis[j], basis[k]))
                    if lhs != rhs:
                        return True
        return False
    if axiom == "unitality":
        for j in range(n):
            if _mul_vec(field, mult, unit, basis[j]) != basis[j]:
                return True
            if _mul_vec(field, mult, basis[j], unit) != basis[j]:
                return True
        return False
    if axiom == "coassociativity":
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    for l in range(n):
                        lhs = zero
                        rhs = zero
                        for a in range(n):
                            lhs = field.add(lhs, field.mul(comult[k][a][l], comult[a][i][j]))
                            rhs = field.add(rhs, field.mul(comult[k][i][a], comult[a][j][l]))
                        if lhs != rhs:
                            return True
        return False
    if axiom == "counitality":
        for k in range(n):
            for j in range(n):
                left = zero
                right = zero
                for a in range(n):
                    left = field.add(left, field.mul(counit[a], comult[k][a][j]))
                    right = field.add(right, field.mul(counit[a], comult[k][j][a]))
                want = one if k == j else zero
                if left != want or right != want:
                    return True
        return False
    if axiom == "comultiplication-algebra-map":
        for k in range(n):
            for a in range(n):
                for b in range(n):
                    want = field.mul(unit[a], unit[b])
                    got = zero
                    for m in range(n):
                        got = field.add(got, field.mul(unit[m], comult[m][a][b]))
                    if got != want:
                        return True
        for i in range(n):
            for j in range(n):
                lhs = [[zero] * n for _ in range(n)]
                for k in range(n):
                    if mult[i][j][k] == zero:
                        continue
                    for a in range(n):
                        for b in range(n):
                            if comult[k][a][b] != zero:
                                lhs[a][b] = field.add(
                                    lhs[a][b], field.mul(mult[i][j][k], comult[k][a][b]))
                rhs = [[zero] * n for _ in range(n)]
                for p in range(n):
                    for q in range(n):
                        cpq = comult[i][p][q]
                        if cpq == zero:
                            continue
                        for r in range(n):
                            for s in range(n):
                                crs = comult[j][r][s]
                                if crs == zero:
                                    continue
                                c = field.mul(cpq, crs)
                                pr = _mul_vec(field, mult, basis[p], basis[r])
                                qs = _mul_vec(field, mult, basis[q], basis[s])
                                for a in range(n):
                                    if pr[a] == zero:
                                        continue
                                    for b in range(n):
                                        if qs[b] != zero:
                                            rhs[a][b] = field.add(
                                                rhs[a][b],
                                                field.mul(c, field.mul(pr[a], qs[b])))
                if lhs != rhs:
                    return True
        return False
    if axiom == "counit-algebra-map":
        got = zero
        for m in range(n):
            got = field.add(got, field.mul(counit[m], unit[m]))
        if got != one:
            return True
        for i in range(n):
            for j in range(n):
                lhs = zero
                for k in range(n):
                    lhs = field.add(lhs, field.mul(mult[i][j][k], counit[k]))
                if lhs != field.mul(counit[i], counit[j]):
                    return True
        return False
    if axiom == "antipode-axiom":
        s_img = [[antipode[i][j] for i in range(n)] for j in range(n)]  # S(e_j)
        for k in range(n):
            lhs = [zero] * n
            rhs = [zero] * n
            for a in range(n):
                for b in range(n):
                    c = comult[k][a][b]
                    if c == zero:
                        continue
                    for t, v in enumerate(_mul_vec(field, mult, s_img[a], basis[b])):
                        lhs[t] = field.add(lhs[t], field.mul(c, v))
                    for t, v in enumerate(_mul_vec(field, mult, basis[a], s_img[b])):
                        rhs[t] = field.add(rhs[t], field.mul(c, v))
            want = [field.mul(counit[k], u) for u in unit]
            if lhs != want or rhs != want:
                return True
        return False
    if axiom == "antipode-invertibility":
        return _naive_rank(field, antipode) < n
    raise ValueError(f"unknown axiom {axiom!r}")


def gauss_jordan_reference(A: Matrix):
    """``(R, rank, pivots)`` of ``A`` by column-scan Gauss-Jordan elimination:
    for each column, the first row at or below the next pivot row with a
    nonzero entry there is swapped up, scaled to 1 and cleared from every
    other row.  The reference for ``Matrix.rref``."""
    f = A.field
    zero, one = f.zero, f.one
    rows = [dict(A._rows[i]) for i in range(A.nrows)]
    pivots = []
    pr = 0
    for col in range(A.ncols):
        sel = next((i for i in range(pr, A.nrows) if rows[i].get(col, zero) != zero), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        pv = rows[pr][col]
        if pv != one:
            c = f.inv(pv)
            rows[pr] = {j: f.mul(c, v) for j, v in rows[pr].items()}
        prow = rows[pr]
        for i in range(A.nrows):
            factor = rows[i].get(col, zero)
            if i == pr or factor == zero:
                continue
            for j, v in prow.items():
                t = f.sub(rows[i].get(j, zero), f.mul(factor, v))
                if t == zero:
                    rows[i].pop(j, None)
                else:
                    rows[i][j] = t
        pivots.append(col)
        pr += 1
        if pr == A.nrows:
            break
    return Matrix(f, A.nrows, A.ncols, rows), pr, tuple(pivots)


def greedy_generators_reference(field, mult, unit) -> tuple:
    """The greedy generator pass of ``hopf._algebra_generators`` as it first
    ran: ``e_k`` is kept when it raises the rank of the span, and the span is
    then re-reduced whole, with every product of a kept generator and a span
    vector, until it stops growing."""
    n = len(mult)
    gens, left, span = [], {}, [list(unit)]

    def rank(rows):
        return gauss_jordan_reference(Matrix.from_rows(field, rows))

    for k in range(n):
        e_k = [field.one if i == k else field.zero for i in range(n)]
        if len(span) == n or rank(span + [e_k])[1] == len(span):
            continue
        gens.append(k)
        left[k] = Matrix.from_entries(field, n, n, {
            (r, j): c for j, col in enumerate(mult[k]) for r, c in col.items()})
        while True:
            R, r, _ = rank(span + [left[g].apply(v) for g in gens for v in span])
            if r == len(span):
                break
            span = [R.row_list(i) for i in range(r)]
    return tuple(gens)
