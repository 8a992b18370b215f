
from fractions import Fraction

import pytest
from helpers import (
    axiom_violated,
    coproduct_iter_last,
    dense_tensors,
    greedy_generators_reference,
    kron_comult_algebra_map_sides,
    kron_verify_axioms,
    mutate,
    terms,
)

from hopfchrom import (
    FieldSpec,
    GroupTable,
    HopfAxiomError,
    HopfDataError,
    Matrix,
    field_make,
    group_algebra,
    hopf_make,
    taft,
)
from hopfchrom import hopf as hopf_module
from hopfchrom.hopf import _delta_products, _sparse_structure


def test_builtins_pass_axiom_suite(corpus):
    # construction *is* the axiom suite; reaching here means all passed
    assert [H.dim for H in corpus] == [2, 3, 6, 2, 4, 9]


def test_sweedler_antipode_sign_flip_names_antipode_axiom(Q, h4):
    t = dense_tensors(h4)
    t["antipode"][3][2] = Q.neg(t["antipode"][3][2])  # S(x) = -gx -> +gx
    with pytest.raises(HopfAxiomError) as err:
        hopf_make(Q, h4.basis_names, **terms(t))
    assert err.value.axiom == "antipode-axiom"
    assert axiom_violated(Q, t, "antipode-axiom")


def test_group_algebra_z2_valid(Q):
    H = group_algebra(GroupTable.cyclic(2), Q)
    g = H.basis_vector(1)
    assert H.coproduct(g) == {(1, 1): Q.one}
    assert H.antipode_apply(g) == g


def test_hopf_make_sums_repeated_terms_and_checks_indices(Q, z2):
    half = Fraction(1, 2)
    # g g = 1 given as two halves, plus a zero term; Delta(g) and S(g) likewise
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
            (1, 1, 0, half), (1, 1, 0, half), (1, 1, 1, 0)]
    comult = [(0, 0, 0, 1), (1, 1, 1, half), (1, 1, 1, half)]
    antipode = [(0, 0, 1), (1, 1, 2), (1, 1, -1)]
    H = hopf_make(Q, z2.basis_names, mult, [1, 0], comult, [1, 1], antipode)
    assert H.mult == z2.mult and H.mult[1][1] == {0: Q.one}
    assert H.comult == z2.comult and H.antipode == z2.antipode
    for bad in (mult + [(0, 0, 2, 1)], mult + [(-1, 0, 0, 1)], mult + [(0, 0, 1)]):
        with pytest.raises(HopfDataError):
            hopf_make(Q, z2.basis_names, bad, [1, 0], comult, [1, 1], antipode)
    with pytest.raises(HopfDataError):
        hopf_make(Q, z2.basis_names, mult, [1, 0], comult, [1, 1], [(0, 2, 1)])


def test_multiply_examples(Q, F7, h4, t3):
    a = h4.element({0: 2, 2: 3})
    assert h4.multiply(h4.unit_vector(), a) == a
    x, g = h4.basis_vector(2), h4.basis_vector(1)
    assert h4.multiply(x, g) == h4.element({3: -1})       # xg = -gx
    assert h4.multiply(g, x) == h4.basis_vector(3)
    # Taft over GF(7) with q = 2: xg = 2 gx
    xt, gt = t3.basis_vector(1), t3.basis_vector(3)
    assert t3.multiply(xt, gt) == [F7.mul(2, v) for v in t3.multiply(gt, xt)]


def test_coproduct_iter_examples(Q, h4):
    g, x = h4.basis_vector(1), h4.basis_vector(2)
    assert h4.coproduct_iter(1, g) == {(1, 1): Q.one}
    # Delta x = x ox 1 + g ox x
    assert h4.coproduct_iter(1, x) == {(2, 0): Q.one, (1, 2): Q.one}
    # Delta^2 x = x ox 1 ox 1 + g ox x ox 1 + g ox g ox x
    assert h4.coproduct_iter(2, x) == {
        (2, 0, 0): Q.one, (1, 2, 0): Q.one, (1, 1, 2): Q.one}
    assert h4.coproduct_iter(0, x) == {(2,): Q.one}


def test_coproduct_parenthesization_independent(corpus):
    for H in corpus:
        for k in (1, 2, 3):
            for i in range(H.dim):
                v = H.basis_vector(i)
                assert H.coproduct_iter(k, v) == coproduct_iter_last(H, k, v)


def test_antipode_examples(h4):
    assert h4.antipode_apply(h4.unit_vector()) == h4.unit_vector()
    x = h4.basis_vector(2)
    assert h4.antipode_apply(x) == h4.element({3: -1})    # S(x) = -gx
    assert h4.antipode_inverse_apply(h4.antipode_apply(x)) == x
    assert h4.antipode_inverse() @ h4.antipode == \
        h4.antipode @ h4.antipode_inverse()


def test_dual_hopf_examples(Q, z2, h4):
    dz2 = z2.dual_hopf()
    # functions on Z/2: commutative and cocommutative, swapped structure
    for i in range(2):
        for j in range(2):
            assert dz2.mult[i][j] == dz2.mult[j][i]
            assert z2.comult[i] == {(a, b): c for (b, a), c in z2.comult[i].items()}
    # epsilon is the unit of H*
    assert list(dz2.unit) == list(z2.counit)
    dd = h4.dual_hopf().dual_hopf()
    assert dd.mult == h4.mult and dd.comult == h4.comult
    assert dd.unit == h4.unit and dd.counit == h4.counit
    assert dd.antipode == h4.antipode


def test_cop_op_examples(Q, h4, z3):
    cc = h4.cop().cop()
    assert cc.comult == h4.comult and cc.mult == h4.mult
    assert cc.antipode == h4.antipode
    # cop of a cocommutative algebra is itself
    c3 = z3.cop()
    assert c3.comult == z3.comult and c3.antipode == z3.antipode
    # cop antipode is S^{-1}
    assert h4.cop().antipode == h4.antipode_inverse()


def test_is_grouplike(h4):
    assert h4.is_grouplike(h4.unit_vector())
    assert h4.is_grouplike(h4.basis_vector(1))
    assert not h4.is_grouplike(h4.basis_vector(2))
    assert not h4.is_grouplike(h4.element({1: 2}))


def test_derived_algebras_pass_axiom_suite(corpus):
    for H in corpus:
        H.dual_hopf()
        H.cop()


def _mutation_stream(H):
    n = H.dim
    kinds = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                kinds.append(("mult", (i, j, k)))
                kinds.append(("comult", (i, j, k)))
    for i in range(n):
        for j in range(n):
            kinds.append(("antipode", (i, j)))
    for i in range(n):
        kinds.append(("counit", (i,)))
        kinds.append(("unit", (i,)))
    # interleave the tensor kinds for variety
    by_kind = {}
    for kind, idx in kinds:
        by_kind.setdefault(kind, []).append(idx)
    order = ["mult", "comult", "antipode", "counit", "unit"]
    pos = 0
    while any(by_kind[k] for k in order):
        k = order[pos % len(order)]
        pos += 1
        if by_kind[k]:
            yield k, by_kind[k].pop(0)


def test_ten_mutations_per_builtin_fail_with_correct_axiom(corpus):
    for H in corpus:
        base = dense_tensors(H)
        failures = 0
        for kind, idx in _mutation_stream(H):
            t = mutate(base, kind, idx, H.field)
            try:
                hopf_make(H.field, H.basis_names, **terms(t))
            except HopfAxiomError as err:
                # independent loop-based oracle confirms the named axiom
                assert axiom_violated(H.field, t, err.axiom), \
                    f"{H.name}: {kind}{idx} named {err.axiom} wrongly"
                failures += 1
                if failures == 10:
                    break
            else:
                continue
        assert failures == 10, f"{H.name}: only {failures} failing mutations found"


def _sparse_tensors(H, t):
    a = terms(t)
    sm, sc, S = _sparse_structure(H.field, H.dim, a["mult"], a["comult"], a["antipode"])
    unit, counit = ([H.field.coerce(x) for x in a[key]] for key in ("unit", "counit"))
    return sm, unit, sc, counit, S


def test_contracted_comult_algebra_map_equals_kronecker_form(corpus):
    for H in corpus:
        base = dense_tensors(H)
        cases = [base] + [mutate(base, kind, idx, H.field)
                          for kind, idx in list(_mutation_stream(H))[::11]]
        n = H.dim
        for t in cases:
            sm, _, sc, _, _ = _sparse_tensors(H, t)
            every = _delta_products(H.field, sm, sc, range(n))
            _, ref_rhs = kron_comult_algebra_map_sides(H.field, t)
            assert Matrix.from_entries(H.field, n * n, n * n, every) == ref_rhs, H.name
            # a subset of first factors contracts exactly those columns
            firsts = range(1, n, 2)
            assert _delta_products(H.field, sm, sc, firsts) == {
                (r, c): v for (r, c), v in every.items() if c // n in firsts}, H.name


def _outcomes(H, t):
    """What ``hopf_make`` and the Kronecker-form reference make of the tensors:
    ``None`` for a pass, else the axiom, indices and message of the error."""
    def outcome(build):
        try:
            build()
        except HopfAxiomError as err:
            return err.axiom, err.indices, str(err)
        return None

    return (outcome(lambda: hopf_make(H.field, H.basis_names, **terms(t))),
            outcome(lambda: kron_verify_axioms(H.field, H.dim, *_sparse_tensors(H, t))))


def test_axiom_suite_matches_kronecker_reference_on_every_mutant(corpus):
    """Every single-entry mutant of the corpus: the sparse suite on generator
    columns names the axiom, indices and message that the Kronecker-form,
    every-column reference names, or both accept."""
    for H in corpus:
        base = dense_tensors(H)
        for kind, idx in _mutation_stream(H):
            got, want = _outcomes(H, mutate(base, kind, idx, H.field))
            assert got == want, f"{H.name}: {kind}{idx}"


def test_generator_spin_matches_the_whole_span_greedy_pass(corpus):
    """On the corpus, on every seventh single-entry mutant of it (a broken
    unit included) and with a zero unit, whose words are all zero, the spin
    keeps the generators the greedy pass that re-reduces the whole span each
    round keeps."""
    for H in corpus:
        base = dense_tensors(H)
        cases = [base, {**base, "unit": [H.field.zero] * H.dim}] + [
            mutate(base, kind, idx, H.field) for kind, idx in list(_mutation_stream(H))[::7]]
        for t in cases:
            sm, unit, _, _, _ = _sparse_tensors(H, t)
            assert (hopf_module._algebra_generators(H.field, sm, unit)
                    == greedy_generators_reference(H.field, sm, unit)), H.name


def test_composite_mutants_match_kronecker_reference(corpus):
    by_name = {H.name: H for H in corpus}
    # unit and associativity broken together: on the columns of the generators
    # found for this mult (0,) associativity holds, so only the every-column
    # fallback taken for a broken unit finds the failure, and names it first
    H = by_name["dualgroup:Z2"]
    t = mutate(mutate(dense_tensors(H), "unit", (0,), H.field), "mult", (1, 0, 1), H.field)
    sm, unit, _, _, _ = _sparse_tensors(H, t)
    assert hopf_module._algebra_generators(H.field, sm, unit) == (0,)
    assert greedy_generators_reference(H.field, sm, unit) == (0,)
    got, want = _outcomes(H, t)
    assert got[0] == "associativity" and got == want
    # Delta(1) != 1 ox 1: dualgroup:Z2's algebra with the coassociative, counital
    # Delta(p_0) = p_0 ox p_0, Delta(p_1) = p_0 ox p_1 + p_1 ox p_0 + 2 p_1 ox p_1.
    # Delta(xy) = Delta(x) Delta(y) holds on the generator columns (p_0, y) and
    # fails at (p_1, p_1), which only the every-column fallback sees
    assert H.algebra_generators() == (0,)
    t = dense_tensors(H)
    t["comult"][0][1][1], t["comult"][1][1][1] = H.field.zero, H.field.coerce(2)
    got, want = _outcomes(H, t)
    assert got[:2] == ("comultiplication-algebra-map", (1, 1, 1, 1)) and got == want


@pytest.mark.parametrize("name, kind, idx", [
    ("group:Z2", "mult", (1, 1, 0)),
    ("group:Z2", "mult", (1, 1, 1)),
    ("dualgroup:Z2", "comult", (0, 1, 1)),
    ("dualgroup:Z2", "comult", (1, 1, 1)),
])
def test_comult_algebra_map_violation_matches_reference(corpus, name, kind, idx):
    H = next(A for A in corpus if A.name == name)
    t = mutate(dense_tensors(H), kind, idx, H.field)
    with pytest.raises(HopfAxiomError) as err:
        hopf_make(H.field, H.basis_names, **terms(t))
    assert err.value.axiom == "comultiplication-algebra-map"
    assert axiom_violated(H.field, t, err.value.axiom)
    ref_lhs, ref_rhs = kron_comult_algebra_map_sides(H.field, t)
    r, c, _, _ = ref_lhs.first_difference(ref_rhs)
    n = H.dim
    assert err.value.indices == (c // n, c % n, r // n, r % n)


def test_axiom_suite_builds_nothing_above_n_squared(monkeypatch):
    H = taft(5, field_make(FieldSpec("prime-field", p=11)))
    t = dense_tensors(H)
    assert not hasattr(hopf_module, "permutation_matrix")
    sides = []
    init = Matrix.__init__

    def recording_init(self, field, nrows, ncols, rows=None):
        sides.append(max(nrows, ncols))
        init(self, field, nrows, ncols, rows)

    def no_kron(self, other):
        raise AssertionError("hopf_make called Matrix.kron")

    monkeypatch.setattr(Matrix, "__init__", recording_init)
    monkeypatch.setattr(Matrix, "kron", no_kron)
    hopf_make(H.field, H.basis_names, **terms(t))
    assert sides and max(sides) <= H.dim ** 2


@pytest.mark.parametrize("name, field, gens", [
    ("taft:5", "GF:11", (1, 5)),
    ("uqsl2:3", "GF:7", (1, 3, 9)),
    ("group:S3", "Q", (1, 2)),
    ("sweedler", "Q", (1, 2)),
    ("dualgroup:S3", "Q", (0, 1, 2, 3, 4)),
])
def test_algebra_generators_close_to_h(name, field, gens):
    """The greedy generating set, and the span of its words, recomputed here
    with plain products and a loop-based rank, is all of H."""
    from helpers import _naive_rank

    from hopfchrom.cli import _make_builtin, _parse_field

    H = _make_builtin(name, _parse_field(field))
    assert H.algebra_generators() == gens
    assert H.algebra_generators() is H.algebra_generators()  # found once, kept
    words, layer = [H.unit_vector()], [H.unit_vector()]
    while layer:  # words one generator longer, kept when they raise the rank
        new = []
        for w in (H.multiply(H.basis_vector(g), v) for g in gens for v in layer):
            if _naive_rank(H.field, words + [w]) > len(words):
                words.append(w)
                new.append(w)
        layer = new
    assert len(words) == H.dim
