import inspect
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    gauss_jordan_reference,
    greedy_generators_reference,
    pivot_condition_failures_reference,
)

import hopfchrom.integrals as integrals_module
from hopfchrom import (
    FieldSpec,
    GroupTable,
    HopfDataError,
    Matrix,
    PivotData,
    PivotSearchInconclusive,
    alpha_left_ideal,
    cointegral_space,
    field_make,
    integral_space,
    is_spherical_hmod,
    is_unimodular,
    normalized_pair,
    pivot_candidates,
)
from hopfchrom.fields import FieldError, _poly_mul
from hopfchrom.hopf import pairing, vec_scale
from hopfchrom.cli import _make_builtin, _parse_field
from hopfchrom.integrals import (
    _char_poly,
    _check_lambda_certificate,
    _grouplike_space,
    _intertwiner_space,
    _pivot_condition_failures,
    _poly_gcd,
    _roots,
)


def _proportional(field, a, b):
    p = next((i for i, v in enumerate(b) if v != field.zero), None)
    if p is None or a[p] == field.zero:
        return False
    t = field.div(a[p], b[p])
    return a == vec_scale(field, t, b)


def test_cointegral_spaces_z2(z2, Q):
    left = cointegral_space(z2, "left")
    assert left.ncols == 1
    assert _proportional(Q, left.col_list(0), [Q.one, Q.one])  # e + g


def test_cointegral_spaces_h4(h4, Q):
    left = cointegral_space(h4, "left").col_list(0)
    assert _proportional(Q, left, h4.element({2: 1, 3: 1}))  # x + gx
    right = cointegral_space(h4, "right").col_list(0)
    assert _proportional(Q, right, h4.antipode_inverse_apply(left))
    # both right-cointegral characterizations agree
    d = normalized_pair(h4)
    other = alpha_left_ideal(h4, d.alpha)
    assert other.ncols == 1
    assert _proportional(Q, other.col_list(0), right)


def _every_basis_kernel(blocks):
    """The canonical nullspace of the stacked blocks, eliminated by the
    column-scan reference: the systems over every basis h."""
    f, n = blocks[0].field, blocks[0].ncols
    R, _, pivots = gauss_jordan_reference(
        Matrix(f, sum(b.nrows for b in blocks), n, [r for b in blocks for r in b._rows]))
    cols = []
    for j in (j for j in range(n) if j not in pivots):
        v = [f.zero] * n
        v[j] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R.entry(r, j))
        cols.append(v)
    return Matrix.from_columns(f, cols) if cols else Matrix.zeros(f, n, 0)


BUILTINS = ("group:Z1", "group:Z2", "group:Z3", "group:S3", "group:S4", "dualgroup:Z2",
            "dualgroup:Z3", "dualgroup:Z4", "dualgroup:S3", "dualgroup:S4", "sweedler",
            "taft:3", "taft:4", "taft:5", "uqsl2:3")


@pytest.mark.parametrize("name", BUILTINS)
def test_generator_systems_equal_every_basis_systems(name):
    """The cointegral and intertwiner conditions stacked over the algebra
    generators give the kernels of the conditions over every basis h, and
    the spin finds the generators the whole-span greedy pass found."""
    built = 0
    for spec in ("Q", "GF:7", "GF:11", "Cyc:3", "Cyc:4"):
        try:
            H = _make_builtin(name, _parse_field(spec))
        except FieldError:
            continue
        built += 1
        f, n = H.field, H.dim
        assert H.algebra_generators() == greedy_generators_reference(f, H.mult, H.unit)
        ident = Matrix.identity(f, n)
        for side, mult in (("left", H.left_mult_matrix), ("right", H.right_mult_matrix)):
            assert cointegral_space(H, side) == _every_basis_kernel(
                [mult(i) - ident.scale(H.counit[i]) for i in range(n)])
        S2 = H.antipode_squared()
        assert _intertwiner_space(H) == _every_basis_kernel(
            [H.element_left_mult(S2.col_list(i)) - H.right_mult_matrix(i) for i in range(n)])
    assert built


def test_integral_spaces(z2, h4, Q):
    lam = integral_space(z2, "right").col_list(0)
    assert _proportional(Q, lam, [Q.one, Q.zero])  # delta_e
    lam4 = integral_space(h4, "right").col_list(0)
    assert _proportional(Q, lam4, h4.element({2: 1}))  # x^*
    # right integrals of H = left integrals of cop(H), as raw spaces
    for H in (z2, h4):
        a = integral_space(H, "right").col_list(0)
        b = integral_space(H.cop(), "left").col_list(0)
        assert _proportional(H.field, a, b)


def test_normalized_pair_z2(z2, Q):
    d = normalized_pair(z2)
    assert d.left_cointegral == [Q.one, Q.one]
    assert d.right_integral == [Q.one, Q.zero]
    assert d.alpha == list(z2.counit)
    assert d.distinguished_grouplike == z2.unit_vector()


def test_normalized_pair_h4(h4, Q):
    d = normalized_pair(h4)
    assert d.left_cointegral == h4.element({2: 1, 3: 1})     # x + gx
    assert d.right_integral == h4.element({2: 1})            # x^*
    assert d.alpha == [Q.one, Q.neg(Q.one), Q.zero, Q.zero]  # alpha(g) = -1
    assert d.distinguished_grouplike == h4.basis_vector(1)   # a = g
    assert pairing(Q, d.right_integral, d.left_cointegral) == Q.one


def test_normalized_pair_is_kept_once_per_algebra(h4):
    assert normalized_pair(h4) is normalized_pair(h4)
    # H^cop has the same product but other integrals: its own data, verified
    hc = h4.cop()
    dc = normalized_pair(hc)
    assert dc is normalized_pair(hc) and dc is not normalized_pair(h4)
    assert dc.right_integral != normalized_pair(h4).right_integral
    integrals_module._check_integral_invariants(hc, dc)


def test_only_the_invariant_check_takes_integral_data():
    # every other function derives the data from H through normalized_pair
    from hopfchrom import calculus, chromatic, hmod

    takers = []
    for mod in (integrals_module, hmod, calculus, chromatic):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere
            if inspect.isfunction(obj):
                fns = [(name, obj)]
            elif inspect.isclass(obj):
                fns = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                       if inspect.isfunction(fn)]
            else:
                continue
            for qual, fn in fns:
                for p in inspect.signature(fn).parameters.values():
                    if p.name == "data" or "IntegralData" in str(p.annotation):
                        takers.append(f"{mod.__name__}.{qual}({p.name})")
    assert takers == ["hopfchrom.integrals._check_integral_invariants(data)"]


def test_unimodularity(corpus_data):
    expected = {"group:Z2": True, "group:Z3": True, "group:S3": True,
                "dualgroup:Z2": True, "sweedler": False, "taft:3": False}
    for name, (H, d) in corpus_data.items():
        assert is_unimodular(H) == expected[name], name


def test_pivot_candidates_z2(z2):
    cands = [p.g for p in pivot_candidates(z2)]
    assert cands == [z2.basis_vector(0), z2.basis_vector(1)]  # both e and g
    for p in pivot_candidates(z2):
        assert z2.multiply(p.g, z2.antipode_apply(p.g)) == z2.unit_vector()


def test_pivot_candidates_h4_empty(h4):
    assert pivot_candidates(h4) == []


def test_pivot_candidates_z3_unit(z3):
    cands = pivot_candidates(z3)
    assert cands and cands[0].g == z3.unit_vector()


def test_pivot_candidates_taft_empty(t3):
    # S^2 is conjugation by g^{-1}; that grouplike fails the unibalanced test
    assert pivot_candidates(t3) == []
    g_inv = t3.basis_vector(6)  # g^2 = g^{-1}
    assert _pivot_condition_failures(t3, g_inv) == ["unibalanced"]


def test_pivot_condition_rejection(z2, h4, t3):
    # scaling breaks grouplikeness
    bad = vec_scale(z2.field, Fraction(2), z2.unit_vector())
    assert "grouplike" in _pivot_condition_failures(z2, bad)
    # g in H4 is grouplike and conjugates S^2, but g^2 = 1 != a = g
    assert _pivot_condition_failures(h4, h4.basis_vector(1)) == ["unibalanced"]
    # g in Taft(3) fails the conjugation condition (the pivot side is g^{-1})
    assert "conjugation" in _pivot_condition_failures(t3, t3.basis_vector(3))


def test_search_predicate_still_tests_grouplike():
    # on k[Z3] over Q(zeta_3), v = 1 - 2 e_1, e_1 = (1/3) sum_k zeta^-k g^k a
    # primitive idempotent, lies in V (H commutative, S^2 = id) and has
    # eps(v) = 1 and v^2 = 1 = a, but it is not grouplike
    H = _make_builtin("group:Z3", _parse_field("Cyc:3"))
    f = H.field
    third = f.coerce(Fraction(1, 3))
    e1 = [f.mul(third, f.pow(f.zeta, -k)) for k in range(3)]
    v = [f.sub(u, f.add(x, x)) for u, x in zip(H.unit_vector(), e1)]
    assert H.multiply(v, v) == normalized_pair(H).distinguished_grouplike
    assert H.counit_apply(v) == f.one
    assert not integrals_module._is_pivot(H, v)
    assert "grouplike" in _pivot_condition_failures(H, v)


def test_pivot_conditions_match_lambda_loop_reference(corpus_data, monkeypatch):
    # the hook sits on the search's predicate, so it sees every candidate
    tested = []
    library = integrals_module._is_pivot

    def recording(H, v):
        verdict = library(H, v)
        tested.append((H, normalized_pair(H), v, verdict))
        return verdict

    monkeypatch.setattr(integrals_module, "_is_pivot", recording)
    inputs = dict(corpus_data)
    for name in ("taft:3", "group:S3"):  # dim V = 1 and 3 over GF(7)
        H = _make_builtin(name, _parse_field("GF:7"))
        inputs[f"{name}/GF:7"] = (H, normalized_pair(H))
    for H, d in inputs.values():
        pivot_candidates(H)
    assert {(H.name, H.field.spec) for H, _, _, _ in tested} == \
        {(H.name, H.field.spec) for H, _ in inputs.values()}
    unibalanced_only = False
    for H, d, v, verdict in tested:
        reference = pivot_condition_failures_reference(H, d, v)
        assert verdict == (reference == []), (H.name, v)
        assert _pivot_condition_failures(H, v) == reference, (H.name, v)
        unibalanced_only |= reference == ["unibalanced"]
    assert unibalanced_only


# (builtin, field) -> the pivots in the listed order; the unit first, then
# basis vectors, then the rest
PINNED_PIVOTS = {
    ("group:Z2", "Q"): [["1", "0"], ["0", "1"]],
    ("group:Z2", "GF:7"): [["1", "0"], ["0", "1"]],
    ("dualgroup:Z2", "Q"): [["1", "1"], ["1", "-1"]],
    ("dualgroup:Z2", "GF:7"): [["1", "1"], ["1", "6"]],
    ("group:S3", "GF:7"): [["1", "0", "0", "0", "0", "0"]],
    ("group:Z5", "Q"): [["1", "0", "0", "0", "0"]],
    ("dualgroup:S3", "GF:7"): [["1"] * 6, ["1", "6", "6", "1", "1", "6"]],
    ("dualgroup:S3", "Q"): [["1"] * 6, ["1", "-1", "-1", "1", "1", "-1"]],
    ("dualgroup:Z4", "Cyc:4"): [["[1,0]"] * 4, ["[1,0]", "[-1,0]", "[1,0]", "[-1,0]"]],
}


def _brute_force_pivots(H):
    """Every pivot of H over GF(p): each point of the slice eps(v) = 1 of the
    intertwiner space V, checked by the lambda-loop reference."""
    f, d = H.field, normalized_pair(H)
    V = _intertwiner_space(H)
    eps = [H.counit_apply(V.col_list(k)) for k in range(V.ncols)]
    live = [k for k in range(V.ncols) if eps[k] != f.zero]
    if not live:
        return []
    m = live[-1]
    found = []
    for rest in itertools.product(range(f.p), repeat=V.ncols - 1):
        c = [*rest[:m], f.zero, *rest[m:]]
        c[m] = f.div(f.sub(f.one, pairing(f, eps, c)), eps[m])
        v = V.apply(c)
        if H.is_grouplike(v) and not pivot_condition_failures_reference(H, d, v):
            found.append(v)
    return found


def _character_pivots(H, G):
    """The pivots of k^G = dualgroup:G: its grouplikes are the linear
    characters of G, each fixed by its values on a generating set (roots of
    unity of F of order dividing |G|) and checked on the whole Cayley table."""
    f, c, n = H.field, G.cayley, G.order
    if f.spec.kind == "prime-field":
        units = list(range(1, f.p))
    elif f.spec.kind == "rationals":
        units = [f.one, f.neg(f.one)]
    else:
        units = [f.pow(z, k) for z in (f.zeta, f.neg(f.zeta)) for k in range(f.n)]
    units = sorted({u for u in units if f.pow(u, n) == f.one})
    gens, reached = [], {G.identity}
    for s in range(n):
        if s not in reached:
            gens.append(s)
            reached.add(s)
            while len(grown := {c[x][y] for x in reached for y in reached} | reached) > len(reached):
                reached = grown
    found = []
    for values in itertools.product(units, repeat=len(gens)):
        chi, todo = {G.identity: f.one}, [G.identity]
        while todo:
            x = todo.pop()
            for s, u in zip(gens, values):
                if c[x][s] not in chi:
                    chi[c[x][s]] = f.mul(chi[x], u)
                    todo.append(c[x][s])
        if all(chi[c[x][y]] == f.mul(chi[x], chi[y]) for x in range(n) for y in range(n)):
            v = [chi[x] for x in range(n)]
            if not pivot_condition_failures_reference(H, normalized_pair(H), v):
                found.append(v)
    return found


@pytest.mark.parametrize("name, spec", [
    *[(name, "GF:7") for name in ("group:Z2", "group:Z3", "group:S3", "dualgroup:Z2",
                                  "sweedler", "taft:3", "uqsl2:3", "dualgroup:S3")],
    ("uqsl2:3", "GF:13"),
    ("dualgroup:Z2", "Q"), ("dualgroup:Z3", "Q"), ("dualgroup:S3", "Q"),
    ("dualgroup:S4", "Q"), ("dualgroup:S4", "GF:5"), ("dualgroup:Z4", "Cyc:4"),
    ("group:Z2", "Q"), ("group:Z5", "Q"),
])
def test_pivot_candidates_match_an_independent_oracle(name, spec, monkeypatch):
    # over GF(p) every point of the counit slice of V is tried; for k^G the
    # linear characters of G are; the pinned lists fix the order too.  The
    # search tests at most dim V candidates, one per line it peels off
    H = _make_builtin(name, _parse_field(spec))
    tested = []
    library = integrals_module._is_pivot
    monkeypatch.setattr(integrals_module, "_is_pivot",
                        lambda H, v: tested.append(v) or library(H, v))
    got = [p.g for p in pivot_candidates(H)]
    assert len(tested) <= _intertwiner_space(H).ncols
    if H.unit_vector() in got:
        assert got[0] == H.unit_vector()
    if spec.startswith("GF") and H.field.p ** (_intertwiner_space(H).ncols - 1) <= 20000:
        assert sorted(got) == sorted(_brute_force_pivots(H))
    elif name.startswith("dualgroup:"):
        group = name.split(":")[1]
        table = (GroupTable.cyclic(int(group[1:])) if group[0] == "Z"
                 else GroupTable.symmetric(int(group[1:])))
        assert sorted(got) == sorted(_character_pivots(H, table))
    else:  # over Q the group algebras are pinned only
        assert (name, spec) in PINNED_PIVOTS
    if (name, spec) in PINNED_PIVOTS:
        assert [H.format_vector(v) for v in got] == PINNED_PIVOTS[name, spec]


def test_an_undecided_search_keeps_the_pivots_it_found(monkeypatch):
    # a complete search that rejects every line answers [], it does not raise
    H = _make_builtin("uqsl2:3", _parse_field("GF:13"))
    monkeypatch.setattr(integrals_module, "_is_pivot", lambda H, v: False)
    assert pivot_candidates(H) == []
    monkeypatch.undo()
    # with no root ever found, V is never split: the search names the field and
    # the polynomial, and sphericality follows the first pivot found, if any
    monkeypatch.setattr(integrals_module, "_roots", lambda f, poly: ([], poly))
    with pytest.raises(PivotSearchInconclusive, match=r"of Q do not split .* \(constant"):
        pivot_candidates(_make_builtin("dualgroup:Z2", _parse_field("Q")))
    z2 = _make_builtin("group:Z2", _parse_field("Q"))
    found = PivotData(g=z2.basis_vector(1))

    def undecided(H):
        raise PivotSearchInconclusive("undecided", pivots)

    monkeypatch.setattr(integrals_module, "pivot_candidates", undecided)
    pivots = [found]
    assert is_spherical_hmod(z2) == (True, found)
    pivots = []
    with pytest.raises(PivotSearchInconclusive, match="undecided"):
        is_spherical_hmod(z2)


@pytest.mark.parametrize("placement", ["g x", "x g"])
def test_symmetrised_cointegral_is_a_symmetric_nondegenerate_form(corpus_data, placement):
    """For unimodular H with pivot g, t(x) = lambda(g x) is symmetric and
    non-degenerate (Radford's lambda(x y) = lambda(S^2(y) x) with S^2 = conj(g);
    Beliakova, Blanchet and Gainutdinov, Selecta Math., 2021).  Both
    placements of g give the same form, since lambda(x g) = lambda(S^2(g) x)."""
    def form(H, g):
        lam = normalized_pair(H).right_integral
        t = [pairing(H.field, lam, H.multiply(g, e) if placement == "g x" else H.multiply(e, g))
             for e in map(H.basis_vector, range(H.dim))]
        gram = Matrix.from_rows(H.field, [[pairing(H.field, [t[k] for k in col], col.values())
                                           for col in row] for row in H.mult])
        return gram == gram.transpose(), gram.rank() == H.dim

    inputs = [H for H, _ in corpus_data.values()]
    inputs += [_make_builtin(name, _parse_field(spec)) for name, spec in (
        ("uqsl2:3", "GF:7"), ("dualgroup:S3", "GF:7"), ("dualgroup:Z4", "Cyc:4"))]
    tried = 0
    for H in inputs:
        for p in pivot_candidates(H):
            assert form(H, p.g) == (True, True), (H.name, p.g)
            tried += 1
    assert tried == 11
    # the square K^2 of the pivot of uqsl2:3 is grouplike but no pivot
    H = inputs[-3]
    K = pivot_candidates(H)[0].g
    assert form(H, H.multiply(K, K)) == (False, True)


def test_grouplike_space_drops_spaces_where_the_counit_vanishes():
    # Sweedler's x and gx have eps = 0; over Q(i) a scalar payload is a tuple,
    # so the test is against the field's zero, not truthiness
    for spec in ("Q", "Cyc:4"):
        H = _make_builtin("sweedler", _parse_field(spec))
        f, eps = H.field, list(H.counit)
        rows = lambda *vs: Matrix.from_rows(f, [H.basis_vector(i) for i in vs])
        assert _grouplike_space(rows(2, 3), eps) is None
        assert _grouplike_space(Matrix.zeros(f, 1, H.dim), eps) is None
        B, P = _grouplike_space(rows(3, 1), eps)
        assert B == rows(1, 3) and P == (1, 3)


def test_is_spherical(corpus_data):
    expected = {"group:Z2": True, "group:Z3": True, "group:S3": True,
                "dualgroup:Z2": True, "sweedler": False, "taft:3": False}
    for name, (H, d) in corpus_data.items():
        spherical, pivot = is_spherical_hmod(H)
        assert spherical == expected[name], name
        if spherical:
            assert pivot.g == H.unit_vector()  # unit preferred everywhere here
        else:
            assert pivot is None


def test_integral_invariants_all_builtins(corpus_data):
    # normalized_pair re-verifies all six IntegralData invariants on build
    for name, (H, d) in corpus_data.items():
        f = H.field
        for i in range(H.dim):
            e = H.basis_vector(i)
            assert H.multiply(e, d.left_cointegral) == \
                vec_scale(f, H.counit[i], d.left_cointegral)
            assert H.multiply(d.left_cointegral, H.antipode_vector(i)) == \
                vec_scale(f, d.alpha[i], d.left_cointegral)


def test_lambda_certificate_holds_and_fails_with_alpha_replaced_by_counit(corpus_data):
    """The certificate that makes both Lambda-transformations H-linear holds
    on the corpus; with alpha replaced by the counit it fails on the two
    non-unimodular algebras, each at the first basis element where the left
    identity breaks."""
    for name, (H, d) in corpus_data.items():
        _check_lambda_certificate(H, d.left_cointegral, d.alpha)
    for name, basis in (("taft:3", 3), ("sweedler", 1)):
        H, d = corpus_data[name]
        with pytest.raises(HopfDataError, match=f"not H-linear at basis {basis}$"):
            _check_lambda_certificate(H, d.left_cointegral, H.counit)


def test_integral_invariants_include_the_lambda_certificate(h4, monkeypatch):
    seen = []
    monkeypatch.setattr(integrals_module, "_check_lambda_certificate",
                        lambda H, Lam, alpha: seen.append((H, Lam, alpha)))
    d = normalized_pair(h4)
    integrals_module._check_integral_invariants(h4, d)
    assert seen == [(h4, d.left_cointegral, d.alpha)]


def test_s_inverse_of_cointegral_is_right_cointegral(corpus_data):
    for name, (H, d) in corpus_data.items():
        w = H.antipode_inverse_apply(d.left_cointegral)
        for i in range(H.dim):
            assert H.multiply(w, H.basis_vector(i)) == \
                vec_scale(H.field, H.counit[i], w), name


def test_integral_antipode_exchange_identity(corpus_data):
    # lambda(a b) = alpha(S(b_(1))) lambda(S^2(b_(2)) a) for all basis pairs
    for name, (H, d) in corpus_data.items():
        f = H.field
        lam, alpha = d.right_integral, d.alpha
        S = H.antipode
        S2 = S @ S
        for a_i in range(H.dim):
            a = H.basis_vector(a_i)
            for b_i in range(H.dim):
                lhs = pairing(f, lam, H.multiply(a, H.basis_vector(b_i)))
                rhs = f.zero
                for (b1, b2), c in H.comult[b_i].items():
                    coeff = pairing(f, alpha, S.col_list(b1))
                    if coeff == f.zero:
                        continue
                    inner = pairing(f, lam, H.multiply(S2.col_list(b2), a))
                    rhs = f.add(rhs, f.mul(c, f.mul(coeff, inner)))
                assert lhs == rhs, f"{name} at ({a_i},{b_i})"


def test_lambda_on_cointegral_legs_gives_unit(corpus_data):
    # lambda(Lambda_(1)) Lambda_(2) = 1_H
    for name, (H, d) in corpus_data.items():
        f = H.field
        out = H.zero_vector()
        for (i, j), c in H.coproduct(d.left_cointegral).items():
            out[j] = f.add(out[j], f.mul(c, d.right_integral[i]))
        assert out == H.unit_vector(), name


def test_cop_dictionary(corpus_data):
    for name, (H, d) in corpus_data.items():
        f = H.field
        Hc = H.cop()
        dc = normalized_pair(Hc)
        # Lambda^cop = Lambda exactly (same canonical nullspace vector)
        assert dc.left_cointegral == d.left_cointegral, name
        # alpha_{H^cop} = alpha_H
        assert dc.alpha == d.alpha, name
        # lambda o S spans the right-integral space of cop(H), and agrees
        # exactly after the lambda(Lambda) = 1 normalization
        lam_s = H.antipode.transpose().apply(d.right_integral)
        assert _proportional(f, lam_s, dc.right_integral), name
        scale = pairing(f, lam_s, d.left_cointegral)
        assert vec_scale(f, f.inv(scale), lam_s) == dc.right_integral, name


def test_dual_group_algebra_integrals(dz2, Q):
    d = normalized_pair(dz2)
    # cointegral of functions on Z/2 is the delta at the identity
    assert d.left_cointegral == dz2.basis_vector(0)
    assert is_unimodular(dz2)
    cands = pivot_candidates(dz2)
    assert [p.g for p in cands] == [dz2.unit_vector(), dz2.element({0: 1, 1: -1})]


def test_alpha_matches_inverse_of_dual_distinguished_grouplike(corpus_data):
    # consistency remark: with alpha_std defined by Lambda h = alpha_std(h) Lambda
    # (the distinguished grouplike of H*), the implemented alpha is its
    # convolution inverse, i.e. alpha = alpha_std o S
    for name, (H, d) in corpus_data.items():
        f = H.field
        Lam = d.left_cointegral
        p = next(i for i, v in enumerate(Lam) if v != f.zero)
        a_std = []
        for j in range(H.dim):
            w = H.multiply(Lam, H.basis_vector(j))
            t = f.div(w[p], Lam[p])
            assert w == vec_scale(f, t, Lam), name
            a_std.append(t)
        assert H.antipode.transpose().apply(a_std) == list(d.alpha), name
        for k in range(H.dim):
            conv = f.zero
            for (i, j), c in H.comult[k].items():
                conv = f.add(conv, f.mul(c, f.mul(a_std[i], d.alpha[j])))
            assert conv == H.counit[k], name


def test_poly_gcd_is_monic_and_trimmed(Q, F7):
    # (s - 1)(s - 2) and (s - 1)(s + 3): gcd s - 1, whatever the scaling
    for f in (Q, F7):
        a = [f.coerce(v) for v in (4, -6, 2)]
        b = [f.coerce(v) for v in (-3, 2, 1, 0)]
        assert _poly_gcd(f, a, b) == [f.coerce(-1), f.one]
        assert _poly_gcd(f, a, [f.zero]) == [f.coerce(2), f.coerce(-3), f.one]
        assert _poly_gcd(f, [f.coerce(5)], a) == [f.one]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 7, 13]), st.integers(1, 5), st.data())
def test_char_poly_and_roots_over_gf_p_match_brute_force(p, n, data):
    # the roots are exactly the l with l I - A singular, and the
    # characteristic polynomial is monic of degree n with p(A) = 0
    f = field_make(FieldSpec("prime-field", p=p))
    A = Matrix.from_rows(f, data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                                         max_size=n), min_size=n, max_size=n)))
    poly = _char_poly(f, A)
    assert len(poly) == n + 1 and poly[-1] == f.one
    pA = Matrix.combination(f, n, n, [(c, A_k) for c, A_k in zip(
        poly, itertools.accumulate([Matrix.identity(f, n)] * (n + 1), lambda P, _: P @ A))])
    assert pA == Matrix.zeros(f, n, n)
    singular = [x for x in range(p)
                if (Matrix.identity(f, n).scale(x) - A).rank() < n]
    assert _roots(f, poly) == (singular, None)


def test_roots_over_q_and_cyclotomic_fields(Q, C4):
    # over Q: (x - 1/2)(x + 3)(x^2 + 1) x^2, x^2 - 2, (x - 10^12)(x + 10^12 + 1),
    # and x (x -+ 10^12), whose nonzero root sits at the Cauchy bound
    assert _roots(Q, [Fraction(v, 2) for v in (0, 0, -3, 5, -1, 5, 2)]) == \
        ([Fraction(-3), Fraction(0), Fraction(1, 2)], None)
    big = 10 ** 12
    assert _roots(Q, [Q.coerce(-big * (big + 1)), Q.one, Q.one]) == ([-big - 1, big], None)
    for r in (big, -big):
        assert _roots(Q, [Q.zero, Q.coerce(-r), Q.one]) == (sorted([0, r]), None)
    assert _roots(Q, [Q.coerce(v) for v in (-2, 0, 1)]) == ([], None)
    # over Q(i): (x - i)^2 (x + 1/2) is split by i, -1/2; (x^2 - 2)(x - 3) leaves
    # x^2 - 2, whose roots the search does not know are not in Q(i)
    i = C4.zeta
    x_i = [C4.neg(i), C4.one]
    poly = _poly_mul(C4, _poly_mul(C4, x_i, x_i), [C4.coerce(Fraction(1, 2)), C4.one])
    assert _roots(C4, poly) == (sorted([i, C4.coerce(Fraction(-1, 2))]), None)
    poly = _poly_mul(C4, [C4.coerce(-2), C4.zero, C4.one], [C4.coerce(-3), C4.one])
    assert _roots(C4, poly) == ([C4.coerce(3)], [C4.coerce(-2), C4.zero, C4.one])
    # a linear factor left over has its root in the field
    assert _roots(C4, [C4.add(C4.one, i), C4.one]) == ([C4.neg(C4.add(C4.one, i))], None)


def _radford_s4_rhs(H, d, h, invert_a=False, swap_hooks=False):
    """``a (phi -> h <- psi) a^-1`` with ``phi -> h <- psi = psi(h_(1)) h_(2)
    phi(h_(3))``, phi = alpha^-1 = alpha o S and psi = alpha; the flags put
    a^-1 on the left instead, and swap phi and psi."""
    f = H.field
    phi = H.antipode.transpose().apply(d.alpha)
    psi = list(d.alpha)
    if swap_hooks:
        phi, psi = psi, phi
    a = d.distinguished_grouplike
    a_inv = H.antipode_apply(a)
    if invert_a:
        a, a_inv = a_inv, a
    hooked = H.zero_vector()
    for (i, j, k), c in H.coproduct_iter(2, h).items():
        hooked[j] = f.add(hooked[j], f.mul(c, f.mul(psi[i], phi[k])))
    return H.multiply(H.multiply(a, hooked), a_inv)


def test_radford_s4_formula(corpus_data):
    # Radford (1976): S^4(h) = a (alpha -> h <- alpha^-1) a^-1 for the alpha of
    # Lambda h = alpha(h) Lambda.  Here alpha is defined by Lambda S(h) =
    # alpha(h) Lambda, its convolution inverse, so the hooks swap.  Taft(3)
    # tells the four placements of the inverses apart; Sweedler fits all four
    forms = [(False, False), (False, True), (True, False), (True, True)]
    pinned = {"taft:3": forms[:1], "sweedler": forms}
    inputs = dict(corpus_data)
    uq = _make_builtin("uqsl2:3", _parse_field("GF:7"))
    inputs["uqsl2:3"] = (uq, normalized_pair(uq))
    for name, (H, d) in inputs.items():
        S4 = H.antipode_squared() @ H.antipode_squared()
        holding = [form for form in forms
                   if all(S4.col_list(i) == _radford_s4_rhs(H, d, H.basis_vector(i), *form)
                          for i in range(H.dim))]
        assert holding[:1] == forms[:1], name
        assert holding == pinned.get(name, holding), name
