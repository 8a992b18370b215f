from fractions import Fraction

from helpers import pivot_condition_failures_reference

import hopfchrom.integrals as integrals_module
from hopfchrom import (
    FieldSpec,
    GroupTable,
    HopfAlgebra,
    Matrix,
    PivotSearchInconclusive,
    alpha_left_ideal,
    cointegral_space,
    field_make,
    group_algebra,
    integral_space,
    is_spherical_hmod,
    is_unimodular,
    normalized_pair,
    pivot_candidates,
)
from hopfchrom.hopf import pairing, vec_scale
from hopfchrom.cli import _make_builtin, _parse_field
from hopfchrom.integrals import (
    _grouplikes_on_plane,
    _intertwiner_space,
    _pivot_condition_failures,
    _poly_gcd,
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


def test_unimodularity(corpus_data):
    expected = {"group:Z2": True, "group:Z3": True, "group:S3": True,
                "dualgroup:Z2": True, "sweedler": False, "taft:3": False}
    for name, (H, d) in corpus_data.items():
        assert is_unimodular(H, d) == expected[name], name


def test_pivot_candidates_z2(z2):
    d = normalized_pair(z2)
    cands = [p.g for p in pivot_candidates(z2, d)]
    assert cands == [z2.basis_vector(0), z2.basis_vector(1)]  # both e and g
    for p in pivot_candidates(z2, d):
        assert z2.multiply(p.g, p.g_inverse) == z2.unit_vector()


def test_pivot_candidates_h4_empty(h4):
    assert pivot_candidates(h4, normalized_pair(h4)) == []


def test_pivot_candidates_z3_unit(z3):
    d = normalized_pair(z3)
    cands = pivot_candidates(z3, d)
    assert cands and cands[0].g == z3.unit_vector()


def test_pivot_candidates_taft_empty(t3):
    # S^2 is conjugation by g^{-1}; that grouplike fails the unibalanced test
    d = normalized_pair(t3)
    assert pivot_candidates(t3, d) == []
    g_inv = t3.basis_vector(6)  # g^2 = g^{-1}
    assert _pivot_condition_failures(t3, d, g_inv) == ["unibalanced"]


def test_pivot_condition_rejection(z2, h4, t3):
    dz2 = normalized_pair(z2)
    # scaling breaks grouplikeness
    bad = vec_scale(z2.field, Fraction(2), z2.unit_vector())
    assert "grouplike" in _pivot_condition_failures(z2, dz2, bad)
    dh4 = normalized_pair(h4)
    # g in H4 is grouplike and conjugates S^2, but g^2 = 1 != a = g
    assert _pivot_condition_failures(h4, dh4, h4.basis_vector(1)) == ["unibalanced"]
    dt3 = normalized_pair(t3)
    # g in Taft(3) fails the conjugation condition (the pivot side is g^{-1})
    assert "conjugation" in _pivot_condition_failures(t3, dt3, t3.basis_vector(3))


def test_pivot_conditions_match_lambda_loop_reference(corpus_data, monkeypatch):
    # the hook sits on the search's predicate, so it sees every candidate,
    # also those the eps(v) = 1 and v^2 = a pre-checks turn away
    tested = []
    library = integrals_module._is_pivot

    def recording(H, data, v):
        verdict = library(H, data, v)
        tested.append((H, data, v, verdict))
        return verdict

    monkeypatch.setattr(integrals_module, "_is_pivot", recording)
    inputs = dict(corpus_data)
    for name in ("taft:3", "group:S3"):  # dim V = 1 and 3 over GF(7)
        H = _make_builtin(name, _parse_field("GF:7"))
        inputs[f"{name}/GF:7"] = (H, normalized_pair(H))
    for H, d in inputs.values():
        pivot_candidates(H, d)
    assert {(H.name, H.field.spec) for H, _, _, _ in tested} == \
        {(H.name, H.field.spec) for H, _ in inputs.values()}
    unibalanced_only = False
    for H, d, v, verdict in tested:
        reference = pivot_condition_failures_reference(H, d, v)
        assert verdict == (reference == []), (H.name, v)
        assert _pivot_condition_failures(H, d, v) == reference, (H.name, v)
        unibalanced_only |= reference == ["unibalanced"]
    assert unibalanced_only


def _counted_pivot_search(H, d, monkeypatch):
    calls = {"multiply": 0, "apply": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HopfAlgebra, "multiply", counted("multiply", HopfAlgebra.multiply))
    monkeypatch.setattr(Matrix, "apply", counted("apply", Matrix.apply))
    pivots = pivot_candidates(H, d)
    monkeypatch.undo()
    return pivots, calls


def test_pivot_search_builds_only_the_counit_slice(monkeypatch):
    # uqsl2:3 over GF(7): dim V = 4, so the search is exhaustive over 7^4
    # points; only the 7^3 with eps(v) = 1 are built, and only candidates
    # with eps(v) = 1 and v^2 = a reach the full three-condition check
    H = _make_builtin("uqsl2:3", _parse_field("GF:7"))
    d = normalized_pair(H)
    assert _intertwiner_space(H).ncols == 4
    pivots, calls = _counted_pivot_search(H, d, monkeypatch)
    assert [p.g for p in pivots] == [H.basis_vector(H.basis_names.index("K"))]
    assert calls["multiply"] <= 1000, calls
    assert calls["apply"] <= 400, calls
    S3 = _make_builtin("group:S3", _parse_field("GF:7"))
    assert _intertwiner_space(S3).ncols == 3
    pivots, _ = _counted_pivot_search(S3, normalized_pair(S3), monkeypatch)
    assert [S3.format_vector(p.g) for p in pivots] == [["1", "0", "0", "0", "0", "0"]]


def test_is_spherical(corpus_data):
    expected = {"group:Z2": True, "group:Z3": True, "group:S3": True,
                "dualgroup:Z2": True, "sweedler": False, "taft:3": False}
    for name, (H, d) in corpus_data.items():
        spherical, pivot = is_spherical_hmod(H, d)
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


def test_pivot_search_inconclusive_is_distinct():
    # commutative group algebra of rank 3 over Q with the heuristics disabled
    # is not reachable through the public API, so exercise the error type via
    # a cocommutative algebra whose heuristic candidates all fail: none exists
    # in the corpus, so check instead that the exception type is exported and
    # that complete searches do not raise.
    Q = field_make(FieldSpec("rationals"))
    H = group_algebra(GroupTable.cyclic(5), Q, "group:Z5")
    cands = pivot_candidates(H, normalized_pair(H))
    assert cands and cands[0].g == H.unit_vector()
    assert issubclass(PivotSearchInconclusive, RuntimeError)


def test_dual_group_algebra_integrals(dz2, Q):
    d = normalized_pair(dz2)
    # cointegral of functions on Z/2 is the delta at the identity
    assert d.left_cointegral == dz2.basis_vector(0)
    assert is_unimodular(dz2, d)
    cands = pivot_candidates(dz2, d)
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


def test_pivot_candidates_accept_hints(z2):
    d = normalized_pair(z2)
    # hints are deduplicated against the complete search and re-verified
    cands = pivot_candidates(z2, d, hints=([1, 1], [0, 1]))
    assert [p.g for p in cands] == [z2.basis_vector(0), z2.basis_vector(1)]


def test_plane_search_pivots_over_q_and_gf7():
    # dim V = 2 on both algebras, so the search runs through the counit-line
    # elimination and the polynomial gcd
    want = {
        ("group:Z2", "Q"): ([[0, 1], [1, 0]], [["1", "0"], ["0", "1"]]),
        ("group:Z2", "GF:7"): ([[0, 1], [1, 0]], [["1", "0"], ["0", "1"]]),
        ("dualgroup:Z2", "Q"): ([[1, -1], [1, 1]], [["1", "1"], ["1", "-1"]]),
        ("dualgroup:Z2", "GF:7"): ([[1, 1], [1, 6]], [["1", "1"], ["1", "6"]]),
    }
    for (name, spec), (plane, pivots) in want.items():
        H = _make_builtin(name, _parse_field(spec))
        V = _intertwiner_space(H)
        assert V.ncols == 2, (name, spec)
        vecs, complete = _grouplikes_on_plane(H, V.col_list(0), V.col_list(1))
        assert complete and vecs == [H.element(v) for v in plane], (name, spec)
        got = [H.format_vector(p.g) for p in pivot_candidates(H, normalized_pair(H))]
        assert got == pivots, (name, spec)


def test_poly_gcd_is_monic_and_trimmed(Q, F7):
    # (s - 1)(s - 2) and (s - 1)(s + 3): gcd s - 1, whatever the scaling
    for f in (Q, F7):
        a = [f.coerce(v) for v in (4, -6, 2)]
        b = [f.coerce(v) for v in (-3, 2, 1, 0)]
        assert _poly_gcd(f, a, b) == [f.coerce(-1), f.one]
        assert _poly_gcd(f, a, [f.zero]) == [f.coerce(2), f.coerce(-3), f.one]
        assert _poly_gcd(f, [f.coerce(5)], a) == [f.one]


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
