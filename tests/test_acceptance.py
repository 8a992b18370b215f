"""Acceptance criteria, one test per criterion.

Every comparison is exact (no tolerances anywhere); each criterion also
asserts its wall-clock budget and prints one PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them live).
"""

import time
from contextlib import contextmanager
from dataclasses import replace

from helpers import axiom_violated, dense_tensors, mutate, terms

from hopfchrom import (
    FieldSpec,
    GroupTable,
    HopfAxiomError,
    Matrix,
    Morphism,
    alpha_left_ideal,
    alpha_module,
    chromatic_left_hopf,
    chromatic_retract,
    chromatic_right_hopf,
    chromatic_spherical,
    cointegral_space,
    dual_group_algebra,
    field_make,
    group_algebra,
    hopf_make,
    integral_space,
    is_spherical_hmod,
    is_unimodular,
    lambda_transform,
    hom_basis,
    normalized_pair,
    pivot_candidates,
    regular_module,
    split_idempotent,
    sweedler_h4,
    taft,
    trivial_module,
    verify_chromatic_identity,
)
from hopfchrom.algebras import find_nontrivial_idempotent
from hopfchrom.hopf import pairing, vec_scale
from hopfchrom.integrals import _pivot_condition_failures


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.perf_counter() - t0
        status = "FAIL" if failed or dt >= budget_s else "PASS"
        print(f"ACCEPTANCE {number} [{label}]: {status} "
              f"({dt:.2f}s, budget {budget_s:.0f}s)")
    assert dt < budget_s, f"criterion {number} exceeded {budget_s}s ({dt:.2f}s)"


def _build_corpus():
    Q = field_make(FieldSpec("rationals"))
    F7 = field_make(FieldSpec("prime-field", p=7))
    return [
        group_algebra(GroupTable.cyclic(2), Q, "group:Z2"),
        group_algebra(GroupTable.cyclic(3), Q, "group:Z3"),
        group_algebra(GroupTable.symmetric(3), Q, "group:S3"),
        dual_group_algebra(GroupTable.cyclic(2), Q, "dualgroup:Z2"),
        sweedler_h4(Q),
        taft(3, F7),
    ]


def _mutation_stream(H):
    n = H.dim
    by_kind = {"mult": [], "comult": [], "antipode": [], "counit": [], "unit": []}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                by_kind["mult"].append((i, j, k))
                by_kind["comult"].append((i, j, k))
            by_kind["antipode"].append((i, j))
        by_kind["counit"].append((i,))
        by_kind["unit"].append((i,))
    order = ["mult", "comult", "antipode", "counit", "unit"]
    pos = 0
    while any(by_kind[k] for k in order):
        k = order[pos % len(order)]
        pos += 1
        if by_kind[k]:
            yield k, by_kind[k].pop(0)


def test_criterion_1_axiom_suite_and_mutations():
    with criterion(1, "axiom suite + 10 mutations per builtin", 5.0):
        corpus = _build_corpus()  # construction runs the full axiom suite
        for H in corpus:
            base = dense_tensors(H)
            failures = 0
            for kind, idx in _mutation_stream(H):
                t = mutate(base, kind, idx, H.field)
                try:
                    hopf_make(H.field, H.basis_names, **terms(t))
                except HopfAxiomError as err:
                    assert axiom_violated(H.field, t, err.axiom), \
                        f"{H.name}: {kind}{idx} misnamed {err.axiom}"
                    failures += 1
                    if failures == 10:
                        break
                else:
                    continue
            assert failures == 10, H.name


def test_criterion_2_integral_uniqueness():
    with criterion(2, "integral spaces 1-dimensional, normalizable", 2.0):
        for H in _build_corpus():
            for side in ("left", "right"):
                assert cointegral_space(H, side).ncols == 1, H.name
                assert integral_space(H, side).ncols == 1, H.name
            lam = integral_space(H, "right").col_list(0)
            Lam = cointegral_space(H, "left").col_list(0)
            assert pairing(H.field, lam, Lam) != H.field.zero, H.name
            data = normalized_pair(H)
            assert pairing(H.field, data.right_integral,
                           data.left_cointegral) == H.field.one, H.name


def test_criterion_3_sweedler_ground_truth():
    with criterion(3, "Sweedler H4 ground truth", 1.0):
        Q = field_make(FieldSpec("rationals"))
        H = sweedler_h4(Q)
        d = normalized_pair(H)
        x_plus_gx = H.element({2: 1, 3: 1})
        basis = cointegral_space(H, "left")
        assert basis.ncols == 1
        col = basis.col_list(0)
        t = col[2]
        assert col == vec_scale(Q, t, x_plus_gx)       # Lambda in span(x + gx)
        assert d.left_cointegral == x_plus_gx
        assert d.right_integral == H.element({2: 1})   # lambda = x^*
        assert d.alpha[1] == Q.neg(Q.one)              # alpha(g) = -1
        assert d.distinguished_grouplike == H.basis_vector(1)  # a = g
        assert not is_unimodular(H)
        spherical, _ = is_spherical_hmod(H)
        assert not spherical


def _retract_family(H):
    a = find_nontrivial_idempotent(H)
    assert a is not None
    G = regular_module(H)
    return split_idempotent(Morphism((G,), (G,), H.element_right_mult(a)))


def test_criterion_4_chromatic_identities():
    with criterion(4, "left/right/spherical chromatic identities", 60.0):
        slowest = 0.0
        for H in _build_corpus():
            G = regular_module(H)
            fam = _retract_family(H)
            xmods = [trivial_module(H), regular_module(H), alpha_module(H)]
            cl = chromatic_left_hopf(H)
            cr = chromatic_right_hopf(H)
            cases = [(cl, G, "left"), (cr, G, "right"),
                     (chromatic_retract(cl, fam), fam.P, "left"),
                     (chromatic_retract(cr, fam), fam.P, "right")]
            spherical, pivot = is_spherical_hmod(H)
            if spherical:
                cs = chromatic_spherical(H, pivot)
                cases += [(cs, G, "spherical"),
                          (chromatic_retract(cs, fam), fam.P,
                           "spherical")]
            for X in xmods:
                for c, P, side in cases:
                    rep = verify_chromatic_identity(c, X)
                    assert rep.equal, (H.name, side, P.label, X.label)
                    slowest = max(slowest, rep.elapsed)
        # spherical holds on the three group algebras by construction above;
        # check the k[Z/2] map is the delta map entrywise
        Q = field_make(FieldSpec("rationals"))
        z2 = group_algebra(GroupTable.cyclic(2), Q, "group:Z2")
        _, piv = is_spherical_hmod(z2)
        c = chromatic_spherical(z2, piv)
        for a in range(2):
            for b in range(2):
                for h1 in range(2):
                    for h2 in range(2):
                        want = Q.one if a == b == h1 == h2 else Q.zero
                        assert c.matrix.entry(h1 * 2 + h2, a * 2 + b) == want
        assert slowest < 60.0, f"largest instance took {slowest:.2f}s"


def test_criterion_5_lambda_comparison_on_projectives():
    with criterion(5, "Lambda^l = Lambda^r on projectives (unimodular pivotal)", 2.0):
        for H in _build_corpus():
            if not is_unimodular(H):
                continue
            spherical, _ = is_spherical_hmod(H)
            assert spherical, H.name  # all unimodular builtins are pivotal here
            fam = _retract_family(H)
            for P in (regular_module(H), fam.P):
                left = lambda_transform(H, (P,), "left")
                right = lambda_transform(H, (P,), "right")
                assert left.matrix == right.matrix, (H.name, P.label)


def test_criterion_6_section_3_5_identity_suite():
    with criterion(6, "integral identity suite", 5.0):
        for H in _build_corpus():
            f = H.field
            d = normalized_pair(H)
            lam, Lam, alpha = d.right_integral, d.left_cointegral, d.alpha
            S = H.antipode
            S2 = S @ S
            # lambda(a b) = alpha(S(b_(1))) lambda(S^2(b_(2)) a)
            for ai in range(H.dim):
                a = H.basis_vector(ai)
                for bi in range(H.dim):
                    lhs = pairing(f, lam, H.multiply(a, H.basis_vector(bi)))
                    rhs = f.zero
                    for (b1, b2), c in H.comult[bi].items():
                        coeff = pairing(f, alpha, S.col_list(b1))
                        if coeff == f.zero:
                            continue
                        inner = pairing(f, lam, H.multiply(S2.col_list(b2), a))
                        rhs = f.add(rhs, f.mul(c, f.mul(coeff, inner)))
                    assert lhs == rhs, (H.name, ai, bi)
            # lambda(Lambda_(1)) Lambda_(2) = 1_H
            out = H.zero_vector()
            for (i, j), c in H.coproduct(Lam).items():
                out[j] = f.add(out[j], f.mul(c, lam[i]))
            assert out == H.unit_vector(), H.name
            # S^{-1}(Lambda) is a right cointegral
            w = H.antipode_inverse_apply(Lam)
            for i in range(H.dim):
                assert H.multiply(w, H.basis_vector(i)) == \
                    vec_scale(f, H.counit[i], w), H.name
            # both right-cointegral characterizations give the same line
            right_space = cointegral_space(H, "right")
            ideal = alpha_left_ideal(H, alpha)
            assert right_space.ncols == 1 and ideal.ncols == 1
            a1, a2 = right_space.col_list(0), ideal.col_list(0)
            p = next(i for i, v in enumerate(a2) if v != f.zero)
            assert a1 == vec_scale(f, f.div(a1[p], a2[p]), a2), H.name


def test_criterion_7_cop_dictionary():
    with criterion(7, "H^cop dictionary + right/left grid agreement", 30.0):
        for H in _build_corpus():
            f = H.field
            d = normalized_pair(H)
            Hc = H.cop()
            dc = normalized_pair(Hc)
            assert dc.left_cointegral == d.left_cointegral, H.name
            assert dc.alpha == d.alpha, H.name
            lam_s = H.antipode.transpose().apply(d.right_integral)
            scale = pairing(f, lam_s, d.left_cointegral)
            assert scale != f.zero
            assert vec_scale(f, f.inv(scale), lam_s) == dc.right_integral, H.name
            # right verification in H agrees with left verification in cop(H)
            cr = chromatic_right_hopf(H)
            cl_c = chromatic_left_hopf(Hc)
            fam, fam_c = _retract_family(H), _retract_family(Hc)
            crp = chromatic_retract(cr, fam)
            clp_c = chromatic_retract(cl_c, fam_c)
            G, Gc = regular_module(H), regular_module(Hc)
            xs = [trivial_module(H), regular_module(H), alpha_module(H)]
            xs_c = [trivial_module(Hc), regular_module(Hc), alpha_module(Hc)]
            for X, Xc in zip(xs, xs_c):
                for (c1, P1), (c2, P2) in (((cr, G), (cl_c, Gc)),
                                           ((crp, fam.P), (clp_c, fam_c.P))):
                    r1 = verify_chromatic_identity(c1, X)
                    r2 = verify_chromatic_identity(c2, Xc)
                    assert r1.equal and r2.equal, (H.name, X.label, P1.label)


def test_criterion_8_negative_controls():
    # A chromatic map is an H-mod morphism satisfying the defining identity;
    # rejection therefore means: some grid identity fails, or the intertwiner
    # check fails.  On k[Z/2] the X = trivial instance alone detects every
    # bump, and the mismatch coordinates are reported.
    from hopfchrom import is_h_linear

    with criterion(8, "perturbations and bad pivots rejected", 5.0):
        Q = field_make(FieldSpec("rationals"))
        corpus = [group_algebra(GroupTable.cyclic(2), Q, "group:Z2"),
                  sweedler_h4(Q)]
        for H in corpus:
            G = regular_module(H)
            xmods = [trivial_module(H), regular_module(H), alpha_module(H)]
            for side, c in (("left", chromatic_left_hopf(H)),
                            ("right", chromatic_right_hopf(H))):
                assert verify_chromatic_identity(c, xmods[0]).equal
                n2 = c.matrix.nrows
                for r in range(n2):
                    for cidx in range(n2):
                        bumped = c.matrix + Matrix.from_entries(
                            H.field, n2, n2, {(r, cidx): H.field.one})
                        bad = replace(c, matrix=bumped)
                        rejected = not is_h_linear(bad) or any(
                            not verify_chromatic_identity(bad, X).equal
                            for X in xmods)
                        assert rejected, (H.name, side, r, cidx)
                        if H.dim == 2:
                            rep = verify_chromatic_identity(bad, xmods[0])
                            assert not rep.equal and rep.mismatch is not None
        # pivot candidates violating any of the three conditions are rejected
        z2 = corpus[0]
        assert _pivot_condition_failures(z2, z2.element({0: 2})) != []
        h4 = corpus[1]
        assert _pivot_condition_failures(h4, h4.basis_vector(1)) == \
            ["unibalanced"]
        assert pivot_candidates(h4) == []
        F7 = field_make(FieldSpec("prime-field", p=7))
        t3 = taft(3, F7)
        assert "conjugation" in _pivot_condition_failures(t3, t3.basis_vector(3))
        assert pivot_candidates(t3) == []


def test_criterion_9_lambda_naturality():
    with criterion(9, "naturality of Lambda^l/Lambda^r over Hom(H,H)", 5.0):
        for H in _build_corpus():
            G = regular_module(H)
            basis = hom_basis(G, G)
            assert len(basis) == H.dim, H.name
            ll = lambda_transform(H, (G,), "left").matrix
            rr = lambda_transform(H, (G,), "right").matrix
            for F in basis:
                assert F @ ll == ll @ F, H.name
                assert F @ rr == rr @ F, H.name
