"""Optional stretch corpus entry: restricted quantum sl2 at a cube root of 1.

The only builtin whose squared antipode is a nontrivial inner automorphism,
so it exercises the pivot-twisted evaluations with an honest pivot (K).
"""

import pytest
from helpers import cop_transported_right_map

from hopfchrom import (
    FieldSpec,
    Morphism,
    alpha_module,
    chromatic_left_hopf,
    chromatic_retract,
    chromatic_right_hopf,
    chromatic_spherical,
    field_make,
    is_spherical_hmod,
    is_unimodular,
    lambda_transform,
    normalized_pair,
    pivot_candidates,
    regular_module,
    split_idempotent,
    trivial_module,
    verify_chromatic_identity,
)
from hopfchrom.algebras import find_nontrivial_idempotent, small_quantum_sl2


@pytest.fixture(scope="module")
def uq():
    F7 = field_make(FieldSpec("prime-field", p=7))
    H = small_quantum_sl2(3, F7)  # axiom suite runs here
    return H, normalized_pair(H)


def test_dimensions_and_pbw_names(uq):
    H, _ = uq
    assert H.dim == 27
    assert H.basis_names[0] == "1"
    assert "FKE" in H.basis_names


def test_integral_package(uq):
    H, d = uq
    f = H.field
    assert is_unimodular(H)
    # Lambda is supported on F^2 K^b E^2, a = K^2
    for i, v in enumerate(d.left_cointegral):
        if v != f.zero:
            assert H.basis_names[i] in ("F2E2", "F2KE2", "F2K2E2")
    K2 = H.basis_names.index("K2")
    assert d.distinguished_grouplike == H.basis_vector(K2)


def test_pivot_is_K(uq):
    H, d = uq
    K = H.basis_names.index("K")
    cands = pivot_candidates(H)
    assert [p.g for p in cands] == [H.basis_vector(K)]
    # S^2 is a nontrivial automorphism: conjugation by K
    S2 = H.antipode @ H.antipode
    E = H.basis_names.index("E")
    assert S2.col_list(E) != H.basis_vector(E)
    spherical, pivot = is_spherical_hmod(H)
    assert spherical and pivot.g == H.basis_vector(K)


def test_left_right_identities_small_x(uq):
    H, d = uq
    G = regular_module(H)
    cl = chromatic_left_hopf(H)
    cr = chromatic_right_hopf(H)
    assert cr.matrix == cop_transported_right_map(H)
    for X in (trivial_module(H), alpha_module(H)):
        assert verify_chromatic_identity(cl, X).equal
        assert verify_chromatic_identity(cr, X).equal


def test_spherical_identity_with_nontrivial_pivot(uq):
    H, d = uq
    _, pivot = is_spherical_hmod(H)
    G = regular_module(H)
    cs = chromatic_spherical(H, pivot)  # intertwiner check included
    for X in (trivial_module(H), alpha_module(H), regular_module(H)):
        rep = verify_chromatic_identity(cs, X)
        assert rep.equal, X.label
    # and on an idempotent summand
    a = find_nontrivial_idempotent(H)
    fam = split_idempotent(Morphism((G,), (G,), H.element_right_mult(a)))
    assert fam.P.dim == 9
    csp = chromatic_retract(cs, fam)
    rep = verify_chromatic_identity(csp, trivial_module(H))
    assert rep.equal


def test_lambda_comparison_on_projectives(uq):
    H, d = uq
    G = regular_module(H)
    left = lambda_transform(H, (G,), "left")
    right = lambda_transform(H, (G,), "right")
    assert left.matrix == right.matrix


def test_needs_odd_order():
    from hopfchrom import FieldError

    F7 = field_make(FieldSpec("prime-field", p=7))
    with pytest.raises(FieldError):
        small_quantum_sl2(2, F7)
