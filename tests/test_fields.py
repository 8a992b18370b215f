from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfchrom import (
    FieldError,
    FieldSpec,
    field_make,
    primitive_root_of_unity,
)


def test_field_make_kinds(Q, F7, C4):
    assert Q.zero != Q.one
    assert F7.characteristic() == 7
    assert len(list(F7.elements())) == 7
    assert C4.degree == 2


def test_field_make_rejects_bad_specs():
    with pytest.raises(FieldError):
        field_make(FieldSpec("prime-field", p=6))
    with pytest.raises(FieldError):
        field_make(FieldSpec("prime-field", p=1))
    with pytest.raises(FieldError):
        field_make(FieldSpec("cyclotomic", n=0))
    with pytest.raises(FieldError):
        field_make(FieldSpec("integers"))


def test_rational_arithmetic(Q):
    assert Q.inv(Fraction(3, 2)) == Fraction(2, 3)
    assert Q.parse("-3/6") == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        Q.inv(Q.zero)
    with pytest.raises(FieldError):
        Q.parse("1/0")
    with pytest.raises(FieldError):
        Q.parse("x")


def test_prime_field_arithmetic(F7):
    assert F7.mul(3, 5) == 1
    assert F7.parse("-1") == 6
    assert F7.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(FieldError):
        F7.parse("2/3")


def test_cyclotomic_zeta4_squares_to_minus_one(C4):
    z = C4.zeta
    assert C4.mul(z, z) == C4.neg(C4.one)
    assert C4.parse("[0,1]") == z
    assert C4.format(z) == "[0,1]"
    inv = C4.inv(z)
    assert C4.mul(z, inv) == C4.one


def test_cyclotomic_parse_errors(C4):
    with pytest.raises(FieldError):
        C4.parse("1")  # bare rationals are not cyclotomic literals
    with pytest.raises(FieldError):
        C4.parse("[1,2,3]")  # too long for phi(4) = 2


@pytest.mark.parametrize("n,expected_degree", [(1, 1), (2, 1), (3, 2), (4, 2),
                                               (6, 2), (5, 4), (12, 4)])
def test_cyclotomic_degrees(n, expected_degree):
    assert field_make(FieldSpec("cyclotomic", n=n)).degree == expected_degree


def test_primitive_roots():
    F7 = field_make(FieldSpec("prime-field", p=7))
    Q = field_make(FieldSpec("rationals"))
    assert primitive_root_of_unity(F7, 3) == 2
    assert primitive_root_of_unity(Q, 2) == Fraction(-1)
    assert primitive_root_of_unity(Q, 1) == Fraction(1)
    with pytest.raises(FieldError):
        primitive_root_of_unity(Q, 3)
    with pytest.raises(FieldError):
        primitive_root_of_unity(F7, 5)  # 5 does not divide 6


@pytest.mark.parametrize("n,k", [(3, 3), (3, 6), (3, 2), (4, 4), (4, 2),
                                 (6, 6), (12, 12), (12, 3)])
def test_primitive_roots_cyclotomic(n, k):
    F = field_make(FieldSpec("cyclotomic", n=n))
    q = primitive_root_of_unity(F, k)
    assert F.pow(q, k) == F.one
    for j in range(1, k):
        assert F.pow(q, j) != F.one


def test_primitive_root_order_checked_exhaustively(F7):
    for n in (1, 2, 3, 6):
        q = primitive_root_of_unity(F7, n)
        assert F7.pow(q, n) == F7.one
        assert all(F7.pow(q, k) != F7.one for k in range(1, n))
    # the smallest residue of exact order n, as a scan of GF(p) finds it
    for p in (p for p in range(2, 400) if all(p % d for d in range(2, p))):
        F = field_make(FieldSpec("prime-field", p=p))
        for n in (n for n in range(1, 13) if (p - 1) % n == 0):
            scan = next(a for a in range(1, p) if pow(a, n, p) == 1
                        and all(pow(a, k, p) != 1 for k in range(1, n)))
            assert primitive_root_of_unity(F, n) == scan, (p, n)


# -- randomized field axioms ---------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)
residues = st.integers(min_value=0, max_value=6)
cyc_payloads = st.lists(rationals, min_size=2, max_size=2).map(tuple)


def _axiom_check(f, a, b, c):
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a != f.zero:
        assert f.mul(a, f.inv(a)) == f.one


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    _axiom_check(field_make(FieldSpec("rationals")), a, b, c)


@settings(max_examples=60, deadline=None)
@given(residues, residues, residues)
def test_field_axioms_gf7(a, b, c):
    _axiom_check(field_make(FieldSpec("prime-field", p=7)), a, b, c)


@settings(max_examples=40, deadline=None)
@given(cyc_payloads, cyc_payloads, cyc_payloads)
def test_field_axioms_cyclotomic(a, b, c):
    _axiom_check(field_make(FieldSpec("cyclotomic", n=4)), a, b, c)


@settings(max_examples=40, deadline=None)
@given(rationals)
def test_parse_format_roundtrip_is_canonical(x):
    Q = field_make(FieldSpec("rationals"))
    once = Q.parse(Q.format(x))
    assert once == x
    assert Q.parse(Q.format(once)) == once


@settings(max_examples=40, deadline=None)
@given(cyc_payloads)
def test_cyclotomic_roundtrip(v):
    C4 = field_make(FieldSpec("cyclotomic", n=4))
    x = C4.coerce(list(v))
    assert C4.parse(C4.format(x)) == x
