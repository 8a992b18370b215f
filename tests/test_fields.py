from fractions import Fraction

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfchrom import (
    FieldError,
    FieldSpec,
    field_make,
    primitive_root_of_unity,
)
from hopfchrom import fields


def test_field_make_kinds(Q, F7, C4):
    assert Q.zero != Q.one
    assert F7.characteristic() == 7
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
C4 = field_make(FieldSpec("cyclotomic", n=4))
cyc_payloads = st.lists(rationals, min_size=2, max_size=2).map(C4.coerce)


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
    _axiom_check(C4, a, b, c)


@settings(max_examples=40, deadline=None)
@given(rationals)
def test_parse_format_roundtrip_is_canonical(x):
    Q = field_make(FieldSpec("rationals"))
    once = Q.parse(Q.format(x))
    assert once == x
    assert Q.parse(Q.format(once)) == once


@settings(max_examples=40, deadline=None)
@given(cyc_payloads)
def test_cyclotomic_roundtrip(x):
    assert C4.parse(C4.format(x)) == x


# -- cyclotomic payloads against a Fraction-polynomial reference ---------------

# Phi_n, low degree first, written out by hand
PHI = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1],
       8: [1, 0, 0, 0, 1], 12: [1, 0, -1, 0, 1]}


def _ref_reduce(poly, phi):
    d = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for i in range(len(poly) - 1, d - 1, -1):
        c = poly[i]
        for j in range(d + 1):
            poly[i - d + j] -= c * phi[j]
    return poly[:d]


def _ref_mul(a, b, phi):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_reduce(out, phi)


def _ref_format(a):
    return "[" + ",".join(str(c) for c in a) + "]"


def _as_fractions(a):
    return [Fraction(c, a[-1]) for c in a[:-1]]


def _assert_canonical(F, a):
    assert type(a) is tuple and len(a) == F.degree + 1
    assert all(type(c) is int for c in a)
    assert a[-1] > 0 and math.gcd(*a) == 1
    assert any(a[:-1]) or a == F.zero


@pytest.mark.parametrize("n", sorted(PHI))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cyclotomic_scalars_match_fraction_reference(n, data):
    F = field_make(FieldSpec("cyclotomic", n=n))
    phi = PHI[n]
    d = len(phi) - 1
    assert F.degree == d
    # unreduced coefficient lists, up to degree 2d - 2, some entries zero; or
    # the operands mul and inv take short cuts on: 0, +-1, a rational, c zeta^k
    coeffs = st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=2 * d - 1)
    monomials = st.builds(lambda k, c: [Fraction(0)] * k + [c],
                          st.integers(min_value=0, max_value=d - 1), rationals)
    operands = st.one_of(coeffs, st.sampled_from([[], [1], [-1]]),
                         rationals.map(lambda c: [c]), monomials)
    ra, rb = data.draw(operands), data.draw(operands)
    a, b = F.coerce(ra), F.coerce(rb)
    A, B = _ref_reduce(ra, phi), _ref_reduce(rb, phi)
    zero, one = [Fraction(0)] * d, _ref_reduce([1], phi)

    results = {
        "a": (a, A),
        "add": (F.add(a, b), [x + y for x, y in zip(A, B)]),
        "neg": (F.neg(a), [-x for x in A]),
        "mul": (F.mul(a, b), _ref_mul(A, B, phi)),
        "mul swapped": (F.mul(b, a), _ref_mul(A, B, phi)),
        "cancel": (F.add(a, F.neg(a)), zero),
        "parse": (F.parse(_ref_format(A)), A),
    }
    for name, (got, want) in results.items():
        _assert_canonical(F, got)
        assert _as_fractions(got) == want, name
    assert F.format(a) == _ref_format(A)
    assert F.parse(F.format(F.mul(a, b))) == F.mul(a, b)
    for x, X in ((a, A), (b, B)):
        if X != zero:
            inv = F.inv(x)
            _assert_canonical(F, inv)
            assert _ref_mul(X, _as_fractions(inv), phi) == one
        else:
            with pytest.raises(ZeroDivisionError):
                F.inv(x)
    for x in (F.zero, F.one, F.zeta):
        _assert_canonical(F, x)


@pytest.mark.parametrize("payload", [
    (1, 0, 0),              # zero denominator
    (1, 0, -1),             # negative denominator
    (2, 4, 2),              # common factor 2
    (0, 0, 2),              # a second zero
    (1, 0),                 # too short
    (1, 0, 0, 1),           # too long
    (True, 0, 1),           # bool entry
    (1, 0, True),           # bool denominator
    (Fraction(1), 0, 1),    # Fraction entry
])
def test_cyclotomic_coerce_rejects_noncanonical_payloads(payload):
    with pytest.raises(FieldError):
        C4.coerce(payload)


def test_cyclotomic_format_with_denominators():
    C3 = field_make(FieldSpec("cyclotomic", n=3))
    C8 = field_make(FieldSpec("cyclotomic", n=8))
    x = C8.coerce([Fraction(1, 2), 0, Fraction(-3, 4), 0])
    assert x == (2, 0, -3, 0, 4)
    assert C8.format(x) == "[1/2,0,-3/4,0]"
    assert C8.parse("[2/4,0,-6/8]") == x
    assert C8.format(C8.inv(C8.coerce([0, 2]))) == "[0,0,0,-1/2]"
    assert C3.format(C3.coerce([Fraction(1, 3), Fraction(-2, 3), 1])) == "[-2/3,-5/3]"
    assert C3.format(C3.coerce(Fraction(-6, 4))) == "[-3/2,0]"
    assert C8.rational(C8.coerce(Fraction(3, 4))) == Fraction(3, 4)
    assert C8.rational(C8.zeta) is None
    _assert_canonical(C3, C3.coerce(True))


def test_cyclotomic_polynomial_built_once_per_conductor(monkeypatch):
    calls = []
    real = fields._int_poly_div
    monkeypatch.setattr(fields, "_PHI_CACHE", {})
    monkeypatch.setattr(fields, "_int_poly_div",
                        lambda num, den: calls.append(den) or real(num, den))

    def divisors(m):
        return [d for d in range(1, m + 1) if m % d == 0]

    fields.CyclotomicField(360)
    # Phi_d for each d | 360, each divided once by every Phi_e with e | d, e < d
    assert len(calls) == sum(len(divisors(d)) - 1 for d in divisors(360))
    calls.clear()
    fields.CyclotomicField(360)
    assert calls == []


@pytest.mark.parametrize("n", sorted(PHI))
def test_rational_and_monomial_inverses_skip_the_euclid(n, monkeypatch):
    F = field_make(FieldSpec("cyclotomic", n=n))
    phi = PHI[n]
    d = len(phi) - 1
    one = _ref_reduce([1], phi)
    general = F.add(F.one, F.zeta) if d > 1 else None

    def no_euclid(*args):
        raise AssertionError("extended Euclid called")

    monkeypatch.setattr(fields, "_poly_divmod", no_euclid)
    for c in (Fraction(1), Fraction(-1), Fraction(3, 4), Fraction(-6, 5)):
        for k in range(d):
            coeffs = [Fraction(0)] * k + [c]
            x = F.coerce(coeffs)
            inv = F.inv(x)
            _assert_canonical(F, inv)
            assert _ref_mul(_ref_reduce(coeffs, phi), _as_fractions(inv), phi) == one
    if general is not None:
        with pytest.raises(AssertionError, match="Euclid"):
            F.inv(general)
