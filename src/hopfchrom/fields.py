"""Exact scalar arithmetic over Q, GF(p) and cyclotomic extensions Q(zeta_n).

A scalar is a raw payload interpreted by a Field context:

  * rationals    -- ``fractions.Fraction`` (auto-reduced, positive denominator)
  * prime-field  -- ``int`` residue in ``[0, p)``
  * cyclotomic   -- ``tuple[int, ...]`` ``(c_0, ..., c_{d-1}, den)`` with
                    d = phi(n): the element ``sum c_i z^i / den`` reduced
                    modulo the n-th cyclotomic polynomial, with ``den > 0``
                    and no common factor among ``den, c_0, ..., c_{d-1}``

All payloads are canonical by construction, so ``==`` on payloads decides
equality of scalars of a common field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FieldSpec",
    "Field",
    "RationalField",
    "PrimeField",
    "CyclotomicField",
    "FieldError",
    "FieldMismatchError",
    "field_make",
    "primitive_root_of_unity",
]

# Largest cyclotomic conductor, checked before Phi_n is built (its first build
# took 0.04 s at n = 1,000 and 21 s at n = 20,000 on a 2-core Xeon); every
# builtin within hopf.MAX_DIM needs a root of unity of order at most 8.
MAX_CONDUCTOR = 1000


class FieldError(ValueError):
    """Invalid field specification or unparsable scalar literal."""


class FieldMismatchError(FieldError):
    """Operands belong to different fields."""


@dataclass(frozen=True)
class FieldSpec:
    """Description of a supported exact field."""

    kind: str  # "rationals" | "prime-field" | "cyclotomic"
    p: int | None = None
    n: int | None = None

    def __str__(self) -> str:
        if self.kind == "rationals":
            return "Q"
        if self.kind == "prime-field":
            return f"GF({self.p})"
        return f"Q(zeta_{self.n})"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    # deterministic Miller-Rabin, valid far beyond any modulus used here
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise FieldError(f"invalid rational literal {text!r}")
    num, _, den = text.partition("/")
    if den == "":
        return Fraction(int(num))
    if int(den) == 0:
        raise FieldError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den))


class Field:
    """Common interface of the three exact fields.  Each field defines, on
    payloads, ``add``, ``neg``, ``mul``, ``inv`` and ``from_int``; ``coerce``
    (an int or an already-canonical payload), ``parse`` and ``format``; and
    ``characteristic``.  The rest is derived here."""

    spec: FieldSpec
    zero: object
    one: object

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Field({self.spec})"


class RationalField(Field):
    def __init__(self):
        self.spec = FieldSpec("rationals")
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return 1 / a

    def from_int(self, k: int):
        return Fraction(k)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise FieldError(f"cannot coerce {v!r} into {self.spec}")

    def parse(self, text: str):
        return _parse_rational(text)

    def format(self, a) -> str:
        return str(a)

    def characteristic(self) -> int:
        return 0


class PrimeField(Field):
    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus {p!r} is not prime")
        self.p = p
        self.spec = FieldSpec("prime-field", p=p)
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inversion of zero")
        return pow(a, -1, self.p)

    def from_int(self, k: int):
        return k % self.p

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        raise FieldError(f"cannot coerce {v!r} into {self.spec}")

    def parse(self, text: str):
        text = text.strip()
        if not re.match(r"^[+-]?\d+$", text):
            raise FieldError(f"invalid residue literal {text!r} for {self.spec}")
        return int(text) % self.p

    def format(self, a) -> str:
        return str(a)

    def characteristic(self) -> int:
        return self.p


def _euler_phi(n: int) -> int:
    phi, m, q = 1, n, 2
    while q * q <= m:
        if m % q == 0:
            phi *= q - 1
            m //= q
            while m % q == 0:
                phi *= q
                m //= q
        q += 1
    if m > 1:
        phi *= m - 1
    return phi


_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first; built once per n."""
    poly = _PHI_CACHE.get(n)
    if poly is None:
        # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, exact division over Z
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _int_poly_div(poly, _cyclotomic_polynomial(d))
        poly = _PHI_CACHE[n] = tuple(poly)
    return poly


def _int_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, den monic up to sign
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % lead == 0
        q = c // lead
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


class CyclotomicField(Field):
    """Q(zeta_n) with elements reduced modulo the n-th cyclotomic polynomial.

    A payload is the int tuple ``(c_0, ..., c_{d-1}, den)`` for the element
    ``sum c_i zeta^i / den``, with ``den > 0`` and
    ``gcd(den, c_0, ..., c_{d-1}) = 1``.  Phi_n is monic, so reducing an
    integer polynomial by it keeps integer coefficients, and each result
    needs one content gcd.

    ``mul`` and ``inv`` skip work an operand does not need; a payload is
    unique, so a short cut gives the same tuple as the general path:

      * ``mul`` with a rational operand c/den (c_1 = ... = c_{d-1} = 0):
        0 gives ``zero`` and 1 the other operand, both canonical as they
        stand; any other c/den scales the other operand's numerators, d
        integer products of degree < d, so no convolution and no reduction
        by Phi_n, and one content gcd makes the result canonical;
      * ``inv`` of a rational c/den is den/c, with the sign moved to the
        numerator; gcd(c, den) = 1 already, so it is canonical;
      * ``inv`` of a monomial c zeta^k / den is (den/c) zeta^(n-k), as
        zeta^n = 1, through one ``_reduce``, which makes it canonical;
      * only a general element goes through the extended Euclid over Q.
    """

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise FieldError(f"conductor {n!r} must be a positive integer")
        if n > MAX_CONDUCTOR:
            raise FieldError(f"conductor {n} is above the bound of {MAX_CONDUCTOR}")
        self.n = n
        self.degree = d = _euler_phi(n)
        self._modulus = _cyclotomic_polynomial(n)
        assert len(self._modulus) == d + 1 and self._modulus[-1] == 1
        # (j, c_j) for the nonzero terms of Phi_n below the leading one
        self._tail = tuple((j, c) for j, c in enumerate(self._modulus[:-1]) if c)
        self.spec = FieldSpec("cyclotomic", n=n)
        self.zero = (0,) * d + (1,)
        self.one = self.from_int(1)
        self.zeta = self._reduce([0, 1], 1)

    def _reduce(self, nums: list[int], den: int):
        """Canonical payload of ``sum nums[i] zeta^i / den``; ``nums`` is
        consumed."""
        d = self.degree
        tail = self._tail
        for i in range(len(nums) - 1, d - 1, -1):
            c = nums[i]
            if c:
                base = i - d
                for j, m in tail:
                    nums[base + j] -= c * m
        del nums[d:]
        nums += [0] * (d - len(nums))
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        nums.append(den)
        return tuple(nums)

    def _from_fractions(self, coeffs):
        den = math.lcm(*(c.denominator for c in coeffs))
        return self._reduce([c.numerator * (den // c.denominator) for c in coeffs], den)

    def rational(self, a) -> Fraction | None:
        """``a`` as a rational number, or None when it is not in Q."""
        if any(a[1:-1]):
            return None
        return Fraction(a[0], a[-1])

    def add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            nums = [x + y for x, y in zip(a[:-1], b[:-1])]
            if da == 1:
                nums.append(1)
                return tuple(nums)
            return self._reduce(nums, da)
        return self._reduce([x * db + y * da for x, y in zip(a[:-1], b[:-1])], da * db)

    def neg(self, a):
        return tuple([-x for x in a[:-1]]) + a[-1:]

    def mul(self, a, b):
        d = self.degree
        if any(a[1:d]):
            if any(b[1:d]):
                out = [0] * (2 * d - 1)
                for i in range(d):
                    x = a[i]
                    if x:
                        for j in range(d):
                            y = b[j]
                            if y:
                                out[i + j] += x * y
                return self._reduce(out, a[d] * b[d])
            a, b = b, a
        # a is the rational c / den (see the class docstring)
        c = a[0]
        if not c:
            return self.zero
        den = a[d]
        if c == den:
            return b
        nums = [c * x for x in b[:d]]
        den *= b[d]
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        nums.append(den)
        return tuple(nums)

    def inv(self, a):
        d = self.degree
        terms = [(k, c) for k, c in enumerate(a[:d]) if c]
        if not terms:
            raise ZeroDivisionError("inversion of zero")
        den = a[d]
        if len(terms) == 1:
            # c zeta^k / den -> (den / c) zeta^(n - k), the sign on the numerator
            k, c = terms[0]
            if c < 0:
                c, den = -c, -den
            if k == 0:
                return (den,) + a[1:d] + (c,)
            nums = [0] * (self.n - k + 1)
            nums[-1] = den
            return self._reduce(nums, c)
        # extended Euclid in Q[x] against the (irreducible) modulus
        r0 = [Fraction(c) for c in self._modulus]
        r1 = [Fraction(c, den) for c in a[:-1]]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(_Q, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(_Q, s0, _poly_mul(_Q, q, s1))
        # r0 is a nonzero constant gcd since the modulus is irreducible
        deg0 = _poly_deg(_Q, r0)
        assert deg0 == 0, "cyclotomic modulus is irreducible"
        c = r0[0]
        return self._from_fractions([x / c for x in s0])

    def from_int(self, k: int):
        return (k,) + (0,) * (self.degree - 1) + (1,)

    def coerce(self, v):
        if isinstance(v, tuple):
            if (len(v) != self.degree + 1 or not all(type(x) is int for x in v)
                    or v[-1] <= 0 or math.gcd(*v) != 1):
                raise FieldError(f"bad cyclotomic payload {v!r} for {self.spec}")
            return v
        if isinstance(v, int):
            return self.from_int(int(v))
        if isinstance(v, Fraction):
            return self._from_fractions([v])
        if isinstance(v, list):
            return self._from_fractions([Fraction(x) for x in v])
        raise FieldError(f"cannot coerce {v!r} into {self.spec}")

    def parse(self, text: str):
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise FieldError(
                f"cyclotomic literal must be a coefficient list [c0,c1,...], got {text!r}"
            )
        body = text[1:-1].strip()
        coeffs = [_parse_rational(part) for part in body.split(",")] if body else []
        if len(coeffs) > self.degree:
            raise FieldError(
                f"coefficient list of length {len(coeffs)} exceeds degree {self.degree}"
            )
        return self._from_fractions(coeffs)

    def format(self, a) -> str:
        den = a[-1]
        return "[" + ",".join(str(Fraction(c, den)) for c in a[:-1]) + "]"

    def characteristic(self) -> int:
        return 0


# -- dense polynomial helpers, coefficients low degree first -----------------

_Q = RationalField()


def _poly_deg(field: Field, p: list) -> int:
    """Degree of ``p`` over ``field``; -1 for the zero polynomial."""
    for i in range(len(p) - 1, -1, -1):
        if p[i] != field.zero:
            return i
    return -1


def _poly_sub(field: Field, a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [field.zero] * (n - len(a))
    b = b + [field.zero] * (n - len(b))
    return [field.sub(x, y) for x, y in zip(a, b)]


def _poly_mul(field: Field, a: list, b: list) -> list:
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != field.zero:
            for j, y in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _poly_divmod(field: Field, a: list, b: list):
    """Quotient and remainder of ``a`` by ``b != 0`` over ``field``; the
    remainder keeps the length of ``a``."""
    db = _poly_deg(field, b)
    assert db >= 0
    a = list(a)
    q = [field.zero] * max(len(a) - db, 1)
    inv_lead = field.inv(b[db])
    for i in range(_poly_deg(field, a) - db, -1, -1):
        c = field.mul(a[i + db], inv_lead)
        if c != field.zero:
            q[i] = c
            for j in range(db + 1):
                a[i + j] = field.sub(a[i + j], field.mul(c, b[j]))
    return q, a


def field_make(spec: FieldSpec) -> Field:
    """Build the field context described by ``spec``."""
    if spec.kind == "rationals":
        return RationalField()
    if spec.kind == "prime-field":
        if spec.p is None:
            raise FieldError("prime-field spec needs a modulus p")
        return PrimeField(spec.p)
    if spec.kind == "cyclotomic":
        if spec.n is None:
            raise FieldError("cyclotomic spec needs a conductor n")
        return CyclotomicField(spec.n)
    raise FieldError(f"unknown field kind {spec.kind!r}")


def primitive_root_of_unity(field: Field, n: int):
    """A deterministic element of exact multiplicative order ``n``.

    Smallest residue in GF(p); -1/1 in Q; a power of zeta (or -zeta for odd
    conductor) in a cyclotomic field.  Raises FieldError when no such root
    exists.
    """
    if n < 1:
        raise FieldError("order must be >= 1")
    if n == 1:
        return field.one

    if isinstance(field, RationalField):
        if n == 2:
            return Fraction(-1)
        raise FieldError(f"Q has no primitive root of unity of order {n}")
    if isinstance(field, PrimeField):
        p = field.p
        if (p - 1) % n != 0:
            raise FieldError(f"GF({p}) has no element of order {n}")
        # r = a^((p-1)/n) has order dividing n; once it is exactly n, its powers
        # r^k with gcd(k, n) = 1 are all the elements of order n, so their least
        # is the smallest residue of that order without scanning GF(p)
        for a in range(2, p):
            r = pow(a, (p - 1) // n, p)
            if all(pow(r, k, p) != 1 for k in range(1, n)):
                return min(pow(r, k, p) for k in range(1, n) if math.gcd(k, n) == 1)
        raise FieldError(f"GF({p}) has no element of order {n}")
    if isinstance(field, CyclotomicField):
        m = field.n
        if m % n == 0:
            root = field.pow(field.zeta, m // n)
        elif m % 2 == 1 and (2 * m) % n == 0:
            root = field.pow(field.neg(field.zeta), 2 * m // n)
        else:
            raise FieldError(f"{field.spec} has no element of order {n}")
        assert field.pow(root, n) == field.one
        assert all(field.pow(root, k) != field.one for k in range(1, n))
        return root
    raise FieldError(f"unsupported field {field.spec}")
