"""Exact 2x2 matrices: rational (integer numerators over a common
denominator) and modular (ints mod N).

Everything is immutable and hashable.  Mat2 is the workhorse for GL2(Q) and
SL2(Z) data; ModMat carries reductions mod a level N >= 1 (N = 1 is the
trivial level where every entry is 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .numth import ext_gcd, require_coprime


class Mat2:
    """Immutable 2x2 matrix with exact rational entries.

    Stored as four integer numerators an, bn, cn, dn over one positive
    common denominator den, in lowest terms (the gcd of all five is 1), so
    products, inverses and reductions mod N are integer work, and integral
    matrices (den == 1) never take a gcd.  The entry views a, b, c, d,
    entries and det() are Fractions, as is every entry the constructor
    accepts.
    """

    __slots__ = ("an", "bn", "cn", "dn", "den")

    def __init__(self, a, b, c, d):
        if type(a) is type(b) is type(c) is type(d) is int:
            _fill(self, a, b, c, d, 1)
            return
        a, b, c, d = (x if type(x) is Fraction else Fraction(x) for x in (a, b, c, d))
        da, db, dc, dd = a.denominator, b.denominator, c.denominator, d.denominator
        den = lcm(da, db, dc, dd)
        _fill(
            self,
            a.numerator * (den // da),
            b.numerator * (den // db),
            c.numerator * (den // dc),
            d.numerator * (den // dd),
            den,
        )

    def __setattr__(self, *args):
        raise AttributeError("Mat2 is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return _entry(self.an, self.den)

    @property
    def b(self) -> Fraction:
        return _entry(self.bn, self.den)

    @property
    def c(self) -> Fraction:
        return _entry(self.cn, self.den)

    @property
    def d(self) -> Fraction:
        return _entry(self.dn, self.den)

    @property
    def entries(self):
        den = self.den
        return (_entry(self.an, den), _entry(self.bn, den), _entry(self.cn, den), _entry(self.dn, den))

    def det(self) -> Fraction:
        return _entry(self.det_numerator(), self.den * self.den)

    def det_numerator(self) -> int:
        """ad - bc of the numerators: det() times den^2, so it has the sign
        of det() and, away from the primes of den, its primes."""
        return self.an * self.dn - self.bn * self.cn

    def is_integral(self) -> bool:
        return self.den == 1

    def is_unimodular(self) -> bool:
        """Integer entries and determinant exactly +1."""
        return self.den == 1 and self.det_numerator() == 1

    def is_gl2z(self) -> bool:
        return self.den == 1 and self.det_numerator() in (1, -1)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self.an, self.bn, self.cn, self.dn
        p, q, r, s = other.an, other.bn, other.cn, other.dn
        return _reduced(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, self.den * other.den)

    def inv(self) -> "Mat2":
        # (N / e)^-1 = e * adj(N) / det(N)
        a, b, c, d, e = self.an, self.bn, self.cn, self.dn, self.den
        det = self.det_numerator()
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        if det < 0:
            det, e = -det, -e
        return _reduced(e * d, -e * b, -e * c, e * a, det)

    def __neg__(self) -> "Mat2":
        return _new(-self.an, -self.bn, -self.cn, -self.dn, self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat2)
            and self.an == other.an
            and self.bn == other.bn
            and self.cn == other.cn
            and self.dn == other.dn
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.an, self.bn, self.cn, self.dn, self.den))

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"

    # -- reductions --------------------------------------------------------

    def mod(self, n: int) -> "ModMat":
        """Reduce mod n; requires entry denominators coprime to n.  The
        obstruction names the smallest prime of n dividing the denominator
        of the first entry that meets n."""
        den = self.den
        if den == 1:
            return ModMat(self.an, self.bn, self.cn, self.dn, n)
        if gcd(den, n) != 1:
            for x in (self.an, self.bn, self.cn, self.dn):
                require_coprime(n, den // gcd(x, den))
        di = pow(den, -1, n)
        return ModMat(self.an * di, self.bn * di, self.cn * di, self.dn * di, n)


_new_obj = object.__new__
_set_an, _set_bn, _set_cn, _set_dn, _set_den = (
    getattr(Mat2, slot).__set__ for slot in Mat2.__slots__
)


def _fill(m: Mat2, an: int, bn: int, cn: int, dn: int, den: int) -> None:
    _set_an(m, an)
    _set_bn(m, bn)
    _set_cn(m, cn)
    _set_dn(m, dn)
    _set_den(m, den)


def _new(an: int, bn: int, cn: int, dn: int, den: int) -> Mat2:
    """A Mat2 from numerators and a positive denominator already in lowest
    terms."""
    m = _new_obj(Mat2)
    _fill(m, an, bn, cn, dn, den)
    return m


def _reduced(an: int, bn: int, cn: int, dn: int, den: int) -> Mat2:
    """A Mat2 from numerators over a positive denominator, put in lowest
    terms (no gcd when den == 1)."""
    if den != 1:
        g = gcd(an, bn, cn, dn, den)
        if g != 1:
            an, bn, cn, dn, den = an // g, bn // g, cn // g, dn // g, den // g
    return _new(an, bn, cn, dn, den)


def _entry(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


class ModMat:
    """2x2 matrix over Z/N, N >= 1.  Entries stored in [0, N)."""

    __slots__ = ("a", "b", "c", "d", "n")

    def __init__(self, a, b, c, d, n):
        if n < 1:
            raise ValueError("modulus must be >= 1")
        a %= n
        d %= n
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b % n)
        object.__setattr__(self, "c", c % n)
        # branch +1 shapes have a = d: one int object serves both, which
        # saves an object per component in a batch of phi(N) shadows
        object.__setattr__(self, "d", a if a == d else d)

    def __setattr__(self, *args):
        raise AttributeError("ModMat is immutable")

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.n

    def is_unit(self) -> bool:
        return gcd(self.det(), self.n) == 1

    def __mul__(self, other: "ModMat") -> "ModMat":
        if self.n != other.n:
            raise ValueError("modulus mismatch")
        return ModMat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.n,
        )

    def inv(self) -> "ModMat":
        det = self.det()
        if gcd(det, self.n) != 1:
            raise ZeroDivisionError(f"determinant {det} not a unit mod {self.n}")
        di = pow(det, -1, self.n)
        return ModMat(self.d * di, -self.b * di, -self.c * di, self.a * di, self.n)

    def scalar_mul(self, k: int) -> "ModMat":
        return ModMat(self.a * k, self.b * k, self.c * k, self.d * k, self.n)

    def reduce(self, m: int) -> "ModMat":
        """Further reduction mod m for m | n (or m == n)."""
        if m < 1 or self.n % m != 0:
            raise ValueError(f"{m} does not divide modulus {self.n}")
        return ModMat(self.a, self.b, self.c, self.d, m)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMat)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(("ModMat", self.n) + self.entries)

    def __repr__(self):
        return f"ModMat({self.a}, {self.b}, {self.c}, {self.d}, mod={self.n})"


# -- common constant matrices ----------------------------------------------

IDENTITY = Mat2(1, 0, 0, 1)
FLIP = Mat2(0, -1, 1, 0)          # tau -> -1/tau
MIRROR = Mat2(-1, 0, 0, 1)        # tau -> -tau, swaps half-planes (det -1)


def identity_mod(n: int) -> ModMat:
    return ModMat(1, 0, 0, 1, n)


def diag_mod(lam: int, n: int) -> ModMat:
    """The diagonal unit diag(lam, 1) mod n."""
    return ModMat(lam, 0, 0, 1, n)


def translation(k: int) -> Mat2:
    return Mat2(1, k, 0, 1)


def sl2_lift(m: ModMat) -> Mat2:
    """An SL2(Z) matrix reducing to m mod n (m must have det = 1 mod n).

    Deterministic: lifts the bottom row to a coprime integer pair, completes
    it by the extended gcd, then corrects the top row by a multiple of the
    bottom one.
    """
    n = m.n
    if n == 1:  # the construction below would give (0, -1; 1, 0)
        return IDENTITY
    if m.det() != 1 % n:
        raise ValueError("matrix does not have determinant 1 mod n")
    a, b, c, d = m.entries
    c0 = c if c != 0 else n
    d0 = d
    k = 0
    while gcd(c0, d0 + k * n) != 1:
        k += 1
    d1 = d0 + k * n
    # a1*d1 - b1*c0 = 1 by extended gcd
    g, x, y = ext_gcd(d1, c0)
    a1, b1 = x, -y
    # correct the top row to the target residues: (a,b) = (a1,b1) + t*(c0,d1)
    t = (y * (a - a1) + x * (b - b1)) % n
    a2 = a1 + t * c0
    b2 = b1 + t * d1
    if a2 * d1 - b2 * c0 != 1 or (a2 % n, b2 % n, c0 % n, d1 % n) != m.entries:
        raise ArithmeticError(f"sl2_lift produced no lift of {m}")  # pragma: no cover
    return _new(a2, b2, c0, d1, 1)

