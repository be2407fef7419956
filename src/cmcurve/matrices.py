"""Exact 2x2 matrices: rational (integer numerators over a common
denominator) and modular (ints mod N).

Everything is immutable and hashable.  Mat2 is the workhorse for GL2(Q) and
SL2(Z) data; ModMat carries reductions mod a level N >= 1 (N = 1 is the
trivial level where every entry is 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

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


class ModMat(tuple):
    """2x2 matrix over Z/N, N >= 1: the tuple (a, b, c, d, n), entries
    stored in [0, N).

    A tuple, so construction, hash and unpacking run in the tuple's C code;
    hot loops unpack it (a, b, c, d, n = m) rather than read the read-only
    views.  A ModMat equals only another ModMat, and the tuple's
    concatenation, repetition and ordering are switched off.
    """

    __slots__ = ()

    def __new__(cls, a, b, c, d, n):
        if n < 1:
            raise ValueError("modulus must be >= 1")
        a %= n
        d %= n
        # branch +1 shapes have a = d: one int object serves both, which
        # saves an object per component in a batch of phi(N) shadows
        return _new_tuple(cls, (a, b % n, c % n, a if a == d else d, n))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))
    d = property(itemgetter(3))
    n = property(itemgetter(4))

    @property
    def entries(self):
        return self[:4]

    def det(self) -> int:
        a, b, c, d, n = self
        return (a * d - b * c) % n

    def is_unit(self) -> bool:
        a, b, c, d, n = self
        return gcd(a * d - b * c, n) == 1

    def __mul__(self, other: "ModMat") -> "ModMat":
        a, b, c, d, n = self
        p, q, r, s, m = other
        if n != m:
            raise ValueError("modulus mismatch")
        x = (a * p + b * r) % n
        w = (c * q + d * s) % n
        return _new_tuple(ModMat, (x, (a * q + b * s) % n, (c * p + d * r) % n, x if x == w else w, n))

    def inv(self) -> "ModMat":
        a, b, c, d, n = self
        det = (a * d - b * c) % n
        if gcd(det, n) != 1:
            raise ZeroDivisionError(f"determinant {det} not a unit mod {n}")
        di = pow(det, -1, n)
        x = d * di % n
        w = a * di % n
        return _new_tuple(ModMat, (x, -b * di % n, -c * di % n, x if x == w else w, n))

    def scalar_mul(self, k: int) -> "ModMat":
        a, b, c, d, n = self
        return ModMat(a * k, b * k, c * k, d * k, n)

    def reduce(self, m: int) -> "ModMat":
        """Further reduction mod m for m | n (or m == n)."""
        a, b, c, d, n = self
        if m < 1 or n % m != 0:
            raise ValueError(f"{m} does not divide modulus {n}")
        return ModMat(a, b, c, d, m)

    def __eq__(self, other) -> bool:
        return type(other) is ModMat and _tuple_eq(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not ModMat or _tuple_ne(self, other)

    __hash__ = tuple.__hash__
    # a matrix is no sequence: m + m, 2 * m and m < m raise TypeError
    __add__ = __radd__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None

    def __repr__(self):
        return "ModMat({}, {}, {}, {}, mod={})".format(*self)


_new_tuple = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


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
    a, b, c, d, n = m
    if n == 1:  # the construction below would give (0, -1; 1, 0)
        return IDENTITY
    if m.det() != 1 % n:
        raise ValueError("matrix does not have determinant 1 mod n")
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
    if a2 * d1 - b2 * c0 != 1 or (a2 % n, b2 % n, c0 % n, d1 % n) != (a, b, c, d):
        raise ArithmeticError(f"sl2_lift produced no lift of {m}")  # pragma: no cover
    return _new(a2, b2, c0, d1, 1)

