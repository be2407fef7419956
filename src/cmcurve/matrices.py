"""Exact 2x2 matrices: rational (integer numerators over a common
denominator) and modular (ints mod N).

Both are value tuples, as is galois.GaloisShadow: immutable, hashable, equal
only to a value of their own type, and rebuilt through their public
constructor when copied or pickled.  Mat2 is the workhorse for GL2(Q) and
SL2(Z) data; ModMat carries reductions mod a level N >= 1 (N = 1 is the
trivial level where every entry is 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .numth import ext_gcd, require_coprime


class _Value(tuple):
    """A tuple that is a value of its own: it equals only a value of the same
    type, never a plain tuple, and the tuple's concatenation, repetition and
    ordering are switched off.  Construction, hash and unpacking run in the
    tuple's C code; copies and pickles go through the public constructor,
    with the arguments __getnewargs__ gives, so they get its checks."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not type(self) or _tuple_ne(self, other)

    __hash__ = tuple.__hash__
    # a value is no sequence: v + v, v * 2, 2 * v and v < v raise TypeError
    __add__ = __radd__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None

    def __getnewargs__(self):
        return tuple(self)

    def __reduce__(self):
        return type(self), self.__getnewargs__()


_new_tuple = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class Mat2(_Value):
    """Immutable 2x2 matrix with exact rational entries: the tuple
    (an, bn, cn, dn, den).

    Four integer numerators over one positive common denominator den, in
    lowest terms (the gcd of all five is 1), so products, inverses and
    reductions mod N are integer work, and integral matrices (den == 1)
    never take a gcd.  The entry views a, b, c, d, entries and det() are
    Fractions, as is every entry the constructor accepts.
    """

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if type(a) is type(b) is type(c) is type(d) is int:
            return _new_tuple(cls, (a, b, c, d, 1))
        a, b, c, d = (x if type(x) is Fraction else Fraction(x) for x in (a, b, c, d))
        da, db, dc, dd = a.denominator, b.denominator, c.denominator, d.denominator
        den = lcm(da, db, dc, dd)
        return _new_tuple(
            cls,
            (
                a.numerator * (den // da),
                b.numerator * (den // db),
                c.numerator * (den // dc),
                d.numerator * (den // dd),
                den,
            ),
        )

    # -- structure ---------------------------------------------------------

    an = property(itemgetter(0))
    bn = property(itemgetter(1))
    cn = property(itemgetter(2))
    dn = property(itemgetter(3))
    den = property(itemgetter(4))

    @property
    def a(self) -> Fraction:
        return _entry(self[0], self[4])

    @property
    def b(self) -> Fraction:
        return _entry(self[1], self[4])

    @property
    def c(self) -> Fraction:
        return _entry(self[2], self[4])

    @property
    def d(self) -> Fraction:
        return _entry(self[3], self[4])

    @property
    def entries(self):
        an, bn, cn, dn, den = self
        return (_entry(an, den), _entry(bn, den), _entry(cn, den), _entry(dn, den))

    def det(self) -> Fraction:
        den = self[4]
        return _entry(self.det_numerator(), den * den)

    def det_numerator(self) -> int:
        """ad - bc of the numerators: det() times den^2, so it has the sign
        of det() and, away from the primes of den, its primes."""
        an, bn, cn, dn, _ = self
        return an * dn - bn * cn

    def is_integral(self) -> bool:
        return self[4] == 1

    def is_unimodular(self) -> bool:
        """Integer entries and determinant exactly +1."""
        return self[4] == 1 and self.det_numerator() == 1

    def is_gl2z(self) -> bool:
        return self[4] == 1 and self.det_numerator() in (1, -1)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Mat2") -> "Mat2":
        if type(other) is not Mat2:  # any 5-tuple would unpack
            return NotImplemented
        a, b, c, d, e = self
        p, q, r, s, f = other
        return _reduced(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, e * f)

    def inv(self) -> "Mat2":
        # (N / e)^-1 = e * adj(N) / det(N)
        a, b, c, d, e = self
        det = a * d - b * c
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        if det < 0:
            det, e = -det, -e
        return _reduced(e * d, -e * b, -e * c, e * a, det)

    def __neg__(self) -> "Mat2":
        an, bn, cn, dn, den = self
        return _new_tuple(Mat2, (-an, -bn, -cn, -dn, den))

    def __getnewargs__(self):
        return self.entries

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"

    # -- reductions --------------------------------------------------------

    def mod(self, n: int) -> "ModMat":
        """Reduce mod n; requires entry denominators coprime to n.  The
        obstruction names the smallest prime of n dividing the denominator
        of the first entry that meets n."""
        an, bn, cn, dn, den = self
        if den == 1:
            return ModMat(an, bn, cn, dn, n)
        if gcd(den, n) != 1:
            for x in (an, bn, cn, dn):
                require_coprime(n, den // gcd(x, den))
        di = pow(den, -1, n)
        return ModMat(an * di, bn * di, cn * di, dn * di, n)


def _reduced(an: int, bn: int, cn: int, dn: int, den: int) -> Mat2:
    """A Mat2 from numerators over a positive denominator, put in lowest
    terms (no gcd when den == 1)."""
    if den != 1:
        g = gcd(an, bn, cn, dn, den)
        if g != 1:
            an, bn, cn, dn, den = an // g, bn // g, cn // g, dn // g, den // g
    return _new_tuple(Mat2, (an, bn, cn, dn, den))


def _entry(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


class ModMat(_Value):
    """2x2 matrix over Z/N, N >= 1: the tuple (a, b, c, d, n), entries
    stored in [0, N).

    Hot loops unpack it (a, b, c, d, n = m) rather than read the read-only
    views.
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
        if type(other) is not ModMat:  # any 5-tuple would unpack
            return NotImplemented
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

    def __repr__(self):
        return "ModMat({}, {}, {}, {}, mod={})".format(*self)


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
    return _new_tuple(Mat2, (a2, b2, c0, d1, 1))

