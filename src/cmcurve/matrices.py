"""Exact 2x2 matrices: rational (Fraction entries) and modular (ints mod N).

Everything is immutable and hashable.  Mat2 is the workhorse for GL2(Q) and
SL2(Z) data; ModMat carries reductions mod a level N >= 1 (N = 1 is the
trivial level where every entry is 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import PrecisionObstruction


class Mat2:
    """Immutable 2x2 matrix with exact rational entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, *args):
        raise AttributeError("Mat2 is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries)

    def is_unimodular(self) -> bool:
        """Integer entries and determinant exactly +1."""
        return self.is_integral() and self.det() == 1

    def is_gl2z(self) -> bool:
        return self.is_integral() and self.det() in (1, -1)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat2) and self.entries == other.entries

    def __hash__(self):
        return hash(("Mat2",) + self.entries)

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"

    # -- reductions --------------------------------------------------------

    def denominator_primes(self):
        """Primes dividing any entry denominator (computed by the caller's
        factoring routine on the lcm; here just the lcm itself)."""
        den = 1
        for x in self.entries:
            den = den * x.denominator // gcd(den, x.denominator)
        return den

    def mod(self, n: int) -> "ModMat":
        """Reduce mod n; requires entry denominators coprime to n."""
        if n == 1:
            return ModMat(0, 0, 0, 0, 1)
        vals = []
        for x in self.entries:
            if gcd(x.denominator, n) != 1:
                p = _common_prime(x.denominator, n)
                raise PrecisionObstruction(p)
            vals.append(x.numerator * pow(x.denominator, -1, n) % n)
        return ModMat(*vals, n)


def _common_prime(a: int, n: int) -> int:
    """Smallest prime dividing gcd(a, n) (a, n with nontrivial gcd)."""
    g = gcd(a, n)
    p = 2
    while p * p <= g:
        if g % p == 0:
            return p
        p += 1
    return g


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
        di = pow(det, -1, self.n) if self.n > 1 else 0
        return ModMat(self.d * di, -self.b * di, -self.c * di, self.a * di, self.n)

    def scalar_mul(self, k: int) -> "ModMat":
        return ModMat(self.a * k, self.b * k, self.c * k, self.d * k, self.n)

    def reduce(self, m: int) -> "ModMat":
        """Further reduction mod m for m | n (or m == n)."""
        if self.n % m != 0:
            raise ValueError(f"{m} does not divide modulus {self.n}")
        return ModMat(self.a, self.b, self.c, self.d, m)

    def is_identity(self) -> bool:
        return self == identity_mod(self.n)

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
SHIFT = Mat2(1, 1, 0, 1)          # tau -> tau + 1
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
    if n == 1:
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
    g, x, y = _ext_gcd(d1, c0)
    a1, b1 = x, -y
    # correct the top row to the target residues: (a,b) = (a1,b1) + t*(c0,d1)
    t = (y * (a - a1) + x * (b - b1)) % n
    a2 = a1 + t * c0
    b2 = b1 + t * d1
    if a2 * d1 - b2 * c0 != 1 or (a2 % n, b2 % n, c0 % n, d1 % n) != m.entries:
        raise ArithmeticError(f"sl2_lift produced no lift of {m}")  # pragma: no cover
    return Mat2(a2, b2, c0, d1)


def _ext_gcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y
