"""Exact integer and residue arithmetic.

Factorization, Jacobi symbols, square roots modulo prime powers, and Hilbert
symbols over the rationals.  All functions are deterministic; integers are
arbitrary precision, rationals always in lowest terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import gcd

from .errors import PrecisionObstruction

INF = "inf"  # the archimedean place in hilbert_symbol

# Witnesses making Miller-Rabin deterministic below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True, slots=True)
class Residue:
    """An integer value mod a fixed modulus >= 2."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(self, "value", self.value % self.modulus)


@dataclass(frozen=True, slots=True)
class Factorization:
    """Sign and strictly increasing prime powers whose product is the input."""

    sign: int
    factors: tuple  # of (prime, exponent)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 2^64, and the witness set
    has no known pseudoprimes above)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # unreachable at desk scale


@lru_cache(maxsize=1 << 16)
def factor(n: int) -> Factorization:
    """Exact factorization of a nonzero integer."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(counts.items())))


def squarefree_part(n: int) -> tuple[int, int]:
    """n = m * s**2 with m square-free; returns (m, s)."""
    if n < 1:
        raise ValueError("n must be positive")
    m = s = 1
    for p, e in factor(n).factors:
        if e % 2:
            m *= p
        s *= p ** (e // 2)
    return m, s


def is_squarefree(n: int) -> bool:
    return n >= 1 and squarefree_part(n)[0] == n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _sqrt_mod_prime(a: int, p: int):
    """Tonelli-Shanks: x with x*x = a mod p, or None.  p an odd prime."""
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _hensel_lift(x: int, a: int, p: int, k: int) -> int:
    """Lift x*x = a (mod p) with x a unit to a root mod p^k."""
    pe = p
    for _ in range(k - 1):
        pe *= p
        x = (x - (x * x - a) * pow(2 * x, -1, pe)) % pe
    return x % p**k


def sqrt_mod(a, p: int, k: int = 1):
    """Canonical square root of a modulo p^k (odd prime p), or None.

    Returns the numerically smaller root as a Residue; handles non-unit a by
    stripping even powers of p.  None is a value, not an error: it certifies
    there is no root.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    x = sqrt_mod_unchecked(a.value if isinstance(a, Residue) else a, p, k)
    return None if x is None else Residue(x, p**k)


def sqrt_mod_unchecked(a: int, p: int, k: int):
    """sqrt_mod for a caller that has already proved p an odd prime and
    k >= 1: the canonical root as an int in [0, p^k), or None."""
    pk = p**k
    aval = a % pk
    if aval == 0:
        return 0
    j = 0
    u = aval
    while u % p == 0:
        u //= p
        j += 1
    if j % 2:
        return None
    r = _sqrt_mod_prime(u, p)
    if r is None:
        return None
    if k - j > 1:
        r = _hensel_lift(r, u, p, k - j)
    # roots form +-p^(j/2)*r modulo p^(k - j/2); canonical = smallest positive
    m0 = p ** (k - j // 2)
    x = (p ** (j // 2) * r) % m0
    x = min(x, m0 - x)
    if x * x % pk != aval:  # pragma: no cover - definitional guard
        return None
    return x


# -- Hilbert symbols ---------------------------------------------------------


def _val_unit(x: Fraction, p: int) -> tuple[int, Fraction]:
    """(v, u) with x = p^v * u and u a p-adic unit."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod(u: Fraction, p: int, k: int = 1) -> int:
    pk = p**k
    return u.numerator * pow(u.denominator, -1, pk) % pk


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a prime or at the archimedean place.

    +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial solution over the completion.
    Accepts exact rationals; place is a prime int or the string "inf".
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if place == INF or place == math.inf:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not is_prime(p):
        raise ValueError(f"place must be prime or '{INF}'")
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    if p != 2:
        sign = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2 and jacobi(_unit_mod(u, p), p) == -1:
            sign = -sign
        if alpha % 2 and jacobi(_unit_mod(v, p), p) == -1:
            sign = -sign
        return sign
    u8, v8 = _unit_mod(u, 2, 3), _unit_mod(v, 2, 3)
    eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
    om_u, om_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
    e = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if e % 2 else 1


def hilbert_places(a, b) -> list:
    """The finite list of places where (a, b) can be nontrivial."""
    a, b = Fraction(a), Fraction(b)
    primes = {2}
    for x in (a, b):
        primes.update(factor(x.numerator).primes())
        primes.update(factor(x.denominator).primes())
    return sorted(primes) + [INF]


def crt(pairs) -> tuple[int, int]:
    """Chinese remainder: pairs of (residue, modulus) with coprime moduli.
    Returns (x, modulus)."""
    x, n = 0, 1
    for r, m in pairs:
        g = gcd(n, m)
        if g != 1:
            raise ValueError("moduli must be coprime")
        x = (x * m * pow(m, -1, n) + r * n * pow(n, -1, m)) % (n * m)
        n *= m
    return x, n


def ext_gcd(a: int, b: int):
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


def smallest_shared_prime(x: int, n: int) -> int:
    """The smallest prime of n dividing x (x and n not coprime).  Only the
    primes of n are tried, so x is never factored."""
    for p, _ in factor(n).factors:
        if x % p == 0:
            return p
    raise ValueError(f"{x} and {n} are coprime")


def require_coprime(n: int, *xs: int) -> None:
    """Return when every x is a unit mod n, else raise PrecisionObstruction
    at the smallest prime of n dividing some x: the one rule that names the
    prime of a precision obstruction.  One gcd per x."""
    shared = 1
    for x in xs:
        shared *= gcd(x, n)
    if shared != 1:
        raise PrecisionObstruction(smallest_shared_prime(shared, n))


def solve_linear_congruence(alpha: int, beta: int, n: int):
    """The solutions of alpha*x + beta = 0 (mod n) as a progression (r, m):
    exactly the x with x = r (mod m), where m divides n and 0 <= r < m.
    None when there is no solution."""
    g = gcd(alpha, n)
    if beta % g:
        return None
    m = n // g
    if m == 1:
        return 0, 1
    return -(beta // g) * pow(alpha // g, -1, m) % m, m


def intersect_progressions(p1, p2):
    """The x with x = r1 (mod m1) and x = r2 (mod m2), moduli not necessarily
    coprime: (r, lcm(m1, m2)) with 0 <= r < lcm, or None when disjoint.
    Either argument may be None (an empty progression)."""
    if p1 is None or p2 is None:
        return None
    (r1, m1), (r2, m2) = p1, p2
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    step = m2 // g
    lcm = m1 * step
    t = (r2 - r1) // g * pow(m1 // g, -1, step) % step if step > 1 else 0
    return (r1 + m1 * t) % lcm, lcm


def units_mod(n: int, limit: int | None = None) -> list:
    """The units of Z/n as residues in [0, n), increasing ([0] for n = 1,
    the one n with gcd(0, n) = 1), for n >= 1; only the first `limit` of
    them when a limit is given.

    Without a limit, the multiples of each prime of n are struck out of a
    row of flags, so the cost is n steps in C, not n gcds.  A limit keeps
    the lazy gcd scan, which stops after `limit` units at any n."""
    if limit is not None:
        return list(islice((x for x in range(n) if gcd(x, n) == 1), limit))
    flags = bytearray(b"\x01") * n
    for p, _ in factor(n).factors:
        flags[::p] = bytes(len(range(0, n, p)))
    return list(compress(range(n), flags))
