"""Positive-definite binary quadratic forms with exact transformation data.

A form (A, B, C) means A*x^2 + B*x*y + C*y^2 with A > 0, gcd(A,B,C) = 1 and
negative discriminant.  The root of a form is the unique zero of A*t^2+B*t+C
in the upper half-plane; SL2(Z) acts on roots by Mobius transformations and
on forms by g = f o gamma^{-1}, so reduction of forms is exactly equivalence
of quadratic points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .matrices import FLIP, IDENTITY, Mat2, translation
from .numth import (
    INF,
    crt,
    factor,
    hilbert_symbol,
    is_squarefree,
    sqrt_mod_unchecked,
    squarefree_part,
)

MAX_DISC = 10**8  # bound on |disc| in reduced_forms, whose loop is linear in |disc|


@dataclass(frozen=True, slots=True)
class QuadForm:
    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("form must have A > 0")
        if gcd(gcd(self.A, self.B), self.C) != 1:
            raise ValueError("form must be primitive")
        if self.disc >= 0:
            raise ValueError("form must be positive definite (disc < 0)")

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def coeffs(self) -> tuple[int, int, int]:
        return (self.A, self.B, self.C)

    def evaluate(self, x, y):
        return self.A * x * x + self.B * x * y + self.C * y * y

    def transform(self, gamma: Mat2) -> "QuadForm":
        """The form f o gamma: substitute (x, y) -> gamma * (x, y)."""
        if gamma.den != 1:
            raise ValueError("transform requires an integral matrix")
        a, b, c, d = gamma.an, gamma.bn, gamma.cn, gamma.dn
        A2 = self.evaluate(a, c)
        C2 = self.evaluate(b, d)
        B2 = 2 * self.A * a * b + self.B * (a * d + b * c) + 2 * self.C * c * d
        return QuadForm(A2, B2, C2)

    def is_reduced(self) -> bool:
        """Gauss-reduced: |B| <= A <= C, and B >= 0 on the boundary."""
        if not (abs(self.B) <= self.A <= self.C):
            return False
        if (abs(self.B) == self.A or self.A == self.C) and self.B < 0:
            return False
        return True

    def root(self):
        """The upper half-plane root as a QuadPoint."""
        from .shimura import QuadPoint

        m, s = squarefree_part(4 * self.A * self.C - self.B * self.B)
        return QuadPoint(m, Fraction(-self.B, 2 * self.A), Fraction(s, 2 * self.A))


@lru_cache(maxsize=1 << 14)
def form_of(tau) -> QuadForm:
    """The unique primitive integral form with root tau = p + q*sqrt(-m)."""
    p, q, m = Fraction(tau.p), Fraction(tau.q), tau.m
    if q <= 0:
        raise ValueError("point must lie in the upper half-plane")
    # monic minimal polynomial: t^2 - 2p t + (p^2 + q^2 m)
    b, c = -2 * p, p * p + q * q * m
    den = b.denominator
    den = den * c.denominator // gcd(den, c.denominator)
    A, B, C = den, int(b * den), int(c * den)
    g = gcd(gcd(A, B), C)
    return QuadForm(A // g, B // g, C // g)


@lru_cache(maxsize=1 << 14)
def reduce_form(f: QuadForm) -> tuple[QuadForm, Mat2]:
    """Gauss reduction.  Returns (g, gamma) with g reduced, g = f o gamma^{-1}
    and root(g) = gamma(root(f))."""
    g = f
    gamma = IDENTITY
    while True:
        # translate B into (-A, A]
        A, B, C = g.coeffs()
        k = -((A - B) // (2 * A))  # ceil((B - A) / (2A))
        if k:
            step = translation(k)
            g = g.transform(step.inv())
            gamma = step * gamma
        A, B, C = g.coeffs()
        if A > C:
            g = g.transform(FLIP.inv())
            gamma = FLIP * gamma
            continue
        if A == C and B < 0:
            g = g.transform(FLIP.inv())
            gamma = FLIP * gamma
        break
    if not g.is_reduced():
        raise ArithmeticError(f"reduction of {f} ended at {g}")  # pragma: no cover
    return g, gamma


def automorphs(f: QuadForm) -> list[Mat2]:
    """All gamma in SL2(Z) fixing root(f), via t^2 - disc*u^2 = 4.

    Always contains +-identity; 4 elements for disc -4, 6 for disc -3.
    t = B*u mod 2 holds automatically since disc = B^2 mod 4.
    """
    return list(_automorphs_cached(f))


@lru_cache(maxsize=1 << 14)
def _automorphs_cached(f: QuadForm) -> tuple:
    D = f.disc
    out = []
    seen = set()
    for u in (-1, 0, 1):
        t2 = 4 + D * u * u
        if t2 < 0:
            continue
        t = isqrt(t2)
        if t * t != t2:
            continue
        for tt in sorted({t, -t}, reverse=True):
            g = Mat2((tt - f.B * u) // 2, -f.C * u, f.A * u, (tt + f.B * u) // 2)
            if g in seen:
                continue
            seen.add(g)
            if not g.is_unimodular():
                raise ArithmeticError(f"automorph {g} of {f} is not in SL2(Z)")  # pragma: no cover
            out.append(g)
    return tuple(out)


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced primitive forms of the given negative discriminant,
    lexicographically ordered; the length is the class number h(disc)."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    if -disc > MAX_DISC:
        raise ValueError(f"|disc| exceeds desk-scale bound {MAX_DISC}")
    out = []
    amax = isqrt(-disc // 3) if disc < -3 else 1
    for A in range(1, max(amax, 1) + 1):
        for B in range(-A + 1, A + 1):
            if (B * B - disc) % (4 * A):
                continue
            C = (B * B - disc) // (4 * A)
            if C < A:
                continue
            if gcd(gcd(A, B), C) != 1:
                continue
            form = QuadForm(A, B, C)
            if form.is_reduced():
                out.append(form)
    return sorted(out, key=lambda f: f.coeffs())


def class_number(disc: int) -> int:
    return len(reduced_forms(disc))


# -- Cornacchia --------------------------------------------------------------


def _sqrts_minus_d_mod(d: int, n: int) -> list[int]:
    """All square roots of -d modulo n (n >= 1, d square-free), via
    factoring and CRT.  The roots mod 2^e are lifted one bit at a time,
    each root mod 2^k having at most the two lifts x and x + 2^k."""
    if n == 1:
        return [0]
    root_lists = []
    for p, e in factor(n).factors:
        pe = p**e
        target = (-d) % pe
        if p == 2:
            roots = [0]
            for k in range(e):
                roots = [
                    y for x in roots for y in (x, x + 2**k) if (y * y - target) % 2 ** (k + 1) == 0
                ]
        else:
            r = sqrt_mod_unchecked(target, p, e)
            roots = [] if r is None else sorted({r, -r % pe})
        if not roots:
            return []
        root_lists.append([(r, pe) for r in roots])
    combos = [[]]
    for lst in root_lists:
        combos = [c + [rm] for c in combos for rm in lst]
    return sorted({crt(c)[0] for c in combos})


def _cornacchia_primitive(d: int, n: int):
    """A primitive solution of x^2 + d*y^2 = n (gcd(x, y) = 1), or None.
    Half-gcd descent from each square root of -d mod n."""
    if n == 1:
        return (1, 0)
    if n == d:
        return (0, 1)
    if d > n:
        return None  # y = 0 forced, and (x, 0) is primitive only for n = 1
    bound = isqrt(n)
    for r0 in _sqrts_minus_d_mod(d, n):
        r = max(r0, (n - r0) % n)
        a, b = n, r
        while b > bound:
            a, b = b, a % b
        if b == 0:
            continue
        rem = n - b * b
        if rem % d:
            continue
        s = rem // d
        y = isqrt(s)
        if y * y == s and gcd(b, y) == 1:
            return (b, y)
    return None


def cornacchia(m: int, k: int):
    """A solution (x, y) of x^2 + m*y^2 = k in nonnegative integers, or None.

    The primitive core is found by the classical half-gcd descent; imprimitive
    solutions are recovered by scaling over square divisors of k.
    """
    if not is_squarefree(m):
        raise ValueError("m must be square-free and positive")
    if k < 1:
        raise ValueError("k must be positive")
    g = 1
    squares = [1]
    for p, e in factor(k).factors:
        squares = [s * p**i for s in squares for i in range(0, e // 2 + 1)]
    for s in sorted(squares):
        sol = _cornacchia_primitive(m, k // (s * s))
        if sol is not None:
            return (sol[0] * s, sol[1] * s)
    return None


# -- the rational norm solver -------------------------------------------------


def norm_obstruction(m: int, k) -> int | str | None:
    """A place where k fails to be a norm from Q(sqrt(-m)), or None.

    Checks the Hilbert symbol (-m, k) at 2, at the primes of m and of k, and
    at infinity; by the product formula and Hasse-Minkowski this is a complete
    solvability test for s^2 + m*t^2 = k over Q.  Odd primes where k has odd
    valuation and -m is a nonresidue are reported first (the generic case),
    then the dyadic and ramified places.
    """
    k = Fraction(k)
    odd_val = set()
    for p, e in list(factor(k.numerator).factors) + list(factor(k.denominator).factors):
        if p != 2 and e % 2 and m % p:
            odd_val.add(p)
    rest = {2}
    rest.update(factor(m).primes())
    rest.update(factor(k.numerator).primes())
    rest.update(factor(k.denominator).primes())
    ordered = sorted(odd_val) + sorted(rest - odd_val) + [INF]
    for p in ordered:
        if hilbert_symbol(-m, k, p) == -1:
            return p
    return None


def solve_form_rational(m: int, k, search_bound: int = 10**4):
    """Exact rationals (s, t) with s^2 + m*t^2 = k, or None with a certified
    local obstruction (raising NormObstruction is left to callers that want
    an exception; here the obstruction is reported by solve_form_rational
    returning None and norm_obstruction naming the place).

    After the local checks pass, searches denominators c = 1, 2, ... with
    w | c^2 (k = u/w in lowest terms) and solves x^2 + m*y^2 = u*c^2/w
    integrally by Cornacchia.  Local solvability guarantees termination.
    """
    k = Fraction(k)
    if k <= 0:
        raise ValueError("k must be positive")
    if not is_squarefree(m):
        raise ValueError("m must be square-free and positive")
    if norm_obstruction(m, k) is not None:
        return None
    u, w = k.numerator, k.denominator
    for c in range(1, search_bound + 1):
        if (c * c) % w:
            continue
        sol = cornacchia(m, u * c * c // w)
        if sol is not None:
            return (Fraction(sol[0], c), Fraction(sol[1], c))
    raise ArithmeticError(
        f"no solution of s^2+{m}t^2={k} with denominator <= {search_bound}; "
        "local checks passed so one exists beyond the search bound"
    )
