"""Brute-force oracles used by the test suite.

Each oracle is written independently of the implementation path it checks:
exhaustive enumeration, trial division, or direct searches.  Expected values
frozen into the tests were computed with these.  The Hilbert-symbol search,
BFS form reduction, shape/shadow enumeration, the Cornacchia and rational
norm searches and the subset-product independence test are the ones the
shipped verify suite runs, imported from cmcurve.verify.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from cmcurve.verify import (  # noqa: F401  (re-exported to the tests)
    all_shadows,
    all_shapes,
    cornacchia_exhaustive,
    hilbert_via_search,
    rational_norm_search,
    reduce_form_bfs,
    subset_product_square_test,
)


def trial_division(n: int) -> list[tuple[int, int]]:
    """Factor |n| by pure trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def legendre_exhaustive(a: int, p: int) -> int:
    """Legendre symbol by listing all squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def sqrt_mod_exhaustive(a: int, modulus: int) -> list[int]:
    return [x for x in range(modulus) if x * x % modulus == a % modulus]


def automorphs_exhaustive(coeffs, bound: int = 3):
    """All SL2(Z) matrices with entries bounded that fix the form."""
    from cmcurve.matrices import Mat2

    A, B, C = coeffs
    out = []
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c != 1:
                        continue
                    A2 = A * a * a + B * a * c + C * c * c
                    B2 = 2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d
                    C2 = A * b * b + B * b * d + C * d * d
                    if (A2, B2, C2) == (A, B, C):
                        out.append(Mat2(a, b, c, d))
    return out


def reduced_forms_exhaustive(disc: int):
    """Enumerate reduced primitive forms of a negative discriminant by
    scanning all (A, B) in the Gauss bounds."""
    out = []
    for A in range(1, isqrt(-disc // 3) + 2):
        for B in range(-A, A + 1):
            num = B * B - disc
            if num % (4 * A):
                continue
            C = num // (4 * A)
            if C < A or gcd(gcd(A, B), C) != 1:
                continue
            if (abs(B) == A or A == C) and B < 0:
                continue
            if abs(B) <= A <= C:
                out.append((A, B, C))
    return sorted(out)


def pair_witnesses_scan(s, t):
    """The four-point witness sets by scanning every unit twist nu mod N:
    each integral witness M of the underlying point equality is composed
    with diag(nu, 1) for all phi(N) units, and every shape-matching product
    is kept (branch +1 tried first).  Same keys and values as
    approx.pair_witnesses."""
    from cmcurve.adele import ShapeKind, shape_test
    from cmcurve.approx import _canonical_base
    from cmcurve.galois import identity_shadow
    from cmcurve.matrices import diag_mod
    from cmcurve.shimura import point_eq, rigid_witnesses

    if s.level != t.level:
        raise ValueError("level mismatch")
    if s.orbit != t.orbit:
        return {}
    n = s.level
    m = s.orbit
    A = _canonical_base(s)
    B = _canonical_base(t)
    out: dict = {}
    if n == 1:
        if point_eq(A, B):
            out[(0, 1)] = {identity_shadow((m,), 1).components[0]}
        return {k: frozenset(v) for k, v in out.items()}
    ra = A.a.rational_mod(n)
    ra_inv = ra.inv()
    ua, ub = A.unit_matrix(), B.unit_matrix()
    ua_inv = ua.inv()
    for M in rigid_witnesses(A, B):
        m_inv_mod = M.inv().mod(n)
        left = ra * m_inv_mod * ub
        right = ua_inv * ra_inv
        for nu in [x for x in range(1, n) if gcd(x, n) == 1]:
            r = left * diag_mod(nu, n) * right
            for branch in (1, -1):
                ok, _ = shape_test(r, ShapeKind(m, branch))
                if ok:
                    out.setdefault((r.det(), branch), set()).add(r)
                    break
    return {k: frozenset(v) for k, v in out.items()}


def pair_witnesses_brute(s, t):
    """The four-point witness sets from first principles: every normalizer
    shape r mod N (branch +1 first, as all_shapes lists them) such that
    [sqrt(-m), r * a] equals some unit twist of t under point_eq, where
    [sqrt(-m), a] is the canonical base presentation of s.  Exhaustive over
    all N^2 shapes per branch and all twists, so only for small N."""
    from cmcurve.adele import unit_leftmul
    from cmcurve.approx import _canonical_base
    from cmcurve.matrices import diag_mod
    from cmcurve.shimura import LevelPoint, act_unit, point_eq

    if s.orbit != t.orbit:
        return {}
    n = s.level
    A = _canonical_base(s)
    twists = [act_unit(diag_mod(nu, n), t.point) for nu in range(1, n) if gcd(nu, n) == 1]
    out: dict = {}
    seen = set()
    for r, branch in all_shapes(s.orbit, n):
        if r in seen:
            continue
        seen.add(r)
        moved = LevelPoint(A.tau, unit_leftmul(A.a, r), n)
        if any(point_eq(moved, T) for T in twists):
            out.setdefault((r.det(), branch), set()).add(r)
    return {k: frozenset(v) for k, v in out.items()}


def linear_congruence_exhaustive(alpha: int, beta: int, n: int) -> list[int]:
    """Every x in [0, n) with alpha*x + beta = 0 (mod n)."""
    return [x for x in range(n) if (alpha * x + beta) % n == 0]


class FractionMat2:
    """The rational 2x2 matrix with four Fraction entries that Mat2 replaced:
    every operation normalises the entries one by one.  Kept as the oracle
    for the integer-numerator Mat2."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, *args):
        raise AttributeError("FractionMat2 is immutable")

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries)

    def is_unimodular(self) -> bool:
        return self.is_integral() and self.det() == 1

    def is_gl2z(self) -> bool:
        return self.is_integral() and self.det() in (1, -1)

    def __mul__(self, other: "FractionMat2") -> "FractionMat2":
        return FractionMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "FractionMat2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        return FractionMat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __neg__(self) -> "FractionMat2":
        return FractionMat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionMat2) and self.entries == other.entries

    def __hash__(self):
        return hash(("FractionMat2",) + self.entries)

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"

    def mod(self, n: int):
        """Reduce mod n; requires entry denominators coprime to n."""
        from cmcurve.errors import PrecisionObstruction
        from cmcurve.matrices import ModMat

        if n == 1:
            return ModMat(0, 0, 0, 0, 1)
        vals = []
        for x in self.entries:
            if gcd(x.denominator, n) != 1:
                raise PrecisionObstruction(_common_prime(x.denominator, n))
            vals.append(x.numerator * pow(x.denominator, -1, n) % n)
        return ModMat(*vals, n)


class PlainModMat:
    """A 2x2 matrix mod n as four plain ints in [0, n) beside n, with the
    textbook formulas: the oracle for ModMat.  The inverse finds the
    determinant's inverse by a scan of the residues, not by pow."""

    def __init__(self, a, b, c, d, n):
        self.entries = (a % n, b % n, c % n, d % n)
        self.n = n

    def __mul__(self, other: "PlainModMat") -> "PlainModMat":
        a, b, c, d = self.entries
        p, q, r, s = other.entries
        return PlainModMat(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, self.n)

    def det(self) -> int:
        a, b, c, d = self.entries
        return (a * d - b * c) % self.n

    def inv(self) -> "PlainModMat":
        n, det = self.n, self.det()
        k = next((k for k in range(n) if det * k % n == 1 % n), None)
        if k is None:
            raise ZeroDivisionError(f"determinant {det} not a unit mod {n}")
        a, b, c, d = self.entries
        return PlainModMat(d * k, -b * k, -c * k, a * k, n)

    def scalar_mul(self, k: int) -> "PlainModMat":
        return PlainModMat(*(x * k for x in self.entries), self.n)

    def reduce(self, m: int) -> "PlainModMat":
        if m < 1 or self.n % m:
            raise ValueError(f"{m} does not divide modulus {self.n}")
        return PlainModMat(*self.entries, m)


def _common_prime(a: int, n: int) -> int:
    """Smallest prime dividing gcd(a, n), by trial division."""
    g = gcd(a, n)
    p = 2
    while p * p <= g:
        if g % p == 0:
            return p
        p += 1
    return g


def noninvertible_primes_per_entry(r, n: int) -> set:
    """The primes of n (by trial division) where the rational matrix r is
    not an integral unit, read entry by entry: a prime dividing some entry
    denominator, or the numerator or denominator of the determinant."""
    det = Fraction(r.det())
    out = set()
    for p, _ in trial_division(n):
        if any(Fraction(x).denominator % p == 0 for x in r.entries):
            out.add(p)
        elif det.numerator % p == 0 or det.denominator % p == 0:
            out.add(p)
    return out


def surjective_common_det_per_lambda(support, level: int) -> dict:
    """surjective_common_det one unit at a time: for each lambda and each
    support entry, the checked norm_residue_witness at every prime power of
    the level, combined by crt.  The oracle for the table-driven version,
    which shares neither its tables nor its CRT idempotents."""
    from cmcurve.adele import shape_matrix_mod
    from cmcurve.galois import GaloisShadow, norm_residue_witness
    from cmcurve.numth import crt

    support = tuple(support)
    prime_powers = [(p, e, p**e) for p, e in trial_division(level)]
    out = {}
    for lam in [x for x in range(1, level) if gcd(x, level) == 1] or [1]:
        comps = []
        for m in support:
            wits = [(norm_residue_witness(m, lam % pe, p, e), pe) for p, e, pe in prime_powers]
            x = crt([(xy[0], pe) for xy, pe in wits])[0]
            y = crt([(xy[1], pe) for xy, pe in wits])[0]
            comps.append(shape_matrix_mod(x, y, m, 1, level))
        out[lam] = GaloisShadow(support, tuple(comps), 1, lam, level)
    return out


def span_subgroup_bfs(generators, group_a, group_b):
    """Closure of generators inside A x B by breadth-first search: every
    element reached is added to every generator until nothing new appears.
    The oracle for tori.span_subgroup, which reads the subgroup off a
    Hermite normal form."""
    zero = (group_a.zero(), group_b.zero())
    seen = {zero}
    frontier = [zero]
    gens = [(tuple(a), tuple(b)) for a, b in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = (group_a.add(x[0], g[0]), group_b.add(x[1], g[1]))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def goursat_elementwise(generators, group_a, group_b):
    """Goursat decomposition with coset tables built element by element:
    every element of A is added to every element of K2 (and B to K1), so
    each coset is rebuilt once per member.  The oracle for tori.goursat,
    which builds each coset once."""
    from cmcurve.errors import NotSubdirect
    from cmcurve.tori import GoursatData, span_subgroup

    sub = span_subgroup(generators, group_a, group_b)
    if len({x[0] for x in sub}) != group_a.order():
        raise NotSubdirect("A")
    if len({x[1] for x in sub}) != group_b.order():
        raise NotSubdirect("B")
    zero_a, zero_b = group_a.zero(), group_b.zero()
    k1 = frozenset(b for a, b in sub if a == zero_a)
    k2 = frozenset(a for a, b in sub if b == zero_b)
    a_coset = {a: frozenset(group_a.add(a, k) for k in k2) for a in group_a.elements()}
    b_coset = {b: frozenset(group_b.add(b, k) for k in k1) for b in group_b.elements()}
    graph = {}
    for a, b in sub:
        ka, kb = a_coset[a], b_coset[b]
        if ka in graph and graph[ka] != kb:
            raise ArithmeticError("graph is not well defined")
        graph[ka] = kb
    if len(set(graph.values())) != len(graph):
        raise ArithmeticError("graph is not injective")
    reps = [(min(ka), min(kb)) for ka, kb in graph.items()]
    for a, img_a in reps:
        for b, img_b in reps:
            lhs = graph[a_coset[group_a.add(a, b)]]
            rhs = b_coset[group_b.add(img_a, img_b)]
            if lhs != rhs:
                raise ArithmeticError("graph is not a homomorphism")
    table = tuple(sorted(graph.items(), key=lambda t: sorted(t[0])))
    return GoursatData(k1, k2, table)
