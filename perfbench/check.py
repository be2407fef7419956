"""Independent answer checks for the benchmark.

Everything here is plain integer and Fraction arithmetic on tuples.  No
function of the package is called: results are read as data (attributes of
the returned objects, or decoded CLI JSON) and checked against the defining
identities, so a wrong or forged answer cannot vouch for itself.

A check returns None when the answer holds and a short reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

class Crash(str):
    """A failure reason for an operation that gave no answer (an exception, a
    traceback or an exit code other than the documented one), as opposed to
    a wrong answer."""


# -- plain 2x2 arithmetic (a, b, c, d) ------------------------------------------


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(x):
    a, b, c, d = x
    return a * d - b * c


def mat_inv(x):
    det = Fraction(mat_det(x))
    a, b, c, d = x
    return (d / det, -b / det, -c / det, a / det)


def mod_reduce(x, n):
    """Entrywise reduction of a rational matrix whose denominators are
    prime to n."""
    out = []
    for v in x:
        v = Fraction(v)
        out.append(v.numerator * pow(v.denominator, -1, n) % n)
    return tuple(out)


def mod_mul(x, y, n):
    return tuple(v % n for v in mat_mul(x, y))


def mod_inv(x, n):
    a, b, c, d = x
    di = pow(mat_det(x) % n, -1, n)
    return tuple(v * di % n for v in (d, -b, -c, a))


def is_shape(x, m, branch, n):
    """(x, m*y; -y, x) for branch +1, (x, m*y; y, -x) for branch -1, with a
    unit determinant mod n."""
    a, b, c, d = (v % n for v in x)
    if branch == 1:
        ok = (d - a) % n == 0 and (b + m * c) % n == 0
    else:
        ok = (d + a) % n == 0 and (b - m * c) % n == 0
    return ok and gcd(mat_det(x), n) == 1


# -- points as data ---------------------------------------------------------------


class Pt:
    """[tau, r * diag(delta, 1) * s] at level n, read from an object or JSON."""

    __slots__ = ("m", "p", "q", "r", "delta", "s", "n")

    def __init__(self, m, p, q, r, delta, s, n):
        self.m, self.p, self.q = m, Fraction(p), Fraction(q)
        self.r = tuple(Fraction(v) for v in r)
        self.delta, self.s, self.n = delta, tuple(int(v) for v in s), n

    @staticmethod
    def of(P):
        """From a library LevelPoint (attribute reads only)."""
        return Pt(P.tau.m, P.tau.p, P.tau.q, P.a.r.entries, P.a.u.delta, P.a.u.s.entries, P.level)

    @staticmethod
    def from_json(obj):
        t, a = obj["tau"], obj["a"]
        return Pt(
            t["m"], Fraction(*t["p"]), Fraction(*t["q"]),
            [Fraction(*v) for v in a["r"]], a["delta"], a["s"], obj["level"],
        )

    def unit(self):
        """diag(delta, 1) * s mod n."""
        n = self.n
        return mod_mul((self.delta, 0, 0, 1), self.s, n)

    def full(self):
        """The whole coordinate mod n."""
        n = self.n
        return mod_mul(mod_reduce(self.r, n), self.unit(), n)

    def frame(self):
        return (self.q, self.p, Fraction(0), Fraction(1))

    def same_frame(self, other):
        return (self.m, self.p, self.q, self.r, self.n) == (
            other.m, other.p, other.q, other.r, other.n
        )


def mobius(x, m, p, q):
    """x applied to p + q*sqrt(-m); returns (p', q') with q' signed."""
    a, b, c, d = x
    den = (c * p + d) ** 2 + m * (c * q) ** 2
    p2 = ((a * p + b) * (c * p + d) + a * c * q * q * m) / den
    return p2, q * mat_det(x) / den


def min_poly(m, p, q):
    """The primitive (A, B, C) with A > 0 and root p + q*sqrt(-m)."""
    b, c = -2 * p, p * p + q * q * m
    den = b.denominator * c.denominator // gcd(b.denominator, c.denominator)
    A, B, C = den, int(b * den), int(c * den)
    g = gcd(gcd(A, B), C)
    return A // g, B // g, C // g


def sigma_disc(P: Pt):
    """|disc| of the form of r^-1(tau), the one point equality reduces."""
    A, B, C = min_poly(P.m, *mobius(mat_inv(P.r), P.m, P.p, P.q))
    return 4 * A * C - B * B


def stabilizer(m, p, q):
    """All gamma in SL2(Z) fixing p + q*sqrt(-m) (q may be negative), from the
    minimal polynomial A t^2 + B t + C and the solutions of t^2 - D u^2 = 4."""
    A, B, C = min_poly(m, p, q)
    D = B * B - 4 * A * C
    out = set()
    for u in (-1, 0, 1):
        t2 = 4 + D * u * u
        if t2 < 0 or isqrt(t2) ** 2 != t2:
            continue
        for t in (isqrt(t2), -isqrt(t2)):
            out.add(((t - B * u) // 2, -C * u, A * u, (t + B * u) // 2))
    return sorted(out)


def twist_unit(P: Pt, comp):
    """Unit part mod n of P moved by the shape matrix comp through the orbit
    frame: rm^-1 * (f comp f^-1) * rm * u."""
    n = P.n
    f = mod_reduce(P.frame(), n)
    rm = mod_reduce(P.r, n)
    acting = mod_mul(mod_mul(f, comp, n), mod_inv(f, n), n)
    return mod_mul(mod_mul(mod_mul(mod_inv(rm, n), acting, n), rm, n), P.unit(), n)


def quotient_equal(P: Pt, unit_p, Q: Pt):
    """Do [tau, r, unit_p] and Q agree up to a diagonal unit twist?  Both must
    share tau and r, so the rigid witnesses are the stabilizer of r^-1(tau)."""
    n = P.n
    sp, sq = mobius(mat_inv(P.r), P.m, P.p, P.q)
    uq_inv = mod_inv(Q.unit(), n)
    for M in stabilizer(P.m, sp, sq):
        X = mod_mul(mod_mul(uq_inv, tuple(v % n for v in M), n), unit_p, n)
        if X[1] == 0 and X[2] == 0 and X[3] == 1 % n and gcd(X[0], n) == 1:
            return True
    return False


# -- answer checks -------------------------------------------------------------------


def check_point_eq_witness(P1: Pt, P2: Pt, q, M):
    """q maps tau1 to tau2 exactly, q = r2 M r1^-1, M in GL2(Z) and
    M = u2 u1^-1 mod n."""
    n = P1.n
    q = tuple(Fraction(v) for v in q)
    M = tuple(Fraction(v) for v in M)
    if any(v.denominator != 1 for v in M) or abs(mat_det(M)) != 1:
        return "integral witness is not in GL2(Z)"
    if mat_mul(mat_mul(P2.r, M), mat_inv(P1.r)) != q:
        return "q is not r2 * M * r1^-1"
    if mat_det(q) <= 0 or mobius(q, P1.m, P1.p, P1.q) != (P2.p, P2.q) or P1.m != P2.m:
        return "q does not map tau1 to tau2"
    target = mod_mul(P2.unit(), mod_inv(P1.unit(), n), n)
    if tuple(int(v) % n for v in M) != target:
        return "integral witness is not u2 * u1^-1 mod n"
    return None


def check_moves(rows, comp_for):
    """Every (s, t) row: the shape comp_for(s.m) moves s to t in the
    diagonal-unit quotient."""
    for i, (s, t) in enumerate(rows, start=1):
        if not s.same_frame(t):
            return f"row {i}: source and target differ outside the unit part"
        if not quotient_equal(s, twist_unit(s, comp_for(s.m)), t):
            return f"row {i}: witness does not move s to t"
    return None


def check_shadow(support, comps, branch, det, n):
    if len(support) != len(comps):
        return "support and components differ in length"
    for m, c in zip(support, comps):
        if not is_shape(c, m, branch, n) or mat_det(c) % n != det % n:
            return f"component for m={m} is not a branch {branch} shape of det {det}"
    return None


def check_relation_witness(rows, lam, branch, r1, r2):
    """rows = [(s1, t1), (s2, t2)]; r1, r2 shapes of determinant lam and the
    common branch that move each s_i to t_i (equal when the orbits agree)."""
    (s1, _), (s2, _) = rows
    n = s1.n
    for m, r in ((s1.m, r1), (s2.m, r2)):
        if not is_shape(r, m, branch, n) or mat_det(r) % n != lam % n:
            return "witness matrix is not a shape of the stated det and branch"
    if s1.m == s2.m and tuple(r1) != tuple(r2):
        return "same-orbit rows need one common witness matrix"
    return check_moves(rows[:1], lambda m: r1) or check_moves(rows[1:], lambda m: r2)


def check_unit_action(P: Pt, Q: Pt, unit_q):
    """Q keeps tau and r and carries the unit part unit_q."""
    if not P.same_frame(Q):
        return "action changed tau or the rational part"
    if Q.unit() != tuple(v % P.n for v in unit_q):
        return "unit part is wrong"
    return None


def check_component(Q: Pt, mu):
    n = Q.n
    sign = 1 if mat_det(Q.r) > 0 else -1
    if (mat_det(Q.unit()) * sign - mu) % n:
        return "component index is wrong"
    return None


def base_coordinate(P: Pt):
    """The coordinate mod n of P rewritten over sqrt(-m): f^-1 r d s."""
    base_r = mat_mul(mat_inv(P.frame()), P.r)
    return mod_mul(mod_reduce(base_r, P.n), P.unit(), P.n)


def fixed_by(P: Pt, g):
    """The definition of is_fixed: g conjugated by the base-frame coordinate
    is a branch +1 shape for m."""
    n = P.n
    amod = base_coordinate(P)
    conj = mod_mul(mod_mul(amod, g, n), mod_inv(amod, n), n)
    return is_shape(conj, P.m, 1, n)


def check_product(g1, g2, prod, n):
    """g = (r, delta, s): the rational part multiplies exactly and the
    reduction mod n of the product is the product of the reductions."""
    r1, d1, s1 = g1
    r2, d2, s2 = g2
    r, d, s = prod
    if tuple(r) != mat_mul(r1, mat_mul(s1, r2)):
        return "rational part is not r1 * s1 * r2"
    if mat_det(s) != 1:
        return "integral part is not in SL2(Z)"

    def full(g):
        gr, gd, gs = g
        return mod_mul(mod_mul(mod_reduce(gr, n), (gd, 0, 0, 1), n), tuple(v % n for v in gs), n)

    if full(prod) != mod_mul(full(g1), full(g2), n):
        return "reduction of the product is not the product of reductions"
    return None


# -- lattices ----------------------------------------------------------------------


def rational_solve(basis, v):
    """Coefficients x with sum x_j basis_j = v over Q, or None."""
    n = len(v)
    k = len(basis)
    rows = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(v[i])] for i in range(n)]
    piv = []
    r = 0
    for col in range(k):
        sel = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv.append(col)
        r += 1
    if any(rows[i][k] != 0 for i in range(r, n)):
        return None
    x = [Fraction(0)] * k
    for i, col in enumerate(piv):
        x[col] = rows[i][k]
    return x


def in_lattice(basis, v):
    if not any(v):
        return True
    x = rational_solve(basis, v) if basis else None
    return x is not None and all(c.denominator == 1 for c in x)


def _minors_gcd(basis, n):
    from itertools import combinations

    k = len(basis)
    g = 0
    for rows in combinations(range(n), k):
        sub = [[Fraction(basis[j][i]) for j in range(k)] for i in rows]
        g = gcd(g, int(_det(sub)))
    return g


def _det(a):
    a = [row[:] for row in a]
    k = len(a)
    det = Fraction(1)
    for col in range(k):
        sel = next((i for i in range(col, k) if a[i][col] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            a[col], a[sel] = a[sel], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, k):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def check_saturation(vectors, generators, basis, n):
    """basis contains the input vectors, is stable under every sign vector,
    is independent, and is saturated (its maximal minors have gcd 1)."""
    if any(not in_lattice(basis, v) for v in vectors):
        return "an input vector is missing"
    for eps in generators:
        for col in basis:
            if not in_lattice(basis, tuple(e * x for e, x in zip(eps, col))):
                return "lattice is not stable"
    if basis and _minors_gcd(basis, n) != 1:
        return "lattice is not saturated (or its basis is dependent)"
    return None


def independent_truth(ms):
    """No nonempty subset product of the -m_i is a rational square."""
    k = len(ms)
    for mask in range(1, 1 << k):
        prod = 1
        size = 0
        for i in range(k):
            if mask >> i & 1:
                prod *= ms[i]
                size += 1
        if size % 2 == 0 and isqrt(prod) ** 2 == prod:
            return False
    return True


def check_goursat(gens, mods_a, mods_b, k1, k2, table):
    """The kernels are subgroups, the coset table is a bijection of the
    right size, and every generator (a, b) lies on the graph."""

    def add(x, y, mods):
        return tuple((u + v) % m for u, v, m in zip(x, y, mods))

    def order(mods):
        out = 1
        for m in mods:
            out *= m
        return out

    for k, mods in ((k1, mods_b), (k2, mods_a)):
        if tuple(0 for _ in mods) not in k or any(add(x, y, mods) not in k for x in k for y in k):
            return "kernel is not a subgroup"
    if order(mods_a) * len(k1) != order(mods_b) * len(k2):
        return "kernel orders violate |A| |K1| = |B| |K2|"
    if len(table) * len(k2) != order(mods_a):
        return "coset table has the wrong size"
    graph = {}
    for acoset, bcoset in table:
        for a in acoset:
            graph[a] = bcoset
    if len(graph) != order(mods_a) or len({frozenset(b) for _, b in table}) != len(table):
        return "coset table is not a bijection"
    for a, b in gens:
        if tuple(b) not in graph.get(tuple(a), ()):
            return "a generator is off the graph"
    return None
