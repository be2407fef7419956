"""The quotient of the level-N model by the diagonal unit action.

An ApproxPoint is a LevelPoint taken up to right multiplication by the
diagonal units d_lambda; the quotient is the finite-level avatar of the
inverse limit of the classical curves.  Canonical representatives pin the
unit-part determinant to 1.  The four-point relation R on CM points encodes
exactly the graphs of the shadow group: two pairs are related iff a single
shadow moves one pair to the other, and lift_automorphism reconstructs the
shadow from a consistent mapping table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .adele import conj_by_dlambda, unit_rightmul
from .errors import RViolation
from .galois import GaloisShadow, identity_shadow, shadow_act, shadow_eq
from .matrices import ModMat, diag_mod
from .numth import intersect_progressions, solve_linear_congruence, units_mod
from .shimura import (
    ComponentIndex,
    LevelPoint,
    act_unit,
    rigid_witnesses,
    to_base_frame,
)


@dataclass(frozen=True, slots=True)
class ApproxPoint:
    """The class of a LevelPoint under the diagonal-unit equivalence."""

    point: LevelPoint

    @property
    def level(self) -> int:
        return self.point.level

    @property
    def orbit(self) -> int:
        return self.point.tau.m


def approx_eq(P1: ApproxPoint, P2: ApproxPoint) -> bool:
    """Equality in the quotient: some diagonal-unit twist matches the points.

    The integral witnesses do not depend on the twist, so one pass computes
    them and the diagonal search reduces to checking that u2^{-1} M u1 is a
    unit diagonal of the d_lambda form.
    """
    if P1.level != P2.level:
        raise ValueError("level mismatch")
    n = P1.level
    u1, u2 = P1.point.unit_matrix(), P2.point.unit_matrix()
    u2_inv = u2.inv()
    for M in rigid_witnesses(P1.point, P2.point):
        X = u2_inv * M.mod(n) * u1
        if X.b == 0 and X.c == 0 and X.d == 1 % n and gcd(X.a, n) == 1:
            return True
    return False


def canonical_rep(P: ApproxPoint) -> LevelPoint:
    """The representative with unit-part determinant 1 mod N: right-multiply
    by the inverse diagonal determinant.  Idempotent, and identical for every
    representative of the class."""
    pt = P.point
    n = pt.level
    delta = pt.a.u.det_mod()
    if delta == 1:
        return pt
    a2 = unit_rightmul(pt.a, diag_mod(delta, n).inv())
    return LevelPoint(pt.tau, a2, n)


# -- curve components -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CurveComponentLabel:
    """One irreducible component of the correspondence induced by h: the
    graph of the transformation labelled by the component index mu."""

    h: ModMat
    mu: ComponentIndex

    def __post_init__(self):
        if not self.h.is_unit():
            raise ValueError("h must have unit determinant")
        if self.h.n != self.mu.level:
            raise ValueError("level mismatch")


def curve_component(h: ModMat, mu: ComponentIndex) -> CurveComponentLabel:
    return CurveComponentLabel(h, mu)


def eval_curve(label: CurveComponentLabel, P: ApproxPoint) -> ApproxPoint:
    """Apply the component-mu transformation of h: conjugate h by the
    diagonal unit mu and act on the canonical representative."""
    n = label.h.n
    if P.level != n:
        raise ValueError("level mismatch")
    base = canonical_rep(P)
    acting = conj_by_dlambda(label.h, label.mu.mu)
    return ApproxPoint(act_unit(acting, base))


# -- the four-point relation ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RelationWitness:
    lam: int
    branch: int
    r1: ModMat
    r2: ModMat


def _canonical_base(P: ApproxPoint) -> LevelPoint:
    return canonical_rep(ApproxPoint(to_base_frame(P.point)))


def pair_witnesses(s: ApproxPoint, t: ApproxPoint) -> dict:
    """All normalizer-shape matrices r with [sqrt(-m), r * a] ~ t, where
    [sqrt(-m), a] is the canonical base presentation of s.

    Keyed by (determinant, branch), values are frozensets.  The finitely many
    integral witnesses of the underlying point equality are composed with
    every diagonal twist, so the set is complete: every valid r arises from
    one such pair.  The twists that give a shape are solved for, not
    scanned, so the cost does not grow with the level.
    """
    if s.level != t.level:
        raise ValueError("level mismatch")
    if s.orbit != t.orbit:
        return {}
    return dict(_pair_witnesses_cached(s, t))


# The reuse is inside one lift_automorphism call (each row's pair is asked
# for twice, the first row's once per row).  Across calls keys seldom repeat
# (1.2 % hits at 2^14 entries on a warm mixed workload, 0.8 % at 2^10 and
# 0.6 % at 2^8), and each entry pins two points and their witness sets,
# about 0.9 kB.
@lru_cache(maxsize=1 << 8)
def _pair_witnesses_cached(s: ApproxPoint, t: ApproxPoint):
    n = s.level
    m = s.orbit
    A = _canonical_base(s)
    B = _canonical_base(t)
    out: dict = {}
    ra = A.a.rational_mod(n)
    ua, ub = A.unit_matrix(), B.unit_matrix()
    right = ua.inv() * ra.inv()
    for M in rigid_witnesses(A, B):
        left = ra * M.inv().mod(n) * ub
        for r, branch in _shape_twists(left, right, m).items():
            out.setdefault((r.det(), branch), set()).add(r)
    return tuple((k, frozenset(v)) for k, v in out.items())


def _shape_twists(left: ModMat, right: ModMat, m: int) -> dict:
    """{r: branch} for the normalizer shapes r = left * diag(nu, 1) * right
    for sqrt(-m), nu a unit mod N (left and right are units, so r is one).

    The product is nu*P + Q, with P = (column 1 of left)(row 1 of right)
    and Q = (column 2 of left)(row 2 of right), so each branch's two shape
    conditions are linear congruences in nu: the answer is at most two
    progressions mod N, and the work is bounded by their size, not by
    phi(N).  A shape of both branches keeps +1, as shape_branch decides.
    """
    l11, l12, l21, l22, n = left
    r11, r12, r21, r22, _ = right
    pa, pb, pc, pd = l11 * r11, l11 * r12, l21 * r11, l21 * r12
    qa, qb, qc, qd = l12 * r21, l12 * r22, l22 * r21, l22 * r22
    out = {}
    # branch +1: d - a = b + m*c = 0; branch -1: d + a = b - m*c = 0 (mod N)
    for sign in (1, -1):
        prog = intersect_progressions(
            solve_linear_congruence(pd - sign * pa, qd - sign * qa, n),
            solve_linear_congruence(pb + sign * m * pc, qb + sign * m * qc, n),
        )
        if prog is not None:
            start, step = prog
            for nu in range(start, n, step):
                if gcd(nu, n) == 1:
                    r = ModMat(nu * pa + qa, nu * pb + qb, nu * pc + qc, nu * pd + qd, n)
                    out.setdefault(r, sign)
    return out


def relation_witness(s1, s2, t1, t2):
    """A RelationWitness if the four CM points satisfy the relation, else None.

    The relation holds iff one shadow moves (s1, s2) to (t1, t2): normalizer
    shapes r1, r2 of a common determinant and a common branch with t_i the
    twisted image of s_i; when s1 and s2 share an orbit the witness matrix
    must be common to both rows.
    """
    if not s1.level == s2.level == t1.level == t2.level:
        raise ValueError("level mismatch")
    if s1.orbit != t1.orbit or s2.orbit != t2.orbit:
        return None
    w1 = pair_witnesses(s1, t1)
    w2 = pair_witnesses(s2, t2)
    same_orbit = s1.orbit == s2.orbit
    for key in sorted(set(w1) & set(w2), key=_witness_key):
        lam, branch = key
        if same_orbit:
            common = w1[key] & w2[key]
            if common:
                r = min(common, key=lambda g: g.entries)
                return RelationWitness(lam, branch, r, r)
        else:
            r1 = min(w1[key], key=lambda g: g.entries)
            r2 = min(w2[key], key=lambda g: g.entries)
            return RelationWitness(lam, branch, r1, r2)
    return None


def _witness_key(key):
    lam, branch = key
    return (lam, -branch)


def relation_R(s1, s2, t1, t2) -> bool:
    return relation_witness(s1, s2, t1, t2) is not None


# -- faithfulness and lifting ------------------------------------------------------


def spanning_sample(support, level: int) -> list:
    """CM points spanning each supported orbit with varied unit parts: enough
    to separate every nonidentity shadow class."""
    out = []
    shear = ModMat(1, 1, 0, 1, level)
    matrices = [ModMat(1, 0, 0, 1, level), shear]
    for lam in units_mod(level, limit=3):
        if level > 1 and lam != 1:  # units_mod(1) is [0]: no further sample points
            matrices.append(diag_mod(lam, level))
            matrices.append(diag_mod(lam, level) * shear)
    for m in support:
        base = LevelPoint.base(m, level)
        for g in matrices:
            out.append(ApproxPoint(act_unit(g, base)))
    return out


def shadow_act_approx(sigma: GaloisShadow, P: ApproxPoint) -> ApproxPoint:
    return ApproxPoint(shadow_act(sigma, P.point))


def faithfulness_check(sigma: GaloisShadow, sample=None) -> bool:
    """True iff triviality of sigma on the sample implies sigma is the
    identity class.

    A shadow trivial on the sample must have diagonal-shape components (the
    dichotomy: identity or the mirror class), and the mirror class is
    separated by the sheared sample points, so nonidentity shadows never act
    trivially.
    """
    if sample is None:
        sample = spanning_sample(sigma.support, sigma.level)
    trivial = all(approx_eq(shadow_act_approx(sigma, P), P) for P in sample)
    if not trivial:
        return True
    return shadow_eq(sigma, identity_shadow(sigma.support, sigma.level))


def lift_automorphism(table) -> GaloisShadow:
    """Reconstruct a shadow from a mapping table of CM approx points.

    table: list of (s_i, t_i).  Requires the four-point relation against the
    first row (checked; RViolation(i) on failure, 1-based), then solves for
    a single (determinant, branch) and per-orbit witness matrices consistent
    with every row simultaneously.
    """
    if not table:
        raise ValueError("table must be nonempty")
    level = table[0][0].level
    rows = []
    for i, (s, t) in enumerate(table):
        if s.level != level or t.level != level:
            raise ValueError("table levels must agree")
        if s.orbit != t.orbit:
            raise RViolation(i + 1)
        rows.append((s, t))
    s1, t1 = rows[0]
    for i, (s, t) in enumerate(rows[1:], start=2):
        if relation_witness(s1, s, t1, t) is None:
            raise RViolation(i)
    # one pass over the rows: per (determinant, branch) key, the per-orbit
    # intersection of the witness sets; a key drops out when one empties
    alive = {key: {s1.orbit: ws} for key, ws in pair_witnesses(s1, t1).items()}
    if not alive:  # only a one-row table: the relation loop rejects longer ones
        raise RViolation(1)
    for i, (s, t) in enumerate(rows[1:], start=2):
        w, m = pair_witnesses(s, t), s.orbit
        survivors = {}
        for key, sets in alive.items():
            if key in w:
                common = w[key] & sets.get(m, w[key])
                if common:
                    survivors[key] = {**sets, m: common}
        alive = survivors
        if not alive:
            raise RViolation(i)
    for (lam, branch), orbit_sets in sorted(alive.items(), key=lambda kv: _witness_key(kv[0])):
        support = tuple(sorted(orbit_sets))
        comps = tuple(
            min(orbit_sets[m], key=lambda g: g.entries) for m in support
        )
        sigma = GaloisShadow(support, comps, branch, lam, level)
        if all(
            approx_eq(shadow_act_approx(sigma, s), t) for s, t in rows
        ):
            return sigma
    raise RViolation(len(rows))
