"""The finite-level model of the double-coset space: points, exact equality,
components, group actions, and the fixed-point/CM classification.

A LevelPoint [tau, a] packages an imaginary-quadratic point of the upper
half-plane with exact adelic coordinate data at a level N.  Equality of
points is decided exactly: the rational part of the coordinate is moved into
the half-plane coordinate, the resulting quadratic points are compared by
form reduction, and the finitely many integral witnesses are screened by
the congruence condition mod N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .adele import (
    AdelicMatrix,
    LevelMatrix,
    ShapeKind,
    UnitPart,
    rational_leftmul,
    reduce_level,
    shape_test,
    unit_rightmul,
)
from .matrices import IDENTITY, MIRROR, Mat2, ModMat
from .numth import is_squarefree, require_coprime


@dataclass(frozen=True, slots=True)
class QuadPoint:
    """tau = p + q*sqrt(-m) in the upper half-plane: q > 0, m square-free."""

    m: int
    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q <= 0:
            raise ValueError("point must lie in the upper half-plane (q > 0)")
        if not is_squarefree(self.m):
            raise ValueError("m must be square-free and positive")

    def apply_mobius(self, g: Mat2) -> "QuadPoint":
        """The Mobius image g(tau); g must have positive determinant."""
        p2, q2 = _mobius(g, self.p, self.q, self.m)
        if q2 <= 0:
            raise ValueError("matrix does not preserve the upper half-plane")
        return QuadPoint(self.m, p2, q2)


def _mobius(g: Mat2, p: Fraction, q: Fraction, m: int):
    """Exact Mobius action on p + q*sqrt(-m); returns (p', q') with
    q' = q*det/|c*tau+d|^2 (negative q' signals a half-plane swap).

    Scaling g does not change the map, so g's integer numerators are used,
    and with p = pn/pd, q = qn/qd everything is cleared to integers over
    pd^2 * qd^2 before the two results are formed."""
    a, b, c, d = g.an, g.bn, g.cn, g.dn
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    x = c * pn + d * pd  # (c*p + d) * pd
    y = a * pn + b * pd  # (a*p + b) * pd
    qd2, mqn2pd2 = qd * qd, m * qn * qn * pd * pd
    den = x * x * qd2 + c * c * mqn2pd2
    if den == 0:
        raise ZeroDivisionError("Mobius denominator vanishes")
    p2 = Fraction(y * x * qd2 + a * c * mqn2pd2, den)
    q2 = Fraction(qn * g.det_numerator() * pd * pd * qd, den)
    return p2, q2


@dataclass(frozen=True, slots=True)
class ComponentIndex:
    """Label of an irreducible component at level N: a unit mod N."""

    mu: int
    level: int

    def __post_init__(self):
        n = self.level
        object.__setattr__(self, "mu", self.mu % n)
        if gcd(self.mu, n) != 1:
            raise ValueError("component index must be a unit")


@dataclass(frozen=True, slots=True)
class LevelPoint:
    """The class [tau, a] at level N.

    Construction requires the adelic coordinate to reduce invertibly mod N.
    Operations that conjugate through the orbit frame (q, p; 0, 1), such as
    to_base_frame and galois.shadow_act, check the frame separately:
    renormalized representatives of the same point may carry frames that
    meet the level.
    """

    tau: QuadPoint
    a: AdelicMatrix
    level: int

    def __post_init__(self):
        if self.level != self.a.level:
            raise ValueError("coordinate level mismatch")
        require_coprime(self.level, self.a.r.den, self.a.r.det_numerator())

    # -- conveniences ---------------------------------------------------------

    @staticmethod
    def base(m: int, level: int) -> "LevelPoint":
        """[sqrt(-m), identity] at the given level."""
        return LevelPoint(QuadPoint(m, 0, 1), AdelicMatrix.identity(level), level)

    def unit_matrix(self) -> ModMat:
        return self.a.unit_mod(self.level)

    def full_matrix(self) -> ModMat:
        """The coordinate reduced mod N (rational times unit part)."""
        return reduce_level(self.a, self.level)


# -- orbit bookkeeping ---------------------------------------------------------


def orbit_rep(tau: QuadPoint) -> tuple[int, Mat2]:
    """(n, r) with tau = r(sqrt(-n)) and r = (q, p; 0, 1)."""
    return tau.m, Mat2(tau.q, tau.p, 0, 1)


def same_orbit(tau1: QuadPoint, tau2: QuadPoint) -> bool:
    return tau1.m == tau2.m


def is_cm(point: LevelPoint) -> bool:
    """Every representable point is special: tau is quadratic by construction.
    Exposed for interface completeness."""
    return True


def to_base_frame(point: LevelPoint) -> LevelPoint:
    """The same point written over the orbit base: [tau, a] = [sqrt(-m), f^{-1} a]
    for the frame matrix f of orbit_rep.  Obstructed when the frame is not
    invertible mod the level."""
    tau = point.tau
    require_coprime(point.level, tau.p.denominator, tau.q.denominator, tau.q.numerator)
    m, frame = orbit_rep(tau)
    if frame == IDENTITY:
        return point
    a2 = rational_leftmul(point.a, frame.inv())
    return LevelPoint(QuadPoint(m, 0, 1), a2, point.level)


# -- equality -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PointEqWitness:
    """Soundness certificate: q in GL2(Q) with positive determinant moving one
    representative to the other, and the integral matrix whose congruence to
    the unit-part ratio mod N certifies the level condition."""

    q: Mat2
    integral: Mat2
    level: int


def _sigma_normalized(tau: QuadPoint, r: Mat2):
    """(sigma, flip) with sigma = r^{-1}(tau) mirrored into the upper
    half-plane; flip records whether the mirror was applied."""
    p2, q2 = _mobius(r.inv(), tau.p, tau.q, tau.m)
    if q2 > 0:
        return QuadPoint(tau.m, p2, q2), False
    return QuadPoint(tau.m, -p2, -q2), True


def rigid_witnesses(P1: LevelPoint, P2: LevelPoint) -> list[Mat2]:
    """All M in GL2(Z) with M(sigma1) = sigma2 and sign(det M) matching the
    rational parts (so the global witness q = r2 M r1^{-1} has det > 0).

    Finite: one base witness composed with the automorphism group of the
    common reduced form; empty when the quadratic points are inequivalent.
    """
    if P1.tau.m != P2.tau.m:
        return []
    return list(_rigid_witnesses_cached(P1.tau, P1.a.r, P2.tau, P2.a.r))


@lru_cache(maxsize=1 << 14)
def _rigid_witnesses_cached(tau1, r1, tau2, r2) -> tuple:
    from .qforms import automorphs, form_of, reduce_form

    sigma1, flip1 = _sigma_normalized(tau1, r1)
    sigma2, flip2 = _sigma_normalized(tau2, r2)
    f1, f2 = form_of(sigma1), form_of(sigma2)
    g1, gamma1 = reduce_form(f1)
    g2, gamma2 = reduce_form(f2)
    if g1 != g2:
        return ()
    base = gamma2.inv()
    out = []
    for alpha in automorphs(g1):
        M = base * alpha * gamma1
        if flip1:
            M = M * MIRROR
        if flip2:
            M = MIRROR * M
        out.append(M)
    return tuple(out)


def point_eq_witness(P1: LevelPoint, P2: LevelPoint):
    """A PointEqWitness if the two classes coincide at their level, else None."""
    if P1.level != P2.level:
        raise ValueError("level mismatch")
    n = P1.level
    u1, u2 = P1.unit_matrix(), P2.unit_matrix()
    target = u2 * u1.inv()
    for M in rigid_witnesses(P1, P2):
        if M.mod(n) == target:
            q = P2.a.r * M * P1.a.r.inv()
            return PointEqWitness(q, M, n)
    return None


def point_eq(P1: LevelPoint, P2: LevelPoint) -> bool:
    return point_eq_witness(P1, P2) is not None


# -- actions --------------------------------------------------------------------


def act_unit(g: LevelMatrix, P: LevelPoint) -> LevelPoint:
    """[tau, a] -> [tau, a g^{-1}]: the level-matrix action on the unit side."""
    if g.n != P.level:
        raise ValueError("level mismatch")
    if not g.is_unit():
        raise ValueError("level matrix must have unit determinant")
    a2 = unit_rightmul(P.a, g.inv())
    return LevelPoint(P.tau, a2, P.level)


def act_rational(gamma: Mat2, P: LevelPoint) -> LevelPoint:
    """[tau, a] -> [gamma tau, gamma a]: renormalization by an integral
    unimodular matrix; the result is always point-equal to the input."""
    if not gamma.is_unimodular():
        raise ValueError("matrix must be integral with determinant +1")
    tau2 = P.tau.apply_mobius(gamma)
    return LevelPoint(tau2, rational_leftmul(P.a, gamma), P.level)


def component(P: LevelPoint) -> ComponentIndex:
    """The component index: determinant of the unit part times the sign of
    the rational determinant (its positive part is absorbed by the rational
    group acting on the left, so only the sign survives)."""
    sign = 1 if P.a.r.det_numerator() > 0 else -1
    return ComponentIndex(P.a.u.det_mod() * sign, P.level)


def is_fixed(g: LevelMatrix, P: LevelPoint) -> bool:
    """Does g fix [tau, a] at level N?

    True iff the conjugate of g by the full coordinate, moved to the orbit
    base frame, is a branch +1 shape matrix for m: the level-N image of the
    rational stabilizer of tau.
    """
    if g.n != P.level:
        raise ValueError("level mismatch")
    base = to_base_frame(P)
    amod = base.full_matrix()
    conj = amod * g * amod.inv()
    ok, _ = shape_test(conj, ShapeKind(P.tau.m, 1))
    return ok


def project(P: LevelPoint, new_level: int) -> LevelPoint:
    """The image at a divisor level: same tau and rational part, unit data
    reduced."""
    if new_level < 1 or P.level % new_level:
        raise ValueError("new level must divide the old one")
    u = P.a.u
    a2 = AdelicMatrix(P.a.r, UnitPart(u.delta, u.s, new_level), new_level)
    return LevelPoint(P.tau, a2, new_level)
