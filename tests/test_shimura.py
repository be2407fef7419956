import random
from fractions import Fraction
from math import gcd

import pytest

from cmcurve.adele import AdelicMatrix, UnitPart
from cmcurve.errors import PrecisionObstruction
from cmcurve.matrices import Mat2, ModMat, diag_mod, identity_mod
from cmcurve.qforms import reduced_forms
from cmcurve.shimura import (
    ComponentIndex,
    LevelPoint,
    QuadPoint,
    act_rational,
    act_unit,
    component,
    is_cm,
    is_fixed,
    orbit_rep,
    point_eq,
    PointEqWitness,
    point_eq_witness,
    project,
    same_orbit,
    to_base_frame,
)


def bounded_gl2z(cap):
    """All (a, b, c, d) with |entries| <= cap and det = +-1, via coprime
    columns completed by Bezout and shifted."""
    out = []
    for a in range(-cap, cap + 1):
        for c in range(-cap, cap + 1):
            if gcd(a, c) != 1:
                continue
            # one solution of a*d0 - c*b0 = 1
            g, x, y = _ext_gcd(a, -c)
            d0, b0 = x, y
            for det in (1, -1):
                dd, bb = d0 * det, b0 * det
                # general solution: (b, d) = (bb + t*a, dd + t*c)
                ts = set()
                for coord, base in ((a, bb), (c, dd)):
                    if coord:
                        lo = (-cap - base) // abs(coord) - 1
                        hi = (cap - base) // abs(coord) + 1
                        ts.update(range(lo, hi + 1))
                if not ts:
                    ts = {0}
                for t in ts:
                    b, d = bb + t * a, dd + t * c
                    if abs(b) <= cap and abs(d) <= cap and a * d - b * c == det:
                        out.append((a, b, c, d))
    return sorted(set(out))


def _ext_gcd(a, b):
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def point_eq_oracle(P1, P2, matrices):
    """Independent equality test: scan integral witnesses M directly against
    the defining equation (q tau1 = tau2 with q = r2 M r1^{-1} of positive
    determinant, M congruent to the unit-part ratio mod N)."""
    from cmcurve.shimura import _mobius

    n = P1.level
    target = (P2.unit_matrix() * P1.unit_matrix().inv()).entries
    r1i, r2 = P1.a.r.inv(), P2.a.r
    for a, b, c, d in matrices:
        if n > 1 and (a % n, b % n, c % n, d % n) != target:
            continue
        M = Mat2(a, b, c, d)
        q = r2 * M * r1i
        if q.det() <= 0:
            continue
        p2, q2 = _mobius(q, P1.tau.p, P1.tau.q, P1.tau.m)
        if q2 > 0 and (p2, q2) == (P2.tau.p, P2.tau.q):
            return True
    return False


def unit_point(m, n, mat: ModMat, delta=1):
    from cmcurve.matrices import sl2_lift

    det = mat.det()
    s = sl2_lift(diag_mod(det, n).inv() * mat)
    return LevelPoint(
        QuadPoint(m, 0, 1), AdelicMatrix(Mat2(1, 0, 0, 1), UnitPart(det, s, n), n), n
    )


def random_point(rng, n, ms=(1, 2, 5)):
    while True:
        m = rng.choice(ms)
        p = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        q = Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
        if gcd(p.denominator, n) != 1 or gcd(q.denominator * q.numerator, n) != 1:
            continue
        tau = QuadPoint(m, p, q)
        mats = [ModMat(*(rng.randrange(n) for _ in range(4)), n) for _ in range(8)]
        mats = [g for g in mats if g.is_unit()]
        if not mats:
            continue
        try:
            P = LevelPoint(tau, AdelicMatrix.identity(n), n)
            return act_unit(mats[0], P)
        except PrecisionObstruction:
            continue


class TestOrbit:
    def test_examples(self):
        n, r = orbit_rep(QuadPoint(5, 1, 2))
        assert n == 5 and r == Mat2(2, 1, 0, 1)
        n, r = orbit_rep(QuadPoint(3, 0, 1))
        assert n == 3 and r == Mat2(1, 0, 0, 1)
        n, r = orbit_rep(QuadPoint(1, Fraction(1, 2), Fraction(3, 4)))
        assert n == 1 and r == Mat2(Fraction(3, 4), Fraction(1, 2), 0, 1)
        assert QuadPoint(1, 0, 1).apply_mobius(r) == QuadPoint(
            1, Fraction(1, 2), Fraction(3, 4)
        )

    def test_same_orbit(self):
        assert same_orbit(QuadPoint(5, 0, 1), QuadPoint(5, 1, 2))
        assert not same_orbit(QuadPoint(1, 0, 1), QuadPoint(2, 0, 1))
        tau = QuadPoint(7, Fraction(1, 3), 4)
        assert same_orbit(tau, tau)

    def test_is_cm(self):
        assert is_cm(LevelPoint.base(1, 5))
        assert is_cm(LevelPoint.base(2, 7))
        assert is_cm(random_point(random.Random(0), 5))


class TestPointEq:
    def test_shear_pair(self):
        P = LevelPoint.base(1, 5)
        Q = LevelPoint(
            QuadPoint(1, 1, 1),
            AdelicMatrix.from_rational(Mat2(1, 1, 0, 1), 5),
            5,
        )
        w = point_eq_witness(P, Q)
        assert w is not None
        assert w.q == Mat2(1, 1, 0, 1)  # the witness moving [i,1] to [i+1, shear]

    def test_form_above_enumeration_bound(self):
        # r^-1(tau) = -659/600 + (12/25) sqrt(-1), whose form has |disc| above
        # qforms.MAX_DISC: the bound is on reduced_forms, not on point_eq
        r = Mat2(0, Fraction(-2, 3), 2, Fraction(11, 12))
        P = LevelPoint(
            QuadPoint(1, Fraction(1, 3), Fraction(1, 4)),
            AdelicMatrix(r, UnitPart(1, Mat2(1, 0, 0, 1), 5), 5),
            5,
        )
        w = point_eq_witness(P, P)
        assert isinstance(w, PointEqWitness)
        assert w.q == Mat2(1, 0, 0, 1)

    def test_unit_twist_differs(self):
        P = LevelPoint.base(1, 5)
        Q = act_unit(diag_mod(2, 5).inv(), P)  # coordinate multiplied by d_2
        assert not point_eq(P, Q)

    def test_distinct_classes_level_one(self):
        P = LevelPoint.base(5, 1)
        tau = QuadPoint(5, Fraction(-2, 3), Fraction(1, 3))
        Q = LevelPoint(tau, AdelicMatrix.identity(1), 1)
        assert not point_eq(P, Q)

    def test_equivalence_relation(self):
        rng = random.Random(401)
        for n in (1, 5, 7, 12):
            pts = [random_point(rng, n) for _ in range(8)]
            for P in pts:
                assert point_eq(P, P)
            for P in pts:
                for Q in pts:
                    assert point_eq(P, Q) == point_eq(Q, P)
            for P in pts:
                for Q in pts:
                    for R in pts:
                        if point_eq(P, Q) and point_eq(Q, R):
                            assert point_eq(P, R)

    def test_against_bounded_oracle(self):
        rng = random.Random(402)
        matrices = bounded_gl2z(50)
        pairs = []
        for n in (5, 7):
            for _ in range(6):
                P = random_point(rng, n, ms=(1, 2))
                pairs.append((P, P))
                pairs.append((P, act_rational(Mat2(1, 1, 0, 1), P)))
                pairs.append((P, random_point(rng, n, ms=(1, 2))))
                Q = act_unit(diag_mod(rng.choice([2, 3]), n), P)
                pairs.append((P, Q))
        for P, Q in pairs:
            got = point_eq(P, Q)
            expect = point_eq_oracle(P, Q, matrices)
            assert got == expect

    def test_class_count_matches_class_number(self):
        for disc, h in ((-4, 1), (-20, 2), (-23, 3)):
            forms = reduced_forms(disc)
            assert len(forms) == h
            pts = [
                LevelPoint(f.root(), AdelicMatrix.identity(1), 1) for f in forms
            ]
            classes = []
            for P in pts:
                if not any(point_eq(P, Q) for Q in classes):
                    classes.append(P)
            assert len(classes) == h


class TestActions:
    def test_act_unit_identity(self):
        P = random_point(random.Random(403), 7)
        assert point_eq(act_unit(identity_mod(7), P), P)

    def test_act_unit_dlambda_component(self):
        P = LevelPoint.base(2, 7)
        Q = act_unit(diag_mod(3, 7), P)
        assert component(P) == ComponentIndex(1, 7)
        assert component(Q) == ComponentIndex(pow(3, -1, 7), 7)

    def test_congruence_class_invariance(self):
        P = LevelPoint.base(1, 5)
        g = ModMat(1 + 5, 5, 5, 1, 5)  # congruent to the identity mod 5
        assert point_eq(act_unit(g, P), P)

    def test_act_rational_is_renormalization(self):
        rng = random.Random(404)
        from cmcurve.matrices import FLIP, translation

        for _ in range(40):
            P = random_point(rng, 5)
            for gamma in (translation(1), FLIP, translation(-2) * FLIP):
                assert point_eq(act_rational(gamma, P), P)

    def test_central_scalars_act_trivially(self):
        # the center of the rational group: [tau, c*a] = [tau, a] exactly,
        # for every nonzero rational scalar c (folded into the rational part)
        from cmcurve.adele import rational_leftmul

        rng = random.Random(409)
        for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
            for _ in range(6):
                P = random_point(rng, n)
                c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                scaled = rational_leftmul(P.a, Mat2(c, 0, 0, c))
                try:
                    Q = LevelPoint(P.tau, scaled, n)
                except PrecisionObstruction:
                    continue
                assert point_eq(Q, P)
                assert component(Q) == component(P)

    def test_unit_scalar_moves_component(self):
        # a unit-type lift of 2*I mod 5 is NOT central: it multiplies the
        # component index by det^{-1} = 4^{-1}, so it moves the point
        P = LevelPoint.base(1, 5)
        Q = act_unit(identity_mod(5).scalar_mul(2), P)
        assert component(Q).mu == component(P).mu * pow(4, -1, 5) % 5
        assert not point_eq(Q, P)


class TestComponent:
    def test_identity_point(self):
        assert component(LevelPoint.base(5, 7)).mu == 1

    def test_unit_determinant(self):
        P = unit_point(1, 7, diag_mod(3, 7))
        assert component(P).mu == 3

    def test_invariant_under_rational_action(self):
        rng = random.Random(405)
        from cmcurve.matrices import FLIP, translation

        for _ in range(30):
            P = random_point(rng, 7)
            mu = component(P).mu
            assert component(act_rational(translation(3), P)).mu == mu
            assert component(act_rational(FLIP, P)).mu == mu

    def test_constant_on_classes_and_twists(self):
        rng = random.Random(406)
        for _ in range(50):
            n = rng.choice([5, 7])
            P = random_point(rng, n)
            g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not g.is_unit():
                continue
            Q = act_unit(g, P)
            assert component(Q).mu == component(P).mu * pow(g.det(), -1, n) % n

    def test_positive_rational_determinant_absorbed(self):
        # [2i, 1] = [i, diag(1/2, 1)]: both lie in the component of the identity
        P = LevelPoint(QuadPoint(1, 0, 2), AdelicMatrix.identity(7), 7)
        Q = LevelPoint(
            QuadPoint(1, 0, 1),
            AdelicMatrix.from_rational(Mat2(Fraction(1, 2), 0, 0, 1), 7),
            7,
        )
        assert point_eq(P, Q)
        assert component(P) == component(Q) == ComponentIndex(1, 7)


class TestIsFixed:
    def test_rotation_fixes_i(self):
        P = LevelPoint.base(1, 5)
        assert is_fixed(ModMat(0, -1, 1, 0, 5), P)

    def test_shear_does_not_fix(self):
        P = LevelPoint.base(1, 5)
        assert not is_fixed(ModMat(1, 1, 0, 1, 5), P)

    def test_conjugation_covariance(self):
        rng = random.Random(407)
        checked = 0
        while checked < 200:
            n = rng.choice([5, 7])
            P = random_point(rng, n, ms=(1, 2))
            g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            u = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not (g.is_unit() and u.is_unit()):
                continue
            # g fixes [tau, a]  iff  u^{-1} g u fixes [tau, a u]
            lhs = is_fixed(g, P)
            rhs = is_fixed(u.inv() * g * u, act_unit(u.inv(), P))
            assert lhs == rhs
            checked += 1

    def test_conjugated_unit_part(self):
        n = 5
        u = ModMat(1, 2, 0, 1, n)
        P = act_unit(u.inv(), LevelPoint.base(1, n))  # coordinate is now u
        g = u.inv() * ModMat(0, -1, 1, 0, n) * u
        assert is_fixed(g, P)


class TestProject:
    def test_reduction(self):
        P = unit_point(1, 15, ModMat(2, 3, 1, 2, 15))
        Q = project(P, 5)
        assert Q.level == 5
        assert Q.unit_matrix() == P.unit_matrix().reduce(5)

    def test_identity_projection(self):
        P = LevelPoint.base(2, 12)
        assert project(P, 12) == P

    def test_bad_levels(self):
        P = LevelPoint.base(2, 12)
        for level in (0, 5, -5):
            with pytest.raises(ValueError):
                project(P, level)

    def test_commutes_with_act_unit(self):
        rng = random.Random(408)
        for _ in range(100):
            P = random_point(rng, 15)
            g = ModMat(*(rng.randrange(15) for _ in range(4)), 15)
            if not g.is_unit():
                continue
            lhs = project(act_unit(g, P), 5)
            rhs = act_unit(g.reduce(5), project(P, 5))
            assert point_eq(lhs, rhs)
            assert component(project(P, 5)).mu == component(P).mu % 5


class TestClassCounting:
    def test_level_five_orbit_fibers(self):
        # the integral stabilizer acts freely by left multiplication on unit
        # coordinates, so the number of point classes over sqrt(-m) at level
        # N is |GL2(Z/N)| / #automorphs: 480/4 for m=1, 480/2 for m=2
        from cmcurve.matrices import sl2_lift
        from cmcurve.qforms import automorphs, form_of

        n = 5
        gl2 = [
            ModMat(a, b, c, d, n)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            for d in range(n)
            if gcd((a * d - b * c) % n, n) == 1
        ]
        assert len(gl2) == 480
        for m, expected in ((1, 120), (2, 240)):
            aut = {g.mod(n) for g in automorphs(form_of(QuadPoint(m, 0, 1)))}
            seen = set()
            classes = 0
            for u in gl2:
                if u in seen:
                    continue
                classes += 1
                for M in aut:
                    seen.add(M * u)
            assert classes == expected
            # spot check: point_eq agrees with the orbit criterion
            rng = random.Random(410 + m)
            for _ in range(30):
                u1, u2 = rng.choice(gl2), rng.choice(gl2)
                P1 = unit_point(m, n, u1)
                P2 = unit_point(m, n, u2)
                assert point_eq(P1, P2) == any((M * u1) == u2 for M in aut)
