import hashlib
import json
import random
from fractions import Fraction

import pytest

from cmcurve.adele import AdelicMatrix, UnitPart, shape_matrix_mod
from cmcurve.approx import (
    ApproxPoint,
    approx_eq,
    canonical_rep,
    curve_component,
    eval_curve,
    faithfulness_check,
    lift_automorphism,
    pair_witnesses,
    relation_R,
    relation_witness,
    shadow_act_approx,
    spanning_sample,
    units_mod,
)
from cmcurve.errors import PrecisionObstruction, RViolation
from cmcurve.galois import (
    GaloisShadow,
    identity_shadow,
    mirror_shadow,
    shadow_eq,
    surjective_common_det,
)
from cmcurve.matrices import Mat2, ModMat, diag_mod, identity_mod
from cmcurve.shimura import (
    ComponentIndex,
    LevelPoint,
    QuadPoint,
    act_rational,
    act_unit,
    component,
    point_eq,
    to_base_frame,
)
from oracles import all_shadows, pair_witnesses_brute, pair_witnesses_scan


def ap(m, p, q, n, rational=None, unit=None):
    r = rational if rational is not None else Mat2(1, 0, 0, 1)
    a = AdelicMatrix(r, UnitPart(1, Mat2(1, 0, 0, 1), n), n)
    P = LevelPoint(QuadPoint(m, p, q), a, n)
    if unit is not None:
        P = act_unit(unit, P)
    return ApproxPoint(P)


def shadow_search(s1, s2, t1, t2, shadows):
    """Exhaustive oracle: is some shadow moving (s1, s2) to (t1, t2)?"""
    for sigma in shadows:
        if approx_eq(shadow_act_approx(sigma, s1), t1) and approx_eq(
            shadow_act_approx(sigma, s2), t2
        ):
            return True
    return False


class TestApproxEq:
    def test_diagonal_twist(self):
        P = ap(1, 0, 1, 5)
        for lam in units_mod(5):
            Q = ApproxPoint(act_unit(diag_mod(lam, 5), P.point))
            assert approx_eq(P, Q)

    def test_distinct_orbits(self):
        assert not approx_eq(ap(1, 0, 1, 5), ap(2, 0, 1, 5))

    def test_reflexive(self):
        P = ap(5, Fraction(1, 2), Fraction(3, 2), 7)
        assert approx_eq(P, P)

    def test_equivalence_relation(self):
        rng = random.Random(601)
        n = 5
        pts = []
        for _ in range(10):
            g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not g.is_unit():
                continue
            pts.append(ap(rng.choice([1, 2]), rng.randint(-2, 2), 1, n, unit=g))
        for P in pts:
            assert approx_eq(P, P)
        for P in pts:
            for Q in pts:
                assert approx_eq(P, Q) == approx_eq(Q, P)
                for R in pts:
                    if approx_eq(P, Q) and approx_eq(Q, R):
                        assert approx_eq(P, R)


class TestCanonicalRep:
    def test_unit_det_normalized(self):
        P = ap(5, 0, 1, 7, unit=diag_mod(3, 7).inv())  # unit part diag(3, 1)
        assert P.point.a.u.det_mod() == 3
        rep = canonical_rep(P)
        assert rep.a.u.det_mod() == 1

    def test_idempotent_and_class_constant(self):
        rng = random.Random(602)
        n = 5
        for _ in range(40):
            g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not g.is_unit():
                continue
            P = ap(rng.choice([1, 2]), 0, 1, n, unit=g)
            rep = canonical_rep(P)
            assert rep.a.u.det_mod() == 1
            rep2 = canonical_rep(ApproxPoint(rep))
            assert rep2 == rep
            # every diagonal twist of P canonicalizes to the same data
            for lam in units_mod(n):
                twisted = ApproxPoint(act_unit(diag_mod(lam, n), P.point))
                assert canonical_rep(twisted) == rep

    def test_selects_one_class_per_approx_class(self):
        rng = random.Random(603)
        n = 5
        pts = []
        for _ in range(12):
            g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not g.is_unit():
                continue
            pts.append(ap(rng.choice([1, 2]), 0, 1, n, unit=g))
        for P in pts:
            for Q in pts:
                assert approx_eq(P, Q) == point_eq(canonical_rep(P), canonical_rep(Q))


class TestCurves:
    def test_identity_curve(self):
        n = 5
        P = ap(1, 0, 1, n, unit=ModMat(1, 1, 0, 1, n))
        for mu in units_mod(n):
            label = curve_component(identity_mod(n), ComponentIndex(mu, n))
            assert approx_eq(eval_curve(label, P), P)

    def test_conjugated_acting_matrix(self):
        n = 5
        h = ModMat(1, 1, 0, 1, n)
        label = curve_component(h, ComponentIndex(2, n))
        P = ap(1, 0, 1, n)
        Q = eval_curve(label, P)
        # acting matrix is (1, 3; 0, 1) = d_2^{-1} h d_2 (2^{-1} = 3 mod 5)
        expected = ApproxPoint(act_unit(ModMat(1, 3, 0, 1, n), canonical_rep(P)))
        assert approx_eq(Q, expected)

    def test_conjugation_covariance(self):
        # shifting the label by conjugation: (d_lam^{-1} h d_lam)^mu = h^(lam*mu)
        from cmcurve.adele import conj_by_dlambda

        rng = random.Random(604)
        n = 5
        for _ in range(60):
            h = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not h.is_unit():
                continue
            lam = rng.choice(units_mod(n))
            mu = rng.choice(units_mod(n))
            P = ap(rng.choice([1, 2]), 0, 1, n, unit=ModMat(1, rng.randrange(n), 0, 1, n))
            lhs = eval_curve(
                curve_component(conj_by_dlambda(h, lam), ComponentIndex(mu, n)), P
            )
            rhs = eval_curve(curve_component(h, ComponentIndex(lam * mu % n, n)), P)
            assert approx_eq(lhs, rhs)

    def test_graph_partition_over_components(self):
        # the graph pairs of the h-action split by component: acting on the
        # canonical representative lifted to component nu matches the label
        # whose acting matrix is conj_by_dlambda(h, nu^{-1}) ... verified via
        # the S-level action directly
        n = 5
        h = ModMat(2, 1, 1, 1, n)  # det 1
        assert h.det() == 1
        for m in (1, 2):
            P0 = canonical_rep(ap(m, 0, 1, n, unit=ModMat(1, 2, 0, 1, n)))
            for nu in units_mod(n):
                # lift of the approx class to the component with index nu
                lift = act_unit(diag_mod(pow(nu, -1, n), n), P0)
                assert component(lift).mu == nu
                moved = act_unit(h, lift)
                # h in the determinant-one shadow preserves components
                assert component(moved).mu == nu
                # and the graph point projects to the label evaluation
                label = curve_component(h, ComponentIndex(pow(nu, -1, n), n))
                assert approx_eq(ApproxPoint(moved), eval_curve(label, ApproxPoint(P0)))


class TestRelation:
    def test_identity_rows(self):
        s1 = ap(1, 1, 1, 5)
        s2 = ap(2, 2, 1, 5)
        w = relation_witness(s1, s2, s1, s2)
        assert w is not None and w.lam == 1 and w.branch == 1

    def test_mirror_quadruple(self):
        # s -> -conj(s) on both coordinates: the complex-conjugation shadow
        s1, s2 = ap(1, 1, 1, 5), ap(2, 2, 1, 5)
        t1, t2 = ap(1, -1, 1, 5), ap(2, -2, 1, 5)
        w = relation_witness(s1, s2, t1, t2)
        assert w is not None
        assert w.branch == -1
        assert w.lam == 4  # determinant -1 mod 5

    def test_mixed_mirror_fails(self):
        s1, s2 = ap(1, 1, 1, 5), ap(2, 2, 1, 5)
        t2 = ap(2, -2, 1, 5)
        assert not relation_R(s1, s2, s1, t2)

    def test_orbit_mismatch_false(self):
        s1, s2 = ap(1, 0, 1, 5), ap(2, 0, 1, 5)
        assert not relation_R(s1, s2, s2, s1)

    def test_matches_exhaustive_shadow_search(self):
        rng = random.Random(605)
        n = 5
        shadows = all_shadows((1, 2), n)
        pts1 = [ap(1, 0, 1, n)] + [
            ap(1, 0, 1, n, unit=g)
            for g in (ModMat(1, 1, 0, 1, n), diag_mod(2, n), ModMat(2, 1, 1, 1, n))
        ]
        pts2 = [ap(2, 0, 1, n)] + [
            ap(2, 0, 1, n, unit=g)
            for g in (ModMat(1, 1, 0, 1, n), diag_mod(3, n), ModMat(1, 2, 3, 2, n))
        ]
        count = disagreements = 0
        for s1 in pts1:
            for s2 in pts2:
                for t1 in pts1:
                    for t2 in pts2:
                        got = relation_R(s1, s2, t1, t2)
                        expect = shadow_search(s1, s2, t1, t2, shadows)
                        count += 1
                        if got != expect:
                            disagreements += 1
        assert count == 256 and disagreements == 0

    def test_invariant_under_shadow_action(self):
        rng = random.Random(606)
        n = 5
        shadows = all_shadows((1, 2), n)
        quads = []
        pool1 = [ap(1, 0, 1, n, unit=g) for g in (identity_mod(n), ModMat(1, 1, 0, 1, n), diag_mod(2, n))]
        pool2 = [ap(2, 0, 1, n, unit=g) for g in (identity_mod(n), ModMat(1, 3, 0, 1, n))]
        for s1 in pool1:
            for s2 in pool2:
                for t1 in pool1:
                    for t2 in pool2:
                        quads.append((s1, s2, t1, t2))
        for s1, s2, t1, t2 in rng.sample(quads, 20):
            base = relation_R(s1, s2, t1, t2)
            for sigma in rng.sample(shadows, 8):
                moved = relation_R(
                    shadow_act_approx(sigma, s1),
                    shadow_act_approx(sigma, s2),
                    shadow_act_approx(sigma, t1),
                    shadow_act_approx(sigma, t2),
                )
                assert moved == base


class TestFaithfulness:
    def test_identity_vacuous(self):
        assert faithfulness_check(identity_shadow((1,), 5))

    def test_mirror_nontrivial(self):
        sigma = mirror_shadow((1,), 5)
        sample = spanning_sample((1,), 5)
        assert any(
            not approx_eq(shadow_act_approx(sigma, P), P) for P in sample
        )
        assert faithfulness_check(sigma, sample)

    def test_no_nonidentity_acts_trivially(self):
        n = 5
        sample = spanning_sample((1,), n)
        ident = identity_shadow((1,), n)
        for sigma in all_shadows((1,), n):
            trivial = all(
                approx_eq(shadow_act_approx(sigma, P), P) for P in sample
            )
            assert trivial == shadow_eq(sigma, ident)
            assert faithfulness_check(sigma, sample)


class TestLift:
    def test_identity_table(self):
        pts = [ap(1, 0, 1, 5), ap(2, 0, 1, 5), ap(1, 0, 1, 5, unit=ModMat(1, 1, 0, 1, 5))]
        sigma = lift_automorphism([(P, P) for P in pts])
        assert shadow_eq(sigma, identity_shadow(sigma.support, 5))

    def test_round_trip_all_shadows(self):
        n = 5
        sample = spanning_sample((1, 2), n)
        for sigma in all_shadows((1, 2), n)[::7]:
            table = [(P, shadow_act_approx(sigma, P)) for P in sample]
            lifted = lift_automorphism(table)
            assert shadow_eq(lifted, sigma)
            assert lifted.det == sigma.det and lifted.branch == sigma.branch

    def test_rviolation_index(self):
        n = 5
        s1, s2 = ap(1, 1, 1, n), ap(2, 2, 1, n)
        bad_t2 = ap(2, -2, 1, n)  # mirror twist on the second row only
        with pytest.raises(RViolation) as exc:
            lift_automorphism([(s1, s1), (s2, bad_t2)])
        assert exc.value.index == 2

    def test_component_action_matches_witness(self):
        n = 5
        shadows = surjective_common_det((1, 2), n)
        sample = spanning_sample((1, 2), n)
        for lam, sigma in shadows.items():
            table = [(P, shadow_act_approx(sigma, P)) for P in sample]
            lifted = lift_automorphism(table)
            assert lifted.det == lam


def lift_outcome(table):
    """The shadow lift_automorphism returns, or the row it rejects."""
    try:
        sigma = lift_automorphism(table)
    except RViolation as exc:
        return ["violation", exc.index]
    comps = [list(c.entries) for c in sigma.components]
    return ["shadow", list(sigma.support), comps, sigma.branch, sigma.det, sigma.level]


def joint_failure_tables():
    """At N = 5, rows (base(1), sigma base(1)), (base(2), sigma base(2)) and
    (shear base(2), tau shear base(2)) for one shadow sigma, tau per
    (det, branch): some pass the relation against row 1 and still admit no
    single shadow."""
    n = 5
    per_key = {}
    for sigma in all_shadows((1, 2), n):
        per_key.setdefault((sigma.det, sigma.branch), sigma)
    base1, base2 = ap(1, 0, 1, n), ap(2, 0, 1, n)
    sheared = ap(2, 0, 1, n, unit=ModMat(1, 1, 0, 1, n))
    return [
        [
            (base1, shadow_act_approx(sigma, base1)),
            (base2, shadow_act_approx(sigma, base2)),
            (sheared, shadow_act_approx(tau, sheared)),
        ]
        for sigma in per_key.values()
        for tau in per_key.values()
    ]


def seeded_lift_tables(rng, count):
    """Tables of one to four spanning-sample rows moved by one shadow, half
    of them with one row's image replaced: by another shadow's image, by a
    unit shear of the image, or by an arbitrary sample point."""
    tables = []
    for _ in range(count):
        n = rng.choice((5, 7, 11, 13, 35))
        shadows = list(surjective_common_det((1, 2), n).values())
        sample = spanning_sample((1, 2), n)
        sigma = rng.choice(shadows)
        table = [(s, shadow_act_approx(sigma, s)) for s in rng.sample(sample, rng.randint(1, 4))]
        if rng.random() < 0.5:
            i = rng.randrange(len(table))
            s, t = table[i]
            mode = rng.randrange(3)
            if mode == 0:
                t = shadow_act_approx(rng.choice(shadows), s)
            elif mode == 1:
                t = ApproxPoint(act_unit(ModMat(1, rng.randrange(n), 0, 1, n), t.point))
            else:
                t = rng.choice(sample)
            table[i] = (s, t)
        tables.append(table)
    return tables


class TestLiftPinned:
    def test_joint_failures_reach_the_global_solve(self):
        tables = joint_failure_tables()
        outcomes = [lift_outcome(table) for table in tables]
        assert sum(o[0] == "shadow" for o in outcomes) == 14
        assert all(o == ["violation", 3] for o in outcomes if o[0] == "violation")
        joint = [
            o
            for table, o in zip(tables, outcomes)
            if o[0] == "violation"
            and relation_witness(table[0][0], table[2][0], table[0][1], table[2][1])
        ]
        assert len(joint) == 2

    def test_results_pinned(self):
        outcomes = [lift_outcome(t) for t in joint_failure_tables()]
        outcomes += [lift_outcome(t) for t in seeded_lift_tables(random.Random(1), 400)]
        kinds = [o[0] if o[0] == "shadow" else o[1] for o in outcomes]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "shadow": 238, 1: 33, 2: 103, 3: 76, 4: 14
        }
        blob = json.dumps(outcomes).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == "cb5bfefd56ea5df7"


def random_unit(rng, n):
    while True:
        g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
        if g.is_unit():
            return g


def random_shape_shadow(rng, m, n):
    """A one-orbit shadow with a random shape component of a random branch."""
    while True:
        branch = rng.choice((1, -1))
        g = shape_matrix_mod(rng.randrange(n), rng.randrange(n), m, branch, n)
        if g.is_unit():
            return GaloisShadow((m,), (g,), branch, g.det(), n)


def witness_pairs(rng, n, count):
    """Same-orbit pairs at level n: random unit parts over SL2(Z)-moved
    taus and a rational part (so the integral witnesses are nontrivial),
    half of them related by a random shadow."""
    moves = [Mat2(1, 0, 0, 1), Mat2(1, 1, 0, 1), Mat2(0, -1, 1, 0), Mat2(2, 1, 1, 1)]
    rationals = [Mat2(1, 0, 0, 1), Mat2(1, Fraction(1, 2), 0, 1), Mat2(1, 0, 1, 1)]
    pairs = []
    while len(pairs) < count:
        m = rng.choice((1, 2, 3, 5))
        r = rng.choice(rationals)
        if n % 2 == 0 and r.b.denominator == 2:
            continue
        s = ap(m, 0, 1, n, rational=r, unit=random_unit(rng, n))
        s = ApproxPoint(act_rational(rng.choice(moves), s.point))
        try:
            to_base_frame(s.point)
        except PrecisionObstruction:
            continue
        if len(pairs) % 2:
            t = shadow_act_approx(random_shape_shadow(rng, m, n), s)
        else:
            t = ap(m, 0, 1, n, unit=random_unit(rng, n))
        pairs.append((s, t))
    return pairs


class TestPairWitnessSolve:
    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 25, 35, 49, 101, 1001, 1009]
    )
    def test_matches_twist_scan(self, n):
        rng = random.Random(700 + n)
        nonempty = 0
        for s, t in witness_pairs(rng, n, 6 if n > 100 else 12):
            got = pair_witnesses(s, t)
            assert got == pair_witnesses_scan(s, t)
            nonempty += bool(got)
        assert nonempty >= 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_matches_brute_force(self, n):
        rng = random.Random(800 + n)
        for s, t in witness_pairs(rng, n, 4):
            assert pair_witnesses(s, t) == pair_witnesses_brute(s, t)

    def test_both_branches_at_even_level(self):
        # mod 2 the shapes of both branches coincide; the first branch wins
        s = ap(1, 0, 1, 2)
        w = pair_witnesses(s, s)
        assert set(w) == {(1, 1)} and w == pair_witnesses_scan(s, s)
        assert pair_witnesses(s, s) == pair_witnesses_brute(s, s)

    def test_witness_choice_unchanged(self):
        rng = random.Random(901)
        for n in (101, 1009):
            sigma = random_shape_shadow(rng, 2, n)
            s1 = ap(2, 0, 1, n, unit=random_unit(rng, n))
            s2 = ap(2, 1, 1, n, unit=random_unit(rng, n))
            t1, t2 = shadow_act_approx(sigma, s1), shadow_act_approx(sigma, s2)
            w = relation_witness(s1, s2, t1, t2)
            assert w is not None and w.lam == sigma.det and w.branch == sigma.branch
            common = pair_witnesses_scan(s1, t1)[(w.lam, w.branch)]
            common &= pair_witnesses_scan(s2, t2)[(w.lam, w.branch)]
            assert w.r1 == w.r2 == min(common, key=lambda g: g.entries)
