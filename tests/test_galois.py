import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from cmcurve import adele, galois, numth
from cmcurve.adele import ShapeKind, shape_matrix_mod, shape_test
from cmcurve.errors import LevelObstruction, NormObstruction, UnsupportedOrbit
from cmcurve.galois import (
    GaloisShadow,
    _canonical_roots,
    _norm_residue,
    _norm_residue_table,
    branch_map,
    component_action,
    equalize_dets,
    identity_shadow,
    is_good_level,
    mirror_shadow,
    norm_residue_witness,
    shadow_act,
    shadow_eq,
    shadow_inv,
    shadow_mul,
    shadow_project,
    surjective_common_det,
    torus_kernel_test,
)
from cmcurve.matrices import ModMat, diag_mod, identity_mod
from cmcurve.shimura import LevelPoint, QuadPoint, act_unit, component, point_eq
from oracles import all_shadows, all_shapes, surjective_common_det_per_lambda


class TestShadowBasics:
    def test_identity_and_mirror(self):
        e = identity_shadow((1, 2), 5)
        w = mirror_shadow((1, 2), 5)
        assert branch_map(e) == 1 and branch_map(w) == -1
        assert torus_kernel_test(e) and not torus_kernel_test(w)
        assert shadow_eq(shadow_mul(w, w), e)  # the mirror class has order 2

    def test_mul_composes(self):
        e = identity_shadow((1,), 7)
        g = shape_matrix_mod(2, 2, 1, 1, 7)
        s = GaloisShadow((1,), (g,), 1, g.det(), 7)
        assert shadow_eq(shadow_mul(s, e), s)
        assert shadow_eq(shadow_mul(s, shadow_inv(s)), e)

    def test_branch_c2_law(self):
        w = mirror_shadow((1, 3), 5)
        assert branch_map(shadow_mul(w, w)) == 1

    def test_det_multiplies(self):
        s2 = surjective_common_det((1,), 7)[2]
        s3 = surjective_common_det((1,), 7)[3]
        assert shadow_mul(s2, s3).det == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GaloisShadow((1,), (ModMat(1, 1, 0, 1, 5),), 1, 1, 5)  # not a shape
        with pytest.raises(ValueError):
            GaloisShadow((4,), (identity_mod(5),), 1, 1, 5)  # 4 not squarefree
        with pytest.raises(ValueError):
            # determinant differs from the declared common value
            GaloisShadow((1,), (shape_matrix_mod(2, 2, 1, 1, 5),), 1, 2, 5)

    @pytest.mark.parametrize("level", [0, -5, 7.0, True])
    def test_level_must_be_an_int_at_least_one(self, level):
        with pytest.raises(ValueError, match="level must be an int >= 1"):
            GaloisShadow((), (), 1, 1, level)

    # a component's shape test already demands a unit det; with no
    # component, the det itself is checked
    @pytest.mark.parametrize("det,level", [(2, 4), (0, 5), (12, 9)])
    def test_det_must_be_a_unit(self, det, level):
        with pytest.raises(ValueError, match="det must be a unit mod the level"):
            GaloisShadow((), (), 1, det, level)


class TestShadowAct:
    def test_identity_action(self):
        P = LevelPoint.base(1, 5)
        assert point_eq(shadow_act(identity_shadow((1, 2), 5), P), P)

    def test_rational_stabilizer_shadow_fixes_base(self):
        # the rotation shape is integral of norm one: it fixes [i, 1]
        sigma = GaloisShadow((1,), (ModMat(0, -1, 1, 0, 5),), 1, 1, 5)
        P = LevelPoint.base(1, 5)
        assert point_eq(shadow_act(sigma, P), P)

    def test_component_moves_by_det(self):
        shadows = surjective_common_det((1, 2), 7)
        P = act_unit(diag_mod(2, 7).inv(), LevelPoint.base(2, 7))  # mu = 2
        assert component(P).mu == 2
        for lam, sigma in shadows.items():
            Q = shadow_act(sigma, P)
            assert component(Q).mu == 2 * lam % 7
            assert component_action(sigma) == lam

    def test_unsupported_orbit(self):
        sigma = identity_shadow((1,), 5)
        with pytest.raises(UnsupportedOrbit):
            shadow_act(sigma, LevelPoint.base(2, 5))

    def test_conjugated_frame(self):
        # tau = 1 + 2*sqrt(-5): the shadow acts through the frame (2, 1; 0, 1)
        sigma = identity_shadow((5,), 7)
        tau = QuadPoint(5, 1, 2)
        P = LevelPoint(tau, __import__("cmcurve.adele", fromlist=["AdelicMatrix"]).AdelicMatrix.identity(7), 7)
        assert point_eq(shadow_act(sigma, P), P)

    def test_frame_obstruction_prime_agrees_with_to_base_frame(self):
        # tau = 1/7 + 5*sqrt(-1) at N = 35: the frame (5, 1/7; 0, 1) meets both
        # primes of the level, and both calls name the smallest one
        from cmcurve.adele import AdelicMatrix
        from cmcurve.errors import PrecisionObstruction
        from cmcurve.shimura import to_base_frame

        P = LevelPoint(QuadPoint(1, Fraction(1, 7), 5), AdelicMatrix.identity(35), 35)
        sigma = identity_shadow((1,), 35)
        with pytest.raises(PrecisionObstruction) as by_frame:
            to_base_frame(P)
        with pytest.raises(PrecisionObstruction) as by_shadow:
            shadow_act(sigma, P)
        assert by_frame.value.prime == by_shadow.value.prime == 5

    def test_equivariance_with_act_unit(self):
        rng = random.Random(501)
        shadows = list(surjective_common_det((1, 2), 7).values())
        shadows.append(mirror_shadow((1, 2), 7))
        checked = 0
        while checked < 1000:
            sigma = rng.choice(shadows)
            m = rng.choice([1, 2])
            g = ModMat(*(rng.randrange(7) for _ in range(4)), 7)
            if not g.is_unit():
                continue
            P = act_unit(g, LevelPoint.base(m, 7))
            h = ModMat(*(rng.randrange(7) for _ in range(4)), 7)
            if not h.is_unit():
                continue
            lhs = shadow_act(sigma, act_unit(h, P))
            rhs = act_unit(h, shadow_act(sigma, P))
            assert point_eq(lhs, rhs)
            checked += 1


class TestShadowEq:
    def test_reflexive(self):
        g = shape_matrix_mod(2, 2, 1, 1, 5)
        s = GaloisShadow((1,), (g,), 1, g.det(), 5)
        assert shadow_eq(s, s)

    def test_branch_separates(self):
        n = 5
        g = shape_matrix_mod(2, 2, 1, 1, n)  # det 8 = 3 mod 5
        plus = GaloisShadow((1,), (g,), 1, g.det(), n)
        # build a branch -1 shadow with the same determinant
        minus = None
        for h, b in all_shapes(1, n, branch=-1):
            if h.det() == plus.det:
                minus = GaloisShadow((1,), (h,), -1, plus.det, n)
                break
        assert minus is not None
        assert not shadow_eq(plus, minus)

    def test_norm_one_translates_equal(self):
        # multiplying by a determinant-1 shape does not change the class
        n = 7
        base = shape_matrix_mod(2, 1, 1, 1, n)
        lam = base.det()
        for q, _ in all_shapes(1, n, branch=1):
            if q.det() != 1 % n:
                continue
            other = GaloisShadow((1,), (q * base,), 1, lam, n)
            assert shadow_eq(GaloisShadow((1,), (base,), 1, lam, n), other)

    def test_det_separates(self):
        shadows = surjective_common_det((1,), 7)
        assert not shadow_eq(shadows[2], shadows[3])

    def test_congruence_with_mul(self):
        rng = random.Random(502)
        pool = all_shadows((1,), 5)
        for _ in range(300):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            if shadow_eq(a, b):
                assert shadow_eq(shadow_mul(a, c), shadow_mul(b, c))
                assert shadow_eq(shadow_mul(c, a), shadow_mul(c, b))


class TestEqualizeDets:
    def test_spec_pair(self):
        # r1 = (1, 2; -2, 1) with exact determinant 5; r2 = 3*I with exact 9
        n = 7
        r1 = ModMat(1, 2, -2, 1, n)
        r2 = identity_mod(n).scalar_mul(3)
        shadow, cert = equalize_dets([(1, r1), (2, r2)], [5, 9])
        assert shadow.det == 1  # 5 * (1/5) = 9 * (1/9) = 1
        assert cert.verify()
        norms = {m: norm for m, _, norm in cert.adjusters}
        assert norms[1] == Fraction(1, 5) and norms[2] == Fraction(1, 9)

    def test_identity_hints(self):
        n = 11
        r1 = shape_matrix_mod(2, 1, 1, 1, n)  # det 5 mod 11
        shadow, cert = equalize_dets([(1, r1)], [1])
        assert shadow.det == r1.det()
        assert all(norm == 1 for _, _, norm in cert.adjusters)
        assert cert.verify()

    def test_norm_obstruction(self):
        n = 7
        r = shape_matrix_mod(1, 1, 2, 1, n)
        with pytest.raises(NormObstruction) as exc:
            equalize_dets([(2, r)], [5])
        assert exc.value.place == 5  # -2 nonsquare mod 5, odd valuation

    def test_adjusted_shadow_satisfies_invariant(self):
        rng = random.Random(503)
        n = 11
        checked = 0
        while checked < 30:
            hints = [Fraction(rng.choice([1, 2, 5, 10, 13])), Fraction(rng.choice([1, 3, 9]))]
            mats = []
            for (m, hint) in zip((1, 3), hints):
                pool = [g for g, b in all_shapes(m, n, branch=1)]
                g = rng.choice(pool)
                mats.append((m, g))
            lam0 = mats[0][1].det() * pow(hints[0].numerator, -1, n) % n
            lam1 = mats[1][1].det() * pow(hints[1].numerator, -1, n) % n
            if lam0 != lam1:
                continue
            try:
                shadow, cert = equalize_dets(mats, hints)
            except NormObstruction:
                checked += 1
                continue
            assert cert.verify()
            assert shadow.det == lam0
            checked += 1


class TestSurjectivity:
    def test_witness_examples(self):
        shadows = surjective_common_det((1, 2), 7)
        assert set(shadows) == {1, 2, 3, 4, 5, 6}
        for lam, sigma in shadows.items():
            assert sigma.det == lam
            for m, comp in zip(sigma.support, sigma.components):
                ok, wit = shape_test(comp, ShapeKind(m, 1))
                assert ok
                x, y = wit
                assert (x * x + m * y * y) % 7 == lam

    def test_good_levels(self):
        for n in (7, 11, 13):
            for support in ((1,), (1, 2), (1, 2, 3), (2, 3, 5), (1, 2, 3, 5)):
                if not is_good_level(n, support):
                    continue
                shadows = surjective_common_det(support, n)
                units = [x for x in range(1, n) if gcd(x, n) == 1]
                assert sorted(shadows) == units

    def test_answer_shares_int_objects(self):
        # the answer has phi(N) shadows: each det is its key's object, and
        # each branch +1 component stores one object for a = d
        self._check_shares_int_objects(1009)
        assert GaloisShadow((1,), (ModMat(1, 0, 0, 1, 7),), 1, 8, 7).det == 1

    # two products of three primes and prime powers with e = 2 and e = 7:
    # with the prime above, every way the columns are built
    @pytest.mark.parametrize("level", [1001, 1105, 169, 2187])
    def test_answer_shares_int_objects_composite(self, level):
        self._check_shares_int_objects(level)

    @staticmethod
    def _check_shares_int_objects(level):
        shadows = surjective_common_det((1, 2), level)
        assert len(shadows) == len([x for x in range(level) if gcd(x, level) == 1])
        for lam, sigma in shadows.items():
            assert sigma.det is lam
            for comp in sigma.components:
                assert comp.a is comp.d

    # checked once per call, with GaloisShadow's messages, before the
    # good-level test: malformed input is no LevelObstruction, even where
    # the level is also bad (m = 0 makes every level bad)
    @pytest.mark.parametrize(
        "support,level,message",
        [
            ((4,), 7, "support entries must be square-free"),
            ((1, 1), 7, "support must be distinct"),
            ((-1,), 7, "support entries must be square-free"),
            ((9,), 5, "support entries must be square-free"),
            ((1,), -7, "level must be an int >= 1"),
            ((0,), 7, "support entries must be square-free"),
            ((1,), 0, "level must be an int >= 1"),
        ],
    )
    def test_argument_checks(self, support, level, message):
        with pytest.raises(ValueError, match=message) as exc:
            surjective_common_det(support, level)
        assert not isinstance(exc.value, LevelObstruction)

    def test_level_obstruction(self):
        with pytest.raises(LevelObstruction):
            surjective_common_det((5,), 10)
        with pytest.raises(LevelObstruction):
            surjective_common_det((1,), 6)  # even level is always bad

    def test_identity_witness(self):
        shadows = surjective_common_det((1, 2, 3), 7)
        assert shadow_eq(shadows[1], identity_shadow((1, 2, 3), 7))

    def test_empty_support(self):
        shadows = surjective_common_det((), 7)
        assert list(shadows) == [1, 2, 3, 4, 5, 6]
        for lam, sigma in shadows.items():
            assert sigma == GaloisShadow((), (), 1, lam, 7)


class TestExactSequence:
    def test_kernel_is_branch_plus_one(self):
        pool = all_shadows((1, 2), 5)
        for sigma in pool:
            assert torus_kernel_test(sigma) == (branch_map(sigma) == 1)

    def test_branch_map_is_homomorphism_onto_c2(self):
        rng = random.Random(504)
        pool = all_shadows((1, 2), 5)
        seen = set()
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            assert branch_map(shadow_mul(a, b)) == branch_map(a) * branch_map(b)
            seen.add(branch_map(a))
        assert seen == {1, -1}

    def test_mirror_generates_quotient(self):
        w = mirror_shadow((1, 2), 5)
        assert branch_map(w) == -1
        sq = shadow_mul(w, w)
        assert shadow_eq(sq, identity_shadow((1, 2), 5))
        assert not shadow_eq(w, identity_shadow((1, 2), 5))

    def test_torus_subgroup_direct_product(self):
        # the branch +1, det 1 data at level 5 over {1, 2} is the direct
        # product of its coordinate groups: orders multiply
        n = 5
        t1 = [g for g, b in all_shapes(1, n, 1) if g.det() == 1]
        t2 = [g for g, b in all_shapes(2, n, 1) if g.det() == 1]
        full = [
            s
            for s in all_shadows((1, 2), n)
            if s.branch == 1 and s.det == 1
        ]
        assert len(full) == len(t1) * len(t2)


class TestProject:
    def test_project_shadow(self):
        shadows = surjective_common_det((1, 2), 13)
        sigma = shadows[5]
        tau = shadow_project(sigma, 13, (1,))
        assert tau.support == (1,)
        assert tau.det == 5

    def test_bad_levels(self):
        sigma = surjective_common_det((1, 2), 15)[2]
        for level in (0, 7, -5):
            with pytest.raises(ValueError):
                shadow_project(sigma, level)

    def test_commutes_with_action(self):
        rng = random.Random(505)
        # level 15 -> 5 with support {1, 2}: gcd(15, 2*1*2) = 1, good level
        shadows = surjective_common_det((1, 2), 15)
        checked = 0
        while checked < 100:
            sigma = shadows[rng.choice([x for x in range(1, 15) if gcd(x, 15) == 1])]
            m = rng.choice([1, 2])
            g = ModMat(*(rng.randrange(15) for _ in range(4)), 15)
            if not g.is_unit():
                continue
            from cmcurve.shimura import project

            P = act_unit(g, LevelPoint.base(m, 15))
            lhs = project(shadow_act(sigma, P), 5)
            rhs = shadow_act(shadow_project(sigma, 5), project(P, 5))
            assert point_eq(lhs, rhs)
            assert component(lhs) == component(rhs)
            checked += 1


class TestSurjectivityCompositeLevels:
    def test_prime_power_and_composite_good_levels(self):
        # exercises the Hensel lift (p^k) and CRT recombination paths
        for n, support in ((9, (1, 2)), (49, (1,)), (45, (2,)), (77, (1, 3))):
            assert is_good_level(n, support)
            shadows = surjective_common_det(support, n)
            units = [x for x in range(1, n) if gcd(x, n) == 1]
            assert sorted(shadows) == units
            for lam, sigma in shadows.items():
                for m, comp in zip(sigma.support, sigma.components):
                    ok, wit = shape_test(comp, ShapeKind(m, 1))
                    assert ok
                    x, y = wit
                    assert (x * x + m * y * y) % n == lam


class TestCommonDetUnchanged:
    # SHA-256 prefixes of the full surjective_common_det output, computed
    # with the per-lambda implementation that called the checked sqrt_mod
    # for every residue; the shadows themselves must not change.  The test
    # runs them in this order, which fixes the ids support<i>-<level>.
    EXPECTED = {
        ((1,), 3): "8c397de231624add",
        ((1,), 15): "bbf23f7c260a2e20",
        ((1,), 25): "d5c881125b1ed20a",
        ((1,), 27): "75ba17eb8fda5641",
        ((1,), 105): "8cafaf3c06b4d643",
        ((1,), 343): "7daf3926aa3f9cff",
        ((1,), 1001): "8302c4ad7c706c30",
        ((1, 2), 9): "f81ab8505db6a8dd",
        ((1, 2), 15): "617d639ce08543e7",
        ((1, 2), 45): "51bbf5f617bdf9a9",
        ((1, 2), 121): "6a97878a9e26f6fe",
        ((1, 2), 125): "5fe8ac2638acb35c",
        ((1, 2), 1001): "ea19de42b80ce54f",
        ((2, 7), 9): "7dc1828a8e3b4b41",
        ((2, 7), 15): "9937d75751032176",
        ((2, 7), 25): "94f0ec2e137490f2",
        ((2, 7), 33): "6d8713075deafd7e",
        ((2, 7), 121): "b0c4a19085829493",
        ((2, 7), 165): "fef2f6ebca610a88",
        # the benchmark's prime levels, prime powers with e >= 2 and one
        # level of three primes; every table reads its roots off one
        # canonical-root list mod p^e
        ((1, 2), 101): "5a0da21b47c64100",
        ((1, 2), 1009): "c08245a76070f915",
        ((1, 2), 10007): "aba509cd059f273d",
        ((1,), 169): "fb90ec8b2c620e77",
        ((1, 2), 289): "c7feb5e4e0f3351b",
        ((2, 7), 1105): "fc3c4bf8bc76b7f5",
        ((1, 2), 2187): "5659d1ab8737332a",
    }

    @pytest.mark.parametrize("support,level", list(EXPECTED))
    def test_digest(self, support, level):
        out = surjective_common_det(support, level)
        assert sorted(out) == [x for x in range(1, level) if gcd(x, level) == 1]
        blob = json.dumps(
            [
                [lam, sh.det, sh.branch, [list(c.entries) for c in sh.components]]
                for lam, sh in out.items()
            ]
        )
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == self.EXPECTED[(support, level)]

    def test_level_one(self):
        out = surjective_common_det((1, 2), 1)
        assert list(out) == [1] and out[1].det == 0

    def test_residue_witness_matches_definition(self):
        for p, k in ((3, 1), (3, 3), (5, 2), (7, 1), (11, 2)):
            pk = p**k
            for m in (1, 2, 7):
                if m % p == 0:
                    continue
                for lam in range(1, pk):
                    if lam % p == 0:
                        continue
                    x, y = norm_residue_witness(m, lam, p, k)
                    assert (x * x + m * y * y - lam) % pk == 0

    # (m, lam, p, k): a bad prime power at m = lam = 1 (id "p-k"), then p | m*lam
    BAD_RESIDUE_ARGS = [
        (1, 1, 2, 1), (1, 1, 4, 1), (1, 1, 9, 1), (1, 1, 15, 2), (1, 1, 21, 1), (1, 1, 5, 0),
        (1, 0, 3, 1), (3, 2, 3, 1), (1, 3, 3, 2), (3, 1, 3, 2),
    ]

    @pytest.mark.parametrize(
        "m,lam,p,k",
        BAD_RESIDUE_ARGS,
        ids=[f"{p}-{k}" if m == lam == 1 else f"{m}-{lam}-{p}-{k}" for m, lam, p, k in BAD_RESIDUE_ARGS],
    )
    def test_residue_witness_rejects_bad_prime_power(self, m, lam, p, k):
        with pytest.raises(ValueError):
            norm_residue_witness(m, lam, p, k)


ODD_PRIMES_BELOW_60 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
ORACLE_SUPPORTS = [s for k in range(1, 6) for s in combinations((1, 2, 3, 5, 7), k)]
PRIME_POWER_LEVELS = [
    p**e for p in ODD_PRIMES_BELOW_60 for e in range(1, 8) if p**e <= 3000
]


@st.composite
def good_support_and_level(draw):
    support = draw(st.sampled_from(ORACLE_SUPPORTS))
    bad = 2 * prod(support)
    level = draw(
        st.one_of(
            st.integers(0, 1499).map(lambda k: 2 * k + 1),
            st.sampled_from(PRIME_POWER_LEVELS),
        ).filter(lambda n: gcd(n, bad) == 1)
    )
    return support, level


class TestCommonDetTables:
    """The per-prime-power tables and CRT idempotents against the per-lambda
    construction from the checked norm_residue_witness and numth.crt."""

    @settings(max_examples=25, deadline=None)
    @given(good_support_and_level())
    def test_matches_per_lambda_oracle(self, case):
        support, level = case
        got = surjective_common_det(support, level)
        want = surjective_common_det_per_lambda(support, level)
        assert list(got) == list(want)
        for lam, sigma in got.items():
            ref = want[lam]
            assert [c.entries for c in sigma.components] == [c.entries for c in ref.components]
            assert (sigma.support, sigma.det, sigma.branch, sigma.level) == (
                ref.support,
                ref.det,
                ref.branch,
                ref.level,
            )

    def test_table_is_norm_residue_at_every_unit(self):
        for p in ODD_PRIMES_BELOW_60:
            for e in (1, 2, 3):
                pe = p**e
                roots = _canonical_roots(p, e)
                for m in (1, 2, 7):
                    if m % p == 0:
                        continue
                    xs, ys = _norm_residue_table(m, p, e, roots)
                    for r in range(pe):
                        if r % p:
                            assert (xs[r], ys[r]) == _norm_residue(m, r, p, e), (m, r, p, e)


class TestCommonDetColumns:
    """surjective_common_det builds one table per support entry and prime
    power and reads every unit off it, and it lists the units with no gcd
    per residue."""

    @pytest.mark.parametrize("level,tables", [(1009, 2), (1001, 6), (2187, 2)])
    def test_one_table_per_entry_and_prime_power(self, monkeypatch, level, tables):
        calls = {"_norm_residue": 0, "_norm_residue_table": 0, "gcd": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        numth.factor(level)  # factoring is cached, and is not the units scan
        counting(galois, "_norm_residue")
        counting(galois, "_norm_residue_table")
        counting(numth, "gcd")
        phi = len([x for x in range(level) if gcd(x, level) == 1])
        assert len(surjective_common_det((1, 2), level)) == phi
        assert calls == {"_norm_residue": 0, "_norm_residue_table": tables, "gcd": 0}


class TestTrustedShadows:
    """surjective_common_det builds its shadows without GaloisShadow's
    per-component checks; these tests run the checks it skips."""

    LEVELS = (1, 7, 169, 289, 1001, 1009, 1105, 2187)

    @pytest.mark.parametrize("level", LEVELS)
    def test_public_constructor_rebuilds_every_shadow(self, level):
        checked = 0
        for support in ((1,), (1, 2), (2, 7)):
            if not is_good_level(level, support):
                continue
            for lam, sigma in surjective_common_det(support, level).items():
                rebuilt = GaloisShadow(sigma.support, sigma.components, 1, lam, level)
                assert rebuilt == sigma, (support, level, lam)
                checked += 1
        assert checked

    def test_no_shape_test_per_shadow(self, monkeypatch):
        calls = {"shape_test": 0, "is_squarefree": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(galois, name, counting(name, getattr(galois, name)))
        assert len(surjective_common_det((1, 2), 1009)) == 1008
        assert calls == {"shape_test": 0, "is_squarefree": 2}

    def test_components_skip_the_public_constructors(self, monkeypatch):
        # each component is built as its reduced tuple: no shape_matrix_mod
        # call and no ModMat.__new__ (the sums are reduced once, here), and
        # each shadow as its tuple: no GaloisShadow.__new__
        calls = {"shape_matrix_mod": 0, "ModMat": 0, "GaloisShadow": 0}

        def shape_matrix_mod(*args):
            calls["shape_matrix_mod"] += 1
            return adele_shape_matrix_mod(*args)

        def counting_new(name, original):
            def new(cls, *args):
                calls[name] += 1
                return original(cls, *args)

            return new

        adele_shape_matrix_mod = adele.shape_matrix_mod
        monkeypatch.setattr(adele, "shape_matrix_mod", shape_matrix_mod)
        monkeypatch.setattr(galois, "shape_matrix_mod", shape_matrix_mod, raising=False)
        for cls in (ModMat, GaloisShadow):
            monkeypatch.setattr(cls, "__new__", counting_new(cls.__name__, cls.__new__))
        assert ModMat(1, 0, 0, 1, 5) == identity_mod(5) and calls["ModMat"] == 2
        assert GaloisShadow((), (), 1, 1, 5) == identity_shadow((), 5) and calls["GaloisShadow"] == 2
        calls["ModMat"] = calls["GaloisShadow"] = 0
        shadows = surjective_common_det((1, 2), 1009)
        assert len(shadows) == 1008
        assert calls == {"shape_matrix_mod": 0, "ModMat": 0, "GaloisShadow": 0}
        assert all(type(c) is ModMat for sigma in shadows.values() for c in sigma.components)
        assert all(type(sigma) is GaloisShadow for sigma in shadows.values())
