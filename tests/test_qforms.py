import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cmcurve.matrices import IDENTITY
from cmcurve.numth import is_squarefree
from cmcurve.qforms import (
    MAX_DISC,
    QuadForm,
    _sqrts_minus_d_mod,
    automorphs,
    class_number,
    cornacchia,
    form_of,
    norm_obstruction,
    reduce_form,
    reduced_forms,
    solve_form_rational,
)
from cmcurve.shimura import QuadPoint
from oracles import (
    automorphs_exhaustive,
    cornacchia_exhaustive,
    rational_norm_search,
    reduce_form_bfs,
    reduced_forms_exhaustive,
)


def random_form(rng, max_disc=10**4):
    while True:
        A = rng.randint(1, 30)
        B = rng.randint(-30, 30)
        C = rng.randint(1, 30)
        if B * B - 4 * A * C >= 0 or B * B - 4 * A * C < -max_disc:
            continue
        from math import gcd

        if gcd(gcd(A, B), C) != 1:
            continue
        return QuadForm(A, B, C)


class TestFormOf:
    def test_principal(self):
        assert form_of(QuadPoint(5, 0, 1)).coeffs() == (1, 0, 5)

    def test_half_integer(self):
        # clear denominators of tau^2 - tau + 2 = 0 and check the root
        tau = QuadPoint(7, Fraction(1, 2), Fraction(1, 2))
        f = form_of(tau)
        assert f.coeffs() == (1, -1, 2)
        assert f.root() == tau

    def test_denominator_five(self):
        # substitute (-2+i)/5 into 5t^2 + 4t + 1: 5*(3-4i)/25 + (-8+4i)/5 + 1 = 0
        tau = QuadPoint(1, Fraction(-2, 5), Fraction(1, 5))
        f = form_of(tau)
        assert f.coeffs() == (5, 4, 1)
        assert f.root() == tau

    def test_root_roundtrip(self):
        rng = random.Random(201)
        for _ in range(300):
            f = random_form(rng)
            assert form_of(f.root()) == f


class TestReduce:
    def test_already_reduced(self):
        g, gamma = reduce_form(QuadForm(1, 0, 5))
        assert g.coeffs() == (1, 0, 5) and gamma == IDENTITY

    def test_spec_pair(self):
        # BFS oracle over generator words confirms (5,4,1) ~ (1,0,1)
        assert reduce_form_bfs((5, 4, 1))[0] == (1, 0, 1)
        g, gamma = reduce_form(QuadForm(5, 4, 1))
        assert g.coeffs() == (1, 0, 1)
        assert gamma.det() == 1

    def test_boundary_form(self):
        g, gamma = reduce_form(QuadForm(2, 2, 3))
        assert g.coeffs() == (2, 2, 3) and gamma == IDENTITY

    def test_transformation_identity_and_idempotence(self):
        rng = random.Random(202)
        for _ in range(1000):
            f = random_form(rng)
            g, gamma = reduce_form(f)
            assert g.is_reduced()
            assert f.transform(gamma.inv()) == g  # g = f o gamma^{-1}, exactly
            g2, gamma2 = reduce_form(g)
            assert g2 == g and gamma2 == IDENTITY

    def test_root_in_fundamental_domain(self):
        rng = random.Random(203)
        for _ in range(300):
            f = random_form(rng)
            g, _ = reduce_form(f)
            tau = g.root()
            assert abs(tau.p) <= Fraction(1, 2)
            assert tau.p * tau.p + tau.q * tau.q * tau.m >= 1  # |tau|^2 >= 1

    def test_matches_bfs_oracle(self):
        rng = random.Random(204)
        for _ in range(40):
            f = random_form(rng, max_disc=300)
            got, _ = reduce_form(f)
            oracle = reduce_form_bfs(f.coeffs())
            assert oracle is not None and got.coeffs() == oracle[0]


class TestAutomorphs:
    @pytest.mark.parametrize(
        "coeffs,count", [((1, 0, 1), 4), ((1, 0, 5), 2), ((1, 1, 1), 6)]
    )
    def test_counts(self, coeffs, count):
        # oracle: exhaustive search over entries bounded by 2
        assert len(automorphs_exhaustive(coeffs, bound=2)) == count
        assert len(automorphs(QuadForm(*coeffs))) == count

    def test_matches_exhaustive(self):
        rng = random.Random(205)
        count = 0
        while count < 25:
            f = random_form(rng, max_disc=200)
            if max(f.A, f.C) > 8:
                continue
            count += 1
            bound = max(f.A, f.C, abs(f.B)) + 1  # automorph entries are A*u, C*u, (t+-Bu)/2
            ours = {g.entries for g in automorphs(f)}
            oracle = {g.entries for g in automorphs_exhaustive(f.coeffs(), bound=bound)}
            assert ours == oracle

    def test_group_structure(self):
        rng = random.Random(206)
        for _ in range(100):
            f = random_form(rng)
            auts = automorphs(f)
            assert len(auts) in (2, 4, 6)
            entries = {g.entries for g in auts}
            for g in auts:
                assert g.inv().entries in entries
                for h in auts:
                    assert (g * h).entries in entries
            # they really fix the form
            for g in auts:
                assert f.transform(g) == f


class TestReducedForms:
    @pytest.mark.parametrize(
        "disc,coeffs",
        [
            (-4, [(1, 0, 1)]),
            (-20, [(1, 0, 5), (2, 2, 3)]),
            (-23, [(1, 1, 6), (2, -1, 3), (2, 1, 3)]),
        ],
    )
    def test_anchors(self, disc, coeffs):
        assert reduced_forms_exhaustive(disc) == coeffs  # enumeration oracle
        assert [f.coeffs() for f in reduced_forms(disc)] == coeffs

    def test_matches_oracle(self):
        for disc in range(-400, 0):
            if disc % 4 not in (0, 1):
                continue
            got = [f.coeffs() for f in reduced_forms(disc)]
            assert got == reduced_forms_exhaustive(disc)

    def test_class_numbers(self):
        assert class_number(-4) == 1
        assert class_number(-20) == 2
        assert class_number(-23) == 3

    def test_bound_is_on_enumeration_only(self):
        # reduction of a large form is cheap; only the class enumeration
        # runs |disc|/3 steps
        big = -4 * (MAX_DISC + 1)
        f = QuadForm(1, 0, MAX_DISC + 1)
        assert f.disc == big and f.is_reduced()
        assert reduce_form(QuadForm(MAX_DISC + 1, 0, 1))[0] == f
        for call in (reduced_forms, class_number):
            with pytest.raises(ValueError, match="desk-scale bound"):
                call(big)


class TestCornacchia:
    def test_examples(self):
        assert cornacchia(1, 2) == (1, 1)
        # exhaustive search with y <= 2 finds only (4, 1)
        assert cornacchia_exhaustive(5, 21) == (4, 1)
        assert cornacchia(5, 21) == (4, 1)
        assert cornacchia_exhaustive(2, 5) is None
        assert cornacchia(2, 5) is None

    def test_agreement_small(self):
        for m in (1, 2, 3, 5, 6, 7, 10):
            for k in range(1, 800):
                got = cornacchia(m, k)
                expect = cornacchia_exhaustive(m, k)
                assert (got is None) == (expect is None), (m, k)
                if got is not None:
                    assert got[0] ** 2 + m * got[1] ** 2 == k

    def test_roots_of_minus_d_match_brute_force(self):
        # every n <= 300, and 2^k times a small odd cofactor up to 5 * 2^12
        ns = list(range(1, 301)) + [2**k * c for k in range(9, 13) for c in (1, 3, 5)]
        for d in filter(is_squarefree, range(1, 41)):
            for n in ns:
                want = [x for x in range(n) if (x * x + d) % n == 0]
                assert _sqrts_minus_d_mod(d, n) == want, (d, n)

    def test_power_of_two_is_fast(self):
        # the roots mod 2^60 must be lifted, not found among 2^60 residues
        code = "from cmcurve.qforms import cornacchia; print(*cornacchia(7, 2**60))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        x, y = map(int, proc.stdout.split())
        assert x * x + 7 * y * y == 2**60


class TestSolveFormRational:
    def test_examples(self):
        s, t = solve_form_rational(2, Fraction(1, 3))
        assert s * s + 2 * t * t == Fraction(1, 3)
        s, t = solve_form_rational(1, 5)
        assert s * s + t * t == 5
        assert solve_form_rational(2, 5) is None
        assert norm_obstruction(2, 5) == 5  # -2 nonsquare mod 5, odd valuation

    def test_exactness_and_obstructions(self):
        rng = random.Random(207)
        for _ in range(200):
            m = rng.choice([1, 2, 3, 5, 6, 7, 10, 13])
            k = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            sol = solve_form_rational(m, k)
            if sol is None:
                place = norm_obstruction(m, k)
                assert place is not None
            else:
                s, t = sol
                assert s * s + m * t * t == k
                assert norm_obstruction(m, k) is None

    def test_against_denominator_search(self):
        rng = random.Random(208)
        for _ in range(120):
            m = rng.choice([1, 2, 3, 5])
            k = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            sol = solve_form_rational(m, k)
            oracle = rational_norm_search(m, k, cmax=12)
            if oracle is not None:
                assert sol is not None
            if sol is not None and sol[0].denominator <= 12:
                s, t = sol
                assert s * s + m * t * t == k
