import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from cmcurve.numth import (
    INF,
    Factorization,
    Residue,
    crt,
    ext_gcd,
    factor,
    hilbert_places,
    hilbert_symbol,
    intersect_progressions,
    is_prime,
    jacobi,
    smallest_shared_prime,
    solve_linear_congruence,
    sqrt_mod,
    squarefree_part,
    units_mod,
)
from oracles import (
    hilbert_via_search,
    legendre_exhaustive,
    linear_congruence_exhaustive,
    sqrt_mod_exhaustive,
    trial_division,
)


class TestFactor:
    def test_unit(self):
        assert factor(1) == Factorization(1, ())

    def test_trivial_negative(self):
        # oracle: trial division of 12 gives 2^2 * 3
        assert trial_division(-12) == [(2, 2), (3, 1)]
        assert factor(-12) == Factorization(-1, ((2, 2), (3, 1)))

    def test_prime(self):
        assert is_prime(97)
        assert factor(97) == Factorization(1, ((97, 1),))

    def test_roundtrip_random(self):
        rng = random.Random(101)
        for _ in range(10_000):
            n = rng.randint(1, 2**48)
            if rng.random() < 0.5:
                n = -n
            f = factor(n)
            assert f.value() == n
            assert all(is_prime(p) for p in f.primes())

    def test_matches_trial_division(self):
        rng = random.Random(102)
        for _ in range(200):
            n = rng.randint(2, 10**6)
            assert list(factor(n).factors) == trial_division(n)


class TestSquarefree:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1)), (20, (5, 2)), (45, (5, 3)), (360, (10, 6))],
    )
    def test_examples(self, n, expected):
        # oracle: factorization 20 = 2^2*5, 45 = 3^2*5 (trial division)
        assert squarefree_part(n) == expected

    def test_reconstruct(self):
        rng = random.Random(103)
        for _ in range(500):
            n = rng.randint(1, 2**40)
            m, s = squarefree_part(n)
            assert m * s * s == n


class TestJacobi:
    def test_examples(self):
        # (2|15) = (2|3)(2|5) = (-1)(-1) = 1, by exhaustive squares mod 3, 5
        assert legendre_exhaustive(2, 3) == -1
        assert legendre_exhaustive(2, 5) == -1
        assert jacobi(2, 15) == 1
        assert jacobi(0, 9) == 0
        for n in (1, 3, 5, 7, 9, 45, 99):
            assert jacobi(1, n) == 1

    def test_against_exhaustive_legendre(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 197, 199):
            for a in range(p):
                assert jacobi(a, p) == legendre_exhaustive(a, p)

    def test_multiplicative(self):
        rng = random.Random(104)
        for _ in range(200):
            n = 2 * rng.randint(1, 200) + 1
            a, b = rng.randint(-50, 50) or 1, rng.randint(-50, 50) or 1
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


class TestSqrtMod:
    def test_examples(self):
        # exhaustive search mod 7: {x: x^2 = 2} = {3, 4}
        assert sqrt_mod_exhaustive(2, 7) == [3, 4]
        assert sqrt_mod(2, 7, 1) == Residue(3, 7)
        assert sqrt_mod(3, 7, 1) is None
        assert sqrt_mod_exhaustive(3, 7) == []
        for p in (3, 5, 11):
            assert sqrt_mod(1, p, 2) == Residue(1, p * p)

    def test_definitional(self):
        rng = random.Random(105)
        cases = [(p, k) for p in (3, 5, 7, 11, 13) for k in (1, 2, 3)]
        for p, k in cases:
            pk = p**k
            if pk > 10_000:
                continue
            for a in range(pk):
                r = sqrt_mod(a, p, k)
                roots = sqrt_mod_exhaustive(a, pk)
                if r is None:
                    assert roots == []
                else:
                    assert r.value * r.value % pk == a % pk
                    assert r.value == min(roots)

    def test_hensel_large_power(self):
        r = sqrt_mod(2, 7, 6)
        assert r is not None and r.value**2 % 7**6 == 2


    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 91, 3 * 5 * 7 * 11])
    def test_rejects_even_or_composite_modulus(self, p):
        with pytest.raises(ValueError):
            sqrt_mod(1, p, 1)
        with pytest.raises(ValueError):
            sqrt_mod(4, p, 3)


class TestLinearCongruence:
    def test_solver_exhaustive(self):
        for n in range(1, 31):
            for alpha in range(n):
                for beta in range(n):
                    expected = linear_congruence_exhaustive(alpha, beta, n)
                    got = solve_linear_congruence(alpha, beta, n)
                    if got is None:
                        assert expected == [], (alpha, beta, n)
                        continue
                    r, m = got
                    assert n % m == 0 and 0 <= r < m
                    assert list(range(r, n, m)) == expected, (alpha, beta, n)

    def test_solver_unreduced_arguments(self):
        rng = random.Random(151)
        for _ in range(300):
            n = rng.randint(1, 60)
            alpha, beta = rng.randint(-500, 500), rng.randint(-500, 500)
            assert solve_linear_congruence(alpha, beta, n) == solve_linear_congruence(
                alpha % n, beta % n, n
            )

    def test_intersection_exhaustive(self):
        for m1 in range(1, 19):
            for m2 in range(1, 19):
                lcm = m1 * m2 // gcd(m1, m2)
                for r1 in range(m1):
                    for r2 in range(m2):
                        expected = [x for x in range(lcm) if x % m1 == r1 and x % m2 == r2]
                        got = intersect_progressions((r1, m1), (r2, m2))
                        if got is None:
                            assert expected == []
                        else:
                            assert got[1] == lcm and expected == [got[0]]

    def test_intersection_with_empty(self):
        assert intersect_progressions(None, (0, 1)) is None
        assert intersect_progressions((0, 1), None) is None


class TestCrt:
    @pytest.mark.parametrize(
        "moduli", [(3,), (1,), (1, 5), (5, 1), (4, 9), (7, 11, 13), (8, 9, 25)]
    )
    def test_round_trip(self, moduli):
        prod = 1
        for m in moduli:
            prod *= m
        for x in range(prod):
            assert crt([(x % m, m) for m in moduli]) == (x, prod)
            assert crt([(x + prod * m, m) for m in moduli]) == (x, prod)

    def test_empty(self):
        assert crt([]) == (0, 1)

    @pytest.mark.parametrize("moduli", [(4, 6), (3, 5, 9), (7, 7)])
    def test_rejects_non_coprime_moduli(self, moduli):
        with pytest.raises(ValueError):
            crt([(1, m) for m in moduli])


PRIMES_BELOW_150 = [p for p in range(2, 150) if all(p % d for d in range(2, p))]
UNITS_BOUND = 20000


class TestUnitsMod:
    def test_against_gcd_filter(self):
        for n in range(2, 60):
            expected = [x for x in range(n) if gcd(x, n) == 1]
            assert units_mod(n) == expected
            assert units_mod(n, limit=3) == expected[:3]

    # the sieve without a limit and the lazy scan with one, at prime powers
    # (one prime struck), at products of three or more primes (several
    # strikes, some repeated) and at even n (every other flag struck first)
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(
            st.integers(1, UNITS_BOUND),
            st.sampled_from([p**e for p in PRIMES_BELOW_150 for e in range(1, 15) if p**e <= UNITS_BOUND]),
            st.lists(st.sampled_from(PRIMES_BELOW_150), min_size=3, max_size=7)
            .map(prod)
            .filter(lambda n: n <= UNITS_BOUND),
            st.integers(1, UNITS_BOUND // 2).map(lambda k: 2 * k),
        ),
        limit=st.sampled_from([0, 1, 3, None]),
    )
    def test_against_gcd_filter_to_20000(self, n, limit):
        expected = [x for x in range(n) if gcd(x, n) == 1]
        assert units_mod(n, limit) == (expected if limit is None else expected[:limit])

    def test_level_one(self):
        assert units_mod(1) == [0]
        assert units_mod(1, limit=3) == [0]


class TestGcdHelpers:
    def test_ext_gcd_bezout(self):
        for a in range(-25, 26):
            for b in range(-25, 26):
                g, x, y = ext_gcd(a, b)
                assert a * x + b * y == g
                assert abs(g) == gcd(a, b)

    def test_smallest_shared_prime_against_trial_division(self):
        for n in range(2, 400):
            for x in (1, 2, 6, 35, 77, 143, 1001, 2**61 - 1, 3 * (2**61 - 1)):
                common = [p for p, _ in trial_division(gcd(x, n))]
                if common:
                    assert smallest_shared_prime(x, n) == common[0]
                else:
                    with pytest.raises(ValueError):
                        smallest_shared_prime(x, n)


class TestHilbert:
    def test_classical_values(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, INF) == -1
        assert hilbert_symbol(2, 3, 3) == -1

    def test_against_search(self):
        rng = random.Random(106)
        pairs = [(-1, -1), (2, 3), (-5, 3), (Fraction(1, 3), 2), (-2, 5), (-1, 5)]
        for _ in range(14):
            a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            pairs.append((a, b))
        for a, b in pairs:
            for p in (2, 3):
                assert hilbert_symbol(a, b, p) == hilbert_via_search(a, b, p), (a, b, p)

    def test_reciprocity(self):
        rng = random.Random(107)
        for _ in range(1000):
            a = Fraction(rng.randint(-100, 100) or 1, rng.randint(1, 100))
            b = Fraction(rng.randint(-100, 100) or 1, rng.randint(1, 100))
            prod = 1
            for place in hilbert_places(a, b):
                prod *= hilbert_symbol(a, b, place)
            assert prod == 1

    def test_bilinear_in_first_argument(self):
        rng = random.Random(108)
        for _ in range(200):
            a1 = rng.randint(-30, 30) or 1
            a2 = rng.randint(-30, 30) or 1
            b = rng.randint(-30, 30) or 1
            for place in (2, 3, 5, 7, INF):
                lhs = hilbert_symbol(a1 * a2, b, place)
                rhs = hilbert_symbol(a1, b, place) * hilbert_symbol(a2, b, place)
                assert lhs == rhs
