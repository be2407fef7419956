"""Mat2 (integer numerators over one common denominator) against the
Fraction-entry FractionMat2 oracle, plus the algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcurve.errors import PrecisionObstruction
from cmcurve.matrices import IDENTITY, Mat2, ModMat
from cmcurve.numth import require_coprime
from oracles import FractionMat2, noninvertible_primes_per_entry

PROPERTY = settings(max_examples=300, deadline=None)

# small numerators and denominators with shared prime factors, so that
# entries, products and inverses meet the levels below
fractions = st.builds(
    Fraction,
    st.integers(-30, 30),
    st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 35]),
)
entries = st.one_of(st.integers(-30, 30), fractions)
quads = st.tuples(entries, entries, entries, entries)
levels = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 15, 35, 60, 105, 1001])


def both(q):
    return Mat2(*q), FractionMat2(*q)


def same(m, f):
    return m.entries == f.entries


@PROPERTY
@given(quads)
def test_entries_det_and_predicates_match(q):
    m, f = both(q)
    assert m.entries == f.entries
    assert (m.a, m.b, m.c, m.d) == f.entries
    assert m.det() == f.det()
    assert m.det_numerator() == f.det() * m.den**2
    assert type(m.det()) is Fraction
    assert m.is_integral() == f.is_integral()
    assert m.is_unimodular() == f.is_unimodular()
    assert m.is_gl2z() == f.is_gl2z()
    assert repr(m) == repr(f)


@PROPERTY
@given(quads)
def test_entries_are_fractions(q):
    m = Mat2(*q)
    for x in m.entries + (m.a, m.b, m.c, m.d):
        assert type(x) is Fraction
    assert all(type(x) is int for x in (m.an, m.bn, m.cn, m.dn, m.den))


@PROPERTY
@given(quads)
def test_storage_is_in_lowest_terms(q):
    from math import gcd

    m = Mat2(*q)
    assert m.den >= 1
    assert gcd(m.an, m.bn, m.cn, m.dn, m.den) == 1


@PROPERTY
@given(quads, quads)
def test_mul_matches(q1, q2):
    (m1, f1), (m2, f2) = both(q1), both(q2)
    assert same(m1 * m2, f1 * f2)
    assert same(-m1, -f1)


@PROPERTY
@given(quads)
def test_inv_matches(q):
    m, f = both(q)
    if f.det() == 0:
        with pytest.raises(ZeroDivisionError):
            m.inv()
        return
    assert same(m.inv(), f.inv())
    assert m * m.inv() == IDENTITY
    assert m.inv() * m == IDENTITY


def test_singular_inverse_raises():
    for q in [(0, 0, 0, 0), (1, 2, 2, 4), (Fraction(1, 2), 1, Fraction(1, 3), Fraction(2, 3))]:
        with pytest.raises(ZeroDivisionError):
            Mat2(*q).inv()


def _mod_or_prime(x, n):
    try:
        return x.mod(n)
    except PrecisionObstruction as e:
        return ("obstruction", e.prime)


@PROPERTY
@given(quads, levels)
def test_mod_matches_including_obstruction_prime(q, n):
    m, f = both(q)
    assert _mod_or_prime(m, n) == _mod_or_prime(f, n)


def test_mod_obstruction_names_first_entry_prime():
    # den = 35, but the first entry meeting 35 has denominator 7
    m = Mat2(Fraction(1, 7), Fraction(1, 5), 0, 1)
    with pytest.raises(PrecisionObstruction) as e:
        m.mod(35)
    assert e.value.prime == 7
    assert _mod_or_prime(FractionMat2(Fraction(1, 7), Fraction(1, 5), 0, 1), 35) == ("obstruction", 7)


def test_modmat_reduce_to_a_bad_level_raises():
    g = ModMat(2, 3, 1, 2, 15)
    assert g.reduce(5) == ModMat(2, 3, 1, 2, 5)
    for m in (0, 7, -5):
        with pytest.raises(ValueError):
            g.reduce(m)


@PROPERTY
@given(quads, quads, quads)
def test_mul_is_associative(q1, q2, q3):
    a, b, c = Mat2(*q1), Mat2(*q2), Mat2(*q3)
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(quads, st.integers(1, 12))
def test_equal_matrices_from_unreduced_inputs_hash_alike(q, k):
    unreduced = [Fraction(x) for x in q]
    unreduced = [Fraction(x.numerator * k, x.denominator * k) for x in unreduced]
    m1, m2 = Mat2(*q), Mat2(*(Fraction(x) for x in unreduced))
    assert m1 == m2
    assert hash(m1) == hash(m2)


def test_hash_of_halves():
    m1 = Mat2(Fraction(2, 4), 1, 0, Fraction(3, 6))
    m2 = Mat2(Fraction(1, 2), 1, 0, Fraction(1, 2))
    assert m1 == m2 and hash(m1) == hash(m2) and len({m1, m2}) == 1
    assert m1 != Mat2(Fraction(1, 2), 1, 0, Fraction(1, 3))


def test_constructor_accepts_what_fraction_accepts():
    m = Mat2("1/2", 0.25, Fraction(3, 4), True)
    assert m.entries == (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1))
    assert (m.an, m.bn, m.cn, m.dn, m.den) == (2, 1, 3, 4, 4)
    with pytest.raises(AttributeError):
        m.an = 5


@PROPERTY
@given(quads, levels)
def test_noninvertible_primes_match_per_entry_rule(q, n):
    # the level checks pass (den, det_numerator()) to require_coprime, which
    # must name the smallest prime the entry-by-entry rule finds
    m = Mat2(*q)
    if m.det() == 0:
        return
    primes = noninvertible_primes_per_entry(m, n)
    if not primes:
        require_coprime(n, m.den, m.det_numerator())
        return
    with pytest.raises(PrecisionObstruction) as e:
        require_coprime(n, m.den, m.det_numerator())
    assert e.value.prime == min(primes)
