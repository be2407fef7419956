"""Mat2 (integer numerators over one common denominator) against the
Fraction-entry FractionMat2 oracle, ModMat against the plain-integer
PlainModMat oracle, plus the algebraic laws and ModMat's value semantics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcurve.errors import PrecisionObstruction
from cmcurve.matrices import IDENTITY, Mat2, ModMat, identity_mod
from cmcurve.numth import require_coprime
from oracles import FractionMat2, PlainModMat, noninvertible_primes_per_entry

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


# -- ModMat ------------------------------------------------------------------------

# small entries, and large ones of either sign, so that the reduction matters
mod_entries = st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30))
mod_quads = st.tuples(mod_entries, mod_entries, mod_entries, mod_entries)
moduli = st.sampled_from([1, 5, 12, 35, 10007])


def same_mod(g, plain):
    return type(g) is ModMat and g.entries == plain.entries and g.n == plain.n


def shares_a_and_d(g):
    """Equal diagonal entries are one int object (the phi(N) batches)."""
    return g.a is g.d or g.a != g.d


@PROPERTY
@given(mod_quads, moduli)
def test_modmat_construction_matches(q, n):
    g = ModMat(*q, n)
    assert same_mod(g, PlainModMat(*q, n))
    assert tuple(g) == (*g.entries, n) and g.entries == (g.a, g.b, g.c, g.d)
    assert shares_a_and_d(g)


@PROPERTY
@given(mod_quads, mod_quads, moduli)
def test_modmat_mul_and_det_match(q1, q2, n):
    g, h = ModMat(*q1, n), ModMat(*q2, n)
    f1, f2 = PlainModMat(*q1, n), PlainModMat(*q2, n)
    assert same_mod(g * h, f1 * f2)
    assert g.det() == f1.det()
    assert (g * h).det() == g.det() * h.det() % n
    assert shares_a_and_d(g * h)


@PROPERTY
@given(mod_quads, moduli)
def test_modmat_inv_matches(q, n):
    g, f = ModMat(*q, n), PlainModMat(*q, n)
    try:
        want = f.inv()
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError) as got:
            g.inv()
        assert str(got.value) == str(exc)
        assert not g.is_unit()
        return
    assert g.is_unit()
    assert same_mod(g.inv(), want)
    assert g * g.inv() == identity_mod(n) == g.inv() * g
    assert shares_a_and_d(g.inv())


@PROPERTY
@given(mod_quads, mod_entries, moduli)
def test_modmat_scalar_mul_matches(q, k, n):
    g = ModMat(*q, n).scalar_mul(k)
    assert same_mod(g, PlainModMat(*q, n).scalar_mul(k))
    assert shares_a_and_d(g)


@PROPERTY
@given(mod_quads, moduli, st.integers(-3, 40))
def test_modmat_reduce_matches(q, n, m):
    g, f = ModMat(*q, n), PlainModMat(*q, n)
    if m < 1 or n % m:
        with pytest.raises(ValueError, match=f"{m} does not divide modulus {n}"):
            g.reduce(m)
        with pytest.raises(ValueError):
            f.reduce(m)
        return
    assert same_mod(g.reduce(m), f.reduce(m))
    assert shares_a_and_d(g.reduce(m))


@pytest.mark.parametrize("n", [1, 5, 10007])
def test_modmat_a_and_d_share_one_object(n):
    x = 10**6 + 3
    for g in (ModMat(x, 1, 2, x + 5 * n, n), ModMat(x, 0, 0, x, n) * identity_mod(n)):
        assert g.a is g.d
    assert ModMat(x, 0, 0, x, n).inv().a is ModMat(x, 0, 0, x, n).inv().d


def test_modmat_modulus_checks():
    for n in (0, -5):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            ModMat(1, 0, 0, 1, n)
    with pytest.raises(ValueError, match="modulus mismatch"):
        identity_mod(5) * identity_mod(7)


class TestModMatValue:
    """A ModMat is the tuple (a, b, c, d, n), but a value of its own: it equals
    no plain tuple and has none of the tuple's arithmetic or ordering."""

    def test_never_equals_a_plain_tuple(self):
        g = ModMat(2, 3, 1, 2, 15)
        for t in (tuple(g), g.entries, (2, 3, 1, 2, 15)):
            assert not g == t and not t == g
            assert g != t and t != g
        assert g == ModMat(17, 3, 16, 2, 15) and not g != ModMat(17, 3, 16, 2, 15)
        assert g != ModMat(2, 3, 1, 2, 5)
        assert g not in {tuple(g)} and g in {ModMat(2, 3, 1, 2, 15)}

    @PROPERTY
    @given(mod_quads, moduli, st.integers(-3, 3))
    def test_equal_matrices_hash_alike(self, q, n, k):
        g = ModMat(*q, n)
        h = ModMat(*(x + k * n for x in q), n)
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1

    @pytest.mark.parametrize(
        "op",
        [lambda g: g + g, lambda g: 2 * g, lambda g: g < g, lambda g: g <= g,
         lambda g: g > g, lambda g: g >= g, lambda g: g.entries + g],
        ids=["add", "rmul", "lt", "le", "gt", "ge", "radd"],
    )
    def test_no_tuple_arithmetic(self, op):
        with pytest.raises(TypeError):
            op(ModMat(2, 3, 1, 2, 15))

    def test_immutable(self):
        g = ModMat(2, 3, 1, 2, 15)
        for name in ("a", "d", "n", "entries", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1)
        assert g == ModMat(2, 3, 1, 2, 15)

    def test_repr(self):
        g = ModMat(2, 3, 1, 2, 15)
        assert repr(g) == str(g) == "ModMat(2, 3, 1, 2, mod=15)"
