"""Mat2 (integer numerators over one common denominator) against the
Fraction-entry FractionMat2 oracle, ModMat against the plain-integer
PlainModMat oracle, plus the algebraic laws and the value semantics that
Mat2, ModMat and GaloisShadow share."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmcurve.approx import ApproxPoint
from cmcurve.errors import PrecisionObstruction
from cmcurve.galois import GaloisShadow, identity_shadow, surjective_common_det
from cmcurve.matrices import IDENTITY, Mat2, ModMat, identity_mod
from cmcurve.numth import require_coprime
from cmcurve.shimura import LevelPoint
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


def shape_shadow(x, y, n, k=0):
    """The one-orbit (m = 1) branch +1 shadow of (x, y; -y, x) mod n, with
    its entries and det given k * n off their residues."""
    comp = ModMat(x + k * n, y - k * n, -y + k * n, x, n)
    return GaloisShadow((1,), (comp,), 1, x * x + y * y + k * n, n)


def value_cases():
    """(value, an equal value built from other inputs, an unequal value of
    the same type, attributes that cannot be set) for each value tuple."""
    shadow = surjective_common_det((1, 2), 7)[3]
    return [
        (Mat2(2, 3, 1, 2), Mat2(Fraction(4, 2), 3.0, "1", 2), Mat2(2, 3, 1, Fraction(2, 3)),
         ("an", "den", "a", "entries")),
        (ModMat(2, 3, 1, 2, 15), ModMat(17, 3, 16, 2, 15), ModMat(2, 3, 1, 2, 5), ("a", "d", "n", "entries")),
        (shadow, GaloisShadow([1, 2], [ModMat(*(x - 7 for x in c[:4]), 7) for c in shadow.components], 1, 10, 7),
         shape_shadow(3, 1, 7), ("support", "components", "det", "level")),
    ]


class TestModMatValue:
    """ModMat is the tuple (a, b, c, d, n), Mat2 the tuple (an, bn, cn, dn,
    den) and GaloisShadow the tuple (support, components, branch, det,
    level), but each is a value of its own: it equals no plain tuple and no
    value of another type, and has none of the tuple's arithmetic or
    ordering."""

    def test_never_equals_a_plain_tuple(self):
        for g, same, other, _ in value_cases():
            for t in (tuple(g), g[:4], tuple(same)):
                assert not g == t and not t == g
                assert g != t and t != g
            assert g == same and not g != same
            assert g != other and not g == other
            assert g not in {tuple(g)} and g in {same}

    def test_types_never_equal_each_other(self):
        m = Mat2(Fraction(2, 15), Fraction(3, 15), Fraction(1, 15), Fraction(2, 15))
        g = ModMat(2, 3, 1, 2, 15)
        assert tuple(m) == tuple(g) and hash(m) == hash(g)
        assert not m == g and not g == m and m != g and g != m
        assert len({m, g}) == 2

    @PROPERTY
    @given(mod_quads, moduli, st.integers(-3, 3))
    def test_equal_matrices_hash_alike(self, q, n, k):
        g = ModMat(*q, n)
        h = ModMat(*(x + k * n for x in q), n)
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        scale = abs(k) + 1
        m = Mat2(*q)
        f = Mat2(*(Fraction(x * scale, scale) for x in q))
        assert m == f and hash(m) == hash(f) and len({m, f}) == 1
        x, y = q[:2]
        assume(gcd(x * x + y * y, n) == 1)
        s, t = shape_shadow(x, y, n), shape_shadow(x, y, n, k)
        assert s == t and hash(s) == hash(t) and len({s, t}) == 1

    @pytest.mark.parametrize(
        "op",
        [lambda g: g + g, lambda g: 2 * g, lambda g: g < g, lambda g: g <= g,
         lambda g: g > g, lambda g: g >= g, lambda g: g[:4] + g],
        ids=["add", "rmul", "lt", "le", "gt", "ge", "radd"],
    )
    def test_no_tuple_arithmetic(self, op):
        for g, *_ in value_cases():
            with pytest.raises(TypeError):
                op(g)

    def test_no_product_across_types(self):
        # a Mat2 with den = n holds what a ModMat mod n would
        m, g = Mat2(Fraction(1, 6), 0, 0, 1), identity_mod(6)
        shadow = shape_shadow(3, 1, 7)
        pairs = [(m, g), (g, m), (IDENTITY, identity_mod(1)), (identity_mod(1), IDENTITY), (shadow, shadow)]
        for x, y in pairs + [(v, 2) for v, *_ in value_cases()]:
            with pytest.raises(TypeError):
                x * y

    def test_immutable(self):
        for g, same, _, names in value_cases():
            for name in (*names, "other"):
                with pytest.raises(AttributeError):
                    setattr(g, name, 1)
            assert g == same

    def test_repr(self):
        g = ModMat(2, 3, 1, 2, 15)
        assert repr(g) == str(g) == "ModMat(2, 3, 1, 2, mod=15)"
        assert repr(Mat2(Fraction(1, 2), 0, 0, 2)) == "Mat2(1/2, 0, 0, 2)"
        # the text the frozen dataclass GaloisShadow printed
        assert repr(identity_shadow((1,), 5)) == (
            "GaloisShadow(support=(1,), components=(ModMat(1, 0, 0, 1, mod=5),), branch=1, det=1, level=5)"
        )
        assert repr(surjective_common_det((1, 2), 7)[3]) == (
            "GaloisShadow(support=(1, 2), components=(ModMat(3, 1, 6, 3, mod=7), ModMat(1, 2, 6, 1, mod=7)), "
            "branch=1, det=3, level=7)"
        )


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
}


@pytest.mark.parametrize("copier", list(COPIERS.values()), ids=list(COPIERS))
def test_values_copy_and_pickle(copier):
    point = LevelPoint.base(2, 7)
    values = [
        Mat2(Fraction(1, 2), -3, 0, Fraction(5, 6)),
        IDENTITY,
        ModMat(2, 3, 1, 2, 15),
        identity_shadow((1,), 5),
        surjective_common_det((1, 2), 7)[3],
        point,
        ApproxPoint(point),
    ]
    for v in values:
        w = copier(v)
        assert type(w) is type(v) and w == v and hash(w) == hash(v), v


def test_pickle_rebuilds_through_the_constructor():
    # a value forged past the constructor does not load: the stream is checked
    # like any other input
    identity = ModMat(1, 0, 0, 1, 5)
    forged = tuple.__new__(GaloisShadow, ((1,), (identity,), 1, 2, 5))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match="common determinant"):
            pickle.loads(pickle.dumps(forged, protocol))
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        copy.copy(tuple.__new__(ModMat, (1, 0, 0, 1, 0)))
