"""Algebraic laws of the level-N model, property-tested at N in {1, 5, 7, 15}.

Level 1 runs through the same code as the higher levels, so it is drawn
like any other level: every residue is 0 there and each law must still hold.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cmcurve.adele import AdelicMatrix, UnitPart, mul, reduce_level
from cmcurve.galois import (
    identity_shadow,
    mirror_shadow,
    shadow_act,
    shadow_eq,
    shadow_inv,
    shadow_mul,
    shadow_project,
    surjective_common_det,
)
from cmcurve.matrices import FLIP, Mat2, diag_mod, translation
from cmcurve.shimura import LevelPoint, QuadPoint, act_unit, point_eq, project

LEVELS = (1, 5, 7, 15)
SUPPORT = (1, 2)  # a good support at every level above
LAWS = settings(max_examples=25, deadline=None)


def coprime(n):
    return st.integers(1, 4).filter(lambda x: gcd(x, n) == 1)


def units(n, bound=30):
    return st.integers(-bound, bound).filter(lambda x: x and gcd(x, n) == 1)


@st.composite
def sl2(draw):
    g = translation(draw(st.integers(-3, 3)))
    for k in draw(st.lists(st.integers(-3, 3), max_size=2)):
        g = g * FLIP * translation(k)
    return g


@st.composite
def rational(draw, n):
    """An invertible rational matrix, integral and invertible at the primes
    of n: an SL2(Z) matrix times (x, y; 0, z) with x and z units at n."""
    x, z = (Fraction(draw(units(n, 4)), draw(coprime(n))) for _ in range(2))
    y = Fraction(draw(st.integers(-3, 3)), draw(coprime(n)))
    return draw(sl2()) * Mat2(x, y, 0, z)


@st.composite
def adelic(draw, n):
    return AdelicMatrix(draw(rational(n)), UnitPart(draw(units(n)), draw(sl2()), n), n)


@st.composite
def unit_matrix(draw, n):
    return diag_mod(draw(units(n)), n) * draw(sl2()).mod(n)


@st.composite
def point(draw, n):
    """A level point whose orbit frame is invertible mod n."""
    tau = QuadPoint(
        draw(st.sampled_from(SUPPORT)),
        Fraction(draw(st.integers(-3, 3)), draw(coprime(n))),
        Fraction(draw(coprime(n)), draw(coprime(n))),
    )
    return LevelPoint(tau, draw(adelic(n)), n)


@lru_cache(maxsize=None)
def common_det_shadows(n):
    out = surjective_common_det(SUPPORT, n)
    return [out[lam] for lam in sorted(out)]


@st.composite
def shadow(draw, n):
    table = common_det_shadows(n)
    s = draw(st.sampled_from(table))
    for t in draw(st.lists(st.sampled_from(table), max_size=2)):
        s = shadow_mul(s, t)
    return shadow_mul(s, mirror_shadow(SUPPORT, n)) if draw(st.booleans()) else s


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("n", LEVELS)
@LAWS
@given(data=st.data())
def test_reduce_level_of_products(n, data):
    a, b, c = (data.draw(adelic(n)) for _ in range(3))
    expected = reduce_level(a, n) * reduce_level(b, n) * reduce_level(c, n)
    assert reduce_level(mul(mul(a, b), c), n) == expected
    assert reduce_level(mul(a, mul(b, c)), n) == expected


@pytest.mark.parametrize("n", LEVELS)
@LAWS
@given(data=st.data())
def test_act_unit_composes(n, data):
    P, g, h = data.draw(point(n)), data.draw(unit_matrix(n)), data.draw(unit_matrix(n))
    assert point_eq(act_unit(g, act_unit(h, P)), act_unit(g * h, P))


@pytest.mark.parametrize("n", LEVELS)
@LAWS
@given(data=st.data())
def test_project_commutes_with_actions(n, data):
    P, g, sigma = data.draw(point(n)), data.draw(unit_matrix(n)), data.draw(shadow(n))
    for d in divisors(n):
        assert point_eq(project(act_unit(g, P), d), act_unit(g.reduce(d), project(P, d)))
        assert point_eq(
            project(shadow_act(sigma, P), d),
            shadow_act(shadow_project(sigma, d), project(P, d)),
        )


@pytest.mark.parametrize("n", LEVELS)
@LAWS
@given(data=st.data())
def test_shadow_group_laws(n, data):
    s, t, u = (data.draw(shadow(n)) for _ in range(3))
    assert shadow_eq(shadow_mul(shadow_mul(s, t), u), shadow_mul(s, shadow_mul(t, u)))
    assert shadow_eq(shadow_mul(s, shadow_inv(s)), identity_shadow(SUPPORT, n))
