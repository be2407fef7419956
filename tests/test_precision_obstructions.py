"""One rule names the prime of every PrecisionObstruction: the smallest prime
of the level N that divides the offending data.  `numth.require_coprime` is
the only place that applies it; `adele.reduce_level`'s demand for a higher
prime power than the stored level knows is the one other obstruction."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import cmcurve
from cmcurve.adele import AdelicMatrix, UnitPart, mul, reduce_level, unit_leftmul
from cmcurve.errors import PrecisionObstruction
from cmcurve.galois import equalize_dets, identity_shadow, shadow_act
from cmcurve.matrices import IDENTITY, Mat2, identity_mod
from cmcurve.numth import require_coprime
from cmcurve.shimura import LevelPoint, QuadPoint, to_base_frame

PACKAGE = Path(cmcurve.__file__).parent
N = 35


def _constructions(tree):
    """(enclosing function, argument count) of each PrecisionObstruction(...)."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "PrecisionObstruction":
                out.append((func, len(node.args)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_one_function_names_the_prime():
    found = sorted(
        (str(path.relative_to(PACKAGE)), func, nargs)
        for path in sorted(PACKAGE.rglob("*.py"))
        for func, nargs in _constructions(ast.parse(path.read_text(), filename=str(path)))
    )
    assert found == [
        ("adele.py", "reduce_level", 2),  # needs p^e but only p^ve is stored
        ("numth.py", "require_coprime", 1),
    ]


def _prime(call, *args):
    try:
        call(*args)
    except PrecisionObstruction as e:
        return e.prime
    return None


@pytest.mark.parametrize(
    "xs,prime",
    [
        ((), None),
        ((1, 2, 3, 4, 6), None),
        ((0,), 5),
        ((7, 1), 7),
        ((14, 10), 5),
        ((-5,), 5),
    ],
)
def test_require_coprime(xs, prime):
    assert _prime(require_coprime, N, *xs) == prime
    assert _prime(require_coprime, 1, *xs) is None


# rational parts at N = 35, with the prime each rational-part check must name
RATIONAL_CASES = [
    (Mat2(Fraction(7, 5), 0, 0, Fraction(1, 5)), 5),  # 5 | den only, 7 | det only
    (Mat2(Fraction(5, 7), 0, 0, Fraction(1, 7)), 5),  # 5 | det only, 7 | den only
    (Mat2(Fraction(1, 7), 0, 0, 1), 7),
    (Mat2(7, 0, 0, 1), 7),
    (Mat2(Fraction(1, 35), 0, 0, 35), 5),
    (Mat2(2, Fraction(1, 3), 1, 2), None),
]


def _adelic(r):
    return AdelicMatrix(r, UnitPart(1, IDENTITY, N), N)


@pytest.mark.parametrize("r,prime", RATIONAL_CASES)
def test_rational_part_checks_name_the_same_prime(r, prime):
    g = _adelic(r)
    tau = QuadPoint(1, 0, 1)
    assert _prime(LevelPoint, tau, g, N) == prime
    assert _prime(mul, AdelicMatrix.identity(N), g) == prime
    assert _prime(reduce_level, g, N) == prime
    assert _prime(unit_leftmul, g, identity_mod(N)) == prime
    assert _prime(require_coprime, N, r.den, r.det_numerator()) == prime


@pytest.mark.parametrize(
    "p,q,prime",
    [
        (Fraction(1, 7), 5, 5),  # the frame (5, 1/7; 0, 1) meets both primes
        (Fraction(1, 5), 7, 5),
        (0, Fraction(7, 5), 5),
        (Fraction(1, 7), 1, 7),
        (Fraction(1, 3), Fraction(2, 9), None),
    ],
)
def test_frame_checks_name_the_same_prime(p, q, prime):
    P = LevelPoint(QuadPoint(1, p, q), AdelicMatrix.identity(N), N)
    assert _prime(to_base_frame, P) == prime
    assert _prime(shadow_act, identity_shadow((1,), N), P) == prime


@pytest.mark.parametrize(
    "hint,prime",
    [(Fraction(7, 5), 5), (Fraction(5, 7), 5), (Fraction(1, 7), 7), (Fraction(2, 9), None)],
)
def test_equalize_dets_names_the_hint_prime(hint, prime):
    assert _prime(equalize_dets, [(1, identity_mod(N))], [hint]) == prime
