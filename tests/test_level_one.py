"""The trivial level N = 1, pinned.

GL2(Z/1Z) is trivial and every residue mod 1 is 0, so level 1 is the base of
the tower.  These tests record what every public operation returns, or which
exception it raises, at N = 1 on seeded random inputs (and on projections
from higher levels down to 1), and compare a SHA-256 digest of the whole
transcript with a pinned value.  Any change in a level-1 answer, a witness,
an exception type or its message changes the digest.
"""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from cmcurve import cli
from cmcurve.adele import (
    AdelicMatrix,
    UnitPart,
    conj_by_dlambda,
    mul,
    reduce_level,
    unit_leftmul,
    unit_rightmul,
)
from cmcurve.approx import (
    ApproxPoint,
    approx_eq,
    canonical_rep,
    curve_component,
    eval_curve,
    faithfulness_check,
    lift_automorphism,
    pair_witnesses,
    relation_witness,
    spanning_sample,
)
from cmcurve.errors import PrecisionObstruction
from cmcurve.galois import (
    GaloisShadow,
    equalize_dets,
    identity_shadow,
    mirror_shadow,
    shadow_act,
    shadow_eq,
    shadow_inv,
    shadow_mul,
    shadow_project,
    surjective_common_det,
)
from cmcurve.matrices import FLIP, IDENTITY, Mat2, ModMat, sl2_lift, translation
from cmcurve.shimura import (
    ComponentIndex,
    LevelPoint,
    QuadPoint,
    act_rational,
    act_unit,
    component,
    is_fixed,
    point_eq_witness,
    project,
    to_base_frame,
)

ORBITS = (1, 2, 3, 5, 6, 7)


SHADOW_FIELDS = ("support", "components", "branch", "det", "level")


def show(x) -> str:
    """A deterministic text form of a result: sets are sorted, dataclasses
    and shadows are spelled out field by field, exceptions by type and
    message."""
    if isinstance(x, BaseException):
        return f"raise {type(x).__name__}({x})"
    if isinstance(x, GaloisShadow):  # a tuple, spelled out as a dataclass is
        fields = ", ".join(f"{name}={show(v)}" for name, v in zip(SHADOW_FIELDS, x))
        return f"GaloisShadow({fields})"
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = ", ".join(f"{f.name}={show(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(show(v) for v in x)) + "}"
    if isinstance(x, dict):
        items = sorted((show(k), show(v)) for k, v in x.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(x, (Mat2, ModMat)):  # a tuple, but shown as the matrix it is
        return repr(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(show(v) for v in x) + "]"
    return repr(x)


class Transcript:
    def __init__(self):
        self.lines = []

    def call(self, name, fn, *args):
        """Record fn(*args) or the exception it raises; return the result
        (None after an exception)."""
        try:
            out = fn(*args)
        except Exception as exc:
            self.lines.append(f"{name}({', '.join(show(a) for a in args)}) -> {show(exc)}")
            return None
        self.lines.append(f"{name}({', '.join(show(a) for a in args)}) -> {show(out)}")
        return out

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


# -- seeded random inputs -------------------------------------------------------


def rand_frac(rng, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def rand_sl2(rng) -> Mat2:
    g = translation(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 3)):
        g = g * FLIP * translation(rng.randint(-3, 3))
    return g


def rand_rational(rng) -> Mat2:
    while True:
        r = Mat2(rand_frac(rng), rand_frac(rng), rand_frac(rng), rand_frac(rng))
        if r.det_numerator() != 0:
            return r


def rand_quad(rng) -> QuadPoint:
    return QuadPoint(rng.choice(ORBITS), rand_frac(rng), rand_frac(rng, 1, 4))


def rand_unit(rng, n) -> int:
    while True:
        x = rng.randint(-40, 40)
        if n == 1 or x % n and all(x % p for p in (2, 3, 5, 7) if n % p == 0):
            return x


def rand_adelic(rng, n) -> AdelicMatrix:
    """A random coordinate at level n, integral at the primes of n."""
    while True:
        r = rand_rational(rng) if n == 1 else rand_sl2(rng) * Mat2(rng.choice([1, 2, 3, 5, 7, 11]), 0, 0, 1)
        try:
            return AdelicMatrix(r, UnitPart(rand_unit(rng, n), rand_sl2(rng), n), n)
        except ValueError:
            continue


def rand_point(rng, n, m=None) -> LevelPoint:
    while True:
        tau = rand_quad(rng)
        if m is not None:
            tau = QuadPoint(m, tau.p, tau.q)
        try:
            return LevelPoint(tau, rand_adelic(rng, n), n)
        except PrecisionObstruction:
            continue


def rand_modmat(rng, n=1) -> ModMat:
    return ModMat(*(rng.randint(-20, 20) for _ in range(4)), n)


def rand_support(rng) -> tuple:
    return tuple(sorted(rng.sample(ORBITS, rng.randint(1, 3))))


def rand_shadow(rng, support, n=1) -> GaloisShadow:
    """A random shadow at level 1 (any matrices pass the shape tests), or the
    common-determinant shadow of a random unit at a level n > 1."""
    if n == 1:
        comps = tuple(rand_modmat(rng) for _ in support)
        return GaloisShadow(support, comps, rng.choice([1, -1]), rng.randint(-9, 9), 1)
    shadows = surjective_common_det(support, n)
    sigma = shadows[rng.choice(sorted(shadows))]
    return sigma if rng.random() < 0.5 else shadow_mul(sigma, mirror_shadow(support, n))


# -- the transcript ----------------------------------------------------------------


def level_one_transcript(seed: int) -> Transcript:
    rng = random.Random(seed)
    tr = Transcript()
    c = tr.call
    for _ in range(12):
        # constructors
        c("UnitPart", UnitPart, rng.randint(-9, 9), rand_sl2(rng), 1)
        c("UnitPart.det_mod", UnitPart.det_mod, UnitPart(rng.randint(-9, 9), rand_sl2(rng), 1))
        c("ComponentIndex", ComponentIndex, rng.randint(-9, 9), 1)
        c("ModMat", ModMat, *(rng.randint(-9, 9) for _ in range(4)), 1)

        # matrices
        r = rand_rational(rng)
        c("Mat2.mod", Mat2.mod, r, 1)
        c("Mat2.mod", Mat2.mod, rand_sl2(rng), 1)
        h = rand_modmat(rng)
        c("ModMat.inv", ModMat.inv, h)
        c("ModMat.reduce", ModMat.reduce, rand_modmat(rng, rng.choice([5, 6, 7])), 1)

        # adele
        g1, g2 = rand_adelic(rng, 1), rand_adelic(rng, 1)
        c("reduce_level", reduce_level, g1, 1)
        for n in (5, 6, 35):
            c("reduce_level", reduce_level, rand_adelic(rng, n), 1)
        c("mul", mul, g1, g2)
        c("unit_rightmul", unit_rightmul, g1, h)
        c("unit_leftmul", unit_leftmul, g2, rand_modmat(rng))
        c("unit_rightmul", unit_rightmul, g1, rand_modmat(rng, 5))
        c("conj_by_dlambda", conj_by_dlambda, rand_modmat(rng), rng.randint(-9, 9))

        # shimura
        P, Q = rand_point(rng, 1), rand_point(rng, 1)
        gamma = rand_sl2(rng)
        P2 = c("act_rational", act_rational, gamma, P)
        c("act_rational", act_rational, Mat2(2, 0, 0, 1), P)
        c("point_eq_witness", point_eq_witness, P, P2)
        c("point_eq_witness", point_eq_witness, P, Q)
        c("point_eq_witness", point_eq_witness, P, rand_point(rng, 1, P.tau.m))
        Pu = c("act_unit", act_unit, rand_modmat(rng), P)
        c("point_eq_witness", point_eq_witness, P, Pu)
        c("act_unit", act_unit, rand_modmat(rng, 5), P)
        c("is_fixed", is_fixed, rand_modmat(rng), P)
        c("component", component, P)
        c("component", component, Q)
        c("to_base_frame", to_base_frame, Q)
        c("full_matrix", LevelPoint.full_matrix, Q)
        c("unit_matrix", LevelPoint.unit_matrix, Q)
        c("project", project, P, 1)
        for n in (5, 6, 35):
            c("project", project, rand_point(rng, n), 1)

        # galois
        support = rand_support(rng)
        c("identity_shadow", identity_shadow, support, 1)
        c("mirror_shadow", mirror_shadow, support, 1)
        c("GaloisShadow", GaloisShadow, support, tuple(rand_modmat(rng) for _ in support),
          rng.choice([1, -1]), rng.randint(-9, 9), 1)
        s1, s2 = rand_shadow(rng, support), rand_shadow(rng, support)
        c("shadow_mul", shadow_mul, s1, s2)
        c("shadow_inv", shadow_inv, s1)
        c("shadow_eq", shadow_eq, s1, s2)
        c("shadow_eq", shadow_eq, s1, identity_shadow(support, 1))
        Pm = rand_point(rng, 1, rng.choice(support))
        c("shadow_act", shadow_act, s1, Pm)
        c("shadow_act", shadow_act, s1, rand_point(rng, 1, 10))
        c("shadow_project", shadow_project, s1, 1, support[:1])
        for n in (11, 13, 143):
            c("shadow_project", shadow_project, rand_shadow(rng, support, n), 1)
        entries = [(m, rand_modmat(rng)) for m in support]
        hints = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in support]
        c("equalize_dets", equalize_dets, entries, hints)
        c("equalize_dets", equalize_dets, entries, [Fraction(1)] * len(support))
        c("surjective_common_det", surjective_common_det, support, 1)

        # approx: B is the same class as A, C only shares its orbit
        A = ApproxPoint(P)
        B = ApproxPoint(act_rational(rand_sl2(rng), act_unit(rand_modmat(rng), P)))
        C = ApproxPoint(rand_point(rng, 1, P.tau.m))
        c("approx_eq", approx_eq, A, B)
        c("approx_eq", approx_eq, A, C)
        c("approx_eq", approx_eq, A, ApproxPoint(Q))
        c("canonical_rep", canonical_rep, A)
        c("canonical_rep", canonical_rep, ApproxPoint(Q))
        c("pair_witnesses", pair_witnesses, A, B)
        c("pair_witnesses", pair_witnesses, A, C)
        c("pair_witnesses", pair_witnesses, A, ApproxPoint(Q))
        label = curve_component(rand_modmat(rng), ComponentIndex(rng.randint(-9, 9), 1))
        c("eval_curve", eval_curve, label, A)
        c("eval_curve", eval_curve, label, ApproxPoint(Q))
        S = ApproxPoint(Q)
        T = ApproxPoint(shadow_act(rand_shadow(rng, (Q.tau.m,)), act_rational(rand_sl2(rng), Q)))
        c("relation_witness", relation_witness, A, S, B, T)
        c("relation_witness", relation_witness, A, A, B, B)
        c("relation_witness", relation_witness, A, S, C, T)
        c("relation_witness", relation_witness, A, S, B, ApproxPoint(rand_point(rng, 1)))
        c("lift_automorphism", lift_automorphism, [(A, B), (S, T)])
        c("lift_automorphism", lift_automorphism, [(A, B), (S, T), (A, C)])
        c("lift_automorphism", lift_automorphism, [(A, C)])
        c("spanning_sample", spanning_sample, support, 1)
        c("faithfulness_check", faithfulness_check, s1)
        c("faithfulness_check", faithfulness_check, identity_shadow(support, 1))
    return tr


# The digests of the level-1 answers as they stood when the transcript was
# written.  A refactoring must keep them; only a deliberate change of a
# level-1 answer may edit them, and it should say which answer changed.
TRANSCRIPT_DIGESTS = {
    0: "f27e429ebea4e8dba26a89f4a22cc25fe895a10dede6ebaf61a8210121f73659",
    1: "9826feffbe70e7eb62e849f3bdc40d0badc2fe99ca07df89e492be58abfe1fc3",
    2: "8147088a5380ba5dd755f3810dd5b98253fe70f3a213e74ea6a5840d8d41c969",
}


@pytest.mark.parametrize("seed", sorted(TRANSCRIPT_DIGESTS))
def test_level_one_transcript(seed):
    tr = level_one_transcript(seed)
    assert len(tr.lines) == 852
    assert tr.digest() == TRANSCRIPT_DIGESTS[seed]


def test_sl2_lift_at_level_one():
    # mul and the unit-side products never lift at level 1, so this is the
    # one place the lift's own level-1 answer shows
    for entries in ((0, 0, 0, 0), (1, 0, 0, 1), (3, -1, 4, 1)):
        assert sl2_lift(ModMat(*entries, 1)) == IDENTITY


# -- the six JSON subcommands at level 1 ----------------------------------------------


def _adelic(r, delta, s):
    return {"r": [[x, y] for x, y in r], "delta": delta, "s": s, "level": 1}


def _point(m, p, q, a):
    return {"tau": {"m": m, "p": p, "q": q}, "a": a, "level": 1}


P1 = _point(2, [1, 3], [2, 1], _adelic([(1, 2), (0, 1), (3, 1), (5, 4)], 7, [2, 1, 1, 1]))
P2 = _point(2, [-4, 1], [1, 5], _adelic([(2, 1), (1, 3), (0, 1), (1, 1)], -3, [1, 0, 4, 1]))
P3 = _point(1, [0, 1], [1, 1], _adelic([(1, 1), (0, 1), (0, 1), (1, 1)], 1, [1, 0, 0, 1]))
# P1 moved by tau -> tau + 1, with other unit data: the same class at level 1
P4 = _point(2, [4, 3], [2, 1], _adelic([(7, 2), (5, 4), (3, 1), (5, 4)], 5, [1, 1, 0, 1]))
SHADOW = {"support": [1, 2], "components": [[3, 1, 4, 1], [5, 9, 2, 6]], "branch": -1, "det": 8, "level": 1}

CLI_REQUESTS = [
    ("point-eq", {"p1": P1, "p2": P4}),
    ("orbit", {"tau": P1["tau"], "other": P3["tau"]}),
    ("fixed", {"g": [2, 7, 1, 8], "point": P1}),
    ("act", {"point": P1, "unit": [1, 2, 3, 4], "rational": [1, 1, 0, 1], "shadow": SHADOW,
             "project": 1, "canonicalize": True}),
    ("relation", {"s1": P1, "s2": P3, "t1": P4, "t2": P3}),
    ("lift", {"table": [{"s": P1, "t": P4}, {"s": P3, "t": P3}, {"s": P2, "t": P2}]}),
]

CLI_DIGEST = "991974c5dd1250ff73abbe0b325d6ce21c7a3de8519d16cd433f8a2d898edcb9"


def test_level_one_cli(tmp_path, capsys):
    codes, lines = [], []
    for cmd, payload in CLI_REQUESTS:
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(payload))
        dst.write_text("")
        code = cli.main([cmd, "--in", str(src), "--out", str(dst)])
        err = capsys.readouterr().err
        codes.append(code)
        lines.append(f"{cmd} -> {code}\n{dst.read_text()}{err}")
    assert codes == [cli.EXIT_OK] * len(CLI_REQUESTS)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CLI_DIGEST
