"""Seeded inputs and answer checks for the four benchmark workloads.

A workload hands out rounds.  A round is a fixed multiset of operation
classes in a seeded order; only the inputs and the order depend on the seed,
so every run measures the same mix.  Each operation is a zero-argument call
into the package, looked up through its module at call time (so traced
wrappers see it), plus a check that turns the raw result into a canonical
output and a failure reason (None when the answer is right).

Inputs are built from public constructors and, where an answer must be fixed
by construction (an equal pair, a fixed matrix, a related quadruple), from
public actions applied outside the timed region.  Checks use perfbench.check
only.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import check as C
from cmcurve import adele, approx, cli, galois, qforms, shimura, tori
from cmcurve.adele import AdelicMatrix, UnitPart
from cmcurve.approx import ApproxPoint
from cmcurve.galois import GaloisShadow
from cmcurve.matrices import Mat2, ModMat
from cmcurve.shimura import LevelPoint, QuadPoint

ORBITS = (1, 2, 3, 5, 6, 7)


class Op:
    """One closed-loop operation.  `run` is timed; `check(result)` is not and
    returns (canonical output, failure reason or None).  `level` is the level
    N the call works at, or None."""

    __slots__ = ("kind", "level", "run", "check")

    def __init__(self, kind, level, run, check):
        self.kind, self.level, self.run, self.check = kind, level, run, check


# -- canonical forms of outputs -------------------------------------------------------


def frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def ents(m):
    return [frac(v) if isinstance(v, Fraction) else v for v in m.entries]


def pt_canon(P):
    return [P.tau.m, frac(P.tau.p), frac(P.tau.q), ents(P.a.r), P.a.u.delta, ents(P.a.u.s), P.level]


def shadow_canon(s):
    return [list(s.support), [ents(c) for c in s.components], s.branch, s.det, s.level]


# -- random inputs --------------------------------------------------------------------


def units(n):
    return [x for x in range(1, n) if gcd(x, n) == 1]


def rand_sl2(rng, steps=3):
    """A small SL2(Z) matrix: a product of translations and the flip."""
    g = (1, 0, 0, 1)
    for _ in range(steps):
        k = rng.randint(-2, 2) or 1
        g = C.mat_mul(g, (1, k, 0, 1))
        g = C.mat_mul(g, (0, -1, 1, 0))
    return g


def rand_unit_mod(rng, n):
    while True:
        g = tuple(rng.randrange(n) for _ in range(4))
        if gcd(C.mat_det(g), n) == 1:
            return g


def rand_coprime_frac(rng, n, num_bound, den_bound, positive=False):
    while True:
        a = rng.randint(1 if positive else -num_bound, num_bound)
        b = rng.randint(1, den_bound)
        x = Fraction(a, b)
        if gcd(x.denominator, n) == 1 and (not positive or gcd(x.numerator, n) == 1):
            return x


def rand_rational(rng, n):
    """An invertible rational matrix whose denominators and determinant are
    prime to n (so points built on it reduce at level n)."""
    while True:
        r = tuple(rand_coprime_frac(rng, n, 2, 2) for _ in range(4))
        det = C.mat_det(r)
        if det != 0 and gcd(det.numerator, n) == 1 and gcd(det.denominator, n) == 1:
            return r


def rand_adelic(rng, n, rational=True):
    r = rand_rational(rng, n) if rational else (1, 0, 0, 1)
    s = rand_sl2(rng, rng.randint(1, 3))
    return AdelicMatrix(Mat2(*r), UnitPart(rng.choice(units(n)), Mat2(*s), n), n)


def rand_tau(rng, n, m, bound=9):
    """p + q*sqrt(-m) with numerators and denominators at most `bound` and a
    frame (q, p; 0, 1) invertible mod n."""
    p = rand_coprime_frac(rng, n, bound, bound)
    q = rand_coprime_frac(rng, n, bound, bound, positive=True)
    return QuadPoint(m, p, q)


def rand_point(rng, n, m=None):
    """A random point whose reduced form stays inside the package's documented
    discriminant bound (qforms.MAX_DISC); larger ones are refused by design."""
    m = m if m is not None else rng.choice(ORBITS)
    while True:
        P = LevelPoint(rand_tau(rng, n, m), rand_adelic(rng, n), n)
        if C.sigma_disc(C.Pt.of(P)) <= qforms.MAX_DISC:
            return P


def rand_shape(rng, m, n, branch=None):
    branch = branch if branch is not None else rng.choice((1, -1))
    while True:
        x, y = rng.randrange(n), rng.randrange(n)
        g = (x, m * y, -y, x) if branch == 1 else (x, m * y, y, -x)
        if gcd(C.mat_det(g), n) == 1:
            return g, branch


def rand_shadow(rng, m, n):
    g, branch = rand_shape(rng, m, n)
    return GaloisShadow((m,), (ModMat(*g, n),), branch, C.mat_det(g), n)


def fixed_matrix(rng, P):
    """A level matrix fixing P: a torus shape conjugated back by the
    base-frame coordinate."""
    n = P.level
    Q = C.Pt.of(P)
    amod = C.base_coordinate(Q)
    S, _ = rand_shape(rng, P.tau.m, n, branch=1)
    return C.mod_mul(C.mod_mul(C.mod_inv(amod, n), S, n), amod, n)


# -- checks shared by the library and CLI paths --------------------------------------------


def check_eq_witness(P1, P2, out, must_equal):
    """out is None or (q, integral) as exact tuples."""
    if out is None:
        return "equal by construction but no witness" if must_equal else None
    q, M = out
    return C.check_point_eq_witness(C.Pt.of(P1), C.Pt.of(P2), q, M)


def check_relation(rows, out, must_hold):
    """rows: [(s1, t1), (s2, t2)] as LevelPoints; out None or (lam, branch, r1, r2)."""
    if out is None:
        return "related by construction but no witness" if must_hold else None
    lam, branch, r1, r2 = out
    prs = [(C.Pt.of(s), C.Pt.of(t)) for s, t in rows]
    return C.check_relation_witness(prs, lam, branch, r1, r2)


def check_lift(rows, shadow):
    """rows as LevelPoints; shadow = (support, comps, branch, det, level)."""
    support, comps, branch, det, n = shadow
    bad = C.check_shadow(support, comps, branch, det, n)
    if bad:
        return bad
    table = dict(zip(support, comps))
    if any(s.tau.m not in table for s, _ in rows):
        return "lifted shadow misses an orbit of the table"
    return C.check_moves([(C.Pt.of(s), C.Pt.of(t)) for s, t in rows], lambda m: table[m])


def check_surjective(support, n, out):
    """out: {lam: (support, comps, branch, det, level)} for every unit lam."""
    if sorted(out) != (units(n) or [1]):
        return "keys are not the units mod n"
    for lam, (sup, comps, branch, det, level) in out.items():
        if tuple(sup) != tuple(support) or branch != 1 or det != lam % n or level != n:
            return f"shadow for {lam} has the wrong support, branch or det"
        bad = C.check_shadow(sup, comps, branch, det, n)
        if bad:
            return bad
    return None


# -- small-level: warm library calls over a pool of points ---------------------------------


SMALL_LEVELS = (5, 7, 11, 13, 35)
POOL_SIZE = 300


class SmallLevel:
    """Library calls at small levels over a fixed pool of points per level,
    with the caches warm across operations."""

    name = "small-level"
    entry_module = "cmcurve"
    cold = False
    # the hit ratio of _rigid_witnesses_cached climbs from 0.5 to its steady
    # 0.84 over the first 500 or so rounds; these run untimed
    warm_rounds = 500
    # about 50 000 operations a run; beyond p99 the slowest calls are a few
    # seed-specific heavy pool pairs (p99.9 spread 0.15 between seeds, p99 0.04)
    tail_percentile = 99

    def __init__(self, rng):
        self.rng = rng
        self.pool = {n: [rand_point(rng, n) for _ in range(POOL_SIZE)] for n in SMALL_LEVELS}
        self.by_orbit = {
            n: {m: [P for P in pts if P.tau.m == m] for m in ORBITS} for n, pts in self.pool.items()
        }

    def warm(self):
        """Fill the per-tau caches (form_of, reduce_form, automorphs) for
        every pool point, untimed, so the timed rounds start warm."""
        for pts in self.pool.values():
            for P in pts:
                shimura.point_eq_witness(P, P)

    def round(self):
        ops = []
        for n in SMALL_LEVELS:
            for make in (self.point_eq, self.fixed, self.act_unit, self.shadow_act,
                         self.mul, self.quotient, self.relation):
                ops.append(make(n))
        self.rng.shuffle(ops)
        return ops

    def pick(self, n):
        return self.rng.choice(self.pool[n])

    def point_eq(self, n):
        rng = self.rng
        P1 = self.pick(n)
        equal = rng.random() < 0.5
        P2 = shimura.act_rational(Mat2(*rand_sl2(rng)), P1) if equal else self.pick(n)

        def check(w):
            out = None if w is None else (w.q.entries, w.integral.entries)
            canon = None if w is None else [ents(w.q), ents(w.integral), w.level]
            return canon, check_eq_witness(P1, P2, out, equal)

        return Op("point_eq_witness", n, lambda: shimura.point_eq_witness(P1, P2), check)

    def fixed(self, n):
        rng = self.rng
        P = self.pick(n)
        g = fixed_matrix(rng, P) if rng.random() < 0.5 else rand_unit_mod(rng, n)
        truth = C.fixed_by(C.Pt.of(P), g)
        gm = ModMat(*g, n)

        def check(ans):
            return ans, None if ans == truth else f"is_fixed said {ans}"

        return Op("is_fixed", n, lambda: shimura.is_fixed(gm, P), check)

    def act_unit(self, n):
        P = self.pick(n)
        g = rand_unit_mod(self.rng, n)
        gm = ModMat(*g, n)

        def run():
            Q = shimura.act_unit(gm, P)
            return Q, shimura.component(Q)

        def check(res):
            Q, mu = res
            P0, Q0 = C.Pt.of(P), C.Pt.of(Q)
            want = C.mod_mul(P0.unit(), C.mod_inv(g, n), n)
            bad = C.check_unit_action(P0, Q0, want) or C.check_component(Q0, mu.mu)
            return [pt_canon(Q), mu.mu], bad

        return Op("act_unit", n, run, check)

    def shadow_act(self, n):
        P = self.pick(n)
        sigma = rand_shadow(self.rng, P.tau.m, n)

        def check(Q):
            P0 = C.Pt.of(P)
            want = C.twist_unit(P0, sigma.components[0].entries)
            return pt_canon(Q), C.check_unit_action(P0, C.Pt.of(Q), want)

        return Op("shadow_act", n, lambda: galois.shadow_act(sigma, P), check)

    def mul(self, n):
        g1, g2 = self.pick(n).a, self.pick(n).a

        def data(g):
            return (g.r.entries, g.u.delta, g.u.s.entries)

        def check(g):
            canon = [ents(g.r), g.u.delta, ents(g.u.s), g.level]
            return canon, C.check_product(data(g1), data(g2), data(g), n)

        return Op("adele.mul", n, lambda: adele.mul(g1, g2), check)

    def quotient(self, n):
        rng = self.rng
        P = self.pick(n)
        twist = rng.random() < 0.5
        g = (rng.choice(units(n)), 0, 0, 1) if twist else rand_unit_mod(rng, n)
        Q = shimura.act_unit(ModMat(*g, n), P)
        A, B = ApproxPoint(P), ApproxPoint(Q)

        def run():
            return approx.canonical_rep(A), approx.approx_eq(A, B)

        def check(res):
            rep, eq = res
            P0, R0 = C.Pt.of(P), C.Pt.of(rep)
            want = C.mod_mul(P0.unit(), C.mod_inv((P0.delta, 0, 0, 1), n), n)
            bad = C.check_unit_action(P0, R0, want)
            if bad is None and R0.delta % n != 1 % n:
                bad = "canonical representative has unit determinant != 1"
            truth = C.quotient_equal(P0, P0.unit(), C.Pt.of(Q))
            if bad is None and eq != truth:
                bad = f"approx_eq said {eq}"
            return [pt_canon(rep), eq], bad

        return Op("approx_eq", n, run, check)

    def relation(self, n):
        rng = self.rng
        s1 = self.pick(n)
        s2 = rng.choice(self.by_orbit[n][s1.tau.m])
        related = rng.random() < 0.5
        if related:
            sigma = rand_shadow(rng, s1.tau.m, n)
            t1, t2 = galois.shadow_act(sigma, s1), galois.shadow_act(sigma, s2)
        else:
            t1 = shimura.act_unit(ModMat(*rand_unit_mod(rng, n), n), s1)
            t2 = shimura.act_unit(ModMat(*rand_unit_mod(rng, n), n), s2)
        return relation_op(n, s1, s2, t1, t2, related)


def relation_op(n, s1, s2, t1, t2, related):
    pts = [ApproxPoint(P) for P in (s1, s2, t1, t2)]

    def check(w):
        out = None if w is None else (w.lam, w.branch, w.r1.entries, w.r2.entries)
        canon = None if w is None else [w.lam, w.branch, ents(w.r1), ents(w.r2)]
        return canon, check_relation([(s1, t1), (s2, t2)], out, related)

    return Op("relation_witness", n, lambda: approx.relation_witness(*pts), check)


# -- level-scaling: cold calls whose cost follows phi(N) --------------------------------------


SCALING_LEVELS = (101, 1001, 1009, 10007)
SCALING_ORBIT = 2


def disc8_point(rng, n):
    """A point over tau = gamma(sqrt(-2)): every such tau has discriminant -8,
    so the pairs in a quadruple are form-equivalent and reach the unit scan."""
    while True:
        gamma = rand_sl2(rng, rng.randint(1, 3))
        p, q = C.mobius(gamma, SCALING_ORBIT, Fraction(0), Fraction(1))
        if all(gcd(x, n) == 1 for x in (p.denominator, q.denominator, q.numerator)):
            return LevelPoint(QuadPoint(SCALING_ORBIT, p, q), rand_adelic(rng, n, rational=False), n)


class LevelScaling:
    """relation_witness, lift_automorphism and surjective_common_det at
    growing N, fresh inputs every time and the caches cleared before each
    call."""

    name = "level-scaling"
    entry_module = "cmcurve"
    cold = True
    warm_rounds = 0
    # 5 to 7 rounds of 12 operations a run: p80 keeps at least ten samples
    # beyond it and falls in the middle of the third-slowest class,
    # relation_witness at N = 10007, not on a boundary between classes
    tail_percentile = 80

    def __init__(self, rng):
        self.rng = rng
        self.rounds = 0

    def warm(self):
        pass

    def round(self):
        ops = []
        for i, n in enumerate(SCALING_LEVELS):
            ops.append(self.relation(n, related=(self.rounds + i) % 2 == 0))
            ops.append(self.lift(n))
            ops.append(self.surjective(n))
        self.rounds += 1
        self.rng.shuffle(ops)
        return ops

    def relation(self, n, related):
        rng = self.rng
        s1, s2 = disc8_point(rng, n), disc8_point(rng, n)
        if related:
            sigma = rand_shadow(rng, SCALING_ORBIT, n)
            t1, t2 = galois.shadow_act(sigma, s1), galois.shadow_act(sigma, s2)
        else:
            t1 = shimura.act_unit(ModMat(*rand_unit_mod(rng, n), n), s1)
            t2 = shimura.act_unit(ModMat(*rand_unit_mod(rng, n), n), s2)
        return relation_op(n, s1, s2, t1, t2, related)

    def lift(self, n):
        sigma = rand_shadow(self.rng, SCALING_ORBIT, n)
        return lift_op(n, sigma, approx.spanning_sample((SCALING_ORBIT,), n))

    def surjective(self, n):
        support = (1, 2)

        def check(out):
            data = {lam: shadow_canon(s) for lam, s in out.items()}
            return sorted(data.items()), check_surjective(support, n, data)

        return Op("surjective_common_det", n, lambda: galois.surjective_common_det(support, n), check)


def lift_op(n, sigma, sample):
    table = [(P, approx.shadow_act_approx(sigma, P)) for P in sample]
    rows = [(s.point, t.point) for s, t in table]

    def check(lifted):
        canon = shadow_canon(lifted)
        return canon, check_lift(rows, canon)

    return Op("lift_automorphism", n, lambda: approx.lift_automorphism(table), check)


# -- lattices: Goursat, stable saturation, independence -----------------------------------


ABELIAN = (
    (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2), (12,), (2, 6), (16,),
    (4, 4), (2, 8), (2, 2, 4), (24,), (2, 12), (32,), (4, 8), (2, 16), (2, 4, 4),
    (48,), (4, 12), (64,), (8, 8), (4, 16), (2, 32), (2, 4, 8), (4, 4, 4),
)


# the (A, B) shapes in a fixed shuffled order, one per round: Goursat cost
# spans two orders of magnitude across shapes, so drawing them from the seed
# would make the measured mix depend on it
GOURSAT_SHAPES = [(a, b) for a in ABELIAN for b in ABELIAN]
random.Random(0).shuffle(GOURSAT_SHAPES)


class Lattices:
    """tori.goursat on subdirect products of groups of order at most 64,
    stable_saturation in rank at most 4, and independent."""

    name = "lattices"
    entry_module = "cmcurve"
    cold = False
    warm_rounds = 0
    tail_percentile = 99  # about 3 500 operations a run

    def __init__(self, rng):
        self.rng = rng
        self.rounds = 0

    def warm(self):
        pass

    def round(self):
        ops = [self.goursat(), self.saturation(), self.independent()]
        self.rng.shuffle(ops)
        return ops

    def goursat(self):
        rng = self.rng
        ma, mb = GOURSAT_SHAPES[self.rounds % len(GOURSAT_SHAPES)]
        self.rounds += 1
        A, B = tori.FiniteAbelianGroup(ma), tori.FiniteAbelianGroup(mb)

        def rand_el(mods):
            return tuple(rng.randrange(m) for m in mods)

        def basis(mods):
            return [tuple(int(i == j) for i in range(len(mods))) for j in range(len(mods))]

        # one generator over each basis element of either factor makes the
        # subgroup subdirect; the extra pairs shrink the kernels at random
        gens = [(e, rand_el(mb)) for e in basis(ma)] + [(rand_el(ma), e) for e in basis(mb)]
        gens += [(rand_el(ma), rand_el(mb)) for _ in range(rng.randint(0, 2))]

        def check(g):
            canon = [sorted(g.k1), sorted(g.k2), [[sorted(a), sorted(b)] for a, b in g.table]]
            return canon, C.check_goursat(gens, ma, mb, g.k1, g.k2, g.table)

        return Op("goursat", None, lambda: tori.goursat(gens, A, B), check)

    def saturation(self):
        rng = self.rng
        n = rng.randint(1, 4)
        eps = [tuple(rng.choice((1, -1)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        L = tori.Sublattice.from_vectors(vecs, n)
        M = tori.SignModule(n, eps)

        def check(S):
            return [list(c) for c in S.basis], C.check_saturation(vecs, eps, S.basis, n)

        return Op("stable_saturation", None, lambda: tori.stable_saturation(L, M), check)

    def independent(self):
        rng = self.rng
        squarefree = [m for m in range(1, 101) if all(m % (p * p) for p in range(2, 11))]
        ms = rng.sample(squarefree, rng.randint(2, 4))
        truth = C.independent_truth(ms)

        def check(ans):
            return ans, None if ans == truth else f"independent said {ans}"

        return Op("independent", None, lambda: tori.independent(ms), check)


# -- cli-requests: whole requests through cmcurve.cli.main ----------------------------------


CLI_LEVELS = (5, 7, 11, 13)
EXIT_OK, EXIT_CHECK, EXIT_BAD, EXIT_OBSTRUCTED = 0, 1, 2, 3

# malformed or obstructed request kinds, one of each per round, with the exit
# code the CLI documents for them; KNOWN_DEFECTS are the kinds the ROADMAP
# records as crashing with a traceback (exit 1) today
MALFORMED = {
    "bad_json": EXIT_BAD,
    "schema_violation": EXIT_BAD,
    "lower_half_plane": EXIT_BAD,
    "precision_obstruction": EXIT_OBSTRUCTED,
    "p_zero_denominator": EXIT_BAD,
    "zero_unit": EXIT_BAD,
}
KNOWN_DEFECTS = ("p_zero_denominator", "zero_unit")
VALID_PER_ROUND = 9  # of each of the six subcommands: 54 valid + 6 malformed


def pt_json(P):
    return {
        "tau": {"m": P.tau.m, "p": frac(P.tau.p), "q": frac(P.tau.q)},
        "a": {
            "r": [frac(v) for v in P.a.r.entries],
            "delta": P.a.u.delta,
            "s": [int(v) for v in P.a.u.s.entries],
            "level": P.level,
        },
        "level": P.level,
    }


def shadow_json(s):
    return {
        "support": list(s.support),
        "components": [list(c.entries) for c in s.components],
        "branch": s.branch,
        "det": s.det,
        "level": s.level,
    }


def call_cli(argv, text):
    """cli.main in-process with stdin and stdout held in memory.  An exception
    escaping main is what the process would report as a traceback and exit 1."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the process would die with a traceback
                return 1, out.getvalue(), type(exc).__name__
    finally:
        sys.stdin = saved
    return code, out.getvalue(), None


def cli_op(kind, level, cmd, payload, expect_exit, judge):
    """judge(decoded stdout) -> reason or None, used when the exit code is
    the expected one and it is 0 or 1 (1 carries a check-failure report)."""
    text = payload if isinstance(payload, str) else json.dumps(payload)

    def check(res):
        code, out, crash = res
        canon = [code, out]
        if code != expect_exit:
            how = f"traceback {crash}" if crash else f"exit {code}"
            return canon, C.Crash(f"{how} (documented exit {expect_exit})")
        if expect_exit in (EXIT_OK, EXIT_CHECK):
            try:
                data = json.loads(out)
            except json.JSONDecodeError:
                return canon, "stdout is not JSON"
            return canon, judge(data)
        return canon, None

    return Op(kind, level, lambda: call_cli([cmd], text), check)


def j_frac(v):
    return Fraction(v[0], v[1])


class CliRequests:
    """A seeded mix of requests at small levels through cmcurve.cli.main,
    caches cleared before each one (a CLI process serves one request)."""

    name = "cli-requests"
    entry_module = "cmcurve.cli"
    cold = True
    warm_rounds = 0
    tail_percentile = 95  # about 900 requests a run; p95 falls among the relation requests

    def __init__(self, rng):
        self.rng = rng

    def warm(self):
        pass

    def round(self):
        ops = []
        for make in (self.point_eq, self.orbit, self.fixed, self.act, self.relation, self.lift):
            ops.extend(make(self.rng.choice(CLI_LEVELS)) for _ in range(VALID_PER_ROUND))
        ops.extend(self.malformed(kind, self.rng.choice(CLI_LEVELS)) for kind in MALFORMED)
        self.rng.shuffle(ops)
        return ops

    def point_eq(self, n):
        rng = self.rng
        P1 = rand_point(rng, n)
        equal = rng.random() < 0.5
        P2 = shimura.act_rational(Mat2(*rand_sl2(rng)), P1) if equal else rand_point(rng, n, P1.tau.m)

        def judge(d):
            if d["equal"] != (d["witness"] is not None):
                return "equal flag and witness disagree"
            w = d["witness"]
            out = None if w is None else (tuple(j_frac(v) for v in w["q"]), tuple(w["integral"]))
            return check_eq_witness(P1, P2, out, equal)

        return cli_op("point-eq", n, "point-eq", {"p1": pt_json(P1), "p2": pt_json(P2)}, EXIT_OK, judge)

    def orbit(self, n):
        rng = self.rng
        tau = rand_tau(rng, n, rng.choice(ORBITS))
        other = rand_tau(rng, n, rng.choice(ORBITS))
        payload = {"tau": pt_json(LevelPoint(tau, AdelicMatrix.identity(n), n))["tau"]}
        with_other = rng.random() < 0.5
        if with_other:
            payload["other"] = {"m": other.m, "p": frac(other.p), "q": frac(other.q)}

        def judge(d):
            want_r = [frac(tau.q), frac(tau.p), [0, 1], [1, 1]]
            norm = tau.p * tau.p + tau.m * tau.q * tau.q
            if d["n"] != tau.m or d["r"] != want_r or j_frac(d["norm_matrix_det"]) != norm:
                return "orbit data is wrong"
            if with_other and d.get("same_orbit") != (tau.m == other.m):
                return "same_orbit is wrong"
            return None

        return cli_op("orbit", n, "orbit", payload, EXIT_OK, judge)

    def fixed(self, n):
        rng = self.rng
        P = rand_point(rng, n)
        g = fixed_matrix(rng, P) if rng.random() < 0.5 else rand_unit_mod(rng, n)
        P0 = C.Pt.of(P)
        truth = C.fixed_by(P0, g)

        def judge(d):
            if d["fixed"] != truth:
                return f"fixed said {d['fixed']}"
            if tuple(d["coordinate_mod_level"]) != P0.full():
                return "coordinate mod level is wrong"
            return None

        return cli_op("fixed", n, "fixed", {"point": pt_json(P), "g": list(g)}, EXIT_OK, judge)

    def act(self, n):
        rng = self.rng
        P = rand_point(rng, n)
        P0 = C.Pt.of(P)
        payload = {"point": pt_json(P)}
        if rng.random() < 0.5:
            g = rand_unit_mod(rng, n)
            payload["unit"] = list(g)
            want = C.mod_mul(P0.unit(), C.mod_inv(g, n), n)
        else:
            sigma = rand_shadow(rng, P.tau.m, n)
            payload["shadow"] = shadow_json(sigma)
            want = C.twist_unit(P0, sigma.components[0].entries)

        def judge(d):
            Q0 = C.Pt.from_json(d["point"])
            return C.check_unit_action(P0, Q0, want) or C.check_component(Q0, d["component"])

        return cli_op("act", n, "act", payload, EXIT_OK, judge)

    def relation(self, n):
        rng = self.rng
        m = rng.choice(ORBITS)
        s1, s2 = rand_point(rng, n, m), rand_point(rng, n, m)
        related = rng.random() < 0.5
        if related:
            sigma = rand_shadow(rng, m, n)
            t1, t2 = galois.shadow_act(sigma, s1), galois.shadow_act(sigma, s2)
        else:
            t1 = shimura.act_unit(ModMat(*rand_unit_mod(rng, n), n), s1)
            t2 = shimura.act_unit(ModMat(*rand_unit_mod(rng, n), n), s2)
        payload = {k: pt_json(P) for k, P in zip(("s1", "s2", "t1", "t2"), (s1, s2, t1, t2))}

        def judge(d):
            out = None
            if d["holds"]:
                out = (d["lambda"], d["branch"], tuple(d["r1"]), tuple(d["r2"]))
            return check_relation([(s1, t1), (s2, t2)], out, related)

        return cli_op("relation", n, "relation", payload, EXIT_OK, judge)

    def lift(self, n):
        """A table from a known shadow; one request in three breaks the orbit
        of a row, which the CLI reports as a check failure (exit 1)."""
        rng = self.rng
        m = rng.choice(ORBITS)
        sigma = rand_shadow(rng, m, n)
        rows = [(s.point, approx.shadow_act_approx(sigma, s).point)
                for s in approx.spanning_sample((m,), n)]
        bad_row = rng.randrange(1, len(rows)) if rng.random() < 1 / 3 else None
        table = [{"s": pt_json(s), "t": pt_json(t)} for s, t in rows]
        if bad_row is not None:
            other = next(k for k in ORBITS if k != m)
            table[bad_row]["t"]["tau"]["m"] = other

        def judge(d):
            if bad_row is not None:
                if d != {"lifted": False, "violating_row": bad_row + 1}:
                    return "violating row is wrong"
                return None
            shadow = d["shadow"]
            data = (shadow["support"], shadow["components"], shadow["branch"], shadow["det"], n)
            if d["branch"] != shadow["branch"] or d["component_action"] != shadow["det"]:
                return "branch or component action disagree with the shadow"
            return check_lift(rows, data)

        expect = EXIT_OK if bad_row is None else EXIT_CHECK
        return cli_op("lift", n, "lift", {"table": table}, expect, judge)

    def malformed(self, kind, n):
        rng = self.rng
        P = rand_point(rng, n)
        cmd, payload = "fixed", {"point": pt_json(P), "g": [1, 0, 0, 1]}
        if kind == "bad_json":
            payload = json.dumps(payload)[: rng.randint(1, 40)]
        elif kind == "schema_violation":
            del payload["point"]["level"]
        elif kind == "lower_half_plane":
            payload["point"]["tau"]["q"] = [-rng.randint(1, 9), rng.randint(1, 9)]
        elif kind == "precision_obstruction":
            p = next(p for p in (2, 3, 5, 7, 11, 13) if n % p == 0)
            payload["point"]["a"]["r"] = [[1, 1], [1, p], [0, 1], [1, 1]]
        elif kind == "p_zero_denominator":
            cmd = rng.choice(("fixed", "act", "point-eq"))
            if cmd == "point-eq":
                payload = {"p1": pt_json(P), "p2": pt_json(P)}
                payload["p2"]["tau"]["p"] = [0, 0]
            else:
                payload = {"point": pt_json(P), "g": [1, 0, 0, 1]} if cmd == "fixed" else {"point": pt_json(P)}
                payload["point"]["tau"]["p"] = [0, 0]
        elif kind == "zero_unit":
            cmd, payload = "act", {"point": pt_json(P), "unit": [0, 0, 0, 0]}
        return cli_op(kind, n, cmd, payload, MALFORMED[kind], lambda d: None)


WORKLOADS = {w.name: w for w in (CliRequests, SmallLevel, LevelScaling, Lattices)}
