"""Verification suites: every acceptance-grade property as a runnable check.

Each check is a function of a SuiteConfig returning a JSON-able detail dict
and raising CheckFailure with a counterexample on defect.  Obstructions
(bad levels, precision) are reported as their own status rather than as
failures; any other exception a check raises is a failure that names the
exception.  Randomness is always seeded from the config.

The brute-force reference computations (exhaustive reduction search, bounded
rational stabilizer scans, full shadow enumeration) are implemented here,
independent of the production paths they audit.
"""

from __future__ import annotations

import platform
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod

from . import adele, approx, galois, numth, qforms, shimura, tori
from .adele import ShapeKind, shape_matrix_mod, shape_test
from .errors import NormObstruction, Obstruction, PrecisionObstruction, RViolation
from .matrices import FLIP, IDENTITY, Mat2, ModMat, diag_mod, identity_mod, translation


class CheckFailure(Exception):
    def __init__(self, detail):
        self.detail = detail
        super().__init__(str(detail))


@dataclass(frozen=True, slots=True)
class SuiteConfig:
    """The seed of every check's randomness; each check fixes its own levels,
    supports and instance counts."""

    seed: int = 0

    def rng(self, salt: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + salt)


@dataclass
class CheckOutcome:
    name: str
    status: str  # pass | fail | obstructed
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "name": self.name,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


@dataclass
class Report:
    suite: str
    config: SuiteConfig
    checks: list

    def status(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "obstructed" for c in self.checks):
            return "obstructed"
        return "pass"

    def to_json(self):
        return {
            "suite": self.suite,
            "status": self.status(),
            "config": {"seed": self.config.seed},
            "checks": [c.to_json() for c in self.checks],
            "environment": {
                "python": sys.version.split()[0],
                "platform": platform.platform(),
            },
        }


def _units(n):
    """The units mod n, by direct scan (kept apart from numth.units_mod,
    which keys the answers the shadow checks audit)."""
    return [x for x in range(1, n) if gcd(x, n) == 1]


def _run(name, fn, cfg) -> CheckOutcome:
    start = time.perf_counter()
    try:
        detail = fn(cfg) or {}
        status = "pass"
    except CheckFailure as exc:
        detail = exc.detail
        status = "fail"
    except Obstruction as exc:
        detail = {"obstruction": str(exc)}
        status = "obstructed"
    except Exception as exc:  # a defect in the code under check, not bad input
        detail = {"exception": type(exc).__name__, "message": str(exc)}
        status = "fail"
    return CheckOutcome(name, status, time.perf_counter() - start, detail)


# ---------------------------------------------------------------- numth checks


def check_factor_roundtrip(cfg):
    rng = cfg.rng(1)
    for _ in range(10_000):
        n = rng.randint(1, 2**48) * rng.choice([1, -1])
        f = numth.factor(n)
        if f.value() != n or not all(numth.is_prime(p) for p in f.primes()):
            raise CheckFailure({"n": n})
    return {"instances": 10_000}


def check_jacobi_exhaustive(cfg):
    primes = [p for p in range(3, 200) if numth.is_prime(p)]
    for p in primes:
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            if numth.jacobi(a, p) != expect:
                raise CheckFailure({"a": a, "p": p})
    return {"primes": len(primes)}


def check_sqrt_mod_definitional(cfg):
    cases = 0
    for p in (3, 5, 7, 11, 13, 17, 19):
        k = 1
        while p ** (k + 1) <= 10_000:
            k += 1
        for kk in range(1, k + 1):
            pk = p**kk
            roots_of = {}
            for x in range(pk):
                roots_of.setdefault(x * x % pk, []).append(x)
            for a in range(pk):
                r = numth.sqrt_mod(a, p, kk)
                expect = roots_of.get(a, [])
                if r is None:
                    if expect:
                        raise CheckFailure({"a": a, "p": p, "k": kk})
                elif r.value * r.value % pk != a or r.value != min(expect):
                    raise CheckFailure({"a": a, "p": p, "k": kk, "got": r.value})
                cases += 1
    return {"cases": cases}


def check_hilbert_reciprocity(cfg):
    rng = cfg.rng(2)
    for _ in range(1000):
        a = Fraction(rng.randint(-100, 100) or 1, rng.randint(1, 100))
        b = Fraction(rng.randint(-100, 100) or 1, rng.randint(1, 100))
        prod = 1
        for place in numth.hilbert_places(a, b):
            prod *= numth.hilbert_symbol(a, b, place)
        if prod != 1:
            raise CheckFailure({"a": str(a), "b": str(b)})
    return {"pairs": 1000}


def hilbert_via_search(a: Fraction, b: Fraction, p: int) -> int:
    """Primitive solvability of z^2 = a x^2 + b y^2 mod p^k, square parts
    cleared first; k = 3 at odd p and 6 at p = 2 decide the symbol."""
    a, b = Fraction(a), Fraction(b)

    def vp(x):
        v, num, den = 0, x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    a = a * Fraction(p) ** (-2 * (vp(a) // 2))
    b = b * Fraction(p) ** (-2 * (vp(b) // 2))
    k = 6 if p == 2 else 3
    pk = p**k
    ai = a.numerator * pow(a.denominator, -1, pk) % pk
    bi = b.numerator * pow(b.denominator, -1, pk) % pk
    has_root = [False] * pk
    has_unit_root = [False] * pk
    for z in range(pk):
        v = z * z % pk
        has_root[v] = True
        if z % p:
            has_unit_root[v] = True
    for x in range(pk):
        ax = ai * x * x
        for y in range(pk):
            val = (ax + bi * y * y) % pk
            if (x % p or y % p) and has_root[val]:
                return 1
            if has_unit_root[val]:
                return 1
    return -1


def check_hilbert_brute_force(cfg):
    rng = cfg.rng(3)
    pairs = [(Fraction(-1), Fraction(-1)), (Fraction(2), Fraction(3)), (Fraction(-5), Fraction(3))]
    while len(pairs) < 25:
        pairs.append(
            (
                Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)),
                Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)),
            )
        )
    for a, b in pairs:
        for p in (2, 3):
            if numth.hilbert_symbol(a, b, p) != hilbert_via_search(a, b, p):
                raise CheckFailure({"a": str(a), "b": str(b), "p": p})
    return {"pairs": len(pairs), "places": [2, 3]}


# ---------------------------------------------------------------- qforms checks


def reduce_form_bfs(coeffs, entry_cap=50):
    """Exhaustive-search reduction over generator words with capped entries;
    the A + C + 2|B| metric is non-increasing along a reduction path, so the
    pruned region contains the canonical reduced form."""

    def is_reduced(t):
        A, B, C = t
        return abs(B) <= A <= C and not ((abs(B) == A or A == C) and B < 0)

    def step(f, g):
        A, B, C = f
        a, b, c, d = (int(x) for x in g.inv().entries)
        return (
            A * a * a + B * a * c + C * c * c,
            2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d,
            A * b * b + B * b * d + C * d * d,
        )

    cap = coeffs[0] + coeffs[2] + 2 * abs(coeffs[1]) + 2
    gens = [translation(1), translation(-1), FLIP]
    seen = {coeffs: IDENTITY}
    frontier = [(coeffs, IDENTITY)]
    while frontier:
        nxt = []
        for f, gamma in frontier:
            for g in gens:
                gamma2 = g * gamma
                if any(abs(x) > entry_cap for x in gamma2.entries):
                    continue
                f2 = step(f, g)
                if f2 in seen or f2[0] + f2[2] + 2 * abs(f2[1]) > cap:
                    continue
                seen[f2] = gamma2
                nxt.append((f2, gamma2))
        frontier = nxt
    found = sorted(t for t in seen if is_reduced(t))
    return (found[0], seen[found[0]]) if found else None


def check_reduction_oracle(cfg):
    """Criterion: reduce matches exhaustive-search reduction on every
    primitive positive-definite form with |disc| <= 400 in the coefficient
    box max(A, |B|, C) <= 20, transformation identity exact."""
    checked = 0
    for A in range(1, 21):
        for B in range(-20, 21):
            for C in range(1, 21):
                disc = B * B - 4 * A * C
                if disc >= 0 or disc < -400:
                    continue
                if gcd(gcd(A, B), C) != 1:
                    continue
                f = qforms.QuadForm(A, B, C)
                g, gamma = qforms.reduce_form(f)
                oracle = reduce_form_bfs((A, B, C))
                if oracle is None or g.coeffs() != oracle[0]:
                    raise CheckFailure({"form": (A, B, C), "got": g.coeffs(), "oracle": oracle and oracle[0]})
                if f.transform(gamma.inv()) != g:
                    raise CheckFailure({"form": (A, B, C), "bad_transform": True})
                checked += 1
    return {"forms": checked}


def check_reduction_properties(cfg):
    rng = cfg.rng(4)
    for _ in range(1000):
        while True:
            A, B, C = rng.randint(1, 30), rng.randint(-30, 30), rng.randint(1, 30)
            disc = B * B - 4 * A * C
            if -10_000 <= disc < 0 and gcd(gcd(A, B), C) == 1:
                break
        f = qforms.QuadForm(A, B, C)
        g, gamma = qforms.reduce_form(f)
        if not g.is_reduced() or f.transform(gamma.inv()) != g:
            raise CheckFailure({"form": (A, B, C)})
        g2, gamma2 = qforms.reduce_form(g)
        if g2 != g or gamma2 != IDENTITY:
            raise CheckFailure({"form": (A, B, C), "not_idempotent": True})
        tau = g.root()
        if abs(tau.p) > Fraction(1, 2) or tau.p * tau.p + tau.q * tau.q * tau.m < 1:
            raise CheckFailure({"form": (A, B, C), "outside_fundamental_domain": True})
    return {"instances": 1000}


def check_class_number_anchors(cfg):
    anchors = {-4: [(1, 0, 1)], -20: [(1, 0, 5), (2, 2, 3)], -23: [(1, 1, 6), (2, -1, 3), (2, 1, 3)]}
    for disc, expect in anchors.items():
        got = [f.coeffs() for f in qforms.reduced_forms(disc)]
        if got != expect:
            raise CheckFailure({"disc": disc, "got": got})
    return {"anchors": {str(d): len(v) for d, v in anchors.items()}}


def check_automorph_groups(cfg):
    rng = cfg.rng(5)
    sizes = {}
    for _ in range(300):
        while True:
            A, B, C = rng.randint(1, 12), rng.randint(-12, 12), rng.randint(1, 12)
            disc = B * B - 4 * A * C
            if disc < 0 and gcd(gcd(A, B), C) == 1:
                break
        f = qforms.QuadForm(A, B, C)
        auts = qforms.automorphs(f)
        if len(auts) not in (2, 4, 6):
            raise CheckFailure({"form": f.coeffs(), "count": len(auts)})
        entries = {g.entries for g in auts}
        for g in auts:
            if g.inv().entries not in entries or f.transform(g) != f:
                raise CheckFailure({"form": f.coeffs()})
        sizes[len(auts)] = sizes.get(len(auts), 0) + 1
    return {"sizes": sizes}


def check_cornacchia_exhaustive(cfg):
    ms = [m for m in range(1, 31) if numth.is_squarefree(m)]
    checked = 0
    for m in ms:
        representable = bytearray(10_001)
        x = 0
        while x * x <= 10_000:
            y = 0
            while x * x + m * y * y <= 10_000:
                representable[x * x + m * y * y] = 1
                y += 1
            x += 1
        for k in range(1, 10_001):
            got = qforms.cornacchia(m, k)
            if (got is not None) != bool(representable[k]):
                raise CheckFailure({"m": m, "k": k, "got": got})
            if got is not None and got[0] ** 2 + m * got[1] ** 2 != k:
                raise CheckFailure({"m": m, "k": k, "got": got, "identity": False})
            checked += 1
    return {"pairs": checked}


def cornacchia_exhaustive(m: int, k: int):
    """First solution of x^2 + m y^2 = k scanning y upward, or None."""
    y = 0
    while m * y * y <= k:
        rem = k - m * y * y
        x = isqrt(rem)
        if x * x == rem:
            return (x, y)
        y += 1
    return None


def rational_norm_search(m: int, k: Fraction, cmax: int = 12):
    """Search s = x/c, t = y/c with c <= cmax solving s^2 + m t^2 = k."""
    k = Fraction(k)
    for c in range(1, cmax + 1):
        target = k * c * c
        if target.denominator != 1:
            continue
        sol = cornacchia_exhaustive(m, int(target))
        if sol:
            return (Fraction(sol[0], c), Fraction(sol[1], c))
    return None


def check_rational_solver(cfg):
    ms = [1, 2, 3, 5, 6, 7, 10, 13, 15]
    instances = none_count = 0
    for m in ms:
        for w in range(1, 13):
            for u in range(1, 25):
                k = Fraction(u, w)
                sol = qforms.solve_form_rational(m, k)
                # independent oracle: denominator search c <= 12
                oracle = rational_norm_search(m, k)
                if oracle is not None and sol is None:
                    raise CheckFailure({"m": m, "k": str(k), "oracle": str(oracle)})
                if sol is not None:
                    s, t = sol
                    if s * s + m * t * t != k:
                        raise CheckFailure({"m": m, "k": str(k), "identity": False})
                else:
                    none_count += 1
                    place = qforms.norm_obstruction(m, k)
                    if place is None:
                        raise CheckFailure({"m": m, "k": str(k), "no_certificate": True})
                    # the certificate is itself verified: the symbol is -1 there
                    if numth.hilbert_symbol(-m, k, place) != -1:
                        raise CheckFailure({"m": m, "k": str(k), "bad_certificate": place})
                instances += 1
    return {"instances": instances, "obstructed": none_count}


# ---------------------------------------------------------------- point checks


def check_cm_count_level_one(cfg):
    for disc, h in ((-4, 1), (-20, 2), (-23, 3)):
        forms = qforms.reduced_forms(disc)
        pts = [shimura.LevelPoint(f.root(), adele.AdelicMatrix.identity(1), 1) for f in forms]
        classes = []
        for P in pts:
            if not any(shimura.point_eq(P, Q) for Q in classes):
                classes.append(P)
        if len(classes) != h or len(forms) != h:
            raise CheckFailure({"disc": disc, "classes": len(classes), "h": h})
    return {"discs": [-4, -20, -23]}


def _random_point(rng, n, ms):
    while True:
        m = rng.choice(ms)
        p = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        q = Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
        if gcd(p.denominator, n) != 1 or gcd(q.denominator * q.numerator, n) != 1:
            continue
        g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
        if not g.is_unit():
            continue
        try:
            P = shimura.LevelPoint(
                shimura.QuadPoint(m, p, q), adele.AdelicMatrix.identity(n), n
            )
        except PrecisionObstruction:
            continue
        return shimura.act_unit(g, P)


def check_point_eq_bounded_oracle(cfg):
    """point_eq against a direct scan of integral witnesses with entries
    bounded by 50, on a mixed sample of equal and unequal pairs."""
    rng = cfg.rng(7)
    matrices = []
    cap = 50
    for a in range(-cap, cap + 1):
        for c in range(-cap, cap + 1):
            if gcd(a, c) != 1:
                continue
            g, x, y = numth.ext_gcd(a, -c)
            for det in (1, -1):
                b0, d0 = y * det, x * det
                ts = set()
                for coord, base in ((a, b0), (c, d0)):
                    if coord:
                        lo = (-cap - base) // abs(coord) - 1
                        hi = (cap - base) // abs(coord) + 1
                        ts.update(range(lo, hi + 1))
                if not ts:
                    ts = {0}
                for t in ts:
                    b, d = b0 + t * a, d0 + t * c
                    if abs(b) <= cap and abs(d) <= cap and a * d - b * c == det:
                        matrices.append((a, b, c, d))
    matrices = sorted(set(matrices))
    pairs = []
    for n in (5, 7):
        for _ in range(3):
            P = _random_point(rng, n, (1, 2))
            pairs.append((P, P))
            pairs.append((P, shimura.act_rational(Mat2(1, 1, 0, 1), P)))
            pairs.append((P, _random_point(rng, n, (1, 2))))
            pairs.append((P, shimura.act_unit(diag_mod(2, n), P)))
    for P, Q in pairs:
        got = shimura.point_eq(P, Q)
        expect = _point_eq_scan(P, Q, matrices)
        if got != expect:
            raise CheckFailure({"pair": "mismatch", "got": got, "expect": expect})
    return {"pairs": len(pairs), "witness_matrices": len(matrices)}


def _point_eq_scan(P, Q, matrices):
    from cmcurve.shimura import _mobius

    n = P.level
    target = (Q.unit_matrix() * P.unit_matrix().inv()).entries
    r1i, r2 = P.a.r.inv(), Q.a.r
    for a, b, c, d in matrices:
        if n > 1 and (a % n, b % n, c % n, d % n) != target:
            continue
        M = Mat2(a, b, c, d)
        qmat = r2 * M * r1i
        if qmat.det() <= 0:
            continue
        p2, q2 = _mobius(qmat, P.tau.p, P.tau.q, P.tau.m)
        if q2 > 0 and (p2, q2) == (Q.tau.p, Q.tau.q):
            return True
    return False


def check_component_rules(cfg):
    rng = cfg.rng(8)
    for _ in range(200):
        n = rng.choice([5, 7, 12])
        P = _random_point(rng, n, (1, 2, 5))
        g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
        if not g.is_unit():
            continue
        Q = shimura.act_unit(g, P)
        mu_p, mu_q = shimura.component(P).mu, shimura.component(Q).mu
        if mu_q != mu_p * pow(g.det(), -1, n) % n:
            raise CheckFailure({"level": n, "mu_p": mu_p, "mu_q": mu_q})
        gamma = translation(rng.randint(-3, 3))
        if shimura.component(shimura.act_rational(gamma, P)).mu != mu_p:
            raise CheckFailure({"level": n, "rational_changed_mu": True})
    return {"instances": 200}


def check_functoriality(cfg):
    rng = cfg.rng(9)
    big, small = 15, 5
    shadows = galois.surjective_common_det((1, 2), big)
    units15 = _units(big)
    done = 0
    while done < 1000:
        m = rng.choice([1, 2])
        g = ModMat(*(rng.randrange(big) for _ in range(4)), big)
        if not g.is_unit():
            continue
        P = shimura.act_unit(g, shimura.LevelPoint.base(m, big))
        h = ModMat(*(rng.randrange(big) for _ in range(4)), big)
        if not h.is_unit():
            continue
        lhs = shimura.project(shimura.act_unit(h, P), small)
        rhs = shimura.act_unit(h.reduce(small), shimura.project(P, small))
        if not shimura.point_eq(lhs, rhs):
            raise CheckFailure({"op": "act_unit"})
        sigma = shadows[rng.choice(units15)]
        lhs = shimura.project(galois.shadow_act(sigma, P), small)
        rhs = galois.shadow_act(
            galois.shadow_project(sigma, small), shimura.project(P, small)
        )
        if not shimura.point_eq(lhs, rhs):
            raise CheckFailure({"op": "shadow_act"})
        if shimura.component(shimura.project(P, small)).mu != shimura.component(P).mu % small:
            raise CheckFailure({"op": "component"})
        done += 1
    return {"instances": done, "levels": [big, small]}


# ---------------------------------------------------------------- fixed points


def check_fixed_point_oracle(cfg):
    """is_fixed against a brute-force search over the mod-N residues of
    rational stabilizer elements with numerators and denominators bounded
    by 20, on 200 random (g, P) per level."""
    rng = cfg.rng(10)
    height = 20
    total = 0
    for n in (5, 7):
        residues = set()
        for num in range(-height, height + 1):
            for den in range(1, height + 1):
                if gcd(den, n) == 1:
                    residues.add(num * pow(den, -1, n) % n)
        shape_sets = {}
        for m in (1, 2):
            mats = set()
            for x in residues:
                for y in residues:
                    g = shape_matrix_mod(x, y, m, 1, n)
                    if g.is_unit():
                        mats.add(g)
            shape_sets[m] = mats
        done = 0
        while done < 100:
            P = _random_point(rng, n, (1, 2))
            g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
            if not g.is_unit():
                continue
            done += 1
            base = shimura.to_base_frame(P)
            amod = base.full_matrix()
            conj = amod * g * amod.inv()
            expect = conj in shape_sets[P.tau.m]
            got = shimura.is_fixed(g, P)
            if got != expect:
                raise CheckFailure({"level": n, "m": P.tau.m, "got": got})
            total += 1
    return {"instances": total, "height": height}


def check_fixed_point_covariance(cfg):
    rng = cfg.rng(11)
    done = 0
    while done < 200:
        n = rng.choice([5, 7])
        P = _random_point(rng, n, (1, 2))
        g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
        u = ModMat(*(rng.randrange(n) for _ in range(4)), n)
        if not (g.is_unit() and u.is_unit()):
            continue
        if shimura.is_fixed(g, P) != shimura.is_fixed(
            u.inv() * g * u, shimura.act_unit(u.inv(), P)
        ):
            raise CheckFailure({"level": n})
        done += 1
    return {"instances": done}


# ---------------------------------------------------------------- shadow checks


def all_shapes(m, n, branch=None):
    """Every normalizer shape mod n with unit determinant, with its branch."""
    out = []
    for b in (1, -1) if branch is None else (branch,):
        for x in range(n):
            for y in range(n):
                g = shape_matrix_mod(x, y, m, b, n)
                if g.is_unit():
                    out.append((g, b))
    return out


def all_shadows(support, n):
    """Every shadow datum over the support at level n (exhaustive)."""
    per = {m: all_shapes(m, n) for m in support}
    out = []
    for branch in (1, -1):
        for lam in _units(n):
            lists = [
                [g for g, b in per[m] if b == branch and g.det() == lam]
                for m in support
            ]
            combos = [[]]
            for lst in lists:
                combos = [c + [g] for c in combos for g in lst]
            for combo in combos:
                out.append(
                    galois.GaloisShadow(tuple(support), tuple(combo), branch, lam, n)
                )
    return out


def _same_action(s1, s2, sample):
    """Strict pointwise agreement of two shadows on a sample of approx points."""
    return all(
        shimura.point_eq(galois.shadow_act(s1, P.point), galois.shadow_act(s2, P.point))
        for P in sample
    )


def check_shadow_well_defined(cfg):
    """Shadow equality against its defining criterion, exhaustively over the
    normalizer shapes of sqrt(-1) mod 5; at this orbit the integral
    stabilizer fills the whole determinant-one torus, so equality also
    coincides with strict pointwise agreement on a spanning sample."""
    n = 5
    shapes = all_shapes(1, n)
    sample = approx.spanning_sample((1,), n)
    pairs = agree = 0
    for r, br in shapes:
        s_r = galois.GaloisShadow((1,), (r,), br, r.det(), n)
        for r2, br2 in shapes:
            s_r2 = galois.GaloisShadow((1,), (r2,), br2, r2.det(), n)
            ratio = r2 * r.inv()
            ok, _ = shape_test(ratio, ShapeKind(1, 1))
            criterion = ok and ratio.det() == 1 and br == br2
            got = galois.shadow_eq(s_r, s_r2)
            if got != criterion:
                raise CheckFailure({"r": r.entries, "r2": r2.entries})
            if got != _same_action(s_r, s_r2, sample):
                raise CheckFailure(
                    {"r": r.entries, "r2": r2.entries, "action_mismatch": True}
                )
            pairs += 1
            agree += got
    # sound direction at a second orbit: strict agreement implies equality
    shapes2 = all_shapes(2, n)
    sample2 = approx.spanning_sample((2,), n)
    for r, br in shapes2[:12]:
        s_r = galois.GaloisShadow((2,), (r,), br, r.det(), n)
        for r2, br2 in shapes2[:12]:
            s_r2 = galois.GaloisShadow((2,), (r2,), br2, r2.det(), n)
            if _same_action(s_r, s_r2, sample2) and not galois.shadow_eq(s_r, s_r2):
                raise CheckFailure({"unsound": (r.entries, r2.entries)})
    return {"pairs": pairs, "equal_pairs": agree}


def check_common_det_surjectivity(cfg):
    table = []
    for n in (7, 11, 13):
        units = _units(n)
        for size in (1, 2, 3, 4):
            for support in combinations((1, 2, 3, 5), size):
                if not galois.is_good_level(n, support):
                    continue
                shadows = galois.surjective_common_det(support, n)
                if sorted(shadows) != units:
                    raise CheckFailure({"level": n, "support": support})
                for lam, sigma in shadows.items():
                    if sigma.det != lam:
                        raise CheckFailure({"level": n, "support": support, "lam": lam})
                    for m, comp in zip(sigma.support, sigma.components):
                        ok, wit = shape_test(comp, ShapeKind(m, 1))
                        if not ok:
                            raise CheckFailure({"level": n, "m": m, "lam": lam})
                        x, y = wit
                        if (x * x + m * y * y) % n != lam:
                            raise CheckFailure({"level": n, "m": m, "lam": lam})
                table.append({"level": n, "support": list(support)})
    return {"configurations": len(table)}


def check_equalize_dets(cfg):
    n = 7
    r1 = ModMat(1, 2, -2, 1, n)
    r2 = identity_mod(n).scalar_mul(3)
    shadow, cert = galois.equalize_dets([(1, r1), (2, r2)], [5, 9])
    if shadow.det != 1 or not cert.verify():
        raise CheckFailure({"anchor": "det-5/9", "det": shadow.det})
    try:
        galois.equalize_dets([(2, shape_matrix_mod(1, 1, 2, 1, n))], [5])
        raise CheckFailure({"missing_obstruction": 5})
    except NormObstruction as exc:
        if exc.place != 5:
            raise CheckFailure({"wrong_place": exc.place})
    return {"anchors": 2}


# ---------------------------------------------------------------- exact sequence


def _torus_order(support, n):
    """Order of the branch +1, determinant 1 shadows expected from the
    product structure: the determinant-one shapes multiply over the support."""
    return prod(sum(g.det() == 1 for g, _ in all_shapes(m, n, 1)) for m in support)


def check_exact_sequence(cfg):
    n, support = 5, (1, 2)
    pool = all_shadows(support, n)
    ident = galois.identity_shadow(support, n)
    mirror = galois.mirror_shadow(support, n)
    branches = set()
    for sigma in pool:
        if galois.torus_kernel_test(sigma) != (galois.branch_map(sigma) == 1):
            raise CheckFailure({"kernel_mismatch": True})
        branches.add(galois.branch_map(sigma))
    if branches != {1, -1}:
        raise CheckFailure({"not_onto_c2": True})
    rng = cfg.rng(12)
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        if galois.branch_map(galois.shadow_mul(a, b)) != galois.branch_map(a) * galois.branch_map(b):
            raise CheckFailure({"not_homomorphism": True})
    if not galois.shadow_eq(galois.shadow_mul(mirror, mirror), ident):
        raise CheckFailure({"mirror_not_order_two": True})
    if galois.shadow_eq(mirror, ident):
        raise CheckFailure({"mirror_trivial": True})
    det1 = [s for s in pool if s.branch == 1 and s.det == 1]
    expect = _torus_order(support, n)
    if len(det1) != expect:
        raise CheckFailure({"torus_order": len(det1), "expect": expect})
    return {"shadows": len(pool), "torus_order": expect}


def check_torus_product_counts(cfg):
    out = {}
    for n in (5, 7):
        for support in ((1,), (1, 2), (1, 2, 3)):
            det1 = [s for s in all_shadows(support, n) if s.branch == 1 and s.det == 1]
            per = _torus_order(support, n)
            if len(det1) != per:
                raise CheckFailure({"level": n, "support": support})
            out[f"N={n},M={support}"] = per
    return out


# ---------------------------------------------------------------- lattice checks


def check_goursat_random(cfg):
    rng = cfg.rng(13)
    shapes = [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (3, 3), (9,), (2, 2, 2), (12,), (16,), (5,), (2, 8), (4, 4), (64,), (32,)]
    done = 0
    while done < 1000:
        A = tori.FiniteAbelianGroup(rng.choice(shapes))
        B = tori.FiniteAbelianGroup(rng.choice(shapes))
        if A.order() > 64 or B.order() > 64:
            continue
        gens = []
        a_elts, b_elts = A.elements(), B.elements()
        for a in a_elts:
            gens.append((a, rng.choice(b_elts)))
        for b in b_elts:
            gens.append((rng.choice(a_elts), b))
        rng.shuffle(gens)
        gens = gens[: max(3, len(gens) // 2)]
        sub = tori.span_subgroup(gens, A, B)
        if len({x[0] for x in sub}) != A.order() or len({x[1] for x in sub}) != B.order():
            continue
        data = tori.goursat(gens, A, B)
        if len(sub) != A.order() * len(data.k1) or len(sub) != B.order() * len(data.k2):
            raise CheckFailure({"A": A.moduli, "B": B.moduli})
        done += 1
    return {"instances": done}


def check_stable_saturated_coordinate(cfg):
    rng = cfg.rng(14)
    # n <= 3: exhaustive probes; with pairwise-distinct characters everything
    # stable saturated is a coordinate lattice, and all 2^n coordinate
    # lattices are stable and saturated
    for n in (2, 3):
        gens = tuple(tuple(-1 if i == j else 1 for i in range(n)) for j in range(n))
        M = tori.SignModule(n, gens)
        if not tori.minimal_subtorus_check(M, probe_bound=3, samples=500, seed=cfg.seed):
            raise CheckFailure({"n": n})
        for rbits in range(1 << n):
            cols = [
                tuple(int(i == j) for i in range(n))
                for j in range(n)
                if rbits >> j & 1
            ]
            L = tori.Sublattice.from_vectors(cols, n)
            if tori.stable_saturation(L, M) != L:
                raise CheckFailure({"n": n, "coordinate_not_closed": rbits})
    # n = 4: randomized probes
    gens = tuple(tuple(-1 if i == j else 1 for i in range(4)) for j in range(4))
    M = tori.SignModule(4, gens)
    done = 0
    for _ in range(10_000):
        k = rng.randint(1, 3)
        vs = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(k)]
        sat = tori.stable_saturation(tori.Sublattice.from_vectors(vs, 4), M)
        if not sat.is_coordinate():
            raise CheckFailure({"n": 4, "witness": vs})
        done += 1
    # dependent signs must fail
    bad = tori.SignModule(2, ((-1, -1),))
    if tori.minimal_subtorus_check(bad):
        raise CheckFailure({"dependent_signs_passed": True})
    return {"probes": done}


def subset_product_square_test(ms) -> bool:
    """Independence oracle: no nonempty subset of {-m} has square product."""
    for r in range(1, len(ms) + 1):
        for combo in combinations(ms, r):
            value = prod(-m for m in combo)
            if value > 0 and isqrt(value) ** 2 == value:
                return False
    return True


def check_independence(cfg):
    if not tori.independent([1, 2, 3]) or tori.independent([1, 2, 3, 6]):
        raise CheckFailure({"anchors": False})
    universe = [1, 2, 3, 5, 6, 7, 10]
    checked = 0
    for r in range(1, 5):
        for subset in combinations(universe, r):
            if tori.independent(subset) != subset_product_square_test(subset):
                raise CheckFailure({"subset": subset})
            checked += 1
    return {"subsets": checked}


# ---------------------------------------------------------------- relation checks


def _unit_pool(n, rng, size):
    mats = [identity_mod(n), ModMat(1, 1, 0, 1, n)]
    mats += [diag_mod(lam, n) for lam in _units(n) if lam != 1]
    while len(mats) < size:
        g = ModMat(*(rng.randrange(n) for _ in range(4)), n)
        if g.is_unit() and g not in mats:
            mats.append(g)
    return mats[:size]


def _class_key(u: ModMat, auts, n):
    """Canonical key of the approx class of [sqrt(-m), u]: minimum over the
    finite integral stabilizer on the left and diagonal twists on the right."""
    best = None
    for M in auts:
        left = M * u
        for lam in _units(n):
            cand = ModMat(left.a * lam, left.b, left.c * lam, left.d, n).entries
            if best is None or cand < best:
                best = cand
    return best


def _approx_points(pools, n):
    """Per orbit m, the approx points act_unit(u, base(m)) for u in pools[m]."""
    return {
        m: [approx.ApproxPoint(shimura.act_unit(u, shimura.LevelPoint.base(m, n))) for u in us]
        for m, us in pools.items()
    }


def check_relation_matches_search(cfg):
    """The four-point relation against exhaustive shadow search on >= 10^4
    CM tuples at level 5 over the orbits {1, 2}; zero disagreements."""
    n = 5
    rng = cfg.rng(15)
    shadows = all_shadows((1, 2), n)
    pools = {m: _unit_pool(n, rng, 10) for m in (1, 2)}
    points = _approx_points(pools, n)
    # canonical class keys: the coordinate of act_unit(u, base) is u^{-1},
    # and a shadow r sends it to r * u^{-1}; automorph x diagonal orbits key
    # the approx class exactly
    auts = {}
    for m in (1, 2):
        f = qforms.form_of(shimura.QuadPoint(m, 0, 1))
        auts[m] = [g.mod(n) for g in qforms.automorphs(f)]
    keys = {}
    for m in (1, 2):
        for i, u in enumerate(pools[m]):
            keys[(m, i)] = _class_key(u.inv(), auts[m], n)
    action = {}
    for si, sigma in enumerate(shadows):
        for m in (1, 2):
            r = sigma.component_for(m)
            for i, u in enumerate(pools[m]):
                action[(si, m, i)] = _class_key(r * u.inv(), auts[m], n)
    tuples = disagreements = 0
    idx = range(10)
    for i1 in idx:
        for j1 in idx:
            for i2 in idx:
                for j2 in idx:
                    got = approx.relation_R(
                        points[1][i1], points[2][i2], points[1][j1], points[2][j2]
                    )
                    expect = any(
                        action[(si, 1, i1)] == keys[(1, j1)]
                        and action[(si, 2, i2)] == keys[(2, j2)]
                        for si in range(len(shadows))
                    )
                    if got != expect:
                        disagreements += 1
                    tuples += 1
    if disagreements:
        raise CheckFailure({"tuples": tuples, "disagreements": disagreements})
    return {"tuples": tuples, "shadows": len(shadows)}


def check_relation_invariance(cfg):
    rng = cfg.rng(16)
    n = 5
    shadows = all_shadows((1, 2), n)
    points = _approx_points({m: _unit_pool(n, rng, 4) for m in (1, 2)}, n)
    done = 0
    while done < 1000:
        s1, t1 = rng.choice(points[1]), rng.choice(points[1])
        s2, t2 = rng.choice(points[2]), rng.choice(points[2])
        sigma = rng.choice(shadows)
        base = approx.relation_R(s1, s2, t1, t2)
        moved = approx.relation_R(
            approx.shadow_act_approx(sigma, s1),
            approx.shadow_act_approx(sigma, s2),
            approx.shadow_act_approx(sigma, t1),
            approx.shadow_act_approx(sigma, t2),
        )
        if moved != base:
            raise CheckFailure({"instance": done})
        done += 1
    return {"instances": done}


def check_faithfulness(cfg):
    n = 5
    sample = approx.spanning_sample((1,), n)
    ident = galois.identity_shadow((1,), n)
    mirror = galois.mirror_shadow((1,), n)
    mirror_trivial = all(
        approx.approx_eq(approx.shadow_act_approx(mirror, P), P) for P in sample
    )
    if mirror_trivial:
        raise CheckFailure({"mirror_not_separated": True})
    for sigma in all_shadows((1,), n):
        trivial = all(
            approx.approx_eq(approx.shadow_act_approx(sigma, P), P) for P in sample
        )
        if trivial != galois.shadow_eq(sigma, ident):
            raise CheckFailure({"sigma_det": sigma.det, "branch": sigma.branch})
        if not approx.faithfulness_check(sigma, sample):
            raise CheckFailure({"faithfulness": False})
    return {"shadows": len(all_shadows((1,), n)), "sample": len(sample)}


def check_lift_round_trip(cfg):
    n = 5
    sample = approx.spanning_sample((1, 2), n)
    count = 0
    for sigma in all_shadows((1, 2), n):
        table = [(P, approx.shadow_act_approx(sigma, P)) for P in sample]
        lifted = approx.lift_automorphism(table)
        if not galois.shadow_eq(lifted, sigma):
            raise CheckFailure({"det": sigma.det, "branch": sigma.branch})
        if lifted.det != sigma.det or lifted.branch != sigma.branch:
            raise CheckFailure({"witness_mismatch": True})
        count += 1
    return {"shadows": count}


def check_lift_rejections(cfg):
    n = 5
    s1, s2, bad_t2 = (
        approx.ApproxPoint(
            shimura.LevelPoint(shimura.QuadPoint(m, p, 1), adele.AdelicMatrix.identity(n), n)
        )
        for m, p in ((1, 1), (2, 2), (2, -2))
    )
    try:
        approx.lift_automorphism([(s1, s1), (s2, bad_t2)])
        raise CheckFailure({"missing_rviolation": True})
    except RViolation as exc:
        if exc.index != 2:
            raise CheckFailure({"wrong_index": exc.index})
    return {"anchors": 1}


# ---------------------------------------------------------------- suite registry


SUITES = {
    "numth": [
        ("factor_roundtrip", check_factor_roundtrip),
        ("jacobi_exhaustive", check_jacobi_exhaustive),
        ("sqrt_mod_definitional", check_sqrt_mod_definitional),
        ("hilbert_reciprocity", check_hilbert_reciprocity),
        ("hilbert_brute_force", check_hilbert_brute_force),
    ],
    "qforms": [
        ("reduction_oracle", check_reduction_oracle),
        ("reduction_properties", check_reduction_properties),
        ("class_number_anchors", check_class_number_anchors),
        ("automorph_groups", check_automorph_groups),
        ("cornacchia_exhaustive", check_cornacchia_exhaustive),
        ("rational_solver", check_rational_solver),
    ],
    "points": [
        ("cm_count_level_one", check_cm_count_level_one),
        ("point_eq_bounded_oracle", check_point_eq_bounded_oracle),
        ("component_rules", check_component_rules),
        ("functoriality", check_functoriality),
    ],
    "fixedpoints": [
        ("fixed_point_oracle", check_fixed_point_oracle),
        ("fixed_point_covariance", check_fixed_point_covariance),
    ],
    "shadows": [
        ("shadow_well_defined", check_shadow_well_defined),
        ("common_det_surjectivity", check_common_det_surjectivity),
        ("equalize_dets", check_equalize_dets),
    ],
    "exactseq": [
        ("exact_sequence", check_exact_sequence),
        ("torus_product_counts", check_torus_product_counts),
    ],
    "lattices": [
        ("goursat_random", check_goursat_random),
        ("stable_saturated_coordinate", check_stable_saturated_coordinate),
        ("independence", check_independence),
    ],
    "relationR": [
        ("relation_matches_search", check_relation_matches_search),
        ("relation_invariance", check_relation_invariance),
        ("faithfulness", check_faithfulness),
    ],
    "lift": [
        ("lift_round_trip", check_lift_round_trip),
        ("lift_rejections", check_lift_rejections),
    ],
}


def suite_names():
    return list(SUITES) + ["all"]


def run_suite(name: str, cfg: SuiteConfig) -> Report:
    if name == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    outcomes = [_run(check_name, fn, cfg) for check_name, fn in checks]
    return Report(name, cfg, outcomes)
