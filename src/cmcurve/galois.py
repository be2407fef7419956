"""Finite-level shadows of the Galois action on CM points.

A GaloisShadow is a finitely supported tuple of normalizer-shape matrices
mod N with a common determinant and a common branch sign.  It is the level-N
trace of a global automorphism of the CM locus: the branch realizes complex
conjugation, the determinant drives the permutation of components, and the
per-orbit matrices act on coordinates through the orbit base frame.

Shadow equality quotients by the level-N image of the rational stabilizer
with trivial determinant contribution; determinant and branch are genuine
invariants of the action (the component map separates determinants, and no
rational stabilizer element crosses branches), so they are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .adele import (
    ShapeKind,
    shape_branch,
    shape_matrix,
    shape_test,
    unit_leftmul,
)
from .errors import (
    LevelObstruction,
    NormObstruction,
    UnsupportedOrbit,
)
from .matrices import ModMat, _Value, identity_mod
from .numth import (
    factor,
    is_prime,
    is_squarefree,
    require_coprime,
    sqrt_mod_unchecked,
    units_mod,
)
from .qforms import norm_obstruction, solve_form_rational
from .shimura import LevelPoint, orbit_rep


def _check_support_and_level(support, level) -> None:
    """The argument checks a shadow needs before its components: distinct,
    square-free, positive support entries and an int level >= 1."""
    if len(support) != len(set(support)):
        raise ValueError("support must be distinct")
    for m in support:
        if not is_squarefree(m):  # also false at m <= 0
            raise ValueError("support entries must be square-free")
    if type(level) is not int or level < 1:
        raise ValueError("level must be an int >= 1")


class GaloisShadow(_Value):
    """A level-N shadow: the tuple (support, components, branch, det, level).

    support holds distinct square-free positive integers, in order, and
    components one ModMat per supported orbit; the fields are read-only
    views.  The public constructor is the boundary: it checks every field,
    and every shadow it returns has a unit det and components that pass the
    branch's shape test with that det.  Only surjective_common_det, whose
    tables build each shadow correct by construction, makes the tuple
    directly."""

    __slots__ = ()

    def __new__(cls, support, components, branch, det, level):
        if branch not in (1, -1):
            raise ValueError("branch must be +-1")
        _check_support_and_level(support, level)
        if len(support) != len(components):
            raise ValueError("support/component length mismatch")
        support, components = tuple(support), tuple(components)
        if type(det) is not int or not 0 <= det < level:
            # a det already in range keeps its object, shared with the
            # caller's lambda (surjective_common_det's keys)
            det %= level
        if gcd(det, level) != 1:
            raise ValueError("det must be a unit mod the level")
        for m, comp in zip(support, components):
            if comp.n != level:
                raise ValueError("component level mismatch")
            ok, _ = shape_test(comp, ShapeKind(m, branch))
            if not ok:
                raise ValueError(f"component for m={m} fails the branch {branch} shape test")
            if comp.det() != det:
                raise ValueError("components must share the common determinant")
        return tuple.__new__(cls, (support, components, branch, det, level))

    support = property(itemgetter(0))
    components = property(itemgetter(1))
    branch = property(itemgetter(2))
    det = property(itemgetter(3))
    level = property(itemgetter(4))

    def __repr__(self):
        return "GaloisShadow(support={!r}, components={!r}, branch={!r}, det={!r}, level={!r})".format(*self)

    def component_for(self, m: int) -> ModMat:
        try:
            return self.components[self.support.index(m)]
        except ValueError:
            raise UnsupportedOrbit(m) from None


def identity_shadow(support, level: int) -> GaloisShadow:
    return GaloisShadow(
        tuple(support),
        tuple(identity_mod(level) for _ in support),
        1,
        1 % level,
        level,
    )


def mirror_shadow(support, level: int) -> GaloisShadow:
    """The all-coordinates diag(-1, 1) shadow: the complex-conjugation class."""
    return GaloisShadow(
        tuple(support),
        tuple(ModMat(-1, 0, 0, 1, level) for _ in support),
        -1,
        (-1) % level,
        level,
    )


def shadow_mul(s1: GaloisShadow, s2: GaloisShadow) -> GaloisShadow:
    """Componentwise product; determinants multiply, branches multiply."""
    if s1.support != s2.support or s1.level != s2.level:
        raise ValueError("support/level mismatch")
    comps = tuple(a * b for a, b in zip(s1.components, s2.components))
    return GaloisShadow(
        s1.support,
        comps,
        s1.branch * s2.branch,
        s1.det * s2.det % s1.level,
        s1.level,
    )


def shadow_inv(s: GaloisShadow) -> GaloisShadow:
    comps = tuple(c.inv() for c in s.components)
    return GaloisShadow(s.support, comps, s.branch, pow(s.det, -1, s.level), s.level)


def shadow_act(sigma: GaloisShadow, P: LevelPoint) -> LevelPoint:
    """[tau, a] -> [tau, r_m a]: the shadow acts through the orbit frame.

    The per-orbit matrix lives over the base point sqrt(-m); for tau = f(
    sqrt(-m)) the acting matrix is the f-conjugate, then commuted past the
    rational part of the coordinate as a unit-side move.
    """
    if sigma.level != P.level:
        raise ValueError("level mismatch")
    tau, n = P.tau, P.level
    r = sigma.component_for(tau.m)
    require_coprime(n, tau.p.denominator, tau.q.denominator, tau.q.numerator)
    _, frame = orbit_rep(tau)
    fmod = frame.mod(n)
    acting = fmod * r * fmod.inv()
    return LevelPoint(tau, unit_leftmul(P.a, acting), n)


def shadow_eq(s1: GaloisShadow, s2: GaloisShadow) -> bool:
    """Equality of induced actions.

    Branch and determinant must agree (both are observable: the branch on
    mirrored pairs, the determinant on components); the per-orbit ratio must
    then be a branch +1 shape of determinant 1, the level-N image of the
    norm-one rational stabilizer absorbed by point equality.
    """
    if s1.support != s2.support or s1.level != s2.level:
        raise ValueError("support/level mismatch")
    if s1.branch != s2.branch:
        return False
    n = s1.level
    if s1.det != s2.det:
        return False
    for m, c1, c2 in zip(s1.support, s1.components, s2.components):
        ratio = c2 * c1.inv()
        ok, _ = shape_test(ratio, ShapeKind(m, 1))
        if not ok or ratio.det() != 1 % n:
            return False
    return True


# -- determinant equalization ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class NormalizationCertificate:
    """Per-orbit rational shape adjusters with their exact norms, certifying
    that the adjusted tuple has the stated common unit determinant."""

    adjusters: tuple  # of (m, Mat2, Fraction norm)
    target_det: int
    level: int

    def verify(self) -> bool:
        for m, g0, norm in self.adjusters:
            ok, wit = shape_test(g0, ShapeKind(m, 1))
            if not ok:
                return False
            x, y = wit
            if x * x + m * y * y != norm or g0.det() != norm:
                return False
        return True


def equalize_dets(entries, hints) -> tuple[GaloisShadow, NormalizationCertificate]:
    """Normalize a tuple of per-orbit normalizer matrices to a common unit
    determinant.

    entries: list of (m, ModMat) whose true determinants are hint_m * lambda
    for exact positive rationals hint_m and one common unit lambda; hints is
    the list of hint_m.  Each coordinate is multiplied by a rational shape
    matrix of norm 1/hint_m found by the local-global solver, so the adjusted
    determinants all become lambda exactly.  Raises NormObstruction with the
    failing place when some 1/hint_m is not a norm, PrecisionObstruction when
    an adjuster cannot be reduced at this level.
    """
    if len(entries) != len(hints):
        raise ValueError("entries/hints length mismatch")
    if not entries:
        raise ValueError("entries must be nonempty")
    n = entries[0][1].n
    branches = []
    lams = []
    for (m, mat), hint in zip(entries, hints):
        hint = Fraction(hint)
        if hint <= 0:
            raise ValueError("determinant hints must be positive rationals")
        branch = shape_branch(mat, m)
        if branch is None:
            raise ValueError(f"matrix for m={m} is not a normalizer shape")
        branches.append(branch)
        require_coprime(n, hint.numerator, hint.denominator)
        lams.append(mat.det() * pow(hint.numerator, -1, n) * hint.denominator % n)
    if len(set(branches)) != 1:
        raise ValueError("branch signs must be uniform for a common determinant")
    if len(set(lams)) != 1:
        raise ValueError("hints are inconsistent with a common unit determinant")
    lam = lams[0]
    adjusters = []
    comps = []
    for (m, mat), hint in zip(entries, hints):
        hint = Fraction(hint)
        sol = solve_form_rational(m, 1 / hint)
        if sol is None:
            raise NormObstruction(norm_obstruction(m, 1 / hint))
        s, t = sol
        g0 = shape_matrix(s, t, m)
        adjusters.append((m, g0, 1 / hint))
        comps.append(mat * g0.mod(n))
    shadow = GaloisShadow(
        tuple(m for m, _ in entries), tuple(comps), branches[0], lam, n
    )
    return shadow, NormalizationCertificate(tuple(adjusters), lam, n)


# -- common-determinant surjectivity ---------------------------------------------


def is_good_level(level: int, support) -> bool:
    prod = 2
    for m in support:
        prod *= m
    return gcd(level, 2 * prod) == 1


def norm_residue_witness(m: int, lam: int, p: int, k: int) -> tuple[int, int]:
    """(x, y) with x^2 + m*y^2 = lam mod p^k, for odd p not dividing m*lam
    (ValueError otherwise).

    A mod-p solution always exists (the conic has p - chi(-m) points); the
    coordinate with a unit value is lifted through powers of p.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    if m * lam % p == 0:
        raise ValueError("p must not divide m*lam")
    return _norm_residue(m, lam, p, k)


def _norm_residue(m: int, lam: int, p: int, k: int) -> tuple[int, int]:
    """norm_residue_witness for a p already proved an odd prime and k >= 1."""
    pk = p**k
    for y0 in range(p):
        t = (lam - m * y0 * y0) % p
        x0 = sqrt_mod_unchecked(t, p, 1)
        if x0 is None:
            continue
        if t:  # x-side is a unit: lift x with y frozen
            xk = x0 if k == 1 else sqrt_mod_unchecked(lam - m * y0 * y0, p, k)
            if xk is not None:
                return xk, y0
        if y0 and (lam - x0 * x0) % p:  # y-side unit: lift y with x frozen
            yk = sqrt_mod_unchecked((lam - x0 * x0) * pow(m, -1, pk), p, k)
            if yk is not None:
                return x0, yk
    raise ArithmeticError(f"no norm residue for lam={lam} mod {p}^{k}")  # pragma: no cover


def _canonical_roots(p: int, e: int) -> list:
    """roots[a] = sqrt_mod_unchecked(a, p, e) at every unit a mod p^e, p an
    odd prime (the x in [0, (p^e - 1)/2] with x^2 = a, or None), and 0, no
    unit's root, at every non-unit."""
    pe = p**e
    roots = [None] * pe
    for x in range((pe + 1) // 2):
        roots[x * x % pe] = x
    roots[::p] = [0] * (pe // p)
    return roots


def _norm_residue_table(m: int, p: int, e: int, roots) -> tuple[list, list]:
    """xs, ys with (xs[r], ys[r]) = _norm_residue(m, r, p, e) for every unit r
    mod p^e (0, 0 at the non-units); roots is _canonical_roots(p, e).

    _norm_residue takes the first y0 with r - m*y0^2 a square mod p (a unit
    is a square mod p exactly when it is one mod p^e), so the table is
    filled pass by pass over y0.  The y0 = 0 pass is roots itself: every
    square unit takes its own root and every non-unit (0, 0).  The pass for
    y0 reads roots[(r - m*y0^2) % p^e] off one rotated copy of roots at the
    slots still empty.  A hit with the root 0 is r = m*y0^2 mod p; there y
    is the canonical root of r/m (y0 itself at e = 1, since p - y0 would
    hit too).  After the passes for y0 = 1 and 2, about one residue in
    eight is left, and each of those scans y0 upward alone.
    """
    pe = p**e
    m %= pe
    m_inv = pow(m, -1, pe)
    xs = roots[:]
    ys = [0] * pe
    empty = [r for r, x in enumerate(xs) if x is None]
    for y0 in (1, 2):  # y0 < p, since p >= 3
        t = m * y0 * y0 % pe
        shifted = roots[pe - t :] + roots[: pe - t]  # shifted[r] = roots[(r - t) % pe]
        left = []
        for r in empty:
            x0 = shifted[r]
            if x0 is None:
                left.append(r)
            else:
                xs[r] = x0
                ys[r] = y0 if x0 else roots[r * m_inv % pe]
        empty = left
    for r in empty:
        for y0 in range(3, p):
            x0 = roots[(r - m * y0 * y0) % pe]
            if x0 is not None:
                xs[r] = x0
                ys[r] = y0 if x0 else roots[r * m_inv % pe]
                break
        else:  # pragma: no cover - the conic has p - chi(-m) points
            raise ArithmeticError(f"no norm residue for lam={r} mod {p}^{e}")
    return xs, ys


def _component_column(m: int, units: list, powers: list, level: int) -> list:
    """The branch +1 components (x, m*y; -y, x) of m over the units lambda
    mod the level, with x^2 + m*y^2 = lambda and (x, y) mod each p^e the
    table entry of m at lambda mod p^e.  powers holds, per prime power,
    (p, e, its CRT idempotent, _canonical_roots(p, e), lambda mod p^e per
    unit)."""
    if len(powers) == 1:  # a prime power: the idempotent is 1, lambda its own residue
        p, e, _, roots, _ = powers[0]
        xs, ys = _norm_residue_table(m, p, e, roots)
        x, y = list(map(xs.__getitem__, units)), list(map(ys.__getitem__, units))
    else:
        x = y = [0] * len(units)
        for p, e, idem, roots, residues in powers:
            xs, ys = _norm_residue_table(m, p, e, roots)
            x = [a + xs[r] * idem for a, r in zip(x, residues)]
            y = [b + ys[r] * idem for b, r in zip(y, residues)]
        x, y = [a % level for a in x], [b % level for b in y]
    new_modmat = tuple.__new__
    # each entry reduced, as ModMat(x, m * y, -y, x, level) would store it,
    # with one int object for a and d
    return [new_modmat(ModMat, (a, m * b % level, -b % level, a, level)) for a, b in zip(x, y)]


def surjective_common_det(support, level: int) -> dict:
    """For every unit lambda mod the level, a branch +1 shadow of common
    determinant lambda.

    Requires the good-level condition gcd(level, 2 * prod(support)) = 1;
    otherwise LevelObstruction (unit values of the norm form are constrained
    at shared primes and a single matrix witness need not exist).  For each
    support entry m and each prime power p^e of the level, one table holds
    norm_residue_witness(m, r, p, e) for every unit r mod p^e, filled by
    whole passes over one list of the canonical square roots mod p^e.

    The answer is then built a column at a time over the units, which the
    sieve of units_mod lists.  At a prime-power level the x and y columns
    are read straight off the tables.  At any other level each prime power
    adds its table column times its CRT idempotent, and the sums are
    reduced once.  One comprehension per support entry turns its two
    columns into the components, and the shadows are the rows of those
    component columns.

    The support and level are checked once, with GaloisShadow's messages,
    before the good-level test.  The shadows skip GaloisShadow's
    per-component checks: each component is a branch +1 shape with
    x^2 + m*y^2 = lambda, its det, by construction.  The tests rebuild
    every shadow through the public constructor and compare the answer
    with a per-lambda oracle and with frozen digests.
    """
    support = tuple(support)
    _check_support_and_level(support, level)
    if not is_good_level(level, support):
        raise LevelObstruction(level, support)
    units = units_mod(level)  # [0] at level 1: the det 1 % 1 of the key 1
    powers = []
    for p, e in factor(level).factors:
        pe = p**e
        cofactor = level // pe
        residues = [lam % pe for lam in units] if pe < level else units
        # one roots list per prime power: the support's tables share its ints
        powers.append((p, e, cofactor * pow(cofactor, -1, pe), _canonical_roots(p, e), residues))
    columns = [_component_column(m, units, powers, level) for m in support]
    del powers
    rows = zip(*columns) if columns else [()] * len(units)
    new_shadow = tuple.__new__
    # each det is its key's own object, and 1 % 1 = 0 at level 1
    keys = units if level > 1 else [1]
    return {
        lam: new_shadow(GaloisShadow, (support, comps, 1, det, level))
        for lam, det, comps in zip(keys, units, rows)
    }


# -- structure maps ---------------------------------------------------------------


def branch_map(sigma: GaloisShadow) -> int:
    """The sign character onto the two-element quotient."""
    return sigma.branch


def torus_kernel_test(sigma: GaloisShadow) -> bool:
    """Membership in the kernel of the branch character."""
    return sigma.branch == 1


def component_action(sigma: GaloisShadow) -> int:
    """The unit by which the shadow multiplies every component index."""
    return sigma.det


def shadow_project(sigma: GaloisShadow, new_level: int, new_support=None) -> GaloisShadow:
    """Restriction to a divisor level and/or a sub-support."""
    if new_level < 1 or sigma.level % new_level:
        raise ValueError("new level must divide the old one")
    support = tuple(new_support) if new_support is not None else sigma.support
    comps = []
    for m in support:
        comps.append(sigma.component_for(m).reduce(new_level))
    return GaloisShadow(
        support,
        tuple(comps),
        sigma.branch,
        sigma.det % new_level,
        new_level,
    )
