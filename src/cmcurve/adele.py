"""Finite-level adelic matrix data.

An AdelicMatrix is a normal form r * d_delta * s:

  r      exact rational 2x2 matrix, nonzero determinant (lowest terms);
  d_delta the diagonal congruence unit diag(delta, 1), delta a unit mod the
         level N, denoting a profinite unit congruent to delta mod N and to
         1 at primes away from N;
  s      an exact integer matrix of determinant +1.

The congruence class of the diagonal part is the only ambiguity, and it sits
inside the principal level subgroup, so the data pins down a coset at level N
exactly.  Products and unit-side actions are therefore computed exactly mod N
(with a deterministic integral lift for the s part), while the rational part
is always carried exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import PrecisionObstruction
from .matrices import Mat2, ModMat, diag_mod, identity_mod, sl2_lift
from .numth import crt, factor, require_coprime

LevelMatrix = ModMat  # GL2 over Z/N with unit determinant


@dataclass(frozen=True, slots=True)
class UnitPart:
    """d_delta * s: a congruence unit times an integral determinant-one part."""

    delta: int
    s: Mat2
    level: int

    def __post_init__(self):
        n = self.level
        if n < 1:
            raise ValueError("level must be >= 1")
        object.__setattr__(self, "delta", self.delta % n)
        if gcd(self.delta, n) != 1:
            raise ValueError(f"delta must be a unit mod {n}")
        if not self.s.is_unimodular():
            raise ValueError("s must be an integer matrix of determinant +1")

    def mod(self, n: int) -> ModMat:
        """The reduction d_delta * s in GL2(Z/n) for n dividing the level."""
        if self.level % n:
            raise ValueError("reduction level must divide the stored level")
        return diag_mod(self.delta, n) * self.s.mod(n)

    def det_mod(self) -> int:
        return self.delta


@dataclass(frozen=True, slots=True)
class ShapeKind:
    """Torus/normalizer shape parameters: the square-free m and a branch sign."""

    m: int
    branch: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.branch not in (1, -1):
            raise ValueError("branch must be +-1")


@dataclass(frozen=True, slots=True)
class AdelicMatrix:
    r: Mat2
    u: UnitPart
    level: int

    def __post_init__(self):
        if self.level != self.u.level:
            raise ValueError("unit part level mismatch")
        if self.r.det_numerator() == 0:
            raise ValueError("rational part must be invertible")

    # -- constructions -------------------------------------------------------

    @staticmethod
    def identity(level: int) -> "AdelicMatrix":
        return AdelicMatrix(Mat2(1, 0, 0, 1), UnitPart(1, Mat2(1, 0, 0, 1), level), level)

    @staticmethod
    def from_rational(r: Mat2, level: int) -> "AdelicMatrix":
        return AdelicMatrix(r, UnitPart(1, Mat2(1, 0, 0, 1), level), level)

    @staticmethod
    def from_unit(delta: int, s: Mat2, level: int) -> "AdelicMatrix":
        return AdelicMatrix(Mat2(1, 0, 0, 1), UnitPart(delta, s, level), level)

    # -- views ----------------------------------------------------------------

    def rational_primes(self) -> set:
        """Primes where the rational part fails to be an integral unit.

        Factors the common denominator (the lcm of the entry denominators)
        and the determinant numerator, so its cost grows with the size of
        the rational data; checks against a level pass the same two ints to
        numth.require_coprime, which takes one gcd each."""
        primes = set(factor(self.r.den).primes())
        primes.update(factor(self.r.det_numerator()).primes())
        return primes

    def unit_mod(self, n: int) -> ModMat:
        return self.u.mod(n)

    def rational_mod(self, n: int) -> ModMat:
        return self.r.mod(n)


# -- operations ---------------------------------------------------------------


def reduce_level(g: AdelicMatrix, n: int) -> ModMat:
    """Exact image of g in GL2(Z/n).

    The congruence unit contributes its defining residue at primes shared
    with the stored level and 1 elsewhere; the rational and integral parts
    reduce directly.  Obstructed when n meets a denominator or determinant
    prime of the rational part, or when n demands a higher power of a shared
    prime than the stored level knows.
    """
    require_coprime(n, g.r.den, g.r.det_numerator())
    level = g.level
    delta_residues = []
    for p, e in factor(n).factors:
        if level % p == 0:
            ve = 0
            lv = level
            while lv % p == 0:
                lv //= p
                ve += 1
            if e > ve:
                raise PrecisionObstruction(p, f"level {n} needs p^{e} but only p^{ve} is stored")
            delta_residues.append((g.u.delta % p**e, p**e))
        else:
            delta_residues.append((1, p**e))
    delta_n = crt(delta_residues)[0]
    return g.r.mod(n) * diag_mod(delta_n, n) * g.u.s.mod(n)


def mul(g1: AdelicMatrix, g2: AdelicMatrix) -> AdelicMatrix:
    """Product in normal form.

    The rational part of g2 must commute past g1's unit part, which needs it
    integral and invertible at every prime of the level; otherwise the move
    is not exact and a PrecisionObstruction names the prime.  The result is
    exact as level-N data: its reduction mod any divisor of N equals the
    product of the factors' reductions.
    """
    if g1.level != g2.level:
        raise ValueError("level mismatch")
    n = g1.level
    rprime = g1.u.s * g2.r  # exact rational matrix
    require_coprime(n, rprime.den, rprime.det_numerator())
    r_new = g1.r * rprime
    if n == 1:  # keeps g2's s, where the general path would lift a fresh one
        return AdelicMatrix(r_new, UnitPart(1, g2.u.s, 1), 1)
    rp_mod = rprime.mod(n)
    conj = rp_mod.inv() * diag_mod(g1.u.delta, n) * rp_mod
    return _normal_form(r_new, conj * diag_mod(g2.u.delta, n) * g2.u.s.mod(n))


def _normal_form(r: Mat2, unit: ModMat) -> AdelicMatrix:
    """r times the level unit `unit`, its unit part written as d_delta * s:
    delta is the determinant and s a lift of diag(delta)^-1 * unit."""
    n = unit.n
    delta = unit.det()
    return AdelicMatrix(r, UnitPart(delta, sl2_lift(diag_mod(delta, n).inv() * unit), n), n)


def unit_rightmul(g: AdelicMatrix, h: ModMat) -> AdelicMatrix:
    """g * h for a level matrix h: acts on the unit part only."""
    n = g.level
    if h.n != n:
        raise ValueError("level mismatch")
    if n == 1:  # keeps g's s, where the general path would lift a fresh one
        return g
    if not h.is_unit():
        raise ValueError("level matrix must have unit determinant")
    return _normal_form(g.r, g.u.mod(n) * h)


def unit_leftmul(g: AdelicMatrix, h: ModMat) -> AdelicMatrix:
    """h * g for a unit-type level matrix h, rational part unchanged.

    Requires the rational part invertible mod the level so the unit can be
    conjugated past it.
    """
    n = g.level
    if h.n != n:
        raise ValueError("level mismatch")
    if n == 1:  # keeps g's s, where the general path would lift a fresh one
        return g
    if not h.is_unit():
        raise ValueError("level matrix must have unit determinant")
    require_coprime(n, g.r.den, g.r.det_numerator())
    rm = g.r.mod(n)
    return _normal_form(g.r, rm.inv() * h * rm * g.u.mod(n))


def rational_leftmul(g: AdelicMatrix, q: Mat2) -> AdelicMatrix:
    """q * g for exact rational q: folds into the rational part, no loss."""
    return AdelicMatrix(q * g.r, g.u, g.level)


# -- shape tests and related maps ----------------------------------------------


def shape_test(mat, kind: ShapeKind):
    """Membership of a matrix in the torus (branch +1) or twisted coset
    (branch -1) attached to sqrt(-m).

    Branch +1 means (x, m*y; -y, x); branch -1 means (x, m*y; y, -x).  The
    determinant must be invertible (a unit mod N for level matrices, nonzero
    for rational ones).  Returns (ok, witness) with witness = (x, y).
    """
    m = kind.m
    if isinstance(mat, ModMat):
        a, b, c, d, n = mat
        if kind.branch == 1:
            ok = (d - a) % n == 0 and (b + m * c) % n == 0
            witness = (a, (-c) % n)
        else:
            ok = (d + a) % n == 0 and (b - m * c) % n == 0
            witness = (a, c)
        return (ok and mat.is_unit(), witness if ok else None)
    # the conditions are homogeneous, so the integer numerators decide them
    a, b, c, d = mat.an, mat.bn, mat.cn, mat.dn
    if kind.branch == 1:
        ok = d == a and b == -m * c
    else:
        ok = d == -a and b == m * c
    if not (ok and a * d != b * c):
        return (False, None)
    return (True, (mat.a, -mat.c if kind.branch == 1 else mat.c))


def shape_matrix(x, y, m: int, branch: int = 1) -> Mat2:
    """The rational shape matrix with witness (x, y)."""
    if branch == 1:
        return Mat2(x, m * y, -y, x)
    return Mat2(x, m * y, y, -x)


def shape_matrix_mod(x: int, y: int, m: int, branch: int, n: int) -> ModMat:
    if branch == 1:
        return ModMat(x, m * y, -y, x, n)
    return ModMat(x, m * y, y, -x, n)


def shape_branch(mat, m: int):
    """The branch of a normalizer-shape matrix, or None if not a shape
    (branch +1 is tried first)."""
    for branch in (1, -1):
        ok, _ = shape_test(mat, ShapeKind(m, branch))
        if ok:
            return branch
    return None


def reciprocity_matrix(a, b, n: int) -> Mat2:
    """The torus matrix (a, n*b; -b, a); determinant is the norm a^2 + n*b^2."""
    mat = shape_matrix(a, b, n, 1)
    if mat.det() == 0:
        raise ValueError("norm vanishes")
    return mat


def in_gamma_tilde(mat: ModMat, n: int) -> bool:
    """Principal congruence membership: the matrix is the identity mod n."""
    if mat.n != n:
        raise ValueError("level mismatch")
    return mat == identity_mod(n)


def conj_by_dlambda(h: ModMat, lam: int) -> ModMat:
    """d_lambda^{-1} * h * d_lambda: (a, b; c, d) -> (a, b/lambda; lambda*c, d)."""
    a, b, c, d, n = h
    if gcd(lam, n) != 1:
        raise ValueError("lambda must be a unit")
    li = pow(lam, -1, n)
    return ModMat(a, b * li, c * lam, d, n)
