"""Character-lattice combinatorics for products of norm-one tori.

The character module of one norm-one torus of an imaginary quadratic field
is Z with the nontrivial Galois element acting as -1; for a product the
acting group works through sign vectors.  The operations here decide, with
exact integer arithmetic, which sublattices of Z^n are stable and saturated,
and verify the Goursat decomposition of subdirect products of finite abelian
groups.  Everything reduces to Hermite normal forms over Z.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import NotSubdirect
from .numth import factor, is_squarefree

# -- exact integer linear algebra ------------------------------------------------


def _eliminate(cols, row):
    """Column Euclid at one row: unimodular operations on the given columns
    until at most one is nonzero at that row.  Returns that column, made
    positive there (None if there is none), and the columns zero there."""
    nonzero = [c for c in cols if c[row] != 0]
    zero = [c for c in cols if c[row] == 0]
    while len(nonzero) > 1:
        nonzero.sort(key=lambda c: abs(c[row]))
        p = nonzero[0]
        for c in nonzero[1:]:
            q = c[row] // p[row]
            if q:
                c[:] = [x - q * y for x, y in zip(c, p)]
        zero.extend(c for c in nonzero[1:] if c[row] == 0)
        nonzero = [p] + [c for c in nonzero[1:] if c[row] != 0]
    p = nonzero[0] if nonzero else None
    if p and p[row] < 0:
        p[:] = [-x for x in p]
    return p, zero


def hnf_columns(vectors, n):
    """Column-style Hermite normal form of the lattice spanned by the given
    vectors in Z^n: the canonical basis as a tuple of columns with strictly
    increasing pivot rows, positive pivots, and entries of earlier columns
    reduced at later pivot rows."""
    cols = [list(v) for v in vectors if any(v)]
    basis = []
    for row in range(n):
        p, cols = _eliminate(cols, row)
        if p is not None:
            basis.append((row, p))
    # reduce entries of earlier columns at later pivot rows
    for idx, (prow, p) in enumerate(basis):
        for _, c in basis[:idx]:
            q = c[prow] // p[prow]
            if q:
                c[:] = [x - q * y for x, y in zip(c, p)]
    return tuple(tuple(p) for _, p in basis)


def kernel_basis(rows, n):
    """A basis of the integer kernel {v in Z^n : row . v = 0 for all rows}.
    Kernels computed by unimodular column operations are saturated."""
    m = len(rows)
    cols = [
        [rows[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
        for j in range(n)
    ]
    for row in range(m):
        _, cols = _eliminate(cols, row)  # the pivot column is not in the kernel; drop it
    return tuple(tuple(c[m:]) for c in cols)


@dataclass(frozen=True, slots=True)
class SignModule:
    """Z^n with each generator acting by coordinatewise signs."""

    rank: int
    generators: tuple  # of sign vectors in {+-1}^rank

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(tuple(e) for e in self.generators))
        for eps in self.generators:
            if len(eps) != self.rank or any(e not in (1, -1) for e in eps):
                raise ValueError("generators must be +-1 vectors of full length")

    def act(self, eps, v):
        return tuple(e * x for e, x in zip(eps, v))


@dataclass(frozen=True, slots=True)
class Sublattice:
    """A sublattice of Z^n with a canonical (HNF) basis of columns."""

    rank: int
    basis: tuple

    @staticmethod
    def from_vectors(vectors, n) -> "Sublattice":
        return Sublattice(n, hnf_columns(vectors, n))

    @staticmethod
    def full(n) -> "Sublattice":
        return Sublattice.from_vectors(
            [tuple(int(i == j) for i in range(n)) for j in range(n)], n
        )

    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        """Membership: adjoining v must not change the canonical basis."""
        if not any(v):
            return True
        return hnf_columns(list(self.basis) + [tuple(v)], self.rank) == self.basis

    def is_coordinate(self) -> bool:
        """Is this a span of standard basis vectors?"""
        return all(
            sum(1 for x in col if x != 0) == 1 and max(map(abs, col)) == 1
            for col in self.basis
        )

    def __le__(self, other: "Sublattice") -> bool:
        return all(other.contains(col) for col in self.basis)


# -- independence of sqrt(-m) tuples ----------------------------------------------


def independent(ms) -> bool:
    """Do the -m_i span an F2-independent set in Q*/(Q*)^2?

    Coordinates: the sign bit and one parity bit per prime; independence is
    exactly the composite field having full degree 2^n.
    """
    ms = list(ms)
    if len(ms) != len(set(ms)):
        raise ValueError("entries must be distinct")
    if not all(is_squarefree(m) for m in ms):
        raise ValueError("entries must be square-free and positive")
    primes = sorted({p for m in ms for p in factor(m).primes()})
    index = {p: i + 1 for i, p in enumerate(primes)}
    vectors = []
    for m in ms:
        v = 1  # bit 0: the sign of -m
        for p in factor(m).primes():
            v |= 1 << index[p]
        vectors.append(v)
    pivots = []
    for v in vectors:
        cur = v
        for p in pivots:
            cur = min(cur, cur ^ p)
        if not cur:
            return False
        pivots.append(cur)
    return True


# -- stable saturation --------------------------------------------------------------


def stable_saturation(L: Sublattice, M: SignModule) -> Sublattice:
    """The smallest saturated, action-stable sublattice containing L.

    Close under the generators first, then saturate; saturation of a stable
    lattice is stable, so one round is enough.
    """
    n = M.rank
    basis = L.basis
    while True:
        vectors = set(basis)
        for eps in M.generators:
            vectors.update(M.act(eps, v) for v in basis)
        new_basis = hnf_columns(vectors, n)
        if new_basis == basis:
            break
        basis = new_basis
    if not basis:
        return Sublattice(n, ())
    # saturate: cut the rational span back to Z^n via a double kernel
    # (vectors orthogonal to the span, then their common kernel)
    equations = kernel_basis([list(col) for col in basis], n)
    if not equations:
        return Sublattice.full(n)
    saturated = kernel_basis(equations, n)
    return Sublattice.from_vectors(saturated, n)


def minimal_subtorus_check(
    M: SignModule, probe_bound: int = 3, samples: int = 200, seed: int = 0
) -> bool:
    """Is every action-stable saturated sublattice a coordinate sublattice?

    Verified by exhaustive single-generator probes with bounded entries (a
    failure witness, when one exists, already appears among saturations of
    single small vectors such as e_i + e_j) plus randomized multi-generator
    probes.  For pairwise-distinct coordinate characters the eigenspace
    decomposition forces the answer yes; a repeated character gives the
    stable saturated diagonal.
    """
    n = M.rank
    if n == 1:
        return True
    rng = random.Random(seed)
    rngs = range(-probe_bound, probe_bound + 1)
    for v in product(rngs, repeat=n):
        if not any(v):
            continue
        sat = stable_saturation(Sublattice.from_vectors([v], n), M)
        if not sat.is_coordinate():
            return False
    for _ in range(samples):
        k = rng.randint(2, n)
        vs = [
            tuple(rng.randint(-probe_bound, probe_bound) for _ in range(n))
            for _ in range(k)
        ]
        sat = stable_saturation(Sublattice.from_vectors(vs, n), M)
        if not sat.is_coordinate():
            return False
    return True


# -- Goursat ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups given by the tuple of moduli."""

    moduli: tuple

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")

    def elements(self):
        return list(product(*(range(m) for m in self.moduli)))

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def zero(self):
        return tuple(0 for _ in self.moduli)

    def order(self) -> int:
        out = 1
        for m in self.moduli:
            out *= m
        return out


@dataclass(frozen=True, slots=True)
class GoursatData:
    """K1 = ker(M -> A) inside B, K2 = ker(M -> B) inside A, and the graph
    of the induced isomorphism A/K2 -> B/K1 as a coset table."""

    k1: frozenset
    k2: frozenset
    table: tuple  # of (frozenset A-coset, frozenset B-coset)


def span_subgroup(generators, group_a: FiniteAbelianGroup, group_b: FiniteAbelianGroup):
    """The subgroup of A x B generated by the given pairs, as reduced pairs.

    The flattened generators and m_j e_j for each modulus m_j span a
    full-rank lattice in Z^n.  Column j of its Hermite normal form has its
    pivot d_j at row j, and d_j divides m_j, so the subgroup is the set of
    sums of c_j times column j, reduced, over 0 <= c_j < m_j / d_j."""
    moduli = group_a.moduli + group_b.moduli
    n, k = len(moduli), len(group_a.moduli)
    vectors = [tuple(a) + tuple(b) for a, b in generators]
    vectors += [tuple(m * (i == j) for i in range(n)) for j, m in enumerate(moduli)]
    elements = [(0,) * n]
    for j, col in enumerate(hnf_columns(vectors, n)):
        elements = [
            tuple((x + c * y) % m for x, y, m in zip(e, col, moduli))
            for e in elements
            for c in range(moduli[j] // col[j])
        ]
    return {(e[:k], e[k:]) for e in elements}


def _coset_map(group: FiniteAbelianGroup, kernel) -> dict:
    """Every element of the group mapped to its coset of the kernel subgroup,
    each coset built once and shared by its members."""
    cosets = {}
    for x in group.elements():
        if x not in cosets:
            c = frozenset(group.add(x, k) for k in kernel)
            cosets.update(dict.fromkeys(c, c))
    return cosets


def goursat(
    generators, group_a: FiniteAbelianGroup, group_b: FiniteAbelianGroup
) -> GoursatData:
    """Goursat decomposition of the subgroup generated inside A x B.

    The subgroup must project onto both factors (NotSubdirect names the
    failing side).  Returns the kernels and the graph of the isomorphism
    A/K2 -> B/K1, checked to be a well-defined bijective homomorphism by
    enumeration (ArithmeticError on a defect).
    """
    sub = span_subgroup(generators, group_a, group_b)
    if len({x[0] for x in sub}) != group_a.order():
        raise NotSubdirect("A")
    if len({x[1] for x in sub}) != group_b.order():
        raise NotSubdirect("B")
    zero_a, zero_b = group_a.zero(), group_b.zero()
    k1 = frozenset(b for a, b in sub if a == zero_a)
    k2 = frozenset(a for a, b in sub if b == zero_b)
    a_coset, b_coset = _coset_map(group_a, k2), _coset_map(group_b, k1)
    graph = {}
    for a, b in sub:
        ka, kb = a_coset[a], b_coset[b]
        if ka in graph and graph[ka] != kb:
            raise ArithmeticError("graph is not well defined")
        graph[ka] = kb
    if len(set(graph.values())) != len(graph):
        raise ArithmeticError("graph is not injective")
    reps = [(min(ka), min(kb)) for ka, kb in graph.items()]
    for a, img_a in reps:
        for b, img_b in reps:
            lhs = graph[a_coset[group_a.add(a, b)]]
            rhs = b_coset[group_b.add(img_a, img_b)]
            if lhs != rhs:
                raise ArithmeticError("graph is not a homomorphism")
    table = tuple(sorted(graph.items(), key=lambda t: sorted(t[0])))
    return GoursatData(k1, k2, table)
