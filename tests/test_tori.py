import hashlib
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cmcurve import tori
from cmcurve.errors import NotSubdirect
from cmcurve.tori import (
    FiniteAbelianGroup,
    SignModule,
    Sublattice,
    goursat,
    hnf_columns,
    independent,
    kernel_basis,
    minimal_subtorus_check,
    span_subgroup,
    stable_saturation,
)
from oracles import goursat_elementwise, span_subgroup_bfs, subset_product_square_test


class TestLatticeAlgebra:
    def test_hnf_canonical_under_recombination(self):
        rng = random.Random(701)
        for _ in range(300):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            vecs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)]
            base = hnf_columns(vecs, n)
            # recombine generators unimodularly: same lattice, same basis
            recombined = list(vecs)
            for _ in range(6):
                i, j = rng.randrange(k), rng.randrange(k)
                t = rng.randint(-3, 3)
                if i != j:
                    recombined[i] = tuple(
                        a + t * b for a, b in zip(recombined[i], recombined[j])
                    )
            assert hnf_columns(recombined, n) == base

    def test_membership(self):
        L = Sublattice.from_vectors([(2, 0), (0, 3)], 2)
        assert L.contains((4, 3))
        assert not L.contains((1, 0))
        assert L.contains((0, 0))

    def test_kernel(self):
        # kernel of (1, 2, 3) in Z^3 is rank 2 and saturated
        ker = kernel_basis([[1, 2, 3]], 3)
        assert len(ker) == 2
        for v in ker:
            assert v[0] + 2 * v[1] + 3 * v[2] == 0
        K = Sublattice.from_vectors(ker, 3)
        assert K.contains((2, -1, 0)) and K.contains((3, 0, -1))


class TestIndependent:
    def test_examples(self):
        assert independent([1, 2, 3])
        assert not independent([1, 2, 3, 6])  # (-1)(-2)(-3)(-6) = 36 is square
        assert independent([5])

    def test_against_subset_product_oracle(self):
        from itertools import combinations

        universe = [1, 2, 3, 5, 6, 7, 10]
        for r in range(1, 5):
            for subset in combinations(universe, r):
                assert independent(subset) == subset_product_square_test(subset), subset


class TestStableSaturation:
    def test_diagonal_blows_up(self):
        # independent signs on Z^2: the diagonal saturates/stabilizes to Z^2
        M = SignModule(2, ((-1, 1), (1, -1)))
        L = Sublattice.from_vectors([(1, 1)], 2)
        assert stable_saturation(L, M) == Sublattice.full(2)

    def test_coordinate_lattice_fixed(self):
        M = SignModule(2, ((-1, 1),))
        L = Sublattice.from_vectors([(1, 0)], 2)
        assert stable_saturation(L, M) == L

    def test_zero(self):
        M = SignModule(3, ((-1, 1, 1),))
        Z = Sublattice.from_vectors([], 3)
        assert stable_saturation(Z, M) == Z

    def test_closure_operator(self):
        rng = random.Random(702)
        for _ in range(1000):
            n = rng.randint(1, 4)
            gens = tuple(
                tuple(rng.choice((1, -1)) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            )
            M = SignModule(n, gens)
            vecs = [
                tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            L = Sublattice.from_vectors(vecs, n)
            S = stable_saturation(L, M)
            assert L <= S  # extensive
            assert stable_saturation(S, M) == S  # idempotent
            bigger = Sublattice.from_vectors(list(vecs) + [tuple(rng.randint(-2, 2) for _ in range(n))], n)
            T = stable_saturation(bigger, M)
            assert S <= T  # monotone

    def test_saturated_and_stable(self):
        rng = random.Random(703)
        for _ in range(200):
            n = rng.randint(2, 4)
            M = SignModule(
                n,
                tuple(
                    tuple(rng.choice((1, -1)) for _ in range(n))
                    for _ in range(rng.randint(1, 3))
                ),
            )
            L = Sublattice.from_vectors(
                [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)], n
            )
            S = stable_saturation(L, M)
            for eps in M.generators:
                for col in S.basis:
                    assert S.contains(M.act(eps, col))
            # saturated: doubling any missing primitive vector cannot be inside
            for col in S.basis:
                half = tuple(x // 2 for x in col)
                if all(x % 2 == 0 for x in col) and any(half):
                    assert S.contains(half)


class TestMinimalSubtorus:
    def test_rank_one_tautology(self):
        assert minimal_subtorus_check(SignModule(1, ((-1,),)))

    def test_independent_signs_rank_two(self):
        M = SignModule(2, ((-1, 1), (1, -1)))
        assert minimal_subtorus_check(M)

    def test_equal_signs_fail(self):
        M = SignModule(2, ((-1, -1),))
        assert not minimal_subtorus_check(M)
        # the diagonal is the witness: stable and saturated with full projections
        diag = stable_saturation(Sublattice.from_vectors([(1, 1)], 2), M)
        assert diag.dim() == 1 and not diag.is_coordinate()

    def test_exhaustive_small_ranks(self):
        # with pairwise distinct characters all stable saturated sublattices
        # of Z^n are the 2^n coordinate ones, n <= 3: enumerate every probe
        for n in (2, 3):
            gens = tuple(
                tuple(-1 if i == j else 1 for i in range(n)) for j in range(n)
            )
            M = SignModule(n, gens)
            assert minimal_subtorus_check(M)
            seen = set()
            for v in product(range(-2, 3), repeat=n):
                if not any(v):
                    continue
                sat = stable_saturation(Sublattice.from_vectors([v], n), M)
                assert sat.is_coordinate()
                seen.add(sat.basis)
            # every nonzero coordinate pattern of a single generator appears
            assert len(seen) >= n

    def test_randomized_rank_four(self):
        gens = tuple(tuple(-1 if i == j else 1 for i in range(4)) for j in range(4))
        assert minimal_subtorus_check(SignModule(4, gens), probe_bound=2, samples=500)


class TestGoursat:
    def test_diagonal_z2(self):
        A = B = FiniteAbelianGroup((2,))
        data = goursat([((1,), (1,))], A, B)
        assert data.k1 == frozenset({(0,)})
        assert data.k2 == frozenset({(0,)})
        assert len(data.table) == 2

    def test_graph_of_times_three_mod_four(self):
        A = B = FiniteAbelianGroup((4,))
        data = goursat([((1,), (3,))], A, B)
        assert data.k1 == frozenset({(0,)})
        assert data.k2 == frozenset({(0,)})
        table = {min(ka)[0]: min(kb)[0] for ka, kb in data.table}
        assert table == {0: 0, 1: 3, 2: 2, 3: 1}

    def test_full_product(self):
        A, B = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
        data = goursat([((1,), (0,)), ((0,), (1,))], A, B)
        assert data.k1 == frozenset({(0,), (1,), (2,)})  # all of B
        assert data.k2 == frozenset({(0,), (1,)})  # all of A
        assert len(data.table) == 1  # trivial quotients

    def test_not_subdirect(self):
        A = B = FiniteAbelianGroup((4,))
        with pytest.raises(NotSubdirect) as exc:
            goursat([((2,), (0,))], A, B)
        assert exc.value.side in ("A", "B")

    def test_random_subdirect_products(self):
        rng = random.Random(704)
        shapes = [(2,), (4,), (2, 2), (3,), (6,), (8,), (2, 4), (3, 3)]
        done = 0
        while done < 150:
            A = FiniteAbelianGroup(rng.choice(shapes))
            B = FiniteAbelianGroup(rng.choice(shapes))
            gens = []
            for a in A.elements():
                gens.append((a, rng.choice(B.elements())))
            for b in B.elements():
                gens.append((rng.choice(A.elements()), b))
            rng.shuffle(gens)
            gens = gens[: max(3, len(gens) // 2)]
            sub = span_subgroup(gens, A, B)
            if len({x[0] for x in sub}) != A.order() or len({x[1] for x in sub}) != B.order():
                continue
            data = goursat(gens, A, B)  # raises ArithmeticError on any defect
            # |M| = |A| * |K1| and the table is a bijection of quotients
            assert len(sub) == A.order() * len(data.k1)
            assert len(sub) == B.order() * len(data.k2)
            assert len(data.table) == A.order() // len(data.k2)
            done += 1

    # each planted relation projects onto both factors but is no subgroup
    # graph, so only the named check can reject it
    @pytest.mark.parametrize(
        "moduli, planted, message",
        [
            ((4,), [(0, 0), (1, 1), (2, 2), (3, 3), (1, 3)], "not well defined"),
            ((2,), [(0, 0), (1, 1), (0, 1)], "not injective"),
            ((4,), [(0, 0), (1, 2), (2, 1), (3, 3)], "not a homomorphism"),
        ],
        ids=["well_defined", "injective", "homomorphism"],
    )
    def test_planted_relation_fails_its_check(self, monkeypatch, moduli, planted, message):
        group = FiniteAbelianGroup(moduli)
        sub = {((a,), (b,)) for a, b in planted}
        monkeypatch.setattr(tori, "span_subgroup", lambda generators, group_a, group_b: sub)
        with pytest.raises(ArithmeticError, match=message):
            goursat([], group, group)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


class TestLatticeOutputsUnchanged:
    # SHA-256 prefixes computed with the breadth-first span_subgroup; the
    # subgroups and Goursat data must not change with the algorithm.
    GOURSAT = {701: "676e85c745ea7278", 702: "f8c55fdef5b0fc78", 703: "c3cfce27b264f18d"}
    SPAN = {711: "221b5a567db450c9", 712: "e1f42ba18a4ebe10", 713: "6b2a86a6535b8ecd"}

    @pytest.mark.parametrize("seed", list(GOURSAT))
    def test_goursat_digest(self, seed):
        # drawn the way verify.check_goursat_random draws its instances
        rng = random.Random(seed)
        shapes = [(2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (3, 3), (9,), (2, 2, 2), (12,), (16,), (5,), (2, 8), (4, 4), (64,), (32,)]
        out = []
        while len(out) < 40:
            A = FiniteAbelianGroup(rng.choice(shapes))
            B = FiniteAbelianGroup(rng.choice(shapes))
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
            try:
                data = goursat(gens, A, B)
            except NotSubdirect as exc:
                out.append([A.moduli, B.moduli, exc.side])
                continue
            out.append(
                [
                    A.moduli,
                    B.moduli,
                    sorted(data.k1),
                    sorted(data.k2),
                    [[sorted(ka), sorted(kb)] for ka, kb in data.table],
                ]
            )
        assert _digest(out) == self.GOURSAT[seed]

    @pytest.mark.parametrize("seed", list(SPAN))
    def test_span_subgroup_digest(self, seed):
        # not subdirect in general: 0-4 generators with unreduced and
        # negative entries, moduli equal to 1, and the trivial group ()
        rng = random.Random(seed)
        shapes = [(), (1,), (2,), (5,), (1, 3), (4,), (2, 2), (6, 1), (3, 1, 2), (8,), (2, 4), (9,)]
        out = []
        for _ in range(150):
            A = FiniteAbelianGroup(rng.choice(shapes))
            B = FiniteAbelianGroup(rng.choice(shapes))
            if not out:  # the trivial group leads every seed
                A = B = FiniteAbelianGroup(())
            gens = [
                (
                    tuple(rng.randint(-2 * m, 2 * m) for m in A.moduli),
                    tuple(rng.randint(-2 * m, 2 * m) for m in B.moduli),
                )
                for _ in range(rng.randint(0, 4))
            ]
            out.append([A.moduli, B.moduli, gens, sorted(span_subgroup(gens, A, B))])
        assert _digest(out) == self.SPAN[seed]


@st.composite
def span_inputs(draw):
    """Two small groups (moduli may be 1, a factor may be trivial) and up to
    four generators with unreduced and negative entries."""
    moduli = st.lists(st.integers(1, 8), max_size=3)
    A = FiniteAbelianGroup(tuple(draw(moduli)))
    B = FiniteAbelianGroup(tuple(draw(moduli)))

    def entries(group):
        return st.tuples(*(st.integers(-3 * m, 3 * m) for m in group.moduli))

    gens = draw(st.lists(st.tuples(entries(A), entries(B)), max_size=4))
    return gens, A, B


class TestSpanSubgroup:
    @settings(max_examples=300, deadline=None)
    @given(span_inputs())
    def test_matches_bfs(self, case):
        gens, A, B = case
        assert span_subgroup(gens, A, B) == span_subgroup_bfs(gens, A, B)


@st.composite
def goursat_inputs(draw):
    """Drawn as test_random_subdirect_products draws its instances: every
    element of each factor paired with a random element of the other,
    shuffled, and the first half (at least three) kept."""
    shapes = st.sampled_from([(2,), (4,), (2, 2), (3,), (6,), (8,), (2, 4), (3, 3)])
    A = FiniteAbelianGroup(draw(shapes))
    B = FiniteAbelianGroup(draw(shapes))
    a_elts, b_elts = A.elements(), B.elements()
    gens = [(a, draw(st.sampled_from(b_elts))) for a in a_elts]
    gens += [(draw(st.sampled_from(a_elts)), b) for b in b_elts]
    gens = draw(st.permutations(gens))
    return gens[: max(3, len(gens) // 2)], A, B


class TestGoursatOracle:
    @settings(max_examples=200, deadline=None)
    @given(goursat_inputs())
    def test_matches_elementwise(self, case):
        gens, A, B = case
        try:
            expected = goursat_elementwise(gens, A, B)
        except NotSubdirect as exc:
            with pytest.raises(NotSubdirect) as got:
                goursat(gens, A, B)
            assert got.value.side == exc.side
            return
        data = goursat(gens, A, B)
        assert (data.k1, data.k2, data.table) == (expected.k1, expected.k2, expected.table)

    def test_builds_each_coset_once(self, monkeypatch):
        # |A| + |B| adds build the cosets, and two per pair of coset
        # representatives check the homomorphism
        add = FiniteAbelianGroup.add
        calls = 0

        def counting_add(self, x, y):
            nonlocal calls
            calls += 1
            return add(self, x, y)

        monkeypatch.setattr(FiniteAbelianGroup, "add", counting_add)
        # three random generators: kernels and quotients both vary in size
        rng = random.Random(705)
        shapes = [(8,), (2, 4), (16,), (4, 4), (2, 8), (32,), (64,), (2, 2, 2)]
        done = 0
        while done < 20:
            A = FiniteAbelianGroup(rng.choice(shapes))
            B = FiniteAbelianGroup(rng.choice(shapes))
            gens = [(rng.choice(A.elements()), rng.choice(B.elements())) for _ in range(3)]
            calls = 0
            try:
                data = goursat(gens, A, B)
            except NotSubdirect:
                continue
            quotient = len(data.table)
            assert calls <= A.order() + B.order() + 2 * quotient**2, (A, B, quotient)
            done += 1
