import random
from fractions import Fraction

import pytest

from superseq.linalg import (
    RationalMatrix,
    Subspace,
    image,
    image_of_subspace,
    induced_map,
    kernel,
    preimage,
    quotient,
    rank,
    rref,
)

from oracles import zassenhaus_intersection_dim


def M(rows):
    return RationalMatrix.from_rows(rows)


def span(n, *vectors):
    return Subspace.from_vectors(n, vectors)


class TestRref:
    def test_rank_one_dependency(self):
        reduced, pivots = rref(M([[2, 4], [1, 2]]))
        assert reduced == M([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_identity_fixed(self):
        ident = RationalMatrix.identity(3)
        reduced, pivots = rref(ident)
        assert reduced == ident
        assert pivots == (0, 1, 2)

    def test_row_swap(self):
        reduced, _ = rref(M([[0, 1], [1, 0]]))
        assert reduced == RationalMatrix.identity(2)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            once, piv1 = rref(M(rows))
            twice, piv2 = rref(once)
            assert once == twice and piv1 == piv2


class TestKernel:
    def test_row_vector(self):
        assert kernel(M([[1, 1]])) == span(2, (1, -1))

    def test_zero_matrix(self):
        assert kernel(RationalMatrix.zeros(2, 2)) == Subspace.full(2)

    def test_identity(self):
        assert kernel(RationalMatrix.identity(2)) == Subspace.zero(2)

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(30):
            r = rng.randint(0, 4)
            c = rng.randint(1, 5)
            m = M([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]) \
                if r else RationalMatrix.zeros(0, c)
            assert rank(m) + kernel(m).dim == c


class TestPreimage:
    def test_identity_map(self):
        w = span(2, (1, 3))
        assert preimage(RationalMatrix.identity(2), w) == w

    def test_derived_full_space(self):
        # m sends e1 to e2 and e2 to 0; everything maps into span{e2}
        m = M([[0, 0], [1, 0]])
        assert preimage(m, span(2, (0, 1))) == Subspace.full(2)

    def test_zero_target(self):
        m = RationalMatrix.identity(2)
        assert preimage(m, Subspace.zero(2)) == Subspace.zero(2)

    def test_contains_kernel(self):
        rng = random.Random(3)
        for _ in range(20):
            m = M([[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)])
            w = Subspace.from_vectors(3, [[rng.randint(-2, 2) for _ in range(3)]])
            assert preimage(m, w).contains(kernel(m))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            preimage(M([[1, 0]]), span(2, (1, 0)))


class TestLattice:
    def test_axes_intersect_to_zero(self):
        assert span(2, (1, 0)).intersect(span(2, (0, 1))) == Subspace.zero(2)

    def test_axes_sum_to_plane(self):
        assert span(2, (1, 0)).sum(span(2, (0, 1))) == Subspace.full(2)

    def test_intersection_inside_both(self):
        a = span(2, (1, 1), (1, 0))
        b = span(2, (1, 1))
        assert a.intersect(b) == b

    def test_lattice_laws(self):
        a = span(3, (1, 0, 2), (0, 1, 1))
        assert a.intersect(a) == a
        assert a.sum(Subspace.zero(3)) == a

    def test_dimension_formula_against_zassenhaus(self):
        rng = random.Random(23)
        n = 5
        for _ in range(40):
            a = Subspace.from_vectors(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 4))])
            b = Subspace.from_vectors(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 4))])
            inter = a.intersect(b)
            total = a.sum(b)
            assert a.dim + b.dim == total.dim + inter.dim
            assert inter.dim == zassenhaus_intersection_dim(
                a.basis_vectors(), b.basis_vectors(), n)
            assert a.contains(inter) and b.contains(inter)
            assert total.contains(a) and total.contains(b)

    def test_modular_law(self):
        rng = random.Random(31)
        n = 4
        for _ in range(25):
            a = Subspace.from_vectors(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(3)])
            b = Subspace.from_vectors(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
            c = Subspace.from_vectors(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
            a_c = a.intersect(c)
            left = a.intersect(b.sum(a_c))
            right = a.intersect(b).sum(a_c)
            assert left == right


class TestQuotient:
    def test_plane_mod_axis(self):
        q = quotient(Subspace.full(2), span(2, (0, 1)))
        assert q.dim == 1
        assert q.representatives == ((Fraction(1), Fraction(0)),)

    def test_zero_quotient(self):
        v = span(2, (1, 1))
        q = quotient(v, v)
        assert q.dim == 0

    def test_pivot_completion_choice(self):
        v = span(2, (1, 0), (1, 1))  # the whole plane, canonical basis e1, e2
        q = quotient(v, span(2, (1, 1)))
        assert q.dim == 1
        # greedy completion keeps the first canonical basis vector of v
        assert q.representatives == ((Fraction(1), Fraction(0)),)

    def test_rejects_non_subspace(self):
        with pytest.raises(ValueError):
            quotient(span(2, (1, 0)), span(2, (0, 1)))

    def test_project_and_lift(self):
        v = Subspace.full(3)
        w = span(3, (0, 0, 1))
        q = quotient(v, w)
        coords = q.project((2, 3, 7))
        assert coords == (Fraction(2), Fraction(3))
        lifted = q.lift(coords)
        assert w.contains_vector([a - b for a, b in zip(lifted, (2, 3, 7))])

    def test_project_rejects_outside_vector(self):
        q = quotient(span(2, (1, 0)), Subspace.zero(2))
        with pytest.raises(ValueError):
            q.project((0, 1))


class TestInducedMap:
    def test_identity_induces_identity(self):
        v = Subspace.full(2)
        w = span(2, (0, 1))
        q = quotient(v, w)
        assert induced_map(RationalMatrix.identity(2), q, q) == RationalMatrix.identity(1)

    def test_map_into_subspace_induces_zero(self):
        v = Subspace.full(2)
        w = span(2, (0, 1))
        q = quotient(v, w)
        f = M([[0, 0], [1, 1]])  # lands in span{e2} = w
        assert induced_map(f, q, q) == RationalMatrix.zeros(1, 1)

    def test_functoriality(self):
        rng = random.Random(5)
        v = Subspace.full(3)
        w = span(3, (0, 0, 1))
        q = quotient(v, w)
        for _ in range(15):
            # block triangular maps preserve (v, w)
            f = M([[rng.randint(-2, 2), rng.randint(-2, 2), 0],
                   [rng.randint(-2, 2), rng.randint(-2, 2), 0],
                   [rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)]])
            g = M([[rng.randint(-2, 2), rng.randint(-2, 2), 0],
                   [rng.randint(-2, 2), rng.randint(-2, 2), 0],
                   [rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)]])
            assert induced_map(g @ f, q, q) == induced_map(g, q, q) @ induced_map(f, q, q)

    def test_rejects_non_preserving_map(self):
        v = Subspace.full(2)
        w = span(2, (0, 1))
        q = quotient(v, w)
        f = M([[0, 1], [1, 0]])  # swaps the axes, does not preserve w
        with pytest.raises(ValueError):
            induced_map(f, q, q)

    def test_inclusion_injective_on_quotient(self):
        # v' inside v with v' cap w = 0: the induced map of the inclusion
        # has full rank v'.dim
        v = Subspace.full(3)
        w = span(3, (0, 0, 1))
        vp = span(3, (1, 0, 0), (0, 1, 0))
        q_small = quotient(vp, Subspace.zero(3))
        q_big = quotient(v, w)
        mat = induced_map(RationalMatrix.identity(3), q_small, q_big)
        assert rank(mat) == vp.dim


class TestCanonicalForms:
    def test_equal_subspaces_identical(self):
        a = span(3, (2, 4, 0), (0, 0, 3))
        b = span(3, (1, 2, 1), (0, 0, -1))
        assert a == b
        assert a.basis.entries == b.basis.entries

    def test_image_of_subspace(self):
        f = M([[1, 0], [1, 0]])
        assert image_of_subspace(f, Subspace.full(2)) == span(2, (1, 1))
        assert image(f) == span(2, (1, 1))


class TestSparseRows:
    def test_mapping_rows_match_dense_rows(self):
        sparse = RationalMatrix(2, 3, [{2: 1, 0: "1/2", 1: 0}, {}])
        assert sparse == M([[Fraction(1, 2), 0, 1], [0, 0, 0]])
        assert list(sparse.nonzeros()) == [(0, 0, Fraction(1, 2)), (0, 2, Fraction(1))]

    def test_mapping_row_outside_columns_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix(1, 2, [{2: 1}])

    def test_coordinate_subspace_is_canonical(self):
        assert Subspace.coordinate(4, [3, 1, 3]) == span(4, (0, 0, 0, 1), (0, 1, 0, 0))
        with pytest.raises(ValueError):
            Subspace.coordinate(2, [2])
