"""The sparse reduction core against the dense Gauss-Jordan oracle.

Seeded random matrices, sparse and dense, with empty and zero-column
shapes included, go through the library and through the plain dense
reference in ``oracles.py``; canonical forms make the results comparable
entry by entry.
"""

import random
from fractions import Fraction

import pytest

from superseq.linalg import (
    RationalMatrix,
    Subspace,
    kernel,
    preimage,
    quotient,
    rref,
    solve_linear,
)

from oracles import (
    dense_intersection,
    dense_kernel,
    dense_preimage,
    dense_rref,
    dense_solve,
    dense_span,
    greedy_representatives,
)

VALUES = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def random_rows(rng, rows, cols, density):
    return [[rng.choice(VALUES) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def random_subspace_vectors(rng, n, density):
    return random_rows(rng, rng.randint(0, n + 1), n, density)


def cases(count, seed):
    rng = random.Random(seed)
    for trial in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.choice([0.1, 0.25, 0.6, 1.0])
        yield trial, rng, rows, cols, density


def canonical(vectors):
    return [tuple(Fraction(v) for v in vec) for vec in vectors]


@pytest.mark.parametrize("seed", range(4))
def test_rref_and_kernel(seed):
    for _, rng, rows, cols, density in cases(100, seed):
        data = random_rows(rng, rows, cols, density)
        m = RationalMatrix(rows, cols, data)
        reduced, pivots = rref(m)
        expected, expected_pivots = dense_rref(data, cols)
        assert reduced.entries == tuple(map(tuple, expected))
        assert list(pivots) == expected_pivots
        assert kernel(m).basis_vectors() == canonical(dense_kernel(data, cols))


@pytest.mark.parametrize("seed", range(4))
def test_preimage_and_intersect(seed):
    for _, rng, rows, cols, density in cases(100, seed + 10):
        data = random_rows(rng, rows, cols, density)
        target = random_subspace_vectors(rng, rows, density)
        w = Subspace.from_vectors(rows, target)
        got = preimage(RationalMatrix(rows, cols, data), w)
        assert got.basis_vectors() == canonical(
            dense_preimage(data, cols, dense_span(target, rows)))

        a_vectors = random_subspace_vectors(rng, cols, density)
        b_vectors = random_subspace_vectors(rng, cols, density)
        a = Subspace.from_vectors(cols, a_vectors)
        b = Subspace.from_vectors(cols, b_vectors)
        assert a.basis_vectors() == canonical(dense_span(a_vectors, cols))
        assert a.intersect(b).basis_vectors() == canonical(dense_intersection(
            dense_span(a_vectors, cols), dense_span(b_vectors, cols), cols))


@pytest.mark.parametrize("seed", range(4))
def test_solve_linear(seed):
    for trial, rng, rows, cols, density in cases(100, seed + 20):
        data = random_rows(rng, rows, cols, density)
        m = RationalMatrix(rows, cols, data)
        if trial % 2:
            # a right hand side in the image, so a solution exists
            x = [rng.choice(VALUES) for _ in range(cols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in data]
        else:
            rhs = [rng.choice(VALUES + [0]) for _ in range(rows)]
        got = solve_linear(m, rhs)
        assert got == dense_solve(data, cols, rhs)
        if trial % 2:
            assert got is not None and m.apply(got) == tuple(map(Fraction, rhs))


@pytest.mark.parametrize("seed", range(4))
def test_quotient_representatives_and_coordinates(seed):
    for _, rng, _, n, density in cases(100, seed + 30):
        v_vectors = random_subspace_vectors(rng, n, density)
        space = dense_span(v_vectors, n)
        # w: random combinations of the basis of v, so w <= v
        w_vectors = []
        for _ in range(rng.randint(0, len(space))):
            coeffs = [rng.choice([0, 1, -2]) for _ in space]
            w_vectors.append([sum(c * vec[j] for c, vec in zip(coeffs, space))
                              for j in range(n)])
        sub = dense_span(w_vectors, n)
        q = quotient(Subspace.from_vectors(n, v_vectors), Subspace.from_vectors(n, w_vectors))
        reps = greedy_representatives(space, sub)
        assert list(q.representatives) == canonical(reps)
        coords = [rng.choice(VALUES + [0]) for _ in reps]
        x = [sum(c * rep[j] for c, rep in zip(coords, reps)) for j in range(n)]
        for w in sub:
            c = rng.choice([0, 1, -1])
            x = [a + c * b for a, b in zip(x, w)]
        assert q.project(x) == tuple(map(Fraction, coords))
