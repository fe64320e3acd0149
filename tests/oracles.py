"""Independent reference computations used by the test suite.

These deliberately avoid the library's own row-reduction and subspace
machinery wherever they act as a second opinion: plain Gaussian
elimination and dense Gauss-Jordan reduction on lists of Fractions, the
Zassenhaus trick for intersections, and closed-form line bundle
cohomology on the projective line.
"""

from fractions import Fraction


def elim_rank(rows):
    """Rank by forward elimination on a copy of the row list."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    n_cols = len(work[0])
    rank = 0
    for c in range(n_cols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / pr[c]
            if f:
                for j in range(c, n_cols):
                    work[i][j] -= f * pr[j]
        rank += 1
    return rank


def matrix_rank(matrix_rows, n_cols):
    if not matrix_rows:
        return 0
    assert all(len(r) == n_cols for r in matrix_rows)
    return elim_rank(matrix_rows)


def kernel_dim(matrix_rows, n_cols):
    return n_cols - matrix_rank(matrix_rows, n_cols)


def betti_number(d_out_rows, d_out_cols, d_in_rows, d_in_cols):
    """dim ker(d_out) - rank(d_in) for consecutive differentials."""
    return kernel_dim(d_out_rows, d_out_cols) - matrix_rank(d_in_rows, d_in_cols)


def zassenhaus_intersection_dim(basis_a, basis_b, n):
    """dim(A cap B) via the Zassenhaus block trick.

    Row-reduce [[a, a],[b, 0]]; the rows with zero left half carry a basis
    of the intersection in their right half, so the count is
    rank(stack) - rank(sum).
    """
    stacked = [list(v) + list(v) for v in basis_a] + [list(v) + [0] * n for v in basis_b]
    sum_rank = elim_rank([list(v) for v in basis_a] + [list(v) for v in basis_b])
    total_rank = elim_rank(stacked) if stacked else 0
    return total_rank - sum_rank


def line_bundle_h0(k):
    """Global sections of O(k) on the projective line."""
    return max(k + 1, 0)


def line_bundle_h1(k):
    return max(-k - 1, 0)


def dense_rref(rows, n_cols):
    """Canonical reduced row echelon form by plain dense Gauss-Jordan.

    Returns (rows, pivots) with every input row kept, zero rows last.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def dense_span(vectors, n):
    """Canonical basis of the span of the vectors in Q^n."""
    reduced, pivots = dense_rref(vectors, n)
    return [tuple(row) for row in reduced[:len(pivots)]]


def dense_kernel(rows, n_cols):
    """Canonical basis of {v | rows v = 0}."""
    reduced, pivots = dense_rref(rows, n_cols)
    vectors = []
    for f in (j for j in range(n_cols) if j not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return dense_span(vectors, n_cols)


def dense_intersection(basis_a, basis_b, n):
    """Canonical basis of A cap B by the Zassenhaus block trick."""
    stacked = [list(v) + list(v) for v in basis_a] + [list(v) + [0] * n for v in basis_b]
    reduced, _ = dense_rref(stacked, 2 * n)
    return dense_span([row[n:] for row in reduced if not any(row[:n])], n)


def dense_preimage(rows, n_cols, target_basis):
    """Canonical basis of {v | rows v in span(target_basis)}: solve jointly in (v, c)."""
    joint = [list(row) + [-w[i] for w in target_basis] for i, row in enumerate(rows)]
    return dense_span([v[:n_cols] for v in dense_kernel(joint, n_cols + len(target_basis))],
                      n_cols)


def dense_solve(rows, n_cols, rhs):
    """One solution of rows v = rhs with the free variables zero, or None."""
    reduced, pivots = dense_rref([list(row) + [b] for row, b in zip(rows, rhs)], n_cols + 1)
    if pivots and pivots[-1] == n_cols:
        return None
    out = [Fraction(0)] * n_cols
    for row, p in zip(reduced, pivots):
        out[p] = row[n_cols]
    return tuple(out)


def greedy_representatives(space_basis, sub_basis):
    """The vectors of space_basis, in order, that are independent of sub_basis and
    of the ones kept before them."""
    kept = []
    for v in space_basis:
        if elim_rank(list(sub_basis) + kept + [v]) > len(sub_basis) + len(kept):
            kept.append(v)
    return kept
