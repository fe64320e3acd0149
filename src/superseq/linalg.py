"""Exact linear algebra over the rationals.

Everything downstream (page computations, cohomology, obstruction solving)
reduces to the handful of operations in this module: reduced row echelon
form, kernels, preimages, subspace lattice operations, quotients and
induced maps on quotients.  All arithmetic uses ``fractions.Fraction``;
there is no floating point anywhere.

Matrices and subspace bases are stored as sparse rows, one dict per row
from column index to nonzero Fraction in increasing column order, so the
almost empty Cech matrices cost only their nonzeros; the dense
``entries`` view is built on first use.  One routine, ``_reduce``, brings
sparse rows to canonical reduced row echelon form, and every elimination
in the module goes through it.  Two equal subspaces are therefore equal
as Python objects, and quotient bases are chosen by a deterministic
pivot-completion rule, so every matrix produced downstream is
reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush

Vector = tuple[Fraction, ...]
Row = dict  # {column: nonzero Fraction}, increasing column order

_ZERO = Fraction(0)
_ONE = Fraction(1)
_set = object.__setattr__


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def vector(values: Iterable) -> Vector:
    return tuple(_frac(v) for v in values)


def _sparse(values: Sequence, length: int, error: str) -> Row:
    """The nonzero entries of a dense sequence; ``error`` formats a length mismatch."""
    if len(values) != length:
        raise ValueError(error.format(got=len(values), want=length))
    out = {}
    for j, v in enumerate(values):
        if v:
            v = _frac(v)
            if v:
                out[j] = v
    return out


def _dense(row: Row, length: int) -> Vector:
    out = [_ZERO] * length
    for j, v in row.items():
        out[j] = v
    return tuple(out)


def _sorted(row: Row) -> Row:
    return dict(sorted(row.items()))


def _add_multiple(y: Row, f: Fraction, x: Row) -> None:
    """y += f * x in place, dropping the entries that cancel."""
    for j, v in x.items():
        w = y.get(j)
        if w is None:
            y[j] = f * v
        else:
            w += f * v
            if w:
                y[j] = w
            else:
                del y[j]


def _combine(coeffs: Row, rows: Sequence[Row]) -> Row:
    """The sum of coeffs[k] * rows[k]."""
    out: Row = {}
    for k, c in coeffs.items():
        _add_multiple(out, c, rows[k])
    return out


def _reduce(rows: Iterable[Row]) -> tuple[list[Row], tuple[int, ...], list[int]]:
    """Canonical reduced row echelon form of sparse rows, left unchanged.

    Returns the basis rows in increasing pivot order, the pivot columns,
    and the indices of the input rows that enlarged the span.  A new row
    is cleared at the earlier pivots in insertion order: each earlier row
    vanishes at the pivots inserted before its own, so clearing it only
    creates entries at later pivots, which a heap of insertion times
    visits in turn.  A last pass clears the rows at the later pivots.
    """
    when: dict[int, int] = {}  # pivot column -> insertion time
    basis: list[Row] = []
    kept = []
    for index, row in enumerate(rows):
        heap = [when[j] for j in row if j in when]
        heapify(heap)
        row = dict(row)
        while heap:
            t = heappop(heap)
            source = basis[t]
            f = row.get(next(iter(source)))
            if f is None:  # pushed twice, already cleared
                continue
            _add_multiple(row, -f, source)
            for j in source:
                s = when.get(j)
                if s is not None and s > t and j in row:
                    heappush(heap, s)
        if not row:
            continue
        lead = min(row)
        pv = row[lead]
        if pv != 1:
            inv = _ONE / pv
            row = {j: v * inv for j, v in row.items()}
        when[lead] = len(basis)
        basis.append(_sorted(row))
        kept.append(index)
    for t in range(len(basis) - 1, -1, -1):
        row = basis[t]
        # the later rows are final and vanish at each other's pivots
        for j, f in [(j, f) for j, f in row.items() if when.get(j, t) > t]:
            _add_multiple(row, -f, basis[when[j]])
        basis[t] = _sorted(row)
    pivots = tuple(sorted(when))
    return [basis[when[p]] for p in pivots], pivots, kept


def _null_rows(basis: Sequence[Row], pivots: Sequence[int], n: int) -> list[Row]:
    """Rows spanning the null space of a reduced basis, one per free column f:
    e_f - sum_r basis[r][f] e_{p_r}.  Their span is canonical, their form is not."""
    free = {f: {f: _ONE} for f in range(n)}
    for p in pivots:
        del free[p]
    for p, row in zip(pivots, basis):
        for j, v in row.items():
            if j != p:
                free[j][p] = -v
    return list(free.values())


class RationalMatrix:
    """Immutable matrix with Fraction entries, stored as sparse rows."""

    __slots__ = ("rows", "cols", "_data", "_col_data", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence | Mapping]):
        """``entries`` has one item per row: either the dense sequence of its
        ``cols`` values, or a {column: value} mapping of its nonzero ones."""
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        data = []
        for row in entries:
            if not isinstance(row, Mapping):
                data.append(_sparse(row, cols, "expected {want} columns, got {got}"))
                continue
            if row and not (0 <= min(row) and max(row) < cols):
                raise ValueError(f"column index outside 0..{cols - 1}")
            data.append({j: v for j, v in sorted((j, _frac(v)) for j, v in row.items()) if v})
        self._fill(rows, cols, data)

    def _fill(self, rows: int, cols: int, data: list[Row]):
        for name, value in zip(self.__slots__, (rows, cols, tuple(data), None, None)):
            _set(self, name, value)

    @classmethod
    def _wrap(cls, rows: int, cols: int, data: list[Row]) -> "RationalMatrix":
        """The internal constructor: data holds sorted rows of nonzero Fractions."""
        m = object.__new__(cls)
        m._fill(rows, cols, data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._wrap(n, n, [{i: _ONE} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._wrap(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "RationalMatrix":
        n = len(cols)
        m = len(cols[0]) if n else (rows if rows is not None else 0)
        data = [{} for _ in range(m)]
        for j, col in enumerate(cols):
            for i, v in _sparse(col, m, "column length {got} != rows {want}").items():
                data[i][j] = v
        return cls._wrap(m, n, data)

    @property
    def entries(self) -> tuple[Vector, ...]:
        """Dense rows, built on first use."""
        if self._entries is None:
            _set(self, "_entries", tuple(_dense(row, self.cols) for row in self._data))
        return self._entries

    def nonzeros(self) -> Iterator[tuple[int, int, Fraction]]:
        """(row, column, value) of every nonzero entry, row by row."""
        for i, row in enumerate(self._data):
            for j, v in row.items():
                yield i, j, v

    def _columns(self) -> list[Row]:
        if self._col_data is None:
            col_data = [{} for _ in range(self.cols)]
            for i, j, v in self.nonzeros():
                col_data[j][i] = v
            _set(self, "_col_data", col_data)
        return self._col_data

    def columns(self) -> list[Vector]:
        return [_dense(col, self.rows) for col in self._columns()]

    def _apply(self, v: Row) -> Row:
        """Matrix times a sparse column vector, as a combination of columns."""
        return _combine(v, self._columns())

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector."""
        v = _sparse(v, self.cols, "vector length {got} != cols {want}")
        return _dense(self._apply(v), self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [_sorted(_combine(row, other._data)) for row in self._data]
        return RationalMatrix._wrap(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(row.items()) for row in self._data)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RationalMatrix({self.rows}x{self.cols}: [{body}])"


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Canonical reduced row echelon form and the pivot columns.

    Idempotent: rref(rref(m)) == rref(m).
    """
    basis, pivots, _ = _reduce(m._data)
    basis += [{} for _ in range(m.rows - len(basis))]
    return RationalMatrix._wrap(m.rows, m.cols, basis), pivots


def rank(m: RationalMatrix) -> int:
    return len(_reduce(m._data)[1])


class Subspace:
    """A linear subspace of Q^n, stored as a canonical RREF basis.

    ``basis`` has one basis vector per row, pivot columns strictly
    increasing, pivots equal to 1 and alone in their column.  Equality of
    subspaces is therefore literal equality of the stored data.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_by_pivot")

    def __init__(self, ambient_dim: int, basis: RationalMatrix,
                 pivots: tuple[int, ...] | None = None):
        if basis.cols != ambient_dim:
            raise ValueError(f"basis width {basis.cols} != ambient {ambient_dim}")
        if pivots is None:
            pivots = tuple(min(row) for row in basis._data)
        for name, value in zip(self.__slots__, (ambient_dim, basis, pivots,
                                                dict(zip(pivots, basis._data)))):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _span(cls, ambient_dim: int, rows: Iterable[Row]) -> "Subspace":
        basis, pivots, _ = _reduce(rows)
        return cls(ambient_dim, RationalMatrix._wrap(len(basis), ambient_dim, basis), pivots)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        error = "vector length {got} != ambient {want}"
        return cls._span(ambient_dim, [_sparse(v, ambient_dim, error) for v in vectors])

    @classmethod
    def coordinate(cls, ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """The span of the given standard basis vectors, built in canonical form."""
        pivots = tuple(sorted(set(indices)))
        if pivots and not (0 <= pivots[0] and pivots[-1] < ambient_dim):
            raise ValueError(f"coordinate index outside 0..{ambient_dim - 1}")
        rows = [{i: _ONE} for i in pivots]
        return cls(ambient_dim, RationalMatrix._wrap(len(rows), ambient_dim, rows), pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.coordinate(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.coordinate(ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    def is_full(self) -> bool:
        return self.basis.rows == self.ambient_dim

    def basis_vectors(self) -> list[Vector]:
        return list(self.basis.entries)

    def _residual(self, v: Row) -> Row:
        """v minus its projection along the pivots; empty exactly when v lies here."""
        hits = [(p, f) for p, f in v.items() if p in self._by_pivot]
        if hits:
            v = dict(v)
            for p, f in hits:
                _add_multiple(v, -f, self._by_pivot[p])
        return v

    def contains_vector(self, v: Sequence) -> bool:
        return not self._residual(_sparse(v, self.ambient_dim, "ambient dimension mismatch"))

    def _contains_rows(self, rows: Iterable[Row]) -> bool:
        return not any(self._residual(row) for row in rows)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        return self.is_full() or self._contains_rows(other.basis._data)

    def _annihilator_rows(self) -> list[Row]:
        return _null_rows(self.basis._data, self.pivots, self.ambient_dim)

    def annihilator(self) -> RationalMatrix:
        """Matrix K with this subspace equal to ker K (rows span the dual annihilator)."""
        return kernel(self.basis).basis if self.dim else RationalMatrix.identity(self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        if self.is_full():
            return other
        if other.is_full():
            return self
        return _kernel(self._annihilator_rows() + other._annihilator_rows(), self.ambient_dim)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return Subspace._span(self.ambient_dim, self.basis._data + other.basis._data)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(f"ambient mismatch {self.ambient_dim} vs {other.ambient_dim}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} in Q^{self.ambient_dim})"


def _kernel(rows: Sequence[Row], n: int) -> Subspace:
    """The null space of the matrix with these rows and n columns."""
    basis, pivots, _ = _reduce(rows)
    return Subspace._span(n, _null_rows(basis, pivots, n))


def kernel(m: RationalMatrix) -> Subspace:
    """The solution space {v | m v = 0}, canonical basis, dim = cols - rank."""
    return _kernel(m._data, m.cols)


def image(m: RationalMatrix) -> Subspace:
    """Column span of m as a subspace of Q^rows."""
    return Subspace._span(m.rows, m._columns())


def image_of_subspace(m: RationalMatrix, s: Subspace) -> Subspace:
    if s.ambient_dim != m.cols:
        raise ValueError("subspace does not live in the domain of m")
    return Subspace._span(m.rows, [m._apply(v) for v in s.basis._data])


def preimage(m: RationalMatrix, w: Subspace) -> Subspace:
    """The subspace {v | m v in w}; always contains ker m."""
    if w.ambient_dim != m.rows:
        raise ValueError(f"target ambient {w.ambient_dim} != rows {m.rows}")
    if w.is_full():
        return Subspace.full(m.cols)
    # m v lies in w exactly when every row annihilating w kills m v
    return _kernel([_combine(ann, m._data) for ann in w._annihilator_rows()], m.cols)


class QuotientPresentation:
    """A basis of v/w by chosen representative vectors, with coordinates.

    Representatives are picked deterministically: walk the canonical basis
    of v and keep each vector that is independent from w plus the ones
    already kept.  ``project`` returns the coordinates of any x in v with
    respect to the representative classes; ``lift`` is a section of it.
    """

    __slots__ = ("space", "subspace", "_reps", "_dense_reps", "_solver")

    def __init__(self, space: Subspace, subspace: Subspace):
        if not space.contains(subspace):
            raise ValueError("subspace is not contained in the ambient space of the quotient")
        # reduce the rows of w, then those of v: the rows of v that
        # enlarge the span are the representatives
        rows = subspace.basis._data + space.basis._data
        reps = tuple(rows[i] for i in _reduce(rows)[2] if i >= subspace.dim)
        if len(reps) != space.dim - subspace.dim:
            raise RuntimeError(f"quotient rank {len(reps)} != {space.dim} - {subspace.dim}")
        for name, value in zip(self.__slots__, (space, subspace, reps, None, None)):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientPresentation is immutable")

    @property
    def representatives(self) -> tuple[Vector, ...]:
        if self._dense_reps is None:
            n = self.space.ambient_dim
            _set(self, "_dense_reps", tuple(_dense(rep, n) for rep in self._reps))
        return self._dense_reps

    @property
    def dim(self) -> int:
        return len(self._reps)

    def _transform(self) -> dict[int, list[tuple[int, Fraction]]]:
        """Columns of T, built on first use: reducing [B | I], B with the
        representatives and the basis of w as columns, leaves [I | T] on top of
        [0 | A]; T gives coordinates and A annihilates the span of B."""
        if self._solver is None:
            n, k = self.space.ambient_dim, self.space.dim
            aug = [{k + i: _ONE} for i in range(n)]
            for c, vec in enumerate(self._reps + self.subspace.basis._data):
                for i, v in vec.items():
                    aug[i][c] = v
            basis, pivots, _ = _reduce(aug)
            if pivots[:k] != tuple(range(k)):
                raise RuntimeError("quotient basis vectors are not independent")
            columns: dict[int, list[tuple[int, Fraction]]] = {}
            for r, row in enumerate(basis):
                for j, v in row.items():
                    if j >= k:
                        columns.setdefault(j - k, []).append((r, v))
            _set(self, "_solver", columns)
        return self._solver

    def _coordinates(self, x: Row) -> list[Fraction]:
        transform = self._transform()
        acc: dict[int, Fraction] = {}
        for j, xv in x.items():
            for r, tv in transform.get(j, ()):
                acc[r] = acc.get(r, _ZERO) + tv * xv
        total = self.space.dim
        if any(v for r, v in acc.items() if r >= total):
            raise ValueError("vector does not lie in the quotient's ambient space")
        return [acc.get(r, _ZERO) for r in range(total)]

    def project(self, x: Sequence) -> Vector:
        """Coordinates of the class of x in the representative basis."""
        x = _sparse(x, self.space.ambient_dim, "ambient dimension mismatch")
        return tuple(self._coordinates(x)[: self.dim])

    def lift(self, coords: Sequence) -> Vector:
        coords = vector(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        out = _combine({k: c for k, c in enumerate(coords) if c}, self._reps)
        return _dense(out, self.space.ambient_dim)

    def __repr__(self) -> str:
        return f"QuotientPresentation(dim {self.dim} = {self.space.dim} - {self.subspace.dim})"


def quotient(v: Subspace, w: Subspace) -> QuotientPresentation:
    """Present v/w; raises ValueError unless w is contained in v."""
    return QuotientPresentation(v, w)


def solve_linear(m: RationalMatrix, rhs: Sequence) -> Vector | None:
    """One solution of m v = rhs (free variables set to zero), or None."""
    rhs = vector(rhs)
    if len(rhs) != m.rows:
        raise ValueError("right hand side length does not match the matrix")
    basis, pivots, _ = _reduce({**row, m.cols: b} if b else row
                               for row, b in zip(m._data, rhs))
    if pivots and pivots[-1] == m.cols:
        return None
    out = [_ZERO] * m.cols
    for row, c in zip(basis, pivots):
        out[c] = row.get(m.cols, _ZERO)
    return tuple(out)


def induced_map(f: RationalMatrix, src: QuotientPresentation,
                dst: QuotientPresentation) -> RationalMatrix:
    """Matrix of the map induced by f on quotient bases.

    Verifies f(src.space) <= dst.space and f(src.subspace) <= dst.subspace
    before projecting; raises ValueError if f does not preserve the pairs.
    """
    if f.cols != src.space.ambient_dim or f.rows != dst.space.ambient_dim:
        raise ValueError("matrix shape does not match the quotient ambients")
    if not dst.space._contains_rows(f._apply(v) for v in src.space.basis._data):
        raise ValueError("map does not send source space into destination space")
    if not dst.subspace._contains_rows(f._apply(v) for v in src.subspace.basis._data):
        raise ValueError("map does not send source subspace into destination subspace")
    return RationalMatrix.from_columns(
        [dst._coordinates(f._apply(rep))[: dst.dim] for rep in src._reps], rows=dst.dim)
