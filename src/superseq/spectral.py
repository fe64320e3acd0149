"""Spectral sequence of a finite filtered cochain complex.

The input is a cochain complex C^0 -> C^1 -> ... -> C^n_max with a
decreasing filtration F^0 = C >= F^1 >= ... >= F^p_max = 0 preserved by
the differential.  For each page index r the module computes the
subquotients

    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}),

    Z_r^{p,q} = {c in F^p C^{p+q} | d c in F^{p+r} C^{p+q+1}},

together with the induced differentials d_r of bidegree (r, 1-r).  The
filtration index is clamped (F^p = C for p < 0, F^p = 0 for p > p_max),
which makes the formulas total; q may be negative as long as p+q stays
in cochain range.  Page r = p_max is already stable and is returned as
the limit page; the page after it is recomputed as a runtime check.

All spaces are presented through the canonical machinery of
:mod:`superseq.linalg`, so page bases and differential matrices are
deterministic and exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .linalg import (
    QuotientPresentation,
    RationalMatrix,
    Subspace,
    image,
    image_of_subspace,
    induced_map,
    kernel,
    preimage,
    quotient,
)


class SpectralInconsistency(RuntimeError):
    """An internal identity that must hold for every valid complex failed."""


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "invalid:\n" + "\n".join("  - " + p for p in self.problems)


@dataclass
class PageEntry:
    p: int
    q: int
    r: int
    cycles: Subspace
    boundaries: Subspace
    classes: QuotientPresentation

    @property
    def dim(self) -> int:
        return self.classes.dim


@dataclass
class Page:
    r: int
    entries: dict[tuple[int, int], PageEntry]
    differentials: dict[tuple[int, int], RationalMatrix]
    infinity: bool = False
    parent: "FilteredComplex | None" = None

    def dim(self, p: int, q: int) -> int:
        entry = self.entries.get((p, q))
        return entry.dim if entry else 0

    def dims(self) -> dict[tuple[int, int], int]:
        """Nonzero entry dimensions, keyed by (p, q)."""
        return {key: e.dim for key, e in sorted(self.entries.items()) if e.dim}

    def total_dims(self) -> dict[int, int]:
        """Dimension per total degree p+q."""
        out: dict[int, int] = {}
        for (p, q), e in self.entries.items():
            if e.dim:
                out[p + q] = out.get(p + q, 0) + e.dim
        return out


@dataclass
class FilteredCohomology:
    groups: tuple[QuotientPresentation, ...]
    filtration_images: dict[tuple[int, int], Subspace]
    p_max: int

    def dim(self, n: int) -> int:
        if 0 <= n < len(self.groups):
            return self.groups[n].dim
        return 0

    def filtration_dim(self, p: int, n: int) -> int:
        if n < 0 or n >= len(self.groups):
            return 0
        if p <= 0:
            return self.dim(n)
        if p >= self.p_max:
            return 0
        return self.filtration_images[(p, n)].dim

    def graded_dim(self, p: int, n: int) -> int:
        return self.filtration_dim(p, n) - self.filtration_dim(p + 1, n)


@dataclass
class GradedComparison:
    """Both sides of the limit-page bookkeeping, per bidegree and per degree."""

    limit_dims: dict[tuple[int, int], int]
    graded_dims: dict[tuple[int, int], int]
    cohomology_dims: dict[int, int]
    agree: bool


class FilteredComplex:
    """Immutable filtered cochain complex over Q.

    dims[n] is the dimension of C^n; differentials[n] is the matrix of
    d^n : C^n -> C^{n+1} (the last one maps to the zero space and may be
    omitted).  ``filtration`` maps (p, n) with 1 <= p <= p_max - 1 to the
    subspace F^p C^n; missing keys default to the zero subspace, p = 0 is
    the full space and p = p_max the zero space.  ``parity`` optionally
    assigns 0/1 to every basis vector of every C^n; when present, the
    differential must swap the two parities.
    """

    def __init__(self, dims: Sequence[int],
                 differentials: Sequence[RationalMatrix],
                 filtration: Mapping[tuple[int, int], Subspace],
                 p_max: int,
                 parity: Sequence[Sequence[int]] | None = None):
        self.dims = tuple(int(d) for d in dims)
        self.n_max = len(self.dims) - 1
        if self.n_max < 0:
            raise ValueError("a complex needs at least one cochain group")
        if p_max < 1:
            raise ValueError("filtration length must be at least 1")
        self.p_max = p_max

        diffs = list(differentials)
        if len(diffs) == self.n_max:
            diffs.append(RationalMatrix.zeros(0, self.dims[self.n_max]))
        if len(diffs) != self.n_max + 1:
            raise ValueError(f"expected {self.n_max} or {self.n_max + 1} differentials")
        for n, d in enumerate(diffs):
            target = self.dims[n + 1] if n + 1 <= self.n_max else 0
            if d.cols != self.dims[n] or d.rows != target:
                raise ValueError(f"d^{n} has shape {d.rows}x{d.cols}, "
                                 f"expected {target}x{self.dims[n]}")
        self.differentials = tuple(diffs)

        filt: dict[tuple[int, int], Subspace] = {}
        for (p, n), space in filtration.items():
            if not (1 <= p <= self.p_max - 1):
                raise ValueError(f"filtration level p={p} out of range 1..{self.p_max - 1}")
            if not (0 <= n <= self.n_max):
                raise ValueError(f"filtration degree n={n} out of range")
            if space.ambient_dim != self.dims[n]:
                raise ValueError(f"F^{p} C^{n} has ambient {space.ambient_dim}, "
                                 f"expected {self.dims[n]}")
            filt[(p, n)] = space
        self._filtration = filt

        if parity is not None:
            parity = tuple(tuple(int(v) % 2 for v in row) for row in parity)
            if tuple(len(row) for row in parity) != self.dims:
                raise ValueError("parity table does not match the cochain dimensions")
        self.parity = parity

        self._cycle_cache: dict[tuple[int, int, int], Subspace] = {}
        self._page_cache: dict[int, Page] = {}
        self._validation: ValidationReport | None = None
        self._cohomology: FilteredCohomology | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        if (self.dims, self.p_max, self.parity) != (other.dims, other.p_max, other.parity):
            return False
        if self.differentials != other.differentials:
            return False
        return all(self.filtration_space(p, n) == other.filtration_space(p, n)
                   for p in range(1, self.p_max)
                   for n in range(self.n_max + 1))

    # -- basic accessors ------------------------------------------------

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n <= self.n_max else 0

    def differential(self, n: int) -> RationalMatrix:
        if 0 <= n <= self.n_max:
            return self.differentials[n]
        return RationalMatrix.zeros(self.dim(n + 1), self.dim(n))

    def filtration_space(self, p: int, n: int) -> Subspace:
        """F^p C^n with clamped indices."""
        if n < 0 or n > self.n_max:
            return Subspace.zero(self.dim(n))
        if p <= 0:
            return Subspace.full(self.dims[n])
        if p >= self.p_max:
            return Subspace.zero(self.dims[n])
        return self._filtration.get((p, n), Subspace.zero(self.dims[n]))

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._validation is not None:
            return self._validation
        problems: list[str] = []
        for n in range(self.n_max):
            if not (self.differential(n + 1) @ self.differential(n)).is_zero():
                problems.append(f"d^{n + 1} d^{n} != 0")
        for n in range(self.n_max + 1):
            for p in range(self.p_max):
                upper = self.filtration_space(p, n)
                lower = self.filtration_space(p + 1, n)
                if not upper.contains(lower):
                    problems.append(f"F^{p + 1} C^{n} not contained in F^{p} C^{n}")
        for n in range(self.n_max + 1):
            d = self.differential(n)
            for p in range(1, self.p_max):
                src = self.filtration_space(p, n)
                tgt = self.filtration_space(p, n + 1)
                if not tgt.contains(image_of_subspace(d, src)):
                    problems.append(f"d(F^{p} C^{n}) not contained in F^{p} C^{n + 1}")
        if self.parity is not None:
            for n in range(self.n_max):
                bad = sorted((j, i) for i, j, _ in self.differential(n).nonzeros()
                             if self.parity[n + 1][i] == self.parity[n][j])
                problems.extend(f"d^{n} is not parity-reversing at entry ({i}, {j})"
                                for j, i in bad)
        self._validation = ValidationReport(not problems, problems)
        return self._validation

    def _require_valid(self):
        report = self.validate()
        if not report.ok:
            raise ValueError(str(report))

    # -- the spectral sequence -------------------------------------------

    def cycles(self, p: int, q: int, r: int) -> Subspace:
        """Z_r^{p,q}: elements of F^p C^{p+q} whose differential lies r deeper."""
        n = p + q
        if n < 0 or n > self.n_max:
            return Subspace.zero(self.dim(n))
        key = (p, q, r)
        cached = self._cycle_cache.get(key)
        if cached is not None:
            return cached
        base = self.filtration_space(p, n)
        if r <= 0 or base.is_zero():
            # d preserves the filtration, so the condition is vacuous
            result = base
        else:
            target = self.filtration_space(p + r, n + 1)
            result = base.intersect(preimage(self.differential(n), target))
        self._cycle_cache[key] = result
        return result

    def _bidegrees(self):
        for p in range(self.p_max + 1):
            for n in range(self.n_max + 1):
                yield p, n - p

    def page(self, r: int) -> Page:
        """The full page E_r with its differentials; cached per r."""
        if r < 0:
            raise ValueError("page index must be nonnegative")
        cached = self._page_cache.get(r)
        if cached is not None:
            return cached
        self._require_valid()

        entries: dict[tuple[int, int], PageEntry] = {}
        for p, q in self._bidegrees():
            z = self.cycles(p, q, r)
            below = self.cycles(p + 1, q - 1, r - 1)
            entering = self.cycles(p - r + 1, q + r - 2, r - 1)
            b = below.sum(image_of_subspace(self.differential(p + q - 1), entering))
            if not z.contains(b):
                raise SpectralInconsistency(
                    f"boundary space escapes the cycle space at (p={p}, q={q}, r={r})")
            entries[(p, q)] = PageEntry(p, q, r, z, b, quotient(z, b))

        diffs: dict[tuple[int, int], RationalMatrix] = {}
        for (p, q), entry in entries.items():
            tgt = entries.get((p + r, q - r + 1))
            if tgt is None:
                diffs[(p, q)] = RationalMatrix.zeros(0, entry.dim)
                continue
            diffs[(p, q)] = induced_map(self.differential(p + q),
                                        entry.classes, tgt.classes)
        for (p, q), mat in diffs.items():
            nxt = diffs.get((p + r, q - r + 1))
            if nxt is not None and not (nxt @ mat).is_zero():
                raise SpectralInconsistency(f"d_{r} squared is nonzero at (p={p}, q={q})")

        page = Page(r, entries, diffs, parent=self)
        self._page_cache[r] = page
        return page

    def infinity_page(self) -> Page:
        """The stable page, taken at r = p_max and cross-checked at p_max + 1."""
        limit = self.page(self.p_max)
        check = self.page(self.p_max + 1)
        if limit.dims() != check.dims():
            raise SpectralInconsistency("page dimensions not stable at r = p_max")
        return Page(limit.r, limit.entries, limit.differentials,
                    infinity=True, parent=self)

    # -- cohomology -------------------------------------------------------

    def cohomology(self) -> FilteredCohomology:
        if self._cohomology is not None:
            return self._cohomology
        self._require_valid()
        groups = []
        filtration_images: dict[tuple[int, int], Subspace] = {}
        for n in range(self.n_max + 1):
            cocycles = kernel(self.differential(n))
            coboundaries = image(self.differential(n - 1)) if n > 0 \
                else Subspace.zero(self.dims[0])
            pres = quotient(cocycles, coboundaries)
            groups.append(pres)
            for p in range(1, self.p_max):
                deep = self.filtration_space(p, n).intersect(cocycles)
                classes = [pres.project(v) for v in deep.basis_vectors()]
                filtration_images[(p, n)] = Subspace.from_vectors(pres.dim, classes)
        self._cohomology = FilteredCohomology(tuple(groups), filtration_images, self.p_max)
        return self._cohomology

    def compare_graded(self) -> GradedComparison:
        """Check dim E_inf^{p,q} against the graded filtered cohomology.

        Raises SpectralInconsistency on any mismatch: the two sides are
        theorems about each other, so disagreement means a bug.
        """
        limit = self.infinity_page()
        coh = self.cohomology()
        limit_dims = {}
        graded_dims = {}
        for p, q in self._bidegrees():
            limit_dims[(p, q)] = limit.dim(p, q)
            graded_dims[(p, q)] = coh.graded_dim(p, p + q)
        coh_dims = {n: coh.dim(n) for n in range(self.n_max + 1)}
        agree = limit_dims == graded_dims
        for n in range(self.n_max + 1):
            total = sum(limit_dims[(p, n - p)] for p in range(self.p_max + 1)
                        if (p, n - p) in limit_dims)
            if total != coh_dims[n]:
                agree = False
        if not agree:
            raise SpectralInconsistency(
                "limit page does not match graded cohomology: "
                f"E_inf {limit_dims} vs gr {graded_dims}, H {coh_dims}")
        return GradedComparison(limit_dims, graded_dims, coh_dims, agree)


def page_via_homology(prev: Page) -> Page:
    """Next page computed as homology of the previous one, entrywise.

    Works entirely in the coordinates of the given page, so it is an
    independent route to the dimensions of page r+1.  When the page knows
    its parent complex the result is compared against the direct
    subquotient formula and any disagreement is a hard error.  The
    returned page carries no differentials.
    """
    r = prev.r
    entries: dict[tuple[int, int], PageEntry] = {}
    for (p, q), entry in prev.entries.items():
        out_mat = prev.differentials.get((p, q))
        if out_mat is None:
            out_mat = RationalMatrix.zeros(0, entry.dim)
        in_mat = prev.differentials.get((p - r, q + r - 1))
        cocycles = kernel(out_mat)
        boundaries = image(in_mat) if in_mat is not None and in_mat.cols \
            else Subspace.zero(entry.dim)
        if not cocycles.contains(boundaries):
            raise SpectralInconsistency(
                f"homology of page {r} ill-posed at (p={p}, q={q})")
        entries[(p, q)] = PageEntry(p, q, r + 1, cocycles, boundaries,
                                    quotient(cocycles, boundaries))
    result = Page(r + 1, entries, {})
    if prev.parent is not None:
        direct = prev.parent.page(r + 1)
        if direct.dims() != result.dims():
            raise SpectralInconsistency(
                f"homology of page {r} disagrees with the direct formula: "
                f"{result.dims()} vs {direct.dims()}")
    return result


def class_parities(complex_: FilteredComplex, entry: PageEntry) -> list[int] | None:
    """Parity of each page basis class, inherited from its representative.

    Returns None when the complex carries no parity data.  Representatives
    of a parity-split complex are parity-homogeneous; a mixed one would
    indicate corrupted filtration data and raises.
    """
    if complex_.parity is None:
        return None
    n = entry.p + entry.q
    table = complex_.parity[n]
    out = []
    for rep in entry.classes.representatives:
        seen = {table[i] for i, v in enumerate(rep) if v}
        if len(seen) != 1:
            raise SpectralInconsistency("page representative mixes parities")
        out.append(seen.pop())
    return out
