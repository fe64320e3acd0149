"""Cech complexes of locally free sheaves on a split super projective line.

The base is the projective line with its two standard charts, coordinates
x and y = 1/x, enriched by m odd coordinates xi_1..xi_m.  Each xi_i
transforms as a section of a line bundle of degree a_i (the twist
profile), and each sheaf generator e_j (even) or f_j (odd) carries its
own line bundle degree.  A monomial section  x^k xi_I g  therefore lives
in a line bundle of degree

    t = sum of a_i over I + twist(g),

and the global conventions are: sections over U0 are polynomial in x
(exponents 0..N), sections over U1 are polynomial in y (exponents
t-N..t after rewriting through the chart change), and sections over the
overlap may use any exponent in the union range.  The window N caps
polynomial degrees per chart; a stabilization check compares two windows
and flags truncation artifacts.

The filtration level of a monomial is |I| for an even generator and
|I| + 1 for an odd one; level >= p cuts out the p-th filtration layer,
which is zero from p = m + 2 on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .grassmann import AlgebraElement, GrassmannAlgebra, popcount
from .linalg import RationalMatrix, Subspace, quotient
from .spectral import FilteredComplex

U0 = "U0"
U1 = "U1"
U01 = "U01"
CHARTS = (U0, U1, U01)

_ZERO = Fraction(0)

# a monomial key is (exponent, mask, generator index)
MonomialKey = tuple[int, int, int]


@dataclass(frozen=True)
class SheafModel:
    """A locally free sheaf of rank p|q on the split super line.

    coordinate_twists are the line bundle degrees of the odd coordinates;
    even_twists / odd_twists those of the generators.  ``cocycle`` is an
    optional quasi-automorphism of the overlap sections deforming the
    split gluing; None means the split sheaf itself.
    """

    coordinate_twists: tuple[int, ...]
    even_twists: tuple[int, ...]
    odd_twists: tuple[int, ...]
    window: int = 3
    cocycle: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "coordinate_twists", tuple(self.coordinate_twists))
        object.__setattr__(self, "even_twists", tuple(self.even_twists))
        object.__setattr__(self, "odd_twists", tuple(self.odd_twists))
        if self.window < 1:
            raise ValueError("window must be at least 1")

    def __hash__(self):
        # the cocycle is compared but not hashed (operators are unhashable)
        return hash((self.coordinate_twists, self.even_twists,
                     self.odd_twists, self.window))

    @property
    def m(self) -> int:
        return len(self.coordinate_twists)

    @property
    def algebra(self) -> GrassmannAlgebra:
        return GrassmannAlgebra(self.m)

    @property
    def p_max(self) -> int:
        return self.m + 2

    @property
    def generator_count(self) -> int:
        return len(self.even_twists) + len(self.odd_twists)

    def generator_parity(self, g: int) -> int:
        return 0 if g < len(self.even_twists) else 1

    def generator_twist(self, g: int) -> int:
        if g < len(self.even_twists):
            return self.even_twists[g]
        return self.odd_twists[g - len(self.even_twists)]

    def generator_name(self, g: int) -> str:
        if g < len(self.even_twists):
            return f"e{g + 1}"
        return f"f{g - len(self.even_twists) + 1}"

    def generator_index(self, name: str) -> int:
        kind, num = name[0], int(name[1:])
        if kind == "e" and 1 <= num <= len(self.even_twists):
            return num - 1
        if kind == "f" and 1 <= num <= len(self.odd_twists):
            return len(self.even_twists) + num - 1
        raise ValueError(f"unknown generator {name!r}")

    def level(self, mask: int, g: int) -> int:
        return popcount(mask) + self.generator_parity(g)

    def line_twist(self, mask: int, g: int) -> int:
        t = self.generator_twist(g)
        for i in range(self.m):
            if mask >> i & 1:
                t += self.coordinate_twists[i]
        return t

    def with_window(self, window: int) -> "SheafModel":
        return replace(self, window=window)

    def with_cocycle(self, cocycle) -> "SheafModel":
        return replace(self, cocycle=cocycle)

    # -- sections -------------------------------------------------------

    def zero_section(self) -> "SectionElement":
        return SectionElement(self, {})

    def monomial_section(self, exponent: int, mask: int, g: int, coeff=1) -> "SectionElement":
        c = Fraction(coeff)
        return SectionElement(self, {(exponent, mask, g): c} if c else {})

    def generator_section(self, g: int) -> "SectionElement":
        return self.monomial_section(0, 0, g)


class SectionElement:
    """Finite sum of monomials x^k xi_I g with rational coefficients."""

    __slots__ = ("model", "data")

    def __init__(self, model: SheafModel, data: dict):
        self.model = model
        self.data = {k: v for k, v in data.items() if v}

    def is_zero(self) -> bool:
        return not self.data

    def terms(self):
        return sorted(self.data.items())

    def __add__(self, other: "SectionElement") -> "SectionElement":
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, _ZERO) + v
        return SectionElement(self.model, data)

    def __sub__(self, other: "SectionElement") -> "SectionElement":
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, _ZERO) - v
        return SectionElement(self.model, data)

    def __neg__(self) -> "SectionElement":
        return SectionElement(self.model, {k: -v for k, v in self.data.items()})

    def scale(self, c) -> "SectionElement":
        c = Fraction(c)
        return SectionElement(self.model, {k: c * v for k, v in self.data.items()})

    def left_multiply(self, element: AlgebraElement) -> "SectionElement":
        """Multiply by a coefficient algebra element on the left."""
        from .grassmann import multiply_masks
        data: dict = {}
        for (e1, m1), c1 in element.data.items():
            for (e2, m2, g), c2 in self.data.items():
                sign, mask = multiply_masks(m1, m2)
                if sign:
                    key = (e1 + e2, mask, g)
                    data[key] = data.get(key, _ZERO) + sign * c1 * c2
        return SectionElement(self.model, data)

    def min_level(self) -> int | None:
        if not self.data:
            return None
        return min(self.model.level(mask, g) for (_, mask, g) in self.data)

    def level_part(self, p: int) -> "SectionElement":
        return SectionElement(self.model,
                              {k: v for k, v in self.data.items()
                               if self.model.level(k[1], k[2]) == p})

    def parity_values(self) -> set[int]:
        return {(popcount(mask) + self.model.generator_parity(g)) % 2
                for (_, mask, g) in self.data}

    def __eq__(self, other):
        if not isinstance(other, SectionElement):
            return NotImplemented
        return self.model == other.model and self.data == other.data

    def __hash__(self):
        return hash(tuple(sorted(self.data.items())))

    def __repr__(self):
        if not self.data:
            return "0"
        parts = []
        for (e, mask, g), c in self.terms():
            factors = []
            if c != 1:
                factors.append(str(c))
            if e:
                factors.append(f"x^{e}" if e != 1 else "x")
            if mask:
                factors.append("".join(f"xi{i + 1}" for i in range(mask.bit_length())
                                       if mask >> i & 1))
            factors.append(self.model.generator_name(g))
            parts.append(" ".join(factors))
        return " + ".join(parts)


def chart_exponents(model: SheafModel, chart: str, mask: int, g: int,
                    window: int | None = None) -> range:
    """Admissible Laurent exponents of the monomial line on the given chart."""
    n = model.window if window is None else window
    t = model.line_twist(mask, g)
    if chart == U0:
        return range(0, n + 1)
    if chart == U1:
        return range(t - n, t + 1)
    if chart == U01:
        return range(min(0, t - n), max(n, t) + 1)
    raise ValueError(f"unknown chart {chart!r}")


@dataclass(frozen=True)
class SectionBasis:
    """Ordered monomial basis of a section space over one chart."""

    model: SheafModel
    chart: str
    level: int
    keys: tuple[MonomialKey, ...]

    @property
    def dim(self) -> int:
        return len(self.keys)

    def index(self) -> dict[MonomialKey, int]:
        return {k: i for i, k in enumerate(self.keys)}


def build_section_space(model: SheafModel, chart: str, level: int = 0,
                        window: int | None = None) -> SectionBasis:
    """Monomial basis of the level-th filtration layer over a chart.

    Level p keeps x^k xi_I e_j with |I| >= p and x^k xi_I f_j with
    |I| >= p - 1; level 0 is the full section space and level m + 2 is
    empty.
    """
    keys = []
    for g in range(model.generator_count):
        for mask in model.algebra.masks():
            if model.level(mask, g) < level:
                continue
            for e in chart_exponents(model, chart, mask, g, window):
                keys.append((e, mask, g))
    keys.sort(key=lambda k: (k[2], k[1], k[0]))
    return SectionBasis(model, chart, level, tuple(keys))


@dataclass
class GradedSheafData:
    """Per-level quotient presentations of the graded sheaf over each chart."""

    model: SheafModel
    pieces: dict[tuple[str, int], object]  # (chart, level) -> QuotientPresentation
    reduced_even_rank: int
    reduced_odd_rank: int

    def piece_dim(self, chart: str, level: int) -> int:
        piece = self.pieces.get((chart, level))
        return piece.dim if piece else 0

    def cech_dims(self, level: int) -> tuple[int, int]:
        """Dimensions of the degree-0 and degree-1 cochain groups of the piece."""
        return (self.piece_dim(U0, level) + self.piece_dim(U1, level),
                self.piece_dim(U01, level))


def retract_graded(model: SheafModel) -> GradedSheafData:
    """Quotient bases of consecutive filtration layers over every chart.

    Also extracts the ranks of the even and odd parts of the reduced
    sheaf (sections modulo the odd ideal) as a consistency output.
    """
    pieces = {}
    for chart in CHARTS:
        full = build_section_space(model, chart, 0)
        n = full.dim
        idx = full.index()
        for level in range(model.p_max + 1):
            upper = [idx[k] for k in full.keys if model.level(k[1], k[2]) >= level]
            lower = [idx[k] for k in full.keys if model.level(k[1], k[2]) >= level + 1]
            upper_space = Subspace.coordinate(n, upper)
            lower_space = Subspace.coordinate(n, lower)
            pieces[(chart, level)] = quotient(upper_space, lower_space)

    # reduced sheaf over U0: classes modulo the odd ideal times the sheaf
    full0 = build_section_space(model, U0, 0)
    idx0 = full0.index()
    per_line = model.window + 1
    ranks = []
    for par in (0, 1):
        all_idx = [idx0[k] for k in full0.keys if model.generator_parity(k[2]) == par]
        deep_idx = [idx0[k] for k in full0.keys
                    if model.generator_parity(k[2]) == par and k[1] != 0]
        pres = quotient(Subspace.coordinate(full0.dim, all_idx),
                        Subspace.coordinate(full0.dim, deep_idx))
        if pres.dim % per_line:
            raise RuntimeError(f"reduced rank {pres.dim} is not a multiple of "
                               f"the {per_line} sections per line")
        ranks.append(pres.dim // per_line)

    return GradedSheafData(model, pieces, ranks[0], ranks[1])


class CechRealization:
    """The two-chart Cech complex of a model, with its monomial labels.

    ``complex`` is the FilteredComplex handed to the spectral machinery;
    ``basis0`` lists the degree-0 basis as (chart, monomial) pairs and
    ``basis1`` the overlap monomials.  The encode/decode helpers translate
    between symbolic sections and coordinate vectors, truncating silently
    at the window boundary (which the stabilization check guards).
    """

    def __init__(self, model: SheafModel):
        self.model = model
        space_u0 = build_section_space(model, U0, 0)
        space_u1 = build_section_space(model, U1, 0)
        space_overlap = build_section_space(model, U01, 0)
        self.basis0 = tuple((U0, k) for k in space_u0.keys) + \
            tuple((U1, k) for k in space_u1.keys)
        self.basis1 = space_overlap.keys
        self._index0 = {b: i for i, b in enumerate(self.basis0)}
        self._index1 = {k: i for i, k in enumerate(self.basis1)}
        self.truncated_terms = 0
        self.complex = self._build()

    def _build(self) -> FilteredComplex:
        model = self.model
        dim0, dim1 = len(self.basis0), len(self.basis1)
        cocycle = model.cocycle

        rows = [{} for _ in range(dim1)]
        for j, (chart, key) in enumerate(self.basis0):
            if chart == U0:
                rows[self._index1[key]][j] = 1
            else:
                e, mask, g = key
                restricted = model.monomial_section(e, mask, g)
                if cocycle is not None:
                    restricted = cocycle.apply(restricted)
                for term_key, c in restricted.data.items():
                    slot = self._index1.get(term_key)
                    if slot is None:
                        self.truncated_terms += 1
                        continue
                    rows[slot][j] = -c
        d0 = RationalMatrix(dim1, dim0, rows)

        filtration = {}
        for p in range(1, model.p_max):
            idx0 = [i for i, (_, k) in enumerate(self.basis0)
                    if model.level(k[1], k[2]) >= p]
            idx1 = [i for i, k in enumerate(self.basis1)
                    if model.level(k[1], k[2]) >= p]
            filtration[(p, 0)] = Subspace.coordinate(dim0, idx0)
            filtration[(p, 1)] = Subspace.coordinate(dim1, idx1)

        parity0 = [model.level(k[1], k[2]) % 2 for _, k in self.basis0]
        parity1 = [(model.level(k[1], k[2]) + 1) % 2 for k in self.basis1]

        return FilteredComplex(
            dims=[dim0, dim1],
            differentials=[d0],
            filtration=filtration,
            p_max=model.p_max,
            parity=[parity0, parity1],
        )

    # -- coordinates ------------------------------------------------------

    def encode_zero_cochain(self, s0: SectionElement, s1: SectionElement):
        vec = [_ZERO] * len(self.basis0)
        for chart, section in ((U0, s0), (U1, s1)):
            for key, c in section.data.items():
                slot = self._index0.get((chart, key))
                if slot is None:
                    self.truncated_terms += 1
                    continue
                vec[slot] += c
        return tuple(vec)

    def decode_zero_cochain(self, vec) -> tuple[SectionElement, SectionElement]:
        parts = {U0: {}, U1: {}}
        for (chart, key), c in zip(self.basis0, vec):
            if c:
                parts[chart][key] = c
        return (SectionElement(self.model, parts[U0]),
                SectionElement(self.model, parts[U1]))

    def encode_one_cochain(self, s: SectionElement):
        vec = [_ZERO] * len(self.basis1)
        for key, c in s.data.items():
            slot = self._index1.get(key)
            if slot is None:
                self.truncated_terms += 1
                continue
            vec[slot] += c
        return tuple(vec)

    def decode_one_cochain(self, vec) -> SectionElement:
        return SectionElement(self.model,
                              {key: c for key, c in zip(self.basis1, vec) if c})


def cech_realization(model: SheafModel) -> CechRealization:
    return CechRealization(model)


def build_cech_complex(model: SheafModel) -> FilteredComplex:
    """The filtered two-chart Cech complex of the model."""
    return CechRealization(model).complex


@dataclass
class StabilityReport:
    stable: bool
    window: int
    dims_at_window: dict[int, int]
    dims_at_next: dict[int, int]

    def __str__(self) -> str:
        if self.stable:
            return f"window {self.window} stable: {self.dims_at_window}"
        return (f"window unstable, increase N: cohomology {self.dims_at_window} "
                f"at N={self.window} vs {self.dims_at_next} at N={self.window + 1}")


def stabilization_check(model: SheafModel) -> StabilityReport:
    """Compare cohomology dimensions at the model window and one larger."""
    dims = []
    for window in (model.window, model.window + 1):
        coh = CechRealization(model.with_window(window)).complex.cohomology()
        dims.append({n: coh.dim(n) for n in range(2)})
    return StabilityReport(dims[0] == dims[1], model.window, dims[0], dims[1])


def graded_piece_cohomology(model: SheafModel, level: int) -> tuple[int, int]:
    """Cohomology of one graded piece, computed on its own small complex.

    The piece splits off the untwisted complex monomially, so this runs
    the full machinery on just the level's monomials.
    """
    split = model.with_cocycle(None)

    keys0 = [(U0, k) for k in build_section_space(split, U0, 0).keys
             if split.level(k[1], k[2]) == level]
    keys0 += [(U1, k) for k in build_section_space(split, U1, 0).keys
              if split.level(k[1], k[2]) == level]
    keys1 = [k for k in build_section_space(split, U01, 0).keys
             if split.level(k[1], k[2]) == level]
    index1 = {k: i for i, k in enumerate(keys1)}

    rows = [{} for _ in keys1]
    for j, (chart, key) in enumerate(keys0):
        rows[index1[key]][j] = 1 if chart == U0 else -1
    complex_ = FilteredComplex(
        dims=[len(keys0), len(keys1)],
        differentials=[RationalMatrix(len(keys1), len(keys0), rows)],
        filtration={},
        p_max=1,
    )
    coh = complex_.cohomology()
    return coh.dim(0), coh.dim(1)
