"""Operators deforming sheaves on the split super line, and what they do
to the spectral sequence.

A quasi-derivation is a pair (module action on the generators, even
derivation of the coefficient algebra) glued by the Leibniz rule

    A(f v) = G(f) v + f A(v);

a quasi-automorphism is the multiplicative analogue, a pair (generator
images, algebra endomorphism) with  a(f v) = P(f) a(v).  Both raise the
filtration level by a definite amount; once the raise is at least two in
both slots the exponential and logarithmic series terminate and are
mutually inverse, exactly, in rational arithmetic.

The degree-k symbol of an automorphism deep in the filtration is the
level-homogeneous degree-k component of its logarithm.  The order of an
overlap cocycle is found greedily: at each even stage the symbol's class
in the degree-k derivation cohomology of the two-chart covering is a
finite linear problem; solvable obstructions are absorbed into the
cocycle and the first unsolvable stage is the order.  The final
verification builds the twisted Cech complex, runs the spectral kernel,
and compares the first nonvanishing page differential with the symbol's
cup action, entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grassmann import AlgebraDerivation, AlgebraElement, AlgebraMorphism, popcount
from .linalg import RationalMatrix, solve_linear
from .supercech import (
    CechRealization,
    SectionElement,
    SheafModel,
    cech_realization,
    stabilization_check,
)


def _section_from_algebra(model: SheafModel, element: AlgebraElement,
                          g: int) -> SectionElement:
    return SectionElement(model, {(e, mask, g): c
                                  for (e, mask), c in element.data.items()})


class QuasiDerivation:
    """Leibniz operator on sections: generator images plus a field part."""

    __slots__ = ("model", "gen_images", "field")

    def __init__(self, model: SheafModel, gen_images, field: AlgebraDerivation | None = None):
        self.model = model
        self.gen_images = tuple(gen_images)
        if len(self.gen_images) != model.generator_count:
            raise ValueError("need one image per generator")
        self.field = field if field is not None else AlgebraDerivation(model.algebra)

    @classmethod
    def zero(cls, model: SheafModel) -> "QuasiDerivation":
        return cls(model, [model.zero_section()] * model.generator_count)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.gen_images) and self.field.is_zero()

    def apply(self, section: SectionElement) -> SectionElement:
        model = self.model
        out = model.zero_section()
        for (e, mask, g), c in section.data.items():
            coeff = model.algebra.monomial(e, mask, c)
            field_part = self.field.apply(coeff)
            if not field_part.is_zero():
                out = out + _section_from_algebra(model, field_part, g)
            img = self.gen_images[g]
            if not img.is_zero():
                out = out + img.left_multiply(coeff)
        return out

    def add(self, other: "QuasiDerivation") -> "QuasiDerivation":
        return QuasiDerivation(self.model,
                               [a + b for a, b in zip(self.gen_images, other.gen_images)],
                               self.field.add(other.field))

    def scale(self, c) -> "QuasiDerivation":
        return QuasiDerivation(self.model,
                               [v.scale(c) for v in self.gen_images],
                               self.field.scale(c))

    def module_shift(self) -> int | None:
        """Minimal level raise of the generator images; None when absent."""
        shifts = []
        for g, img in enumerate(self.gen_images):
            base = self.model.generator_parity(g)
            lvl = img.min_level()
            if lvl is not None:
                shifts.append(lvl - base)
        return min(shifts) if shifts else None

    def field_shift(self) -> int | None:
        return self.field.odd_degree_shift()

    def level_shift(self) -> int | None:
        """Minimal level raise of the full action on sections."""
        shifts = [s for s in (self.module_shift(), self.field_shift()) if s is not None]
        return min(shifts) if shifts else None

    def homogeneous_part(self, k: int) -> "QuasiDerivation":
        """The component raising the level by exactly k."""
        model = self.model
        images = [img.level_part(model.generator_parity(g) + k)
                  for g, img in enumerate(self.gen_images)]
        return QuasiDerivation(model, images, self.field.homogeneous_part(k))

    def __eq__(self, other):
        if not isinstance(other, QuasiDerivation):
            return NotImplemented
        return (self.model == other.model
                and self.gen_images == other.gen_images
                and self.field.image_x == other.field.image_x
                and self.field.image_xi == other.field.image_xi)

    def __repr__(self):
        names = self.model.generator_name
        parts = [f"{names(g)} -> {img}" for g, img in enumerate(self.gen_images)
                 if not img.is_zero()]
        if not self.field.is_zero():
            parts.append(f"x -> {self.field.image_x}")
            for i, v in enumerate(self.field.image_xi):
                if not v.is_zero():
                    parts.append(f"xi{i + 1} -> {v}")
        return "QuasiDerivation(" + "; ".join(parts or ["0"]) + ")"


class QuasiAutomorphism:
    """Invertible multiplicative operator: generator images plus an
    algebra endomorphism on the coefficients."""

    __slots__ = ("model", "gen_images", "morphism")

    def __init__(self, model: SheafModel, gen_images, morphism: AlgebraMorphism | None = None):
        self.model = model
        self.gen_images = tuple(gen_images)
        if len(self.gen_images) != model.generator_count:
            raise ValueError("need one image per generator")
        self.morphism = morphism if morphism is not None \
            else AlgebraMorphism.identity(model.algebra)

    @classmethod
    def identity(cls, model: SheafModel) -> "QuasiAutomorphism":
        return cls(model, [model.generator_section(g)
                           for g in range(model.generator_count)])

    def is_identity(self) -> bool:
        return self.deviation_shift() is None

    def apply(self, section: SectionElement) -> SectionElement:
        model = self.model
        out = model.zero_section()
        for (e, mask, g), c in section.data.items():
            coeff = self.morphism.apply(model.algebra.monomial(e, mask, c))
            out = out + self.gen_images[g].left_multiply(coeff)
        return out

    def compose(self, other: "QuasiAutomorphism") -> "QuasiAutomorphism":
        """self after other."""
        return QuasiAutomorphism(self.model,
                                 [self.apply(img) for img in other.gen_images],
                                 self.morphism.compose(other.morphism))

    def deviation_shift(self) -> int | None:
        """Minimal level raise of (self - id) on sections; None if identity."""
        shifts = []
        for g, img in enumerate(self.gen_images):
            dev = img - self.model.generator_section(g)
            lvl = dev.min_level()
            if lvl is not None:
                shifts.append(lvl - self.model.generator_parity(g))
        psi_shift = self.morphism.deviation_shift()
        if psi_shift is not None:
            shifts.append(psi_shift)
        return min(shifts) if shifts else None

    def field_deviation_shift(self) -> int | None:
        return self.morphism.deviation_shift()

    def parity_consistent(self) -> bool:
        """Even operator: all deviations shift the level by even amounts."""
        for g, img in enumerate(self.gen_images):
            dev = img - self.model.generator_section(g)
            base = self.model.generator_parity(g)
            for (_, mask, tgt) in dev.data:
                if (self.model.level(mask, tgt) - base) % 2:
                    return False
        alg = self.model.algebra
        for (_, mask) in (self.morphism.image_x - alg.x()).data:
            if popcount(mask) % 2:
                return False
        for i in range(alg.m):
            for (_, mask) in (self.morphism.image_xi[i] - alg.xi(i + 1)).data:
                if (popcount(mask) - 1) % 2:
                    return False
        return True

    def inverse(self) -> "QuasiAutomorphism":
        shift = self.deviation_shift()
        if shift is None:
            return self
        if shift < 2 or (self.field_deviation_shift() or 99) < 2:
            raise ValueError("inverse implemented only for nilpotent deviations")
        return exponential(logarithm(self).scale(-1))

    def __eq__(self, other):
        if not isinstance(other, QuasiAutomorphism):
            return NotImplemented
        return (self.model == other.model
                and self.gen_images == other.gen_images
                and self.morphism == other.morphism)

    def __repr__(self):
        names = self.model.generator_name
        parts = [f"{names(g)} -> {img}" for g, img in enumerate(self.gen_images)]
        return "QuasiAutomorphism(" + "; ".join(parts) + ")"


def _require_nilpotent(module_shift, field_shift, what: str):
    if module_shift is not None and module_shift < 2:
        raise ValueError(f"{what}: module part raises the level only by {module_shift}")
    if field_shift is not None and field_shift < 2:
        raise ValueError(f"{what}: field part raises the odd degree only by {field_shift}")


def exponential(a: QuasiDerivation) -> QuasiAutomorphism:
    """Finite exponential series of a level-raising quasi-derivation."""
    _require_nilpotent(a.module_shift(), a.field_shift(), "exp")
    model = a.model
    images = []
    for g in range(model.generator_count):
        acc = model.generator_section(g)
        term = model.generator_section(g)
        k = 1
        while True:
            term = a.apply(term).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
            k += 1
        images.append(acc)
    alg = model.algebra
    morphism_images = []
    for start in [alg.x()] + [alg.xi(i + 1) for i in range(alg.m)]:
        acc = start
        term = start
        k = 1
        while True:
            term = a.field.apply(term).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
            k += 1
        morphism_images.append(acc)
    morphism = AlgebraMorphism(alg, morphism_images[0], morphism_images[1:])
    return QuasiAutomorphism(model, images, morphism)


def logarithm(a: QuasiAutomorphism) -> QuasiDerivation:
    """Finite logarithmic series; inverse to :func:`exponential`."""
    _require_nilpotent(a.deviation_shift(), a.field_deviation_shift(), "log")
    model = a.model

    def log_series(start, apply_dev):
        acc = None
        power = apply_dev(start)
        j = 1
        while not (power is None or power.is_zero()):
            contribution = power.scale(Fraction((-1) ** (j + 1), j))
            acc = contribution if acc is None else acc + contribution
            power = apply_dev(power)
            j += 1
        return acc

    images = []
    for g in range(model.generator_count):
        dev = log_series(model.generator_section(g),
                         lambda v: a.apply(v) - v)
        images.append(dev if dev is not None else model.zero_section())
    alg = model.algebra
    field_images = []
    for start in [alg.x()] + [alg.xi(i + 1) for i in range(alg.m)]:
        dev = log_series(start, lambda v: a.morphism.apply(v) - v)
        field_images.append(dev if dev is not None else alg.zero())
    field = AlgebraDerivation(alg, field_images[0], field_images[1:])
    return QuasiDerivation(model, images, field)


def degree_symbol(a: QuasiAutomorphism, k: int) -> QuasiDerivation:
    """Degree-k component of log(a), as a homogeneous derivation.

    Defined for even k >= 2 and automorphisms whose deviation raises the
    level by at least k; it vanishes exactly on deviations of level k+2
    and beyond, and is additive under composition in that range.
    """
    if k < 2 or k % 2:
        raise ValueError("the symbol is defined for even k >= 2")
    shift = a.deviation_shift()
    if shift is not None and shift < k:
        raise ValueError(f"automorphism deviates at level {shift}, below {k}")
    return logarithm(a).homogeneous_part(k) if shift is not None \
        else QuasiDerivation.zero(a.model)


def twisted_differential(model: SheafModel, cochain):
    """Coboundary of the deformed complex on symbolic cochains.

    A degree-0 cochain is a pair of sections over the two charts and maps
    to the overlap section rho_0(s0) - a(rho_1(s1)); a degree-1 cochain
    maps to zero since the covering has no triple overlaps.  With no
    cocycle this is the split coboundary.
    """
    if isinstance(cochain, SectionElement):
        return model.zero_section()
    s0, s1 = cochain
    restricted = s1
    if model.cocycle is not None:
        restricted = model.cocycle.apply(s1)
    return s0 - restricted


# -- the obstruction calculus ------------------------------------------------


def _derivation_coordinates(d: QuasiDerivation) -> dict:
    coords = {}
    for g, img in enumerate(d.gen_images):
        for key, c in img.data.items():
            coords[("g", g, key)] = c
    for key, c in d.field.image_x.data.items():
        coords[("x", key)] = c
    for i, v in enumerate(d.field.image_xi):
        for key, c in v.data.items():
            coords[("xi", i, key)] = c
    return {k: v for k, v in coords.items() if v}


def chart_derivation_basis(model: SheafModel, k: int, chart: str,
                           width: int) -> list[QuasiDerivation]:
    """Spanning set of chart-regular degree-k homogeneous derivations.

    Operators are written in the global trivialization; regularity over
    the second chart is imposed by rewriting through the chart change,
    which twists module entries by the line degree difference and mixes
    the x-component of the field into the odd components.
    """
    alg = model.algebra
    out = []

    def u0_exponents():
        return range(0, width + 1)

    for src in range(model.generator_count):
        for tgt in range(model.generator_count):
            for mask in alg.masks():
                if model.level(mask, tgt) - model.generator_parity(src) != k:
                    continue
                twist = model.line_twist(mask, tgt) - model.generator_twist(src)
                for w in u0_exponents():
                    exp = w if chart == "U0" else twist - w
                    images = [model.zero_section()] * model.generator_count
                    images[src] = model.monomial_section(exp, mask, tgt)
                    out.append(QuasiDerivation(model, images))

    def mask_twist(mask):
        return sum(model.coordinate_twists[i] for i in range(model.m) if mask >> i & 1)

    for mask in alg.masks(k):
        sum_a = mask_twist(mask)
        for w in u0_exponents():
            if chart == "U0":
                field = AlgebraDerivation(alg, image_x=alg.monomial(w, mask))
            else:
                image_x = alg.monomial(2 - w + sum_a, mask, -1)
                image_xi = []
                for i in range(alg.m):
                    a_i = model.coordinate_twists[i]
                    if a_i:
                        prod = alg.monomial(1 - w + sum_a, mask) * alg.xi(i + 1)
                        image_xi.append(prod.scale(a_i))
                    else:
                        image_xi.append(alg.zero())
                field = AlgebraDerivation(alg, image_x, image_xi)
            out.append(QuasiDerivation(model, [model.zero_section()]
                                       * model.generator_count, field))

    for mask in alg.masks(k + 1):
        sum_a = mask_twist(mask)
        for i in range(alg.m):
            a_i = model.coordinate_twists[i]
            for w in u0_exponents():
                exp = w if chart == "U0" else sum_a - a_i - w
                image_xi = [alg.zero()] * alg.m
                image_xi[i] = alg.monomial(exp, mask)
                field = AlgebraDerivation(alg, alg.zero(), image_xi)
                out.append(QuasiDerivation(model, [model.zero_section()]
                                           * model.generator_count, field))

    return [d for d in out if not d.is_zero()]


def _solve_symbol_coboundary(model: SheafModel, target: QuasiDerivation,
                             k: int, width: int):
    """Write target as (chart-0 part) - (chart-1 part) if possible."""
    basis0 = chart_derivation_basis(model, k, "U0", width)
    basis1 = chart_derivation_basis(model, k, "U1", width)
    target_coords = _derivation_coordinates(target)
    columns = [_derivation_coordinates(d) for d in basis0]
    columns += [{key: -c for key, c in _derivation_coordinates(d).items()}
                for d in basis1]

    keys = set(target_coords)
    for col in columns:
        keys.update(col)
    key_list = sorted(keys)
    key_index = {key: i for i, key in enumerate(key_list)}

    rows = [{} for _ in key_list]
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows[key_index[key]][j] = c
    rhs = [target_coords.get(key, 0) for key in key_list]
    solution = solve_linear(RationalMatrix(len(key_list), len(columns), rows), rhs)
    if solution is None:
        return None

    b0 = QuasiDerivation.zero(model)
    b1 = QuasiDerivation.zero(model)
    for coeff, d in zip(solution[:len(basis0)], basis0):
        if coeff:
            b0 = b0.add(d.scale(coeff))
    for coeff, d in zip(solution[len(basis0):], basis1):
        if coeff:
            b1 = b1.add(d.scale(coeff))
    return b0, b1


def _obstruction_width(model: SheafModel, target: QuasiDerivation) -> int:
    exps = [0]
    for key in _derivation_coordinates(target):
        exps.append(abs(key[-1][0]))
    twists = [abs(model.line_twist(mask, g))
              for g in range(model.generator_count)
              for mask in model.algebra.masks()] or [0]
    twist_spread = max(twists) + sum(abs(a) for a in model.coordinate_twists)
    return max(exps) + twist_spread + 4


def normalize_cocycle(model: SheafModel):
    """Greedy order computation.

    Returns (order, normalized cocycle): at each even stage the degree
    symbol either survives (its class is not a two-chart coboundary, and
    the stage is the order) or is absorbed by conjugating with chart
    regular exponentials.  A cocycle that normalizes all the way to the
    identity has infinite order (the sheaf is split).
    """
    a = model.cocycle if model.cocycle is not None \
        else QuasiAutomorphism.identity(model)
    shift = a.deviation_shift()
    field_shift = a.field_deviation_shift()
    if shift is not None and shift < 2:
        raise ValueError("cocycle must deviate from the identity at level 2 or deeper")
    if field_shift is not None and field_shift < 2:
        raise ValueError("cocycle coefficient morphism must deviate at odd degree 2 or deeper")
    if not a.parity_consistent():
        raise ValueError("cocycle deviation has odd-level components")

    k = 2
    while k <= model.m + 1:
        shift = a.deviation_shift()
        if shift is None:
            return math.inf, a
        if shift < k:
            raise RuntimeError("normalization lost filtration depth")
        symbol = degree_symbol(a, k)
        if not symbol.is_zero():
            width = _obstruction_width(model, symbol)
            solution = _solve_symbol_coboundary(model, symbol, k, width)
            if solution is None:
                # solvability is monotone in the width, so only this
                # verdict needs the stability recheck
                if _solve_symbol_coboundary(model, symbol, k, width + 1) is not None:
                    raise RuntimeError("obstruction window unstable, increase it")
                return k, a
            b0, b1 = solution
            a = exponential(b0.scale(-1)).compose(a).compose(exponential(b1))
            new_shift = a.deviation_shift()
            if new_shift is not None and new_shift < k + 2:
                raise RuntimeError("absorbing the symbol did not deepen the cocycle")
        k += 2
    shift = a.deviation_shift()
    if shift is not None and shift <= model.m + 1:
        # an odd-level leftover would have been caught by the parity check
        raise RuntimeError("cocycle retains a deviation beyond the last even stage")
    return math.inf, a


def cocycle_order(model: SheafModel):
    """Order of the deformation cocycle: the first even stage whose symbol
    class survives, or infinity for a split (normalizable) sheaf."""
    return normalize_cocycle(model)[0]


# -- the degeneracy theorem ---------------------------------------------------


@dataclass
class SymbolCheck:
    p: int
    q: int
    page_matrix: RationalMatrix
    cup_matrix: RationalMatrix

    @property
    def ok(self) -> bool:
        return self.page_matrix == self.cup_matrix


@dataclass
class DegeneracyReport:
    order: object  # even int or math.inf
    vanishing: dict[int, bool]          # page index -> all differentials zero
    symbol_checks: list[SymbolCheck]
    truncation_safe: bool

    @property
    def passed(self) -> bool:
        return (all(self.vanishing.values())
                and all(c.ok for c in self.symbol_checks)
                and self.truncation_safe)

    def failures(self) -> list[str]:
        out = []
        for r, ok in sorted(self.vanishing.items()):
            if not ok:
                out.append(f"d_{r} expected to vanish but does not")
        for c in self.symbol_checks:
            if not c.ok:
                out.append(f"d at (p={c.p}, q={c.q}): page matrix "
                           f"{c.page_matrix} != symbol action {c.cup_matrix}")
        if not self.truncation_safe:
            out.append("window unstable, increase N")
        return out


def _symbol_cup_matrix(real: CechRealization, entry, target,
                       symbol: QuasiDerivation) -> RationalMatrix:
    """Matrix of the symbol's cup action on a page entry.

    On degree-0 classes (s0, s1) the representing cocycle acts through the
    second chart, with the sign dictated by the complex's coboundary
    convention d(s0, s1) = rho0(s0) - a(rho1(s1)).
    """
    columns = []
    for rep in entry.classes.representatives:
        _, s1 = real.decode_zero_cochain(rep)
        correction = symbol.apply(s1).scale(-1)
        columns.append(target.classes.project(real.encode_one_cochain(correction)))
    return RationalMatrix.from_columns(columns, rows=target.classes.dim)


def verify_degeneracy(model: SheafModel,
                      symbol_override: QuasiDerivation | None = None) -> DegeneracyReport:
    """Check the vanishing pattern of the page differentials.

    For a cocycle of order k every differential below page k must vanish
    and the page-k differential must equal the cup action of the degree-k
    symbol of the normalized cocycle.  ``symbol_override`` substitutes the
    derivation used on the comparison side (a deliberately wrong one must
    make the report fail).
    """
    order, normalized = normalize_cocycle(model)
    split = order == math.inf
    norm_model = model.with_cocycle(None if normalized.is_identity() else normalized)
    real = cech_realization(norm_model)
    complex_ = real.complex

    def must_vanish(r: int) -> bool:
        # below the order by the theorem; odd pages always, by parity
        return split or r < order or r % 2 == 1

    vanishing: dict[int, bool] = {}
    for r in range(1, complex_.p_max + 1):
        if must_vanish(r):
            page = complex_.page(r)
            vanishing[r] = all(mat.is_zero() for mat in page.differentials.values())

    if model.cocycle is not None and norm_model.cocycle is None:
        # normalizable case: the original twisted complex degenerates too
        original = cech_realization(model).complex
        for r in range(1, original.p_max + 1):
            if must_vanish(r):
                page = original.page(r)
                vanishing[r] = vanishing.get(r, True) and \
                    all(mat.is_zero() for mat in page.differentials.values())

    symbol_checks: list[SymbolCheck] = []
    if not split:
        k = order
        symbol = symbol_override if symbol_override is not None \
            else degree_symbol(normalized, k)
        page = complex_.page(k)
        for (p, q), entry in page.entries.items():
            if p + q != 0 or entry.dim == 0:
                continue
            target = page.entries.get((p + k, q - k + 1))
            if target is None or target.dim == 0:
                d_mat = page.differentials[(p, q)]
                cup = RationalMatrix.zeros(d_mat.rows, d_mat.cols)
            else:
                d_mat = page.differentials[(p, q)]
                cup = _symbol_cup_matrix(real, entry, target, symbol)
            symbol_checks.append(SymbolCheck(p, q, d_mat, cup))

    stability = stabilization_check(norm_model)
    return DegeneracyReport(order, vanishing, symbol_checks, stability.stable)
