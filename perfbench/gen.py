"""Seeded input generator and independent oracles for the benchmark.

Standard library only.  Nothing here imports ``superseq`` or the test
suite, so the inputs stay the same whatever the program does with them;
the oracles are closed forms (line bundle cohomology on the projective
line, window stability).  The program is never run to choose or discard
an input.

A workload's inputs come from ``random.Random(f"{workload}:{seed}")``,
which is stable across interpreter runs.
"""

from __future__ import annotations

import hashlib
import random

SCENARIO_HEADER = "superseq scenario v1"


def seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- sheaf scenarios -------------------------------------------------------------

def _mask_text(mask: int) -> str:
    return " ".join(f"xi{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


class SheafSpec:
    """Twist data of a sheaf scenario, plus optional derivation blocks."""

    def __init__(self, coordinate_twists, even_twists, odd_twists, window,
                 cocycle=(), override=()):
        self.coordinate_twists = tuple(coordinate_twists)
        self.even_twists = tuple(even_twists)
        self.odd_twists = tuple(odd_twists)
        self.window = window
        self.cocycle = tuple(cocycle)
        self.override = tuple(override)

    @property
    def m(self) -> int:
        return len(self.coordinate_twists)

    def generators(self):
        """(name, parity, twist) of every generator, evens first."""
        return ([(f"e{i + 1}", 0, t) for i, t in enumerate(self.even_twists)]
                + [(f"f{i + 1}", 1, t) for i, t in enumerate(self.odd_twists)])

    def line_twists(self):
        """Degree of every monomial line x^k xi_I g, one per (I, g)."""
        out = []
        for _, _, twist in self.generators():
            for mask in range(1 << self.m):
                out.append(twist + sum(a for i, a in enumerate(self.coordinate_twists)
                                       if mask >> i & 1))
        return out

    def stable(self) -> bool:
        """The window holds every global section: N >= every line degree."""
        return self.window >= max(self.line_twists())

    def closed_form(self):
        """(h0, h1) as the sum of line bundle cohomology over all lines."""
        twists = self.line_twists()
        return (sum(max(t + 1, 0) for t in twists), sum(max(-t - 1, 0) for t in twists))

    def text(self) -> str:
        lines = [SCENARIO_HEADER, "mode: super_sheaf",
                 "coordinate_twists: " + " ".join(map(str, self.coordinate_twists)),
                 "even_twists: " + " ".join(map(str, self.even_twists)),
                 "odd_twists: " + " ".join(map(str, self.odd_twists)),
                 f"window: {self.window}"]
        for title, body in (("cocycle exp", self.cocycle), ("symbol override", self.override)):
            if body:
                lines += ["", f"[{title}]", *body]
        return "\n".join(lines) + "\n"


def derivation_term(coeff: int, exponent: int, mask: int, target: str = "") -> str:
    """One line-body term ``c x^e xi.. g`` of a derivation block."""
    parts = [str(coeff), f"x^{exponent}", _mask_text(mask), target]
    return " ".join(p for p in parts if p)


def random_even_cocycle(shape_rng: random.Random, value_rng: random.Random,
                        spec: SheafSpec, terms: int, field: bool, exponents=(-2, 2)):
    """Lines of a ``[cocycle exp]`` block raising the level by an even amount >= 2.

    ``terms`` module terms g -> c x^e xi_I h are drawn from the slots whose
    level raise |I| + parity(h) - parity(g) is even and at least two; with
    ``field`` an ``x -> c x^e xi_I`` term with |I| = 2 is added.  Which
    slots carry a term, and with which exponent, comes from ``shape_rng``;
    the coefficients come from ``value_rng``.
    """
    gens = spec.generators()
    slots = [(src, tgt, mask)
             for src in gens for tgt in gens for mask in range(1 << spec.m)
             if bin(mask).count("1") + tgt[1] - src[1] >= 2
             and (bin(mask).count("1") + tgt[1] - src[1]) % 2 == 0]
    images = {}
    for src, tgt, mask in shape_rng.sample(slots, min(terms, len(slots))):
        term = derivation_term(value_rng.choice((-2, -1, 1, 2, 3)),
                               shape_rng.randint(*exponents), mask, tgt[0])
        images.setdefault(src[0], []).append(term)
    lines = [f"{name} -> " + " + ".join(body) for name, body in sorted(images.items())]
    if field:
        pairs = [mask for mask in range(1 << spec.m) if bin(mask).count("1") == 2]
        lines.append("x -> " + derivation_term(value_rng.choice((-1, 1, 2)),
                                               shape_rng.randint(-1, 1),
                                               shape_rng.choice(pairs)))
    return [line.replace("+ -", "- ") for line in lines]
