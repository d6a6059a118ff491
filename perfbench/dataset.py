"""Seeded suppliers-and-parts data and engine-independent reference answers.

The benchmark owns its generator, so the engine's own workload code cannot
shape its inputs.  The shape follows Section 4 of the paper:
``parts(p_no, color)`` and ``supplies(s_no, p_no)``.  Every supplier
supplies a random sample of parts, and a planted share of suppliers also
supplies every part of one colour.  Without the planted suppliers no
supplier covers all ~100 parts of a colour and the Q1/Q2 quotients are
empty, which would leave the division output path unexercised.

:class:`Reference` answers Q1 and Q2 by plain Python set containment and
keeps those answers current under single-row edits, so every engine answer
can be checked without trusting the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COLORS = ("blue", "red", "green", "yellow")

SUPPLIERS = 2000
PARTS = 400
PARTS_PER_SUPPLIER = 60
#: Share of suppliers that also supply every part of one random colour.
PLANTED_SHARE = 0.05


@dataclass(frozen=True)
class Dataset:
    """Generated rows, in generation order."""

    parts: tuple[tuple[str, str], ...]
    supplies: tuple[tuple[str, str], ...]


def generate(seed: int) -> Dataset:
    """The seeded database: ~128k ``supplies`` rows over 400 parts."""
    rng = random.Random(seed)
    parts = tuple((f"p{index}", rng.choice(COLORS)) for index in range(PARTS))
    part_ids = [part for part, _color in parts]
    parts_of_color: dict[str, list[str]] = {color: [] for color in COLORS}
    for part, color in parts:
        parts_of_color[color].append(part)
    supplies: dict[tuple[str, str], None] = {}
    for number in range(SUPPLIERS):
        supplier = f"s{number}"
        for part in rng.sample(part_ids, PARTS_PER_SUPPLIER):
            supplies[(supplier, part)] = None
        if rng.random() < PLANTED_SHARE:
            for part in parts_of_color[rng.choice(COLORS)]:
                supplies[(supplier, part)] = None
    return Dataset(parts=parts, supplies=tuple(supplies))


def build_catalog(dataset: Dataset):
    """An engine catalog over ``dataset`` with the paper's declared constraints."""
    from repro.algebra.catalog import Catalog
    from repro.relation import Relation

    catalog = Catalog()
    catalog.add_table("parts", Relation(["p_no", "color"], dataset.parts), key=["p_no"])
    catalog.add_table("supplies", Relation(["s_no", "p_no"], dataset.supplies))
    catalog.declare_foreign_key("supplies", ["p_no"], "parts", ["p_no"])
    return catalog


class Reference:
    """Q1/Q2 answers by set containment, maintained under single-row edits.

    Q1 is ``{(s, c) : every part of colour c is supplied by s}`` and Q2 is
    ``{s : every blue part is supplied by s}``.  Q3 and Q2_NOT_EXISTS must
    equal Q1 and Q2.  An edit touches one supplier, so only that
    supplier's Q1 rows are recomputed.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.color_of = dict(dataset.parts)
        self.parts_of: dict[str, frozenset[str]] = {
            color: frozenset(p for p, c in dataset.parts if c == color)
            for color in sorted(set(self.color_of.values()))
        }
        self.supplied: dict[str, set[str]] = {}
        for supplier, part in dataset.supplies:
            self.supplied.setdefault(supplier, set()).add(part)
        self.q1: set[tuple[str, str]] = set()
        for supplier in self.supplied:
            self._recompute(supplier)

    def _recompute(self, supplier: str) -> None:
        parts = self.supplied.get(supplier, set())
        for color, required in self.parts_of.items():
            if parts and required <= parts:
                self.q1.add((supplier, color))
            else:
                self.q1.discard((supplier, color))

    @property
    def q2(self) -> set[tuple[str]]:
        return {(supplier,) for supplier, color in self.q1 if color == "blue"}

    def answer(self, query: str) -> set[tuple[str, ...]]:
        """The expected rows of ``query`` ("q1", "q2", "q3" or "q2ne")."""
        return set(self.q1) if query in ("q1", "q3") else self.q2

    def delete(self, row: tuple[str, str]) -> None:
        supplier, part = row
        parts = self.supplied[supplier]
        parts.discard(part)
        if not parts:
            del self.supplied[supplier]
        self._recompute(supplier)

    def insert(self, row: tuple[str, str]) -> None:
        supplier, part = row
        self.supplied.setdefault(supplier, set()).add(part)
        self._recompute(supplier)

    def supplies(self) -> set[tuple[str, str]]:
        """The expected contents of ``supplies``."""
        return {(s, p) for s, parts in self.supplied.items() for p in parts}
