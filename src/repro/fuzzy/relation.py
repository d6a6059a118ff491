"""Fuzzy relations (related-work extension, Section 6 of the paper).

A fuzzy relation weights every tuple with a membership degree in ``[0, 1]``.
The paper cites Buckles & Petry and the fuzzy-division literature
(Bosc et al., Yager); this module provides the substrate those operators
need: membership-graded tuples with max/min union/intersection and graded
projection.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.errors import RelationError
from repro.relation.relation import align_row
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = ["FuzzyRelation"]


class FuzzyRelation:
    """A mapping from rows to membership degrees.

    Degrees must lie in ``[0, 1]``; a degree of 0 means the tuple is absent
    (such entries are dropped on construction).
    """

    def __init__(
        self,
        attributes: AttributeNames,
        memberships: Mapping[Any, float] | Iterable[tuple[Any, float]] = (),
    ) -> None:
        self._schema = Schema.interned(as_schema(attributes).names)
        entries = memberships.items() if isinstance(memberships, Mapping) else memberships
        self._memberships: dict[Row, float] = {}
        for raw_row, degree in entries:
            if not 0.0 <= degree <= 1.0:
                raise RelationError(f"membership degree {degree!r} outside [0, 1]")
            if degree == 0.0:
                continue
            row = self._coerce(raw_row)
            self._memberships[row] = max(degree, self._memberships.get(row, 0.0))

    def _coerce(self, raw_row: Any) -> Row:
        return Row.from_schema(self._schema, align_row(self._schema, raw_row))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def membership(self, row: Any) -> float:
        """Membership degree of ``row`` (0.0 when absent)."""
        return self._memberships.get(self._coerce(row), 0.0)

    def rows(self) -> dict[Row, float]:
        """All rows with nonzero membership."""
        return dict(self._memberships)

    def support(self) -> set[Row]:
        """The crisp support: rows with membership > 0."""
        return set(self._memberships)

    def __len__(self) -> int:
        return len(self._memberships)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FuzzyRelation):
            return self._schema == other._schema and self._memberships == other._memberships
        return NotImplemented

    def __repr__(self) -> str:
        return f"FuzzyRelation(attributes={self._schema.names!r}, rows={len(self)})"

    # ------------------------------------------------------------------
    # operators (standard max/min fuzzy set semantics)
    # ------------------------------------------------------------------
    def union(self, other: "FuzzyRelation") -> "FuzzyRelation":
        """Fuzzy union (degree = max)."""
        self._require_same_schema(other)
        merged = dict(self._memberships)
        for row, degree in other._memberships.items():
            merged[row] = max(merged.get(row, 0.0), degree)
        return FuzzyRelation(self._schema, merged)

    def intersection(self, other: "FuzzyRelation") -> "FuzzyRelation":
        """Fuzzy intersection (degree = min)."""
        self._require_same_schema(other)
        merged = {
            row: min(degree, other._memberships[row])
            for row, degree in self._memberships.items()
            if row in other._memberships
        }
        return FuzzyRelation(self._schema, merged)

    def select(self, predicate) -> "FuzzyRelation":
        """Crisp selection: keep rows satisfying ``predicate`` with their degree."""
        return FuzzyRelation(
            self._schema,
            {row: degree for row, degree in self._memberships.items() if predicate(row)},
        )

    def project(self, attributes: AttributeNames) -> "FuzzyRelation":
        """Graded projection: the degree of an output row is the max over its preimages."""
        target = self._schema.project(attributes)
        merged: dict[Row, float] = {}
        for row, degree in self._memberships.items():
            projected = row.project(target)
            merged[projected] = max(merged.get(projected, 0.0), degree)
        return FuzzyRelation(target, merged)

    def _require_same_schema(self, other: "FuzzyRelation") -> None:
        if self._schema != other._schema:
            raise RelationError(
                f"fuzzy operation requires identical schemas: {self._schema.names!r} vs "
                f"{other._schema.names!r}"
            )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_crisp(cls, relation, degree: float = 1.0) -> "FuzzyRelation":
        """Lift an ordinary relation to a fuzzy relation with constant degree."""
        return cls(relation.schema, {row: degree for row in relation})

    def alpha_cut(self, alpha: float):
        """The crisp relation of rows with membership ≥ ``alpha``."""
        from repro.relation.relation import Relation

        return Relation(
            self._schema,
            [row for row, degree in self._memberships.items() if degree >= alpha],
        )
