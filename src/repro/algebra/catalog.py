"""Catalog: named relations plus integrity constraints.

Several laws of the paper have preconditions that go beyond schemas:

* Law 9 and Example 3 need a *foreign key* / inclusion dependency
  ``π_{B2}(r2) ⊆ r1**``;
* Law 11 needs the dividend grouped such that each quotient candidate has a
  single tuple (guaranteed when ``A`` is a key, e.g. the output of a
  grouping);
* Law 12 additionally needs ``r2.B`` to be a foreign key referencing
  ``r1.B``.

The :class:`Catalog` records these constraints so that rewrite rules can
check them declaratively, and it doubles as the database (name → relation
mapping) the evaluator and the physical executor read from.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.algebra.expressions import RelationRef
from repro.errors import SchemaError
from repro.relation.relation import Relation
from repro.relation.schema import AttributeNames, as_schema

__all__ = ["Catalog", "ForeignKey"]


@dataclass(frozen=True)
class ForeignKey:
    """An inclusion dependency: ``π_attrs(table) ⊆ π_ref_attrs(ref_table)``."""

    table: str
    attributes: tuple[str, ...]
    ref_table: str
    ref_attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) != len(self.ref_attributes):
            raise SchemaError(
                "foreign key: the referencing and referenced attribute lists must have "
                f"the same length, got {self.attributes!r} and {self.ref_attributes!r}"
            )


class Catalog(Mapping[str, Relation]):
    """A set of named relations with optional key and foreign-key constraints.

    The catalog implements the ``Mapping[str, Relation]`` protocol, so it can
    be passed directly to :meth:`Expression.evaluate`.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}
        self._keys: dict[str, set[frozenset[str]]] = {}
        self._foreign_keys: list[ForeignKey] = []

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        return self._tables[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    # ------------------------------------------------------------------
    # definition API
    # ------------------------------------------------------------------
    def add_table(
        self,
        name: str,
        relation: Relation,
        key: AttributeNames | None = None,
    ) -> RelationRef:
        """Register a relation and return a :class:`RelationRef` to it."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} is already defined")
        self._tables[name] = relation
        if key is not None:
            self.declare_key(name, key)
        return RelationRef(name, relation.schema)

    def replace_table(self, name: str, relation: Relation) -> None:
        """Replace the contents of an existing table (same schema required)."""
        if name not in self._tables:
            raise SchemaError(f"table {name!r} is not defined")
        if self._tables[name].schema != relation.schema:
            raise SchemaError(
                f"replace_table: schema of {name!r} would change from "
                f"{self._tables[name].schema.names!r} to {relation.schema.names!r}"
            )
        self._tables[name] = relation

    def declare_key(self, name: str, attributes: AttributeNames) -> None:
        """Declare ``attributes`` as a candidate key of ``name``."""
        relation = self._require_table(name)
        schema = as_schema(attributes)
        relation.schema.require(schema, f"key of {name}")
        self._keys.setdefault(name, set()).add(frozenset(schema.name_set))

    def declare_foreign_key(
        self,
        table: str,
        attributes: AttributeNames,
        ref_table: str,
        ref_attributes: AttributeNames,
    ) -> None:
        """Declare the inclusion dependency ``table.attributes ⊆ ref_table.ref_attributes``."""
        source = self._require_table(table)
        target = self._require_table(ref_table)
        src_schema = as_schema(attributes)
        dst_schema = as_schema(ref_attributes)
        source.schema.require(src_schema, f"foreign key of {table}")
        target.schema.require(dst_schema, f"foreign key target of {ref_table}")
        self._foreign_keys.append(
            ForeignKey(table, tuple(src_schema.names), ref_table, tuple(dst_schema.names))
        )

    def ref(self, name: str) -> RelationRef:
        """A :class:`RelationRef` expression for a registered table."""
        return RelationRef(name, self._require_table(name).schema)

    # ------------------------------------------------------------------
    # constraint queries used by rewrite-rule preconditions
    # ------------------------------------------------------------------
    def has_key(self, name: str, attributes: AttributeNames) -> bool:
        """True if some declared key of ``name`` is a subset of ``attributes``.

        A superset of a key is itself a superkey, which is what the laws
        need ("each group defined by these attributes has one tuple").
        """
        candidate = frozenset(as_schema(attributes).name_set)
        return any(key <= candidate for key in self._keys.get(name, ()))

    def has_foreign_key(
        self,
        table: str,
        attributes: AttributeNames,
        ref_table: str,
        ref_attributes: AttributeNames,
    ) -> bool:
        """True if the given inclusion dependency has been declared."""
        probe = ForeignKey(
            table,
            tuple(as_schema(attributes).names),
            ref_table,
            tuple(as_schema(ref_attributes).names),
        )
        return probe in self._foreign_keys

    @property
    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        """All declared foreign keys."""
        return tuple(self._foreign_keys)

    @property
    def declared_keys(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """Every declared candidate key per table, deterministically ordered.

        Used by :mod:`repro.storage` to persist the constraints alongside
        the data so that a reopened store keeps the same rewrite-law
        preconditions available.
        """
        return {
            name: tuple(tuple(sorted(key)) for key in sorted(keys, key=sorted))
            for name, keys in self._keys.items()
            if keys
        }

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the data satisfies every declared key and foreign key.

        Raises :class:`SchemaError` on the first violated constraint.  The
        checks are intentionally eager and simple; the catalog holds
        laptop-scale synthetic data.
        """
        for name, keys in self._keys.items():
            relation = self._tables[name]
            for key in keys:
                key_schema = as_schema(sorted(key))
                if len(relation.project(key_schema)) != len(relation):
                    raise SchemaError(f"key {sorted(key)!r} of table {name!r} is violated")
        for fk in self._foreign_keys:
            source = self._tables[fk.table]
            target = self._tables[fk.ref_table]
            if not source.to_tuples(fk.attributes) <= target.to_tuples(fk.ref_attributes):
                raise SchemaError(
                    f"foreign key {fk.table}.{fk.attributes!r} -> "
                    f"{fk.ref_table}.{fk.ref_attributes!r} is violated"
                )

    def _require_table(self, name: str) -> Relation:
        if name not in self._tables:
            raise SchemaError(f"table {name!r} is not defined")
        return self._tables[name]
