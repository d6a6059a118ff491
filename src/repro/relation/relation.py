"""Set-semantics relations and the basic operators of the relational algebra.

This module implements the substrate every other part of the library builds
on: the operators listed in Appendix A of the paper (union, intersection,
difference, Cartesian product, projection, selection, theta-join, natural
join, semi-join, anti-semi-join, left outer join, grouping) with strict
*set* semantics, plus renaming.

The division operators themselves live in :mod:`repro.division`; they are
derived operators and are kept separate because the paper studies several
alternative definitions for them.

Representation: a relation holds one frozenset of plain value tuples aligned
with its *interned* schema, plus an optional cached scan-order list.  The
operators pick values positionally out of those tuples with cached schema
getters; :class:`~repro.relation.row.Row` objects are built only where user
code receives a row — iteration, :attr:`Relation.rows`, and the row
predicates and aggregate functions of ``select``/``group_by``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from operator import itemgetter
from typing import Any, Optional, Union

from repro.errors import RelationError, SchemaError
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = ["Relation", "RowPredicate", "NULL"]

#: Predicates used by :meth:`Relation.select` take a row and return a bool.
RowPredicate = Callable[[Row], bool]


class _Null:
    """Singleton marker used by the left outer join for padded attributes."""

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


#: The null marker produced by the left outer join (Appendix A).
NULL = _Null()


class Relation:
    """An immutable relation: a schema plus a *set* of rows.

    Parameters
    ----------
    attributes:
        The attribute names of the schema, in display order.
    rows:
        An iterable of rows.  Each row may be a mapping from attribute name
        to value or a sequence of values aligned with ``attributes``.
        Duplicates are silently removed (set semantics).

    Examples
    --------
    >>> r = Relation(["a", "b"], [(1, 1), (1, 4), (2, 1)])
    >>> len(r)
    3
    >>> r.project(["a"]).to_set("a")
    {1, 2}
    """

    #: ``_statistics`` and ``_column_counts`` are caches owned by
    #: :mod:`repro.optimizer.statistics` (the exact statistics memo and the
    #: per-column value counts an edit hands to its successor); like
    #: ``_hash`` they are not part of the value and are not pickled.
    __slots__ = ("_schema", "_tuples", "_order", "_hash", "_statistics", "_column_counts")

    def __init__(
        self,
        attributes: AttributeNames,
        rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]] = (),
    ) -> None:
        schema = Schema.interned(as_schema(attributes))
        self._schema = schema
        self._tuples = _freeze([align_row(schema, raw) for raw in rows])
        self._order: Optional[list[tuple[Any, ...]]] = None
        self._hash: Optional[int] = None
        self._statistics: Any = None
        self._column_counts: Any = None

    @classmethod
    def from_aligned(cls, attributes: AttributeNames, tuples: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from value tuples already aligned with the schema.

        The constructor every operator uses: each element of ``tuples`` must
        be a tuple of values in schema attribute order, so no per-row
        coercion or length checking is needed.  A frozenset is adopted
        as is, without copying.
        """
        relation = object.__new__(cls)
        relation._schema = Schema.interned(as_schema(attributes))
        relation._tuples = _freeze(tuples)
        relation._order = None
        relation._hash = None
        relation._statistics = None
        relation._column_counts = None
        return relation

    def aligned_tuples(self) -> list[tuple[Any, ...]]:
        """Value tuples in scan order, aligned with the schema (cached).

        The scan order is the one :meth:`clustered` chose, or else the set's
        own order; it is cached because scans re-chunk the same relation on
        every execution.
        """
        order = self._order
        if order is None:
            order = self._order = list(self._tuples)
        return order

    def _aligned_with(self, schema: Schema) -> frozenset[tuple[Any, ...]]:
        """This relation's tuples in ``schema``'s attribute order."""
        if schema is self._schema:
            return self._tuples
        return frozenset(map(self._schema.tuple_getter(schema), self._tuples))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, attributes: AttributeNames) -> "Relation":
        """An empty relation over the given schema."""
        return cls(attributes, ())

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence[Any]]) -> "Relation":
        """Build a relation from parallel columns.

        >>> Relation.from_columns({"a": [1, 2], "b": [10, 20]}).schema.names
        ('a', 'b')
        """
        names = tuple(columns.keys())
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise RelationError(f"columns have different lengths: { {n: len(v) for n, v in columns.items()} }")
        return cls.from_aligned(names, zip(*columns.values()))

    @classmethod
    def singleton(cls, values: Mapping[str, Any]) -> "Relation":
        """A one-tuple relation, written ``(t)`` in the paper."""
        return cls(tuple(values.keys()), [values])

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The relation schema."""
        return self._schema

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in display order."""
        return self._schema.names

    @property
    def tuples(self) -> frozenset[tuple[Any, ...]]:
        """The content: value tuples aligned with :attr:`schema`."""
        return self._tuples

    @property
    def rows(self) -> frozenset[Row]:
        """The set of rows (built on each access; prefer :attr:`tuples`)."""
        return frozenset(self)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Row]:
        schema = self._schema
        return (Row.from_schema(schema, values) for values in self._tuples)

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, Mapping):
            return False
        if not isinstance(row, Row):
            row = Row(row)
        schema = self._schema
        if row.schema.name_set != schema.name_set:
            return False
        return row.values_for(schema) in self._tuples

    def is_empty(self) -> bool:
        """Return ``True`` if the relation has no rows."""
        return not self

    def sorted_rows(self, attributes: Optional[AttributeNames] = None) -> list[Row]:
        """Rows sorted by the given attributes (defaults to the full schema).

        Used for deterministic rendering and by sort-based physical
        operators.  Values of each attribute must be mutually comparable.
        """
        picks = self._sort_picks(attributes, "sort")
        ordered = sorted(
            self._tuples, key=lambda values: tuple(_sort_key(values[i]) for i in picks)
        )
        schema = self._schema
        return [Row.from_schema(schema, values) for values in ordered]

    def clustered(self, attributes: Optional[AttributeNames] = None) -> "Relation":
        """A copy whose *physical scan order* is sorted by ``attributes``.

        The relation value (set of rows) is unchanged — only the cached
        aligned-tuple block that scans slice from is pre-sorted, the way a
        clustered index lays out a table.  ``TableStatistics.from_relation``
        detects this order and flags the attributes as sorted, which lets
        the cost-based planner pick order-exploiting algorithms (e.g. the
        streaming merge-group division).  Defaults to the full schema.
        """
        picks = self._sort_picks(attributes, "clustered")
        relation = Relation.from_aligned(self._schema, self._tuples)
        relation._order = sorted(
            self.aligned_tuples(),
            key=lambda values: tuple(_sort_key(values[i]) for i in picks),
        )
        return relation

    def _sort_picks(self, attributes: Optional[AttributeNames], context: str) -> tuple[int, ...]:
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, context)
        return self._schema.picker(schema)

    def to_set(self, attribute: str) -> set[Any]:
        """Values of a single attribute as a Python set."""
        self._schema.require([attribute], "to_set")
        return set(map(itemgetter(self._schema.position(attribute)), self._tuples))

    def to_tuples(self, attributes: Optional[AttributeNames] = None) -> set[tuple[Any, ...]]:
        """Rows as value tuples (ordered by ``attributes`` or the schema)."""
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, "to_tuples")
        return set(map(self._schema.tuple_getter(schema), self._tuples))

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._schema != other._schema or len(self._tuples) != len(other._tuples):
            return False
        return self._tuples == other._aligned_with(self._schema)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            # Hash in sorted-name order, so equal relations declared in
            # different attribute orders hash equally.
            canonical = Schema.interned(sorted(self._schema.names))
            value = self._hash = hash((canonical.name_set, self._aligned_with(canonical)))
        return value

    def __reduce__(self) -> tuple[Any, ...]:
        # Content and scan order only: the caches stay behind.
        return (_unpickle, (self._schema.names, self._tuples, self._order))

    def __repr__(self) -> str:
        return f"Relation(attributes={self._schema.names!r}, rows={len(self._tuples)})"

    # ------------------------------------------------------------------
    # unary operators
    # ------------------------------------------------------------------
    def project(self, attributes: AttributeNames) -> "Relation":
        """Projection ``π_A(r)`` with duplicate elimination."""
        target = Schema.interned(self._schema.project(attributes))
        return Relation.from_aligned(target, map(self._schema.tuple_getter(target), self._tuples))

    def select(self, predicate: RowPredicate) -> "Relation":
        """Selection ``σ_θ(r)``; ``predicate`` is evaluated on every row."""
        # A list, not a generator: errors raised by the predicate must not
        # pass for unhashable values inside ``from_aligned``.
        return Relation.from_aligned(
            self._schema, [row.values_tuple for row in self if predicate(row)]
        )

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes according to ``mapping`` (ρ operator)."""
        return Relation.from_aligned(self._schema.rename(dict(mapping)), self._tuples)

    def prefix(self, prefix: str, separator: str = ".") -> "Relation":
        """Rename every attribute to ``prefix`` + separator + name.

        Convenience used by the SQL frontend for correlation names.
        """
        return self.rename({name: f"{prefix}{separator}{name}" for name in self._schema})

    # ------------------------------------------------------------------
    # binary set operators (require identical attribute sets)
    # ------------------------------------------------------------------
    def _require_same_schema(self, other: "Relation", operation: str) -> None:
        if self._schema != other._schema:
            raise SchemaError(
                f"{operation}: schemas differ: {self._schema.names!r} vs {other._schema.names!r}"
            )

    def union(self, other: "Relation") -> "Relation":
        """Set union ``r1 ∪ r2``."""
        self._require_same_schema(other, "union")
        return Relation.from_aligned(self._schema, self._tuples | other._aligned_with(self._schema))

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection ``r1 ∩ r2``."""
        self._require_same_schema(other, "intersection")
        return Relation.from_aligned(self._schema, self._tuples & other._aligned_with(self._schema))

    def difference(self, other: "Relation") -> "Relation":
        """Set difference ``r1 − r2``."""
        self._require_same_schema(other, "difference")
        return Relation.from_aligned(self._schema, self._tuples - other._aligned_with(self._schema))

    def __or__(self, other: "Relation") -> "Relation":
        return self.union(other)

    def __and__(self, other: "Relation") -> "Relation":
        return self.intersection(other)

    def __sub__(self, other: "Relation") -> "Relation":
        return self.difference(other)

    # ------------------------------------------------------------------
    # products and joins
    # ------------------------------------------------------------------
    def product(self, other: "Relation") -> "Relation":
        """Cartesian product ``r1 × r2`` (attribute sets must be disjoint)."""
        if not self._schema.is_disjoint(other._schema):
            shared = self._schema.intersection(other._schema).names
            raise SchemaError(
                f"product: attribute sets must be disjoint, both sides contain {shared!r}"
            )
        right = other._tuples
        return Relation.from_aligned(
            self._schema.union(other._schema),
            (left + values for left in self._tuples for values in right),
        )

    def __mul__(self, other: "Relation") -> "Relation":
        return self.product(other)

    def theta_join(self, other: "Relation", predicate: RowPredicate) -> "Relation":
        """Theta-join ``r1 ⋈_θ r2 = σ_θ(r1 × r2)`` (disjoint attribute sets)."""
        return self.product(other).select(predicate)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join ``r1 ⋈ r2`` on the shared attributes."""
        shared = self._schema.intersection(other._schema)
        if not len(shared):
            # Degenerates to the Cartesian product, exactly as in the
            # textbook definition.
            return self.product(other)
        extra = other._schema.difference(self._schema)
        left_key = self._schema.key_getter(shared)
        right_key = other._schema.key_getter(shared)
        right_extra = other._schema.tuple_getter(extra)
        index: dict[Any, list[tuple[Any, ...]]] = {}
        for values in other._tuples:
            index.setdefault(right_key(values), []).append(right_extra(values))
        lookup = index.get
        return Relation.from_aligned(
            self._schema.union(other._schema),
            (
                values + extras
                for values in self._tuples
                for extras in lookup(left_key(values), ())
            ),
        )

    def semijoin(self, other: "Relation") -> "Relation":
        """Left semi-join ``r1 ⋉ r2``: rows of ``r1`` with a join partner."""
        shared = self._schema.intersection(other._schema)
        if not len(shared):
            return self if other else Relation.empty(self._schema)
        left_key = self._schema.key_getter(shared)
        keys = set(map(other._schema.key_getter(shared), other._tuples))
        return Relation.from_aligned(
            self._schema, (values for values in self._tuples if left_key(values) in keys)
        )

    def antijoin(self, other: "Relation") -> "Relation":
        """Left anti-semi-join ``r1 ▷ r2 = r1 − (r1 ⋉ r2)``."""
        return self.difference(self.semijoin(other))

    def left_outer_join(self, other: "Relation") -> "Relation":
        """Left outer join ``r1 ⟕ r2`` padding missing partners with NULL."""
        joined = self.natural_join(other)
        # The join schema is this relation's attributes followed by the new
        # ones of ``other``, so padding a dangling tuple is a concatenation.
        padding = (NULL,) * (len(joined._schema) - len(self._schema))
        dangling = self.antijoin(other)._tuples
        return Relation.from_aligned(
            joined._schema, joined._tuples | {values + padding for values in dangling}
        )

    # ------------------------------------------------------------------
    # grouping / aggregation
    # ------------------------------------------------------------------
    def group_by(
        self,
        grouping: AttributeNames,
        aggregations: Mapping[str, tuple[str, Callable[[Iterable[Row]], Any]]],
    ) -> "Relation":
        """Grouping operator ``GγF(r)`` of Appendix A.

        Parameters
        ----------
        grouping:
            The grouping attributes ``G`` (may be empty for a global
            aggregate over the whole relation).
        aggregations:
            Maps each *output* attribute name to a pair ``(doc, fn)`` where
            ``fn`` receives the iterable of rows of one group and returns the
            aggregate value, and ``doc`` is a short human-readable label
            (e.g. ``"count(b)"``) used only for rendering and debugging.

        The helpers in :mod:`repro.relation.aggregates` build suitable
        ``(doc, fn)`` pairs for the common aggregates.
        """
        group_schema = as_schema(grouping)
        schema = self._schema
        schema.require(group_schema, "group_by")
        key_of = schema.tuple_getter(group_schema)

        groups: dict[tuple[Any, ...], list[Row]] = {}
        for row in self:
            groups.setdefault(key_of(row.values_tuple), []).append(row)

        if not groups and not len(group_schema):
            # Global aggregate over an empty relation: one row of aggregates
            # over the empty group, mirroring SQL's behaviour for COUNT.
            groups[()] = []
        aggregate_fns = tuple(fn for (_doc, fn) in aggregations.values())
        return Relation.from_aligned(
            group_schema.names + tuple(aggregations.keys()),
            [key + tuple(fn(members) for fn in aggregate_fns) for key, members in groups.items()],
        )

    # ------------------------------------------------------------------
    # convenience used throughout the law implementations
    # ------------------------------------------------------------------
    def image_set(self, row_values: Mapping[str, Any], over: AttributeNames) -> "Relation":
        """Codd's image set ``i_r(x)``: the ``over``-values co-occurring with ``x``.

        ``row_values`` fixes the values of some attributes; the result is the
        projection to ``over`` of the rows agreeing with ``row_values``.
        """
        fixed = Row(row_values)
        self._schema.require(fixed.schema, "image_set")
        over_schema = Schema.interned(self._schema.project(over))
        over_get = self._schema.tuple_getter(over_schema)
        fixed_get = self._schema.tuple_getter(fixed.schema)
        fixed_values = fixed.values_tuple
        return Relation.from_aligned(
            over_schema,
            (over_get(values) for values in self._tuples if fixed_get(values) == fixed_values),
        )

    def partition_horizontal(self, predicate: RowPredicate) -> tuple["Relation", "Relation"]:
        """Split rows into (matching, non-matching) relations."""
        matching = self.select(predicate)
        return matching, Relation.from_aligned(self._schema, self._tuples - matching._tuples)


def align_row(schema: Schema, raw: Union[Row, Mapping[str, Any], Sequence[Any]]) -> tuple[Any, ...]:
    """A row given as a :class:`Row`, a mapping or a value sequence, as a
    value tuple aligned with ``schema`` (rejects other attribute sets)."""
    if isinstance(raw, Row):
        if raw.schema.name_set == schema.name_set:
            return raw.values_for(schema)
    elif isinstance(raw, Mapping):
        for name in raw:
            if not isinstance(name, str) or not name:
                raise RelationError(f"row attribute names must be nonempty strings, got {name!r}")
        if len(raw) == len(schema) and all(name in raw for name in schema.names):
            return tuple(raw[name] for name in schema.names)
    else:
        values = tuple(raw)
        if len(values) != len(schema):
            raise RelationError(
                f"row {values!r} has {len(values)} values but schema {schema.names!r} "
                f"has {len(schema)} attributes"
            )
        return values
    raise RelationError(
        f"row attributes {sorted(raw.keys())!r} do not match schema {schema.names!r}"
    )


def _unpickle(
    names: tuple[str, ...],
    tuples: frozenset[tuple[Any, ...]],
    order: Optional[list[tuple[Any, ...]]],
) -> Relation:
    relation = Relation.from_aligned(names, tuples)
    relation._order = order
    return relation


def _freeze(tuples: Iterable[Sequence[Any]]) -> frozenset[tuple[Any, ...]]:
    """The tuples as a frozenset, rejecting unhashable attribute values."""
    if isinstance(tuples, frozenset):
        return tuples
    try:
        return frozenset(tuples)
    except TypeError as exc:
        raise RelationError(f"row values must be hashable: {exc}") from exc


def _sort_key(value: Any) -> tuple[str, Any]:
    """Total order over heterogeneous attribute values (None/NULL first)."""
    if value is None or value is NULL:
        return ("0", "")
    if isinstance(value, bool):
        return ("1", int(value))
    if isinstance(value, (int, float)):
        return ("2", value)
    if isinstance(value, str):
        return ("3", value)
    if isinstance(value, (tuple, frozenset)):
        return ("4", tuple(sorted(map(repr, value))))
    return ("5", repr(value))
