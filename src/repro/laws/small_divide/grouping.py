"""Laws 11 and 12 — small divide versus grouping (Section 5.1.7).

Both laws exploit dividends produced by a grouping operator, whose groups
are therefore singletons, and replace the divide by (at most) a semi-join
plus projection:

* **Law 11** — the dividend is ``Aγ_{f(X)→B}(r0)``: every quotient
  candidate owns exactly one tuple, so the quotient is decided purely by
  the divisor cardinality (Figure 10).
* **Law 12** — the dividend is ``Bγ_{f(X)→A}(r0)`` and ``r2.B`` is a
  foreign key referencing ``r1.B``: every divisor value matches exactly one
  dividend tuple, so the quotient is ``π_A(r1 ⋉ r2)`` when that relation
  has a single tuple and empty otherwise (Figure 11).

Because the right-hand side depends on a *cardinality* (of the divisor, or
of ``π_A(r1 ⋉ r2)``), the rewrite rules consult the context database and
produce the branch that applies — exactly what an optimizer armed with
statistics would do.  The case-analysis semantics themselves are available
as plain functions (:func:`law11_divide`, :func:`law12_divide`) and are what
the property-based tests check against the reference operator.

Deviation from the paper: Law 11's first case states ``r1 ÷ ∅ = r1``; the
quotient schema is ``A``, so we read this as ``π_A(r1)`` (the two have equal
cardinality because each group is a singleton).  Law 12's "otherwise ∅"
branch likewise assumes a nonempty divisor (an empty divisor yields
``π_A(r1)`` under Definition 1); the rule only fires for nonempty divisors.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import (
    Expression,
    GroupBy,
    LiteralRelation,
    Project,
    RelationRef,
    SemiJoin,
    SmallDivide,
)
from repro.division.schemas import small_divide_schemas
from repro.laws.base import RewriteContext, RewriteRule, ensure_context
from repro.laws.conditions import attribute_is_key, inclusion_holds
from repro.relation.relation import Relation
from repro.relation.schema import Schema

__all__ = ["Law11GroupedDividend", "Law12GroupedDivisorKey", "law11_divide", "law12_divide"]


def law11_divide(dividend: Relation, divisor: Relation) -> Relation:
    """The right-hand side of Law 11, evaluated on relation values.

    Requires every quotient candidate of the dividend to own exactly one
    tuple (``A`` is a key of ``r1``).
    """
    schemas = small_divide_schemas(dividend, divisor)
    if len(divisor) == 0:
        return dividend.project(schemas.a)
    if len(divisor) == 1:
        return dividend.semijoin(divisor).project(schemas.a)
    return Relation.empty(schemas.a)


def law12_divide(dividend: Relation, divisor: Relation) -> Relation:
    """The right-hand side of Law 12, evaluated on relation values.

    Requires ``B`` to be a key of the dividend and ``r2.B ⊆ π_B(r1)``; the
    divisor must be nonempty (see the module docstring).
    """
    schemas = small_divide_schemas(dividend, divisor)
    candidates = dividend.semijoin(divisor).project(schemas.a)
    if len(candidates) == 1:
        return candidates
    return Relation.empty(schemas.a)


def _dividend_grouped_by(expression: Expression, attributes: Schema, catalog: Optional[Catalog]) -> bool:
    """Static check that ``attributes`` form a key of the dividend expression."""
    if isinstance(expression, GroupBy):
        return expression.grouping == attributes
    if isinstance(expression, RelationRef) and catalog is not None:
        return catalog.has_key(expression.name, attributes)
    return False


class Law11GroupedDividend(RewriteRule):
    """Law 11: dividend grouped on the quotient attributes ``A``."""

    name = "law_11_grouped_dividend"
    paper_reference = "Law 11"
    description = "r1 ÷ r2 with single-tuple quotient groups becomes a semi-join (or a constant)"
    requires_data = True
    conditions = ("every dividend A-group holds exactly one tuple (verified on data)",)

    def matches(self, expression: Expression, context: Optional[RewriteContext] = None) -> bool:
        context = ensure_context(context)
        if not isinstance(expression, SmallDivide):
            return False
        quotient_attributes = expression.schema
        if not context.can_inspect_data:
            return _dividend_grouped_by(expression.left, quotient_attributes, context.catalog)
        if _dividend_grouped_by(expression.left, quotient_attributes, context.catalog):
            return True
        return attribute_is_key(context.evaluate(expression.left), quotient_attributes)

    def apply(self, expression: Expression, context: Optional[RewriteContext] = None) -> Expression:
        context = ensure_context(context)
        if not self.matches(expression, context):
            raise self._reject(expression, "quotient attributes must be a key of the dividend")
        if not context.can_inspect_data:
            raise self._reject(
                expression, "the divisor cardinality is needed to pick the Law 11 branch"
            )
        divide: SmallDivide = expression  # type: ignore[assignment]
        divisor_size = len(context.evaluate(divide.right))
        quotient_attributes = divide.schema
        if divisor_size == 0:
            return Project(divide.left, quotient_attributes)
        if divisor_size == 1:
            return Project(SemiJoin(divide.left, divide.right), quotient_attributes)
        empty = Relation.empty(quotient_attributes)
        return LiteralRelation(empty, label="empty_quotient")

    @staticmethod
    def sides(dividend: Expression, divisor: Expression):
        """LHS only; the RHS depends on the divisor cardinality (see law11_divide)."""
        return SmallDivide(dividend, divisor)


class Law12GroupedDivisorKey(RewriteRule):
    """Law 12: divisor attributes are a key of the dividend and a foreign key."""

    name = "law_12_grouped_divisor_key"
    paper_reference = "Law 12"
    description = "r1 ÷ r2 with single-tuple B-groups becomes π_A(r1 ⋉ r2) or ∅"
    requires_data = True
    conditions = ("every divisor B-group holds exactly one tuple (verified on data)",)

    def matches(self, expression: Expression, context: Optional[RewriteContext] = None) -> bool:
        context = ensure_context(context)
        if not isinstance(expression, SmallDivide):
            return False
        if not context.can_inspect_data:
            return False
        divide: SmallDivide = expression  # type: ignore[assignment]
        divisor_schema = divide.right.schema
        # The key test comes first: on a stored dividend the header
        # statistics usually settle it without evaluating the divisor.
        dividend_value = context.evaluate(divide.left)
        if not attribute_is_key(dividend_value, divisor_schema):
            return False
        divisor_value = context.evaluate(divide.right)
        if divisor_value.is_empty():
            return False
        return inclusion_holds(divisor_value, dividend_value, divisor_schema)

    def apply(self, expression: Expression, context: Optional[RewriteContext] = None) -> Expression:
        context = ensure_context(context)
        if not self.matches(expression, context):
            raise self._reject(
                expression, "requires single-tuple B groups and the foreign key r2.B ⊆ π_B(r1)"
            )
        divide: SmallDivide = expression  # type: ignore[assignment]
        quotient_attributes = divide.schema
        candidate = Project(SemiJoin(divide.left, divide.right), quotient_attributes)
        if len(candidate.evaluate(context.database)) == 1:
            return candidate
        return LiteralRelation(Relation.empty(quotient_attributes), label="empty_quotient")

    @staticmethod
    def sides(dividend: Expression, divisor: Expression):
        """LHS only; the RHS depends on data (see law12_divide)."""
        return SmallDivide(dividend, divisor)
