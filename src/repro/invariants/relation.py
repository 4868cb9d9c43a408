"""Linear algebraic relations between events.

Every relation has the form ``sum_i coefficient_i * quantity_i = 0`` and is
interpreted statistically: when measurements are noisy, the relation becomes
a soft constraint whose slack is controlled by ``tolerance`` (a relative
standard deviation on the residual, §4 "Statistical Dependencies").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.events import semantics as sem
from repro.events.catalog import EventCatalog


@dataclass(frozen=True)
class LinearRelation:
    """A linear invariant over semantic quantities.

    Parameters
    ----------
    name:
        Short identifier, e.g. ``"l2_source"``.
    terms:
        Mapping of semantic key to coefficient.  The invariant asserts
        ``sum(coef * value) == 0`` on ground-truth data.
    tolerance:
        Relative slack of the relation when used as a soft constraint.  The
        constraint standard deviation is ``tolerance`` times the magnitude of
        the relation's terms.
    description:
        Human-readable statement of the invariant.
    """

    name: str
    terms: Mapping[str, float]
    tolerance: float = 0.01
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("relation name must be non-empty")
        if len(self.terms) < 2:
            raise ValueError(f"relation {self.name!r} needs at least two terms")
        if self.tolerance <= 0:
            raise ValueError(f"relation {self.name!r} tolerance must be positive")
        for key, coef in self.terms.items():
            if not sem.is_semantic(key):
                raise ValueError(f"relation {self.name!r} references unknown semantic {key!r}")
            if coef == 0:
                raise ValueError(f"relation {self.name!r} has a zero coefficient for {key!r}")
        # Freeze the mapping so the dataclass is hashable in practice.
        object.__setattr__(self, "terms", dict(self.terms))

    @property
    def semantics(self) -> Tuple[str, ...]:
        """Semantic keys referenced by this relation."""
        return tuple(self.terms)

    def residual(self, values: Mapping[str, float]) -> float:
        """Signed residual ``sum(coef * value)`` on the supplied values."""
        return float(sum(coef * float(values[key]) for key, coef in self.terms.items()))

    def magnitude(self, values: Mapping[str, float]) -> float:
        """Scale of the relation's terms, used to normalise the residual."""
        return float(sum(abs(coef) * abs(float(values[key])) for key, coef in self.terms.items()))

    def relative_residual(self, values: Mapping[str, float]) -> float:
        """Residual normalised by the magnitude of the participating terms."""
        mag = self.magnitude(values)
        if mag <= 0:
            return 0.0
        return abs(self.residual(values)) / mag

    def is_satisfied(self, values: Mapping[str, float], rtol: float = 1e-6) -> bool:
        """Whether the values satisfy the relation up to relative tolerance *rtol*."""
        return self.relative_residual(values) <= rtol

    def instantiate(self, catalog: EventCatalog) -> "EventRelation":
        """Translate the relation into event names for *catalog*.

        The preferred event for each semantic is used; event scale factors
        are folded into the coefficients so the relation still holds on raw
        event counts.  Raises ``KeyError`` if the catalog lacks an event for
        any semantic in the relation.
        """
        coefficients: Dict[str, float] = {}
        for key, coef in self.terms.items():
            spec = catalog.event_for_semantic(key)
            coefficients[spec.name] = coef / spec.scale
        return EventRelation(
            name=self.name,
            coefficients=coefficients,
            tolerance=self.tolerance,
            description=self.description,
            source=self,
        )


@dataclass(frozen=True)
class EventRelation:
    """A :class:`LinearRelation` instantiated over concrete event names."""

    name: str
    coefficients: Mapping[str, float]
    tolerance: float = 0.01
    description: str = ""
    source: LinearRelation = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise ValueError(f"event relation {self.name!r} needs at least two terms")
        object.__setattr__(self, "coefficients", dict(self.coefficients))

    @property
    def events(self) -> Tuple[str, ...]:
        """Event names referenced by this relation."""
        return tuple(self.coefficients)

    def residual(self, values: Mapping[str, float]) -> float:
        """Signed residual on the supplied event values."""
        return float(
            sum(coef * float(values[name]) for name, coef in self.coefficients.items())
        )

    def magnitude(self, values: Mapping[str, float]) -> float:
        """Scale of the relation's terms on the supplied event values."""
        return float(
            sum(abs(coef) * abs(float(values[name])) for name, coef in self.coefficients.items())
        )

    def relative_residual(self, values: Mapping[str, float]) -> float:
        """Residual normalised by the magnitude of the participating terms."""
        mag = self.magnitude(values)
        if mag <= 0:
            return 0.0
        return abs(self.residual(values)) / mag

    def is_satisfied(self, values: Mapping[str, float], rtol: float = 1e-6) -> bool:
        """Whether the event values satisfy the relation up to *rtol*."""
        return self.relative_residual(values) <= rtol
