"""Event catalogs: the full set of events a microarchitecture exposes.

A catalog bundles the fixed and programmable events of one CPU model, the
number of counter registers available, and the derived-event definitions used
by the evaluation.  It is the single object the PMU model, the scheduler and
the invariant library all consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.events.derived import DerivedEventSet
from repro.events.event import EventKind, EventSpec


@dataclass(frozen=True)
class CounterFile:
    """Describes the counter registers of one core.

    Modern Intel cores expose three fixed and eight programmable counters
    (split between SMT threads); Power9 exposes six programmable counters.
    The PMU model uses ``usable_programmable`` as the per-thread budget.
    """

    n_fixed: int
    n_programmable: int
    smt_split: bool = True

    def __post_init__(self) -> None:
        if self.n_fixed < 0:
            raise ValueError("n_fixed must be >= 0")
        if self.n_programmable <= 0:
            raise ValueError("n_programmable must be > 0")

    @property
    def usable_programmable(self) -> int:
        """Programmable counters available to a single hardware thread."""
        if self.smt_split:
            return max(1, self.n_programmable // 2)
        return self.n_programmable


class EventCatalog:
    """A queryable collection of :class:`EventSpec` for one microarchitecture.

    Parameters
    ----------
    name:
        Catalog name, e.g. ``"x86_64-skylake"``.
    events:
        All event specifications, fixed and programmable.
    counter_file:
        Description of the physical counter registers.
    derived:
        Derived-event definitions evaluated on this catalog.
    """

    def __init__(
        self,
        name: str,
        events: Iterable[EventSpec],
        counter_file: CounterFile,
        derived: Optional[DerivedEventSet] = None,
    ) -> None:
        self.name = name
        self.counter_file = counter_file
        self._events: Dict[str, EventSpec] = {}
        self._by_semantic: Dict[str, List[EventSpec]] = {}
        for spec in events:
            if spec.name in self._events:
                raise ValueError(f"duplicate event {spec.name!r} in catalog {name!r}")
            self._events[spec.name] = spec
            self._by_semantic.setdefault(spec.semantic, []).append(spec)
        if not self._events:
            raise ValueError(f"catalog {name!r} has no events")
        self.derived = derived if derived is not None else DerivedEventSet(name=name, metrics=())
        self._validate_derived()

    def _validate_derived(self) -> None:
        for metric in self.derived:
            for event_name in metric.inputs:
                if event_name not in self._events:
                    raise ValueError(
                        f"derived event {metric.name!r} references unknown event {event_name!r}"
                    )

    # -- basic lookups -------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events.values())

    def get(self, name: str) -> EventSpec:
        """Return the spec for event *name* or raise ``KeyError``."""
        try:
            return self._events[name]
        except KeyError:
            raise KeyError(f"unknown event {name!r} in catalog {self.name!r}") from None

    def names(self) -> Tuple[str, ...]:
        """All event names in insertion order."""
        return tuple(self._events)

    @property
    def fixed_events(self) -> Tuple[EventSpec, ...]:
        return tuple(e for e in self._events.values() if e.kind is EventKind.FIXED)

    @property
    def programmable_events(self) -> Tuple[EventSpec, ...]:
        return tuple(e for e in self._events.values() if e.kind is EventKind.PROGRAMMABLE)

    def event_for_semantic(self, semantic: str) -> EventSpec:
        """The preferred (first-registered) event measuring *semantic*."""
        specs = self._by_semantic.get(semantic)
        if not specs:
            raise KeyError(f"catalog {self.name!r} has no event for semantic {semantic!r}")
        return specs[0]

    def semantic_of(self, name: str) -> str:
        """Semantic key measured by event *name*."""
        return self.get(name).semantic

    def semantics(self) -> Tuple[str, ...]:
        """All semantics covered by this catalog, in first-seen order."""
        return tuple(self._by_semantic)

    # -- ground truth --------------------------------------------------

    def ground_truth(self, semantic_values: Mapping[str, float]) -> Dict[str, float]:
        """True event counts for every event, given semantic ground truth."""
        return {
            spec.name: spec.ground_truth(semantic_values)
            for spec in self._events.values()
            if spec.semantic in semantic_values
        }

    def ground_truth_for(
        self, names: Sequence[str], semantic_values: Mapping[str, float]
    ) -> Dict[str, float]:
        """True counts for the listed events only."""
        result = {}
        for name in names:
            spec = self.get(name)
            result[name] = spec.ground_truth(semantic_values)
        return result

    # -- derived metrics -----------------------------------------------

    def compute_derived(self, values: Mapping[str, float]) -> Dict[str, float]:
        """Evaluate every derived metric whose inputs are present in *values*."""
        out: Dict[str, float] = {}
        for metric in self.derived:
            if all(name in values for name in metric.inputs):
                out[metric.name] = metric.compute(values)
        return out

    def events_for_derived(self, metric_names: Sequence[str]) -> Tuple[str, ...]:
        """Raw events needed to compute the listed derived metrics."""
        ordered: List[str] = []
        seen = set()
        for metric_name in metric_names:
            metric = self.derived.get(metric_name)
            for event_name in metric.inputs:
                if event_name not in seen:
                    seen.add(event_name)
                    ordered.append(event_name)
        return tuple(ordered)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventCatalog(name={self.name!r}, events={len(self._events)}, "
            f"fixed={len(self.fixed_events)}, derived={len(self.derived)})"
        )
