"""Counter configurations: the instantaneous mapping of events onto counters.

A *configuration* (paper §4, "Formalism") assigns each selected programmable
event to one programmable counter register for the duration of one scheduler
quantum.  Fixed events are always collected and never appear in the
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple


@dataclass(frozen=True)
class CounterConfiguration:
    """One scheduling quantum's counter-to-event mapping.

    Parameters
    ----------
    events:
        Programmable events collected in this configuration, in counter order.
    assignment:
        Mapping of event name to programmable counter index.
    """

    events: Tuple[str, ...]
    assignment: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("a configuration must contain at least one event")
        if len(set(self.events)) != len(self.events):
            raise ValueError("a configuration cannot repeat an event")
        assignment = dict(self.assignment)
        if assignment:
            if set(assignment) != set(self.events):
                raise ValueError("assignment must cover exactly the configuration's events")
            indices = list(assignment.values())
            if len(set(indices)) != len(indices):
                raise ValueError("two events are assigned to the same counter")
        object.__setattr__(self, "assignment", assignment)

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event: str) -> bool:
        return event in self.events

    def __iter__(self):
        return iter(self.events)

    def counter_of(self, event: str) -> Optional[int]:
        """Counter index assigned to *event*, if an assignment is present."""
        return self.assignment.get(event)

    def overlap(self, other: "CounterConfiguration") -> Tuple[str, ...]:
        """Events shared with another configuration, in this config's order."""
        other_set = set(other.events)
        return tuple(event for event in self.events if event in other_set)
