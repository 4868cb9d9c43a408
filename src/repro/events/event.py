"""Hardware event specifications.

An :class:`EventSpec` describes one countable hardware event: its
vendor-facing name, the semantic quantity it measures, which class of counter
register can count it, and any placement constraints (specific register
indices, extra MSR requirement, per-socket collection).  These are the same
attributes the paper's scheduler must respect when checking configuration
validity (§4, "Checking Validity of the Configuration").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.events import semantics as sem


class EventDomain(enum.Enum):
    """Coarse grouping of events by the unit that produces them."""

    CORE = "core"
    FRONTEND = "frontend"
    BRANCH = "branch"
    CACHE = "cache"
    TLB = "tlb"
    MEMORY = "memory"
    OFFCORE = "offcore"
    INTERCONNECT = "interconnect"
    OS = "os"


class EventKind(enum.Enum):
    """Whether an event is bound to a fixed counter or is programmable."""

    FIXED = "fixed"
    PROGRAMMABLE = "programmable"


class CollectionScope(enum.Enum):
    """Granularity at which an event is collected."""

    THREAD = "thread"
    CORE = "core"
    SOCKET = "socket"


@dataclass(frozen=True)
class EventSpec:
    """Specification of a single hardware event.

    Parameters
    ----------
    name:
        Vendor-facing event name, e.g. ``"CPU_CLK_UNHALTED.THREAD"``.
    semantic:
        Canonical semantic key from :mod:`repro.events.semantics`.
    domain:
        The hardware unit this event belongs to.
    kind:
        Fixed or programmable.
    code:
        Numeric event select code (synthetic but stable; used by the PMU
        model when programming registers).
    description:
        Human-readable description.
    counter_mask:
        Indices of programmable counters allowed to count this event.
        ``None`` means "any programmable counter".  Mirrors constraints such
        as Intel's ``L1D_PEND_MISS.PENDING`` being countable only on a
        specific counter.
    requires_msr:
        ``True`` for off-core response style events that consume an auxiliary
        MSR in addition to a counter register.
    scope:
        Collection granularity (per thread, per core or per socket).
    scale:
        Multiplier applied to the semantic ground-truth value to obtain the
        event's count (e.g. an event counting pairs would use ``0.5``).
    """

    name: str
    semantic: str
    domain: EventDomain
    kind: EventKind = EventKind.PROGRAMMABLE
    code: int = 0
    description: str = ""
    counter_mask: Optional[FrozenSet[int]] = None
    requires_msr: bool = False
    scope: CollectionScope = CollectionScope.CORE
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event name must be non-empty")
        if not sem.is_semantic(self.semantic):
            raise ValueError(f"unknown semantic {self.semantic!r} for event {self.name!r}")
        if self.scale <= 0:
            raise ValueError(f"event {self.name!r} has non-positive scale {self.scale}")
        if self.counter_mask is not None and len(self.counter_mask) == 0:
            raise ValueError(f"event {self.name!r} has an empty counter mask")

    @property
    def is_fixed(self) -> bool:
        """Whether the event can only live on a fixed counter."""
        return self.kind is EventKind.FIXED

    @property
    def is_constrained(self) -> bool:
        """Whether the event restricts which programmable counter may count it."""
        return self.counter_mask is not None or self.requires_msr

    def can_use_counter(self, index: int) -> bool:
        """Return ``True`` if programmable counter *index* may count this event."""
        if self.is_fixed:
            return False
        if self.counter_mask is None:
            return True
        return index in self.counter_mask

    def ground_truth(self, semantic_values: dict) -> float:
        """Compute the event's true count from a map of semantic values."""
        return float(semantic_values[self.semantic]) * self.scale

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
