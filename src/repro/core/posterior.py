"""Posterior result types returned to BayesPerf users."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from scipy import stats


@dataclass(frozen=True)
class EventEstimate:
    """Posterior summary of one event in one time slice."""

    event: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("std must be non-negative")

    @property
    def variance(self) -> float:
        return self.std**2

    @property
    def relative_uncertainty(self) -> float:
        """Posterior coefficient of variation (std / |mean|)."""
        return self.std / max(abs(self.mean), 1e-12)

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Symmetric credible interval at the given confidence."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        half = stats.norm.ppf(0.5 + confidence / 2.0) * self.std
        return (self.mean - half, self.mean + half)

    def contains(self, value: float, confidence: float = 0.95) -> bool:
        """Whether *value* lies inside the credible interval."""
        low, high = self.interval(confidence)
        return low <= value <= high


class PosteriorReport:
    """Posterior summaries for every monitored event in one time slice.

    The engine builds each report from its batch's rows
    (:meth:`from_rows`): the monitored event tuple plus one list of means
    and one of standard deviations.  ``means()``, ``stds()`` and ``in``
    read those rows; the :class:`EventEstimate` objects behind
    :attr:`estimates` are created when it is first read.  From then on
    ``estimates`` is the report's content, so a report filled by
    assignment (``report.estimates[event] = ...``) reads the same way.
    """

    def __init__(
        self,
        tick: int,
        estimates: Optional[Dict[str, EventEstimate]] = None,
        measured_events: Tuple[str, ...] = (),
        ep_iterations: int = 0,
        ep_converged: bool = True,
    ) -> None:
        self.tick = tick
        self.measured_events = measured_events
        self.ep_iterations = ep_iterations
        self.ep_converged = ep_converged
        self._estimates: Optional[Dict[str, EventEstimate]] = (
            {} if estimates is None else estimates
        )
        #: ``(events, means, stds)`` of a row-backed report, read while
        #: ``_estimates`` is still unbuilt.
        self._rows: Tuple[Tuple[str, ...], List[float], List[float]] = ((), [], [])

    @classmethod
    def from_rows(
        cls,
        tick: int,
        events: Tuple[str, ...],
        means: List[float],
        stds: List[float],
        measured_events: Tuple[str, ...] = (),
        ep_iterations: int = 0,
        ep_converged: bool = True,
    ) -> "PosteriorReport":
        """A report over *events* whose estimates are built on first read.

        *stds* must already be non-negative (the engine checks its whole
        batch at once).
        """
        report = cls(tick, None, measured_events, ep_iterations, ep_converged)
        report._estimates, report._rows = None, (events, means, stds)
        return report

    @property
    def estimates(self) -> Dict[str, EventEstimate]:
        if self._estimates is None:
            self._estimates = {
                event: EventEstimate(event, mean, std) for event, mean, std in zip(*self._rows)
            }
        return self._estimates

    def __contains__(self, event: str) -> bool:
        if self._estimates is None:
            return event in self._rows[0]
        return event in self._estimates

    def __getitem__(self, event: str) -> EventEstimate:
        return self.estimates[event]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            "PosteriorReport(tick={!r}, estimates={!r}, measured_events={!r}, "
            "ep_iterations={!r}, ep_converged={!r})".format(*self._fields())
        )

    def _fields(self) -> Tuple:
        """The dataclass-style field values equality and ``repr`` compare."""
        return (
            self.tick, self.estimates, self.measured_events, self.ep_iterations, self.ep_converged
        )

    def means(self) -> Dict[str, float]:
        if self._estimates is None:
            events, means, _ = self._rows
            return dict(zip(events, means))
        return {name: estimate.mean for name, estimate in self._estimates.items()}

    def stds(self) -> Dict[str, float]:
        if self._estimates is None:
            events, _, stds = self._rows
            return dict(zip(events, stds))
        return {name: estimate.std for name, estimate in self._estimates.items()}

    def most_uncertain(self, count: int = 5) -> Tuple[EventEstimate, ...]:
        """Events with the highest relative posterior uncertainty."""
        ranked = sorted(
            self.estimates.values(), key=lambda e: e.relative_uncertainty, reverse=True
        )
        return tuple(ranked[:count])
