"""Process-wide schedule cache.

Building an overlap-aware schedule walks the relation structure graph
(shortest paths, Markov-blanket closures) and is pure: for a given catalog,
event set and scheduler kind the result is always the same immutable
:class:`~repro.scheduling.schedule.Schedule`.  Sessions and the fleet worker
pool construct schedules for the same (arch, event-set) key over and over, so
the cache turns that hot path into a dictionary lookup.
"""

from __future__ import annotations

from threading import Lock
from typing import Dict, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.events.catalog import EventCatalog
from repro.scheduling.overlap import BayesPerfScheduler
from repro.scheduling.policies import invariant_aware_schedule, rl_schedule
from repro.scheduling.round_robin import round_robin_schedule
from repro.scheduling.schedule import Schedule

#: Every schedule policy the grid knows; ``SchedulerSpec`` validates against
#: this tuple so the spec layer and the cache can never disagree.
SCHEDULE_KINDS = ("overlap", "round-robin", "rl", "invariant-aware")
_KINDS = SCHEDULE_KINDS

#: Keyed by catalog *identity* (not name): two different catalog objects that
#: happen to share a name must not see each other's schedules, and dropping a
#: catalog (e.g. ``clear_catalog_cache`` in tests) releases its schedules.
_CACHE: "WeakKeyDictionary[EventCatalog, Dict[Tuple[Tuple[str, ...], str, int], Schedule]]" = (
    WeakKeyDictionary()
)
_LOCK = Lock()
#: Cumulative (hits, misses) counters, exposed for tests and benchmarks.
_STATS = {"hits": 0, "misses": 0}


def build_schedule(
    catalog: EventCatalog, events: Sequence[str], *, kind: str = "overlap", seed: int = 0
) -> Schedule:
    """Build (uncached) the schedule for (catalog, events, kind, seed).

    ``kind`` selects the policy: ``"overlap"`` (the paper's overlap-aware
    scheduler, used by BayesPerf), ``"round-robin"`` (the Linux baseline
    behaviour), ``"rl"`` (the :mod:`repro.mlsched` actor-critic policy) or
    ``"invariant-aware"`` (:mod:`repro.invariants`-constrained groupings).
    ``seed`` only affects the ``"rl"`` policy; every builder is a pure
    function of its arguments.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {_KINDS}")
    if kind == "overlap":
        return BayesPerfScheduler(catalog).build(list(events))
    if kind == "round-robin":
        return round_robin_schedule(catalog, list(events))
    if kind == "rl":
        return rl_schedule(catalog, list(events), seed=seed)
    return invariant_aware_schedule(catalog, list(events))


def cached_schedule(
    catalog: EventCatalog,
    events: Sequence[str],
    *,
    kind: str = "overlap",
    seed: int = 0,
) -> Schedule:
    """Return the schedule for (catalog, events, kind, seed), building it at most once.

    See :func:`build_schedule` for the policy names; the builders are pure,
    which is what makes caching by key sound.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {_KINDS}")
    key = (tuple(events), kind, seed)
    with _LOCK:
        per_catalog = _CACHE.get(catalog)
        schedule = per_catalog.get(key) if per_catalog is not None else None
        if schedule is not None:
            _STATS["hits"] += 1
            return schedule
        _STATS["misses"] += 1
    schedule = build_schedule(catalog, events, kind=kind, seed=seed)
    with _LOCK:
        return _CACHE.setdefault(catalog, {}).setdefault(key, schedule)


def schedule_cache_stats() -> Dict[str, int]:
    """Snapshot of the cumulative cache hit/miss counters."""
    with _LOCK:
        return dict(_STATS)


def clear_schedule_cache() -> None:
    """Drop all cached schedules and reset the counters."""
    with _LOCK:
        _CACHE.clear()
        _STATS["hits"] = 0
        _STATS["misses"] = 0
