"""Moment-estimator registry: one catalogue for every tilted-moment engine.

Historically each front door (``BayesPerfEngine``, ``PerfSession``,
the fleet service, the fleet CLI) carried its own copy of the
``moment_estimator`` string table and its own validation message, so adding
an estimator meant touching all of them.  The registry inverts that: the
estimator implementations in :mod:`repro.fg.mcmc` / :mod:`repro.fg.compiled`
self-register under their public names with :func:`register_estimator`, their
object-walking twins attach with :func:`register_reference`, and every layer
— engine validation and dispatch, spec resolution in :mod:`repro.api`, the
``--estimator`` CLI flag — resolves names through :func:`get_estimator`.

An entry records everything the engine needs to wire an estimator in:

* ``batched`` — the array-native implementation driven on the compiled
  kernel's buffers (``None`` for the analytic estimator, which *is* the
  kernel);
* ``reference`` — the object-walking differential twin selected by
  ``use_compiled_kernel=False``;
* ``compiled_path`` — whether the estimator solves through the compiled
  kernel's array path at all;
* ``default_adapt`` — the estimator's default for burn-in proposal-scale
  adaptation (see ``BayesPerfEngine.mcmc_adapt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "EstimatorEntry",
    "baseline_names",
    "engine_estimator_names",
    "estimator_names",
    "get_estimator",
    "register_estimator",
    "register_reference",
]


@dataclass
class EstimatorEntry:
    """One registered moment estimator and its differential pairing."""

    name: str
    #: Solves through the compiled kernel's array path (vs. reference-only).
    compiled_path: bool = True
    #: Default for burn-in proposal-scale adaptation when the engine's
    #: ``mcmc_adapt`` is left unset.
    default_adapt: bool = False
    #: A baseline *correction method* (:mod:`repro.baselines`), not a tilted
    #: moment engine: it consumes a whole ``SampledTrace`` through
    #: ``.correct()`` instead of solving sites on the kernel.  Baseline
    #: entries are listed alongside estimators (one registry, one front
    #: door) but are rejected by ``EstimatorSpec`` — they run through the
    #: scenario-grid comparison (``RunSpec.baselines``).
    baseline: bool = False
    description: str = ""
    #: Array-native implementation class (``None`` for the analytic
    #: estimator, whose batched path is the compiled kernel itself).
    batched: Optional[type] = None
    #: Object-walking reference twin (``use_compiled_kernel=False``).
    reference: Optional[type] = None


_ESTIMATORS: Dict[str, EstimatorEntry] = {}


def register_estimator(
    name: str,
    *,
    compiled_path: bool = True,
    default_adapt: bool = False,
    baseline: bool = False,
    description: str = "",
):
    """Class decorator registering *name* with the decorated implementation.

    The decorated class becomes the entry's ``batched`` implementation (the
    analytic estimator registers its compiled kernel; a ``baseline=True``
    entry registers its :class:`repro.baselines.CorrectionMethod`).
    Re-registering a name replaces the implementation but keeps any attached
    reference twin, so decoration order between a sampler and its twin does
    not matter.
    """

    def decorate(cls: type) -> type:
        entry = _ESTIMATORS.get(name)
        if entry is None:
            entry = EstimatorEntry(name=name)
            _ESTIMATORS[name] = entry
        entry.compiled_path = compiled_path
        entry.default_adapt = default_adapt
        entry.baseline = baseline
        entry.description = description
        entry.batched = cls
        return cls

    return decorate


def register_reference(name: str):
    """Class decorator attaching the decorated class as *name*'s twin."""

    def decorate(cls: type) -> type:
        entry = _ESTIMATORS.get(name)
        if entry is None:
            entry = EstimatorEntry(name=name)
            _ESTIMATORS[name] = entry
        entry.reference = cls
        return cls

    return decorate


def estimator_names() -> Tuple[str, ...]:
    """All registered names (engines *and* baselines), sorted for stable listings."""
    return tuple(sorted(_ESTIMATORS))


def engine_estimator_names() -> Tuple[str, ...]:
    """Names that can drive the engine (``moment_estimator`` candidates)."""
    return tuple(sorted(name for name, entry in _ESTIMATORS.items() if not entry.baseline))


def baseline_names() -> Tuple[str, ...]:
    """Registered baseline correction methods (scenario-grid comparators)."""
    return tuple(sorted(name for name, entry in _ESTIMATORS.items() if entry.baseline))


def get_estimator(name: str) -> EstimatorEntry:
    """Look up a registered estimator; unknown names raise with the list."""
    try:
        return _ESTIMATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown moment estimator {name!r}; "
            f"registered estimators: {', '.join(estimator_names())}"
        ) from None
