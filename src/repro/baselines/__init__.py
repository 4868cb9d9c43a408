"""Baseline correction methods the paper compares against (§6.2).

* :class:`LinuxScaling` — the kernel's built-in ``t_enabled/t_running``
  extrapolation of multiplexed counts.
* :class:`CounterMiner` — outlier dropping over recent samples (Lv et al.,
  MICRO'18), an offline variance-reduction technique used online here exactly
  as the paper does.
* :class:`WeaverPin` — the Weaver & McKee instruction-count correction
  ("WM+Pin"), which fixes instruction counts through binary instrumentation
  but leaves every other event uncorrected and perturbs the application.

Each class self-registers into :mod:`repro.fg.registry` with
``baseline=True`` (names ``"linux"``, ``"counterminer"``, ``"wm+pin"``), so
importing this package is what makes the names available to
``RunSpec.baselines`` and the scenario-grid comparison
(:mod:`repro.api.comparison`); :func:`build_baseline` instantiates one by
name for both the comparison and ``PerfSession``.  Baselines share the
registry with the engine's moment estimators but not the role: the spec
layer and the engine both reject a baseline name where a moment estimator
is expected.
"""

from repro.baselines.base import CorrectionMethod, build_baseline
from repro.baselines.linux_scaling import LinuxScaling
from repro.baselines.counterminer import CounterMiner
from repro.baselines.weaver import WeaverPin

__all__ = [
    "CorrectionMethod",
    "CounterMiner",
    "LinuxScaling",
    "WeaverPin",
    "build_baseline",
]
