"""Fig. 10: decrease in scheduler training time due to BayesPerf.

The actor-critic IO scheduler is trained with HPC features supplied by four
monitoring configurations (Linux, CounterMiner, BayesPerf on the CPU and
BayesPerf on the accelerator).  The paper observes that better and more
timely inputs reduce the number of iterations to convergence: ~37% fewer for
accelerated BayesPerf versus Linux, ~28.5% for the CPU implementation and
~12.5% for CounterMiner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.experiments.common import format_table
from repro.mlsched.reinforcement import TrainingCurve
from repro.mlsched.training import (
    MONITORING_PROFILES,
    MonitoringProfile,
    convergence_summary,
    training_time_comparison,
)


@dataclass
class Fig10Result:
    """Training curves and convergence statistics per monitoring profile."""

    curves: Dict[str, TrainingCurve] = field(default_factory=dict)
    summary: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def reduction_vs_linux(self, profile: str) -> float:
        return self.summary[profile]["reduction_vs_baseline"]

    def to_table(self) -> str:
        rows = []
        for profile, stats in self.summary.items():
            rows.append(
                (
                    profile,
                    int(stats["convergence_iteration"]),
                    100.0 * stats["reduction_vs_baseline"],
                    stats["final_loss"],
                )
            )
        return format_table(
            ["profile", "convergence iteration", "reduction vs Linux (%)", "final loss"], rows
        )


def run(
    *,
    profiles: Sequence[MonitoringProfile] = MONITORING_PROFILES,
    iterations: int = 2500,
    seed: int = 0,
) -> Fig10Result:
    """Train the scheduler under each monitoring profile and summarise."""
    curves = training_time_comparison(profiles, iterations=iterations, seed=seed)
    result = Fig10Result(curves=curves)
    result.summary = convergence_summary(curves, baseline="linux")
    return result


def main() -> Fig10Result:  # pragma: no cover - convenience entry point
    result = run()
    print("Fig. 10 — decrease in training time due to BayesPerf")
    print(result.to_table())
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
