"""§6.3 decision-quality results.

The paper reports that making the Spark shuffle PCIe-aware with an ML
scheduler improves average shuffle completion time by 15.1±2.2% (collaborative
filtering) and 22.3±7.9% (reinforcement learning), and that feeding the
schedulers BayesPerf-corrected counters instead of Linux-scaled ones yields a
further 8.7±0.9% and 19±3.4% reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.experiments.common import format_table
from repro.mlsched.training import (
    MONITORING_PROFILES,
    DecisionQualityResult,
    MonitoringProfile,
    decision_quality_comparison,
)


@dataclass
class CaseStudyResult:
    """Decision-quality comparison across scheduler families and monitoring profiles."""

    results: Dict[str, DecisionQualityResult] = field(default_factory=dict)

    def to_table(self) -> str:
        rows = []
        for family, outcome in self.results.items():
            for profile, regret in outcome.mean_regret.items():
                rows.append(
                    (
                        family,
                        profile,
                        100.0 * regret,
                        100.0 * outcome.improvement_vs_random[profile],
                        100.0 * outcome.improvement_vs_linux[profile],
                    )
                )
        return format_table(
            [
                "scheduler",
                "monitoring",
                "mean regret (%)",
                "improvement vs no scheduler (%)",
                "improvement vs Linux inputs (%)",
            ],
            rows,
        )

    def scheduler_improvement(self, family: str, profile: str = "bayesperf-acc") -> float:
        """Completion-time improvement of a scheduler family over random placement."""
        return self.results[family].improvement_vs_random[profile]


def run(
    *,
    profiles: Sequence[MonitoringProfile] = MONITORING_PROFILES,
    train_iterations: int = 800,
    cf_observations: int = 400,
    episodes: int = 200,
    seed: int = 0,
) -> CaseStudyResult:
    """Evaluate both scheduler families under every monitoring profile."""
    comparison = decision_quality_comparison(
        profiles,
        train_iterations=train_iterations,
        cf_observations=cf_observations,
        episodes=episodes,
        seed=seed,
    )
    return CaseStudyResult(results=comparison)


def main() -> CaseStudyResult:  # pragma: no cover - convenience entry point
    result = run()
    print("§6.3 — decision quality of the ML-based IO schedulers")
    print(result.to_table())
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
