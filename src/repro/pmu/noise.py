"""Measurement noise models.

§2 of the paper lists the nondeterminism sources that corrupt individual
counter reads even before multiplexing error enters: PMI skid, OS interrupt
handling, scheduling of other processes, and tool-level differences.  The
noise model below applies these as multiplicative perturbations on a single
sampled value; the much larger multiplexing error emerges mechanically from
the sampler's extrapolation, not from this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, List

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Per-sample measurement noise.

    Parameters
    ----------
    read_noise:
        Log-normal sigma of the basic per-sample read noise (PMI skid,
        sampling-threshold quantisation).
    os_spike_probability:
        Probability that a sample is perturbed by OS activity (interrupt
        storms, migrations).
    os_spike_magnitude:
        Log-normal sigma of the OS perturbation when it occurs.
    overcount_bias:
        Deterministic relative over-count applied to every sample; models the
        systematic over-counting reported for some processors.
    polling_noise:
        Log-normal sigma of a polled (non-multiplexed) read; polling is less
        intrusive than sampling so this is typically smaller.
    """

    read_noise: float = 0.02
    os_spike_probability: float = 0.10
    os_spike_magnitude: float = 0.7
    overcount_bias: float = 0.0
    polling_noise: float = 0.01

    def __post_init__(self) -> None:
        for spec in fields(self):
            if not math.isfinite(getattr(self, spec.name)):
                raise ValueError(f"{spec.name} must be finite")
        for name in ("read_noise", "os_spike_magnitude", "polling_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.os_spike_probability <= 1.0:
            raise ValueError("os_spike_probability must lie in [0, 1]")
        if self.overcount_bias <= -1.0:
            # A scale 1 + bias <= 0 zeroes (or negates) every sample.
            raise ValueError("overcount_bias must be greater than -1")

    def perturb_sample(self, value: float, rng: np.random.Generator) -> float:
        """Apply sampling-mode noise to a single true value."""
        return self.perturb_samples((value,), rng)[0]

    def perturb_samples(
        self, values: Iterable[float], rng: np.random.Generator
    ) -> List[float]:
        """Apply sampling-mode noise to each true value, in order.

        Per value the draws are: one normal (read noise, if enabled), one
        uniform (whether an OS spike fires, if spikes are enabled) and one
        more normal only when a spike fires.  ``0.0 + s * z`` is exactly what
        ``rng.normal(0.0, s)`` computes, so the values and the stream match
        a per-value ``rng.normal`` loop bit for bit.  ``exp`` stays a scalar
        ``np.exp`` per draw: numpy's array and scalar paths need not agree in
        the last bit.
        """
        scale = 1.0 + self.overcount_bias
        read_noise = self.read_noise
        spike_probability = self.os_spike_probability
        spike_magnitude = self.os_spike_magnitude
        normal = rng.standard_normal
        uniform = rng.random
        exp = np.exp
        out: List[float] = []
        append = out.append
        for value in values:
            noisy = value * scale
            if read_noise > 0:
                noisy *= float(exp(0.0 + read_noise * normal()))
            if spike_probability > 0 and uniform() < spike_probability:
                noisy *= float(exp(0.0 + spike_magnitude * normal()))
            append(max(noisy, 0.0))
        return out

    def perturb_polled(self, value: float, rng: np.random.Generator) -> float:
        """Apply polling-mode noise to a single true value."""
        noisy = value
        if self.polling_noise > 0:
            noisy *= float(np.exp(rng.normal(0.0, self.polling_noise)))
        return max(noisy, 0.0)

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """A noise model that leaves samples untouched (for unit tests)."""
        return cls(read_noise=0.0, os_spike_probability=0.0, os_spike_magnitude=0.0, polling_noise=0.0)
