"""Multivariate Gaussian densities in information (natural-parameter) form.

EP's site approximations, cavity distributions and the global approximation
are all Gaussians over a named set of variables.  The information form
(precision matrix ``L`` and shift vector ``h``, with density proportional to
``exp(-0.5 x'Lx + h'x)``) makes products and quotients additive, which is
exactly what Alg. 1 needs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.fg.linalg import cholesky_inverse, cholesky_moments


class GaussianDensity:
    """A (possibly improper) multivariate Gaussian over named variables."""

    def __init__(self, variables: Sequence[str], precision: np.ndarray, shift: np.ndarray) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        n = len(self.variables)
        precision = np.asarray(precision, dtype=float)
        shift = np.asarray(shift, dtype=float).reshape(-1)
        if precision.shape != (n, n):
            raise ValueError(f"precision must be {n}x{n}, got {precision.shape}")
        if shift.shape != (n,):
            raise ValueError(f"shift must have length {n}, got {shift.shape}")
        self.precision = precision
        self.shift = shift
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.variables)}
        if len(self._index) != n:
            raise ValueError("duplicate variable names")

    # -- constructors ----------------------------------------------------

    @classmethod
    def uninformative(cls, variables: Sequence[str]) -> "GaussianDensity":
        """A flat (zero-precision) density over the variables."""
        n = len(tuple(variables))
        return cls(variables, np.zeros((n, n)), np.zeros(n))

    @classmethod
    def from_moments(
        cls, variables: Sequence[str], mean: np.ndarray, cov: np.ndarray, *, jitter: float = 0.0
    ) -> "GaussianDensity":
        """Build from mean vector and covariance matrix."""
        variables = tuple(variables)
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        n = len(variables)
        if mean.shape != (n,) or cov.shape != (n, n):
            raise ValueError("mean/cov shapes do not match the variable list")
        if jitter:
            cov = cov + jitter * np.eye(n)
        precision = np.linalg.inv(cov)
        precision = 0.5 * (precision + precision.T)
        shift = precision @ mean
        return cls(variables, precision, shift)

    @classmethod
    def diagonal(cls, means: Mapping[str, float], variances: Mapping[str, float]) -> "GaussianDensity":
        """Independent Gaussian over the keys of *means*."""
        variables = tuple(means)
        prec = np.zeros((len(variables), len(variables)))
        shift = np.zeros(len(variables))
        for i, name in enumerate(variables):
            var = float(variances[name])
            if var <= 0:
                raise ValueError(f"variance for {name!r} must be positive")
            prec[i, i] = 1.0 / var
            shift[i] = means[name] / var
        return cls(variables, prec, shift)

    # -- basic properties -------------------------------------------------

    def __len__(self) -> int:
        return len(self.variables)

    def copy(self) -> "GaussianDensity":
        return GaussianDensity(self.variables, self.precision.copy(), self.shift.copy())

    # -- moments -----------------------------------------------------------

    def moments(self, *, jitter: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
        """Return (mean, covariance).  Raises if the density is improper."""
        n = len(self.variables)
        precision = self.precision + jitter * np.eye(n)
        try:
            # Cholesky solve: one factorisation, PD check included, and the
            # covariance comes out exactly symmetric.
            return cholesky_moments(precision, self.shift)
        except np.linalg.LinAlgError:
            pass
        # Not positive definite.  EP cavities are occasionally indefinite yet
        # invertible; keep the historical LU route for them and only raise
        # when the precision is outright singular.
        try:
            cov = np.linalg.inv(precision)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cannot compute moments of an improper Gaussian") from exc
        cov = 0.5 * (cov + cov.T)
        mean = cov @ self.shift
        return mean, cov

    def mean(self) -> Dict[str, float]:
        """Mean of every variable as a dictionary."""
        mean, _ = self.moments()
        return {name: float(mean[i]) for i, name in enumerate(self.variables)}

    def variance(self) -> Dict[str, float]:
        """Marginal variance of every variable as a dictionary."""
        _, cov = self.moments()
        return {name: float(cov[i, i]) for i, name in enumerate(self.variables)}

    def marginal(self, names: Sequence[str]) -> "GaussianDensity":
        """Marginal density over a subset of variables (by moment projection)."""
        names = tuple(names)
        mean, cov = self.moments()
        idx = [self._index[name] for name in names]
        sub_mean = mean[idx]
        sub_cov = cov[np.ix_(idx, idx)] + 1e-12 * np.eye(len(idx))
        # Back to information form directly from the projected moments —
        # one d x d inversion instead of from_moments' validate/jitter/invert
        # round trip on data we just computed.
        try:
            sub_precision = cholesky_inverse(sub_cov)
        except np.linalg.LinAlgError:
            sub_precision = np.linalg.inv(sub_cov)
            sub_precision = 0.5 * (sub_precision + sub_precision.T)
        return GaussianDensity(names, sub_precision, sub_precision @ sub_mean)

    # -- algebra in information form ---------------------------------------

    def _aligned(self, other: "GaussianDensity") -> Tuple[np.ndarray, np.ndarray]:
        """Other's parameters embedded into this density's variable ordering."""
        prec = np.zeros_like(self.precision)
        shift = np.zeros_like(self.shift)
        idx = [self._index[name] for name in other.variables]
        prec[np.ix_(idx, idx)] = other.precision
        shift[idx] = other.shift
        return prec, shift

    def multiply(self, other: "GaussianDensity") -> "GaussianDensity":
        """Product of densities; *other* may be defined on a variable subset."""
        if not set(other.variables) <= set(self.variables):
            raise ValueError("multiply requires other's variables to be a subset")
        prec, shift = self._aligned(other)
        return GaussianDensity(self.variables, self.precision + prec, self.shift + shift)

    def divide(self, other: "GaussianDensity") -> "GaussianDensity":
        """Quotient of densities; the result may be improper (EP cavity)."""
        if not set(other.variables) <= set(self.variables):
            raise ValueError("divide requires other's variables to be a subset")
        prec, shift = self._aligned(other)
        return GaussianDensity(self.variables, self.precision - prec, self.shift - shift)

    def damped_towards(self, target: "GaussianDensity", damping: float) -> "GaussianDensity":
        """Convex combination in natural parameters (EP damping)."""
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be within [0, 1]")
        if target.variables != self.variables:
            raise ValueError("damped_towards requires identical variable ordering")
        precision = (1 - damping) * self.precision + damping * target.precision
        shift = (1 - damping) * self.shift + damping * target.shift
        return GaussianDensity(self.variables, precision, shift)

    def log_density(self, values: Mapping[str, float]) -> float:
        """Unnormalised log density at the given point."""
        x = np.array([float(values[name]) for name in self.variables])
        return float(-0.5 * x @ self.precision @ x + self.shift @ x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaussianDensity(n={len(self.variables)})"
