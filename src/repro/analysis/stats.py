"""Statistical helpers for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MeanCI", "mean_ci", "proportion_ci", "geometric_mean"]


@dataclass(frozen=True)
class MeanCI:
    """A point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def mean_ci(samples: np.ndarray, confidence: float = 0.95) -> MeanCI:
    """Sample mean with a Student-t confidence interval.

    Degenerate inputs are handled explicitly: a single sample has an
    undefined interval (half-width 0 is reported, with ``n = 1`` as the
    caller's warning flag).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = samples.size
    mean = float(samples.mean())
    if n == 1:
        return MeanCI(mean=mean, half_width=0.0, n=1)
    sem = float(samples.std(ddof=1) / math.sqrt(n))
    # Imported lazily: scipy.stats more than doubles the time and memory
    # of ``import repro``, and nothing on the runtime path needs it.
    from scipy import stats as scipy_stats

    t = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return MeanCI(mean=mean, half_width=t * sem, n=n)


def proportion_ci(successes: int, trials: int, confidence: float = 0.95) -> MeanCI:
    """Wilson score interval for a binomial proportion.

    Used for survival-rate statistics such as "the set returned in the
    first round contains the real max in 99% of the times" (§5.2).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    from scipy import stats as scipy_stats

    z = float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    )
    return MeanCI(mean=center, half_width=half, n=trials)


def geometric_mean(samples: np.ndarray) -> float:
    """Geometric mean of positive samples (for cost-ratio summaries)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if np.any(samples <= 0):
        raise ValueError("geometric mean requires positive samples")
    return float(np.exp(np.log(samples).mean()))
