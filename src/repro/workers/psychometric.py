"""Psychometric comparison models for innate-skill tasks.

The threshold model has "roots in psychometrics": Ajtai et al.
formalise the Just Noticeable Difference of Weber and Fechner, later
generalised by Thurstone's law of comparative judgment [31].  The DOTS
task of Section 3.1 — counting dots — is exactly the kind of perceptual
discrimination Thurstone's model describes, and its Figure 2(a) curves
(accuracy growing with both the relative difference and the number of
aggregated workers) are reproduced by this module.

Under Thurstone case V, a worker perceives each stimulus with additive
Gaussian noise, so the probability of ranking a pair correctly is
``Phi(d / sigma)`` where ``d`` is the (relative) difference and
``sigma`` the perceptual noise scale.  Because errors are independent
across workers, majority voting drives the accuracy to 1 — the
wisdom-of-crowds regime.
"""

from __future__ import annotations

import numpy as np

from .base import WorkerModel, pair_distances

__all__ = ["ThurstoneWorkerModel", "WeberFechnerWorkerModel"]


class ThurstoneWorkerModel(WorkerModel):
    """Thurstone case-V comparator: accuracy ``Phi(d / sigma)``.

    Parameters
    ----------
    sigma:
        Perceptual noise scale.  ``sigma ~= 0.15`` against relative
        differences matches the DOTS curves of Figure 2(a): a single
        worker is right ~63 % of the time on the hardest bucket
        (relative difference below 10 %) and a 21-worker majority is
        right ~90 % of the time.
    relative:
        Whether distances are relative differences (the DOTS setting)
        or absolute.
    """

    def __init__(self, sigma: float, relative: bool = True, is_expert: bool = False):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.relative = relative
        self.is_expert = is_expert

    def correct_probability(self, dist: np.ndarray) -> np.ndarray:
        """Vectorised single-vote accuracy at the given distances."""
        # Imported lazily: scipy.stats more than doubles the time and memory
        # of ``import repro``, and nothing on the runtime path needs it.
        from scipy.stats import norm

        return norm.cdf(np.asarray(dist, dtype=np.float64) / self.sigma)

    def decide(
        self,
        values_i: np.ndarray,
        values_j: np.ndarray,
        rng: np.random.Generator,
        indices_i: np.ndarray | None = None,
        indices_j: np.ndarray | None = None,
    ) -> np.ndarray:
        dist = pair_distances(values_i, values_j, self.relative)
        p_correct = self.correct_probability(dist)
        first_is_better = values_i > values_j
        tie = values_i == values_j
        correct = rng.random(len(values_i)) < p_correct
        first_wins = np.where(correct, first_is_better, ~first_is_better)
        if np.any(tie):
            first_wins = np.where(tie, rng.random(len(values_i)) < 0.5, first_wins)
        return first_wins

    def accuracy(self, dist: float) -> float:
        if dist == 0.0:
            return 0.5
        return float(self.correct_probability(np.asarray([dist]))[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThurstoneWorkerModel(sigma={self.sigma}, relative={self.relative})"


class WeberFechnerWorkerModel(WorkerModel):
    """Comparator with accuracy growing in the *log* of the ratio.

    Weber-Fechner's law states that perceived intensity grows with the
    logarithm of the stimulus, so discrimination accuracy for positive
    magnitudes (dot counts, prices) is naturally modelled as
    ``Phi(log(hi / lo) / sigma)``.  Provided as an alternative
    calibration target for the DOTS workers; requires positive values.
    """

    def __init__(self, sigma: float, is_expert: bool = False):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.is_expert = is_expert

    def correct_probability(
        self, values_i: np.ndarray, values_j: np.ndarray
    ) -> np.ndarray:
        """Single-vote accuracy for each pair of positive magnitudes."""
        if np.any(values_i <= 0) or np.any(values_j <= 0):
            raise ValueError("Weber-Fechner comparisons require positive values")
        from scipy.stats import norm

        ratio = np.maximum(values_i, values_j) / np.minimum(values_i, values_j)
        return norm.cdf(np.log(ratio) / self.sigma)

    def decide(
        self,
        values_i: np.ndarray,
        values_j: np.ndarray,
        rng: np.random.Generator,
        indices_i: np.ndarray | None = None,
        indices_j: np.ndarray | None = None,
    ) -> np.ndarray:
        p_correct = self.correct_probability(values_i, values_j)
        first_is_better = values_i > values_j
        tie = values_i == values_j
        correct = rng.random(len(values_i)) < p_correct
        first_wins = np.where(correct, first_is_better, ~first_is_better)
        if np.any(tie):
            first_wins = np.where(tie, rng.random(len(values_i)) < 0.5, first_wins)
        return first_wins

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeberFechnerWorkerModel(sigma={self.sigma})"
