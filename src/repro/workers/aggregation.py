"""Vote aggregation: majority voting and simulated experts.

Section 3.2 analyses repeated questioning: if a single comparison errs
with probability ``p < 0.5``, the majority of ``k`` independent answers
errs with probability at most ``exp(-(1 - 2p)^2 k / (8 (1 - p)))`` — so
accuracy can be driven arbitrarily high *in the probabilistic model*.
Section 5.3 uses exactly this to *simulate* an expert on CrowdFlower:
"simulating each expert query by 7 naive queries and selecting the
answer that received most votes" — which works for DOTS and fails for
CARS, the paper's central point.

This module provides the sampling primitive (:func:`majority_vote`),
the exact and Chernoff analyses of majority accuracy, and
:class:`MajorityOfKModel`, a worker model that wraps any base model
into its k-vote majority (with a fair coin on ties).
"""

from __future__ import annotations

import math

import numpy as np

from .base import WorkerModel

__all__ = [
    "majority_vote",
    "majority_accuracy_exact",
    "majority_error_chernoff",
    "MajorityOfKModel",
]


def majority_vote(
    model: WorkerModel,
    values_i: np.ndarray,
    values_j: np.ndarray,
    k: int,
    rng: np.random.Generator,
    indices_i: np.ndarray | None = None,
    indices_j: np.ndarray | None = None,
) -> np.ndarray:
    """Majority of ``k`` independent answers from ``model`` per pair.

    Ties (possible for even ``k``) are broken by a fair coin, matching
    the paper ("taking the element that won the majority of the
    comparisons (or an arbitrary element in case of a tie)").

    Returns a boolean array: ``True`` where the first element wins.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    first_votes = np.zeros(len(values_i), dtype=np.int64)
    for _ in range(k):
        first_votes += model.decide(values_i, values_j, rng, indices_i, indices_j)
    first_wins = first_votes * 2 > k
    tie = first_votes * 2 == k
    if np.any(tie):
        first_wins = np.where(tie, rng.random(len(values_i)) < 0.5, first_wins)
    return first_wins


def majority_accuracy_exact(p_correct: float, k: int) -> float:
    """Exact accuracy of the k-vote majority of i.i.d. voters.

    ``p_correct`` is the single-vote accuracy.  Even ``k`` splits ties
    with a fair coin.  Used to draw the analytic curves next to the
    sampled ones in the Figure 2 reproduction.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 <= p_correct <= 1.0:
        raise ValueError("p_correct must be in [0, 1]")
    # Imported lazily: scipy.stats more than doubles the time and memory
    # of ``import repro``, and nothing on the runtime path needs it.
    from scipy.stats import binom

    correct_votes = binom(k, p_correct)
    win = 1.0 - correct_votes.cdf(k // 2) if k % 2 == 1 else 1.0 - correct_votes.cdf(k // 2)
    if k % 2 == 0:
        win += 0.5 * correct_votes.pmf(k // 2)
    return float(win)


def majority_error_chernoff(p_error: float, k: int) -> float:
    """The paper's Chernoff bound on the majority-vote error.

    "The probability that the element with lower value receives the
    majority of votes is bounded by ``exp(-(1 - 2p)^2 k / (8 (1 - p)))``"
    (Section 3.2), valid for ``p < 0.5``.
    """
    if not 0.0 <= p_error < 0.5:
        raise ValueError("the bound requires p_error in [0, 0.5)")
    exponent = -((1.0 - 2.0 * p_error) ** 2) * k / (8.0 * (1.0 - p_error))
    return math.exp(exponent)


class MajorityOfKModel(WorkerModel):
    """A "simulated expert": the k-vote majority of a base model.

    In the probabilistic model this amplifies accuracy without bound;
    in the threshold model it cannot cross the crowd's cognitive
    barrier — an expert "cannot be simulated by aggregating the answers
    of multiple naive workers" (Section 2).  Both behaviours emerge
    from the base model; this wrapper adds no magic.
    """

    def __init__(self, base: WorkerModel, k: int, is_expert: bool = True):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.base = base
        self.k = int(k)
        self.is_expert = is_expert

    @property
    def votes_per_query(self) -> int:
        """Number of underlying naive judgments per simulated query."""
        return self.k

    def decide(
        self,
        values_i: np.ndarray,
        values_j: np.ndarray,
        rng: np.random.Generator,
        indices_i: np.ndarray | None = None,
        indices_j: np.ndarray | None = None,
    ) -> np.ndarray:
        return majority_vote(
            self.base, values_i, values_j, self.k, rng, indices_i, indices_j
        )

    def accuracy(self, dist: float) -> float:
        return majority_accuracy_exact(self.base.accuracy(dist), self.k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MajorityOfKModel(k={self.k}, base={self.base!r})"
