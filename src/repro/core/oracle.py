"""Comparison oracle: the single gateway between algorithms and workers.

The paper's algorithms are comparison based: they never look at values,
only at the outcomes of pairwise comparisons performed by (naive or
expert) workers.  :class:`ComparisonOracle` is that interface.  It

* routes each requested pair to a :class:`~repro.workers.base.WorkerModel`,
* **memoizes** outcomes, implementing the first Appendix-A optimisation
  ("the algorithm will keep an n x n table containing in cell (i, j)
  the result of the first comparison between element e_i and e_j"),
* counts *fresh* comparisons (those actually sent to workers and hence
  paid for) separately from total requests, and
* optionally charges a cost ledger (Section 3.4) per fresh comparison.

Batch queries are vectorised: experiments at n = 5000 with
``u_n(n) = 50`` perform about a million comparisons per run, so the
oracle resolves whole batches of pairs with numpy and stores the memo
in a dense ``int8`` matrix for small ``n`` (falling back to a dict for
very large instances).

Orientation matters to some models (the ``first_loses`` adversary of
Section 5 makes the *queried-first* element lose hard pairs), so the
oracle resolves each new pair in the orientation of its first request
and memoizes the outcome symmetrically.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..telemetry import Tracer, resolve_tracer
from ..workers.base import WorkerModel
from .instance import ProblemInstance
from .steps import OracleCall, Steps, drive_steps

__all__ = ["ComparisonOracle", "CostChargeable", "DEFAULT_DENSE_MEMO_LIMIT"]

# Default crossover to the dict memo: at the limit the dense n x n int8
# matrix is 16_000**2 bytes = 256 MB (~244 MiB).  Above it, the matrix
# grows quadratically, so fall back to a dict keyed by the flattened
# pair index, which stores only the pairs actually asked.  Override per
# oracle with the ``dense_memo_limit`` constructor parameter.
DEFAULT_DENSE_MEMO_LIMIT = 16_000

# Dense-memo cell states as int8 scalars, so the memo write produces an
# int8 array directly instead of an intermediate int64 + astype.  The
# dense memo stores BOTH orientations of every resolved pair — cell
# (a, b) says whether a (row index) or b beat the other — so batch
# lookups gather ``matrix[ii, jj]`` directly without canonicalising the
# pair to (lo, hi) first.  Writes are O(fresh pairs) and lookups are
# O(batch); fresh pairs are the minority in memo-heavy workloads, so
# doubling the writes to halve the lookup passes is a net win.
_ROW_WINS = np.int8(1)
_COL_WINS = np.int8(2)


class CostChargeable(Protocol):
    """Anything that can be charged for comparisons (see accounting)."""

    def charge(self, label: str, count: int, unit_cost: float) -> None:
        """Record ``count`` operations under ``label`` at ``unit_cost``."""
        ...


class ComparisonOracle:
    """Answers pairwise comparisons on one instance with one worker model.

    Parameters
    ----------
    instance:
        The problem instance (or a raw value array).
    model:
        Worker model resolving fresh comparisons.
    rng:
        Randomness source for the model.
    cost_per_comparison:
        Monetary cost ``c`` per fresh comparison (Section 3.4).
    memoize:
        Keep and reuse outcomes (Appendix A optimisation).  Disable to
        measure the unoptimised algorithm in ablations.
    ledger:
        Optional cost sink with a ``charge(label, count, unit_cost)``
        method; charged once per fresh comparison.
    label:
        Accounting label; defaults to ``"expert"``/``"naive"`` from the
        model's flag.
    dense_memo_limit:
        Largest ``n`` for which the memo uses the dense ``int8`` matrix
        (``n**2`` bytes); larger instances use the sparse dict memo.
        Defaults to :data:`DEFAULT_DENSE_MEMO_LIMIT`.
    tracer:
        Telemetry tracer; one ``oracle_batch`` record is emitted per
        :meth:`compare_pairs` call.  Defaults to the ambient tracer
        (see :func:`repro.telemetry.set_active_tracer`), which is a
        no-op unless activated.
    """

    def __init__(
        self,
        instance: ProblemInstance | np.ndarray,
        model: WorkerModel,
        rng: np.random.Generator,
        cost_per_comparison: float = 1.0,
        memoize: bool = True,
        ledger: CostChargeable | None = None,
        label: str | None = None,
        dense_memo_limit: int | None = None,
        tracer: Tracer | None = None,
    ):
        if isinstance(instance, ProblemInstance):
            self.values = instance.values
        else:
            self.values = np.asarray(instance, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError("oracle needs a non-empty 1-D value array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        self.model = model
        self.rng = rng
        self.cost_per_comparison = float(cost_per_comparison)
        self.memoize = memoize
        self.ledger = ledger
        self.label = label or ("expert" if model.is_expert else "naive")
        self.tracer = resolve_tracer(tracer)

        if dense_memo_limit is None:
            dense_memo_limit = DEFAULT_DENSE_MEMO_LIMIT
        if dense_memo_limit < 0:
            raise ValueError("dense_memo_limit must be non-negative")
        self.dense_memo_limit = int(dense_memo_limit)

        self.n = len(self.values)
        self._use_dense = self.n <= self.dense_memo_limit
        if memoize:
            if self._use_dense:
                # 0 = unknown, 1 = lower index wins, 2 = higher index wins.
                self._memo_matrix: np.ndarray | None = np.zeros(
                    (self.n, self.n), dtype=np.int8
                )
                self._memo_dict: dict[int, bool] | None = None
            else:
                self._memo_matrix = None
                self._memo_dict = {}
        else:
            self._memo_matrix = None
            self._memo_dict = None
        # Flat alias of the dense memo: batch reads/writes go through
        # ``flat[i * n + j]`` — 2-D fancy indexing costs several times
        # more per call than flat indexing for the same elements.
        self._memo_flat: np.ndarray | None = (
            self._memo_matrix.reshape(-1) if self._memo_matrix is not None else None
        )
        # Sorted snapshot of the dict memo for vectorised batch lookup
        # (rebuilt lazily whenever the dict has grown since the last
        # batch); the dict itself stays the source of truth.
        self._memo_keys = np.empty(0, dtype=np.int64)
        self._memo_vals = np.empty(0, dtype=bool)
        self._memo_synced = 0
        # Pairs currently memoized; lets batch lookups skip an empty memo.
        self._memo_stored = 0

        #: Fresh comparisons actually performed by workers (paid).
        self.comparisons = 0
        #: Total pair requests, including memo hits.
        self.requests = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def compare(self, i: int, j: int) -> int:
        """Winner of the comparison between elements ``i`` and ``j``.

        A length-1 :meth:`compare_pairs` call: the same validation,
        memo, counters, ledger charge and ``oracle_batch`` record.
        """
        return int(self.compare_pairs(np.array([i]), np.array([j]))[0])

    def compare_pairs(
        self,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
        return_fresh: bool = False,
        assume_unique: bool = False,
        validate: bool = True,
        return_first_wins: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Winners for a batch of pairs (a "batch" in the Section 3 sense).

        Parameters
        ----------
        indices_i, indices_j:
            Element index arrays; pairs are ``(indices_i[k], indices_j[k])``.
            A worker "receives a pair (k, j) of distinct elements", so
            ``i == j`` is rejected.
        return_fresh:
            Also return a boolean mask of the pairs that were resolved
            fresh (not from the memo) *for the first time in this
            batch*.  The filter phase uses it to count distinct losses.
        assume_unique:
            Caller contract that the batch contains no duplicate
            (unordered) pairs, letting the oracle skip its in-batch
            dedup pass (``np.unique``).  All-play-all pairings over
            distinct elements satisfy it by construction.  Passing
            duplicates with this flag set double-charges them and may
            answer them inconsistently within the batch.
        validate:
            Range/distinctness checks on the index arrays (five full
            array reductions).  Internal hot-path callers that derive
            both arrays from an already-validated element set (the
            filter rounds, all-play-all pairings, 2-MaxFind's pivot
            batches) pass ``False``; external callers should keep the
            default.
        return_first_wins:
            Return the boolean ``first element won`` mask instead of
            winner element ids.  Every tournament-style caller
            immediately recomputes that mask as ``winners ==
            indices_i``; answering it directly skips the winner-id
            materialisation on both sides (the dense memo stores
            exactly this bit).  Requires ``assume_unique`` — the
            in-batch dedup pass is defined on winner ids, where
            orientation does not matter.

        Returns
        -------
        winners : numpy.ndarray
            Winner element index per pair — or the boolean first-wins
            mask when ``return_first_wins`` is set.
        fresh : numpy.ndarray of bool, optional
            Present when ``return_fresh`` is true.
        """
        return drive_steps(
            self.compare_pairs_steps(
                indices_i,
                indices_j,
                return_fresh=return_fresh,
                assume_unique=assume_unique,
                validate=validate,
                return_first_wins=return_first_wins,
            )
        )

    def compare_pairs_steps(
        self,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
        return_fresh: bool = False,
        assume_unique: bool = False,
        validate: bool = True,
        return_first_wins: bool = False,
    ) -> Steps[np.ndarray | tuple[np.ndarray, np.ndarray]]:
        """Step-generator form of :meth:`compare_pairs`.

        Identical logic, but the worker-model invocation is *yielded*
        as an :class:`~repro.core.steps.OracleCall` instead of being
        performed inline, so a driver chooses how to execute it.
        ``drive_steps(oracle.compare_pairs_steps(...))`` is bit
        identical to :meth:`compare_pairs`; the multi-job scheduler
        instead parks the generator and settles the call through its
        cross-job fusion queue.
        """
        if return_first_wins and not assume_unique:
            raise ValueError("return_first_wins requires assume_unique")
        ii = np.asarray(indices_i, dtype=np.intp)
        jj = np.asarray(indices_j, dtype=np.intp)
        if ii.shape != jj.shape or ii.ndim != 1:
            raise ValueError("index arrays must be 1-D and of equal length")
        if len(ii) == 0:
            empty = np.empty(0, dtype=bool if return_first_wins else np.intp)
            return (empty, np.empty(0, dtype=bool)) if return_fresh else empty

        n_pairs = len(ii)
        self.requests += n_pairs
        if validate:
            if (
                int(ii.min()) < 0
                or int(jj.min()) < 0
                or int(ii.max()) >= self.n
                or int(jj.max()) >= self.n
            ):
                raise ValueError("element index out of range")
            if bool((ii == jj).any()):
                raise ValueError(
                    "a worker never receives two copies of the same element"
                )
        # The winners buffer and the fresh mask are only materialised
        # when somebody fills/reads them; the all-fresh fast lane
        # builds both in one shot inside _resolve_fresh.
        winners: np.ndarray | None = None
        fresh: np.ndarray | None = None
        n_known = 0
        need_pos: np.ndarray | None = None
        if self.memoize:
            need_pos, n_known, winners = self._memo_lookup(ii, jj, return_first_wins)
        n_fresh = 0
        if n_known < n_pairs:
            if return_fresh and n_known:
                fresh = np.zeros(n_pairs, dtype=bool)
            winners, fresh, n_fresh = yield from self._resolve_fresh_steps(
                ii,
                jj,
                need_pos,
                winners,
                fresh,
                assume_unique,
                return_fresh,
                return_first_wins,
            )
        elif return_fresh:
            fresh = np.zeros(n_pairs, dtype=bool)
        assert winners is not None
        if self.tracer.enabled:
            self.tracer.event(
                "oracle_batch",
                label=self.label,
                requests=n_pairs,
                fresh=n_fresh,
                memo_hits=n_known,
                batch_dupes=n_pairs - n_fresh - n_known,
            )
        if return_fresh:
            assert fresh is not None
            return winners, fresh
        return winners

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _memo_lookup(
        self, ii: np.ndarray, jj: np.ndarray, first_wins: bool = False
    ) -> tuple[np.ndarray | None, int, np.ndarray | None]:
        """Memoized winners: ``(unknown positions, hit count, winners)``.

        The position array is ``None`` when *nothing* is known — the
        caller then resolves the whole batch without any gathers or
        buffer allocation (``winners`` comes back ``None`` too) — and
        empty when everything is.  When at least one pair is known, a
        winners buffer is allocated with *every* slot filled — the
        unknown slots with garbage — because the fresh-resolution pass
        overwrites exactly the unknown slots anyway; two unconditional
        ``copyto`` passes beat four boolean-masked gathers.  In
        first-wins mode the buffer is the boolean mask instead of
        winner ids — a single elementwise comparison, no ``copyto``.
        """
        if self._memo_flat is not None:
            if self._memo_stored == 0:
                return None, 0, None
            # Both orientations are stored, so no (lo, hi) canonical
            # form is needed: gather the batch's own orientation.
            state = self._memo_flat[ii * self.n + jj]
            need_pos = np.flatnonzero(state == 0)
            n_known = len(ii) - len(need_pos)
            if n_known == 0:
                return None, 0, None
            if first_wins:
                # The memo code *is* the answer: row-wins == first wins.
                return need_pos, n_known, state == _ROW_WINS
            winners = np.empty(len(ii), dtype=np.intp)
            np.copyto(winners, jj)
            np.copyto(winners, ii, where=state == _ROW_WINS)
            return need_pos, n_known, winners
        assert self._memo_dict is not None
        if not self._memo_dict:
            return None, 0, None
        self._sync_dict_index()
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        keys = lo.astype(np.int64, copy=False) * self.n + hi
        # Sorted-key search: one vectorised searchsorted instead of a
        # Python-level dict probe per pair.
        pos = np.searchsorted(self._memo_keys, keys)
        pos = np.minimum(pos, len(self._memo_keys) - 1)
        known = self._memo_keys[pos] == keys
        need_pos = np.flatnonzero(~known)
        n_known = len(ii) - len(need_pos)
        if n_known == 0:
            return None, 0, None
        # Garbage fills the unknown slots here too (vals[pos] is
        # meaningless where the key missed); fresh resolution fixes them.
        if first_wins:
            # Stored bit is "lo won"; first wins iff that agrees with
            # the first element being lo.
            return need_pos, n_known, self._memo_vals[pos] == (ii == lo)
        winners = np.empty(len(ii), dtype=np.intp)
        np.copyto(winners, hi)
        np.copyto(winners, lo, where=self._memo_vals[pos])
        return need_pos, n_known, winners

    def _sync_dict_index(self) -> None:
        """Rebuild the sorted lookup snapshot if the dict memo has grown.

        Amortised: inserts go to the dict (O(1) each); the sorted
        key/value arrays are rebuilt at most once per batch lookup that
        follows an insert.
        """
        memo = self._memo_dict
        assert memo is not None
        if len(memo) == self._memo_synced:
            return
        keys = np.fromiter(memo.keys(), dtype=np.int64, count=len(memo))
        vals = np.fromiter(memo.values(), dtype=bool, count=len(memo))
        order = np.argsort(keys)
        self._memo_keys = keys[order]
        self._memo_vals = vals[order]
        self._memo_synced = len(memo)

    def _resolve_fresh_steps(
        self,
        ii: np.ndarray,
        jj: np.ndarray,
        need_pos: np.ndarray | None,
        winners: np.ndarray | None,
        fresh: np.ndarray | None,
        assume_unique: bool,
        return_fresh: bool,
        return_first_wins: bool = False,
    ) -> Steps[tuple[np.ndarray, np.ndarray | None, int]]:
        """Resolve unmemoized pairs, deduplicating within the batch.

        Duplicate pairs inside one batch must agree (the memo makes
        answers consistent across batches; consistency within a batch
        follows from resolving each distinct pair once).  Callers that
        guarantee distinct pairs (``assume_unique``) skip the dedup
        entirely; a batch with no memo hits (``need_pos is None``) also
        skips every gather and builds ``winners`` (and the fresh mask)
        directly instead of filling the caller's buffer.  Returns the
        final ``(winners, fresh, fresh count)``.  The one worker-model
        call is yielded as an :class:`~repro.core.steps.OracleCall`;
        the driver sends back the boolean first-wins array (or throws
        what ``decide`` would have raised).
        """
        all_fresh = need_pos is None
        inverse = None
        if all_fresh:
            rep_pos = None  # every position is fresh and distinct
            rep_i, rep_j = ii, jj
            if not assume_unique:
                lo = np.minimum(ii, jj)
                hi = np.maximum(ii, jj)
                keys = lo.astype(np.int64, copy=False) * self.n + hi
                _, first_occurrence, inverse = np.unique(
                    keys, return_index=True, return_inverse=True
                )
                if len(first_occurrence) == len(ii):
                    inverse = None  # no in-batch duplicates after all
                else:
                    rep_pos = first_occurrence
                    rep_i, rep_j = ii[rep_pos], jj[rep_pos]
        else:
            if not assume_unique:
                sub_i = ii[need_pos]
                sub_j = jj[need_pos]
                keys = (
                    np.minimum(sub_i, sub_j).astype(np.int64, copy=False) * self.n
                    + np.maximum(sub_i, sub_j)
                )
                _, first_occurrence, inverse = np.unique(
                    keys, return_index=True, return_inverse=True
                )
                rep_pos = need_pos[first_occurrence]
            else:
                rep_pos = need_pos
            rep_i, rep_j = ii[rep_pos], jj[rep_pos]

        # Resolve each distinct pair in the orientation of its first
        # request; orientation-sensitive models (first_loses) rely on it.
        first_wins = np.asarray(
            (
                yield OracleCall(
                    model=self.model,
                    values_i=self.values[rep_i],
                    values_j=self.values[rep_j],
                    rng=self.rng,
                    indices_i=rep_i,
                    indices_j=rep_j,
                )
            ),
            dtype=bool,
        )
        # In first-wins mode (assume_unique only, so never any in-batch
        # dedup) the decide output *is* the per-pair answer — no winner
        # ids are ever materialised.
        rep_winner = (
            first_wins if return_first_wins else np.where(first_wins, rep_i, rep_j)
        )
        if rep_pos is None:
            winners = rep_winner
            if return_fresh:
                fresh = np.ones(len(ii), dtype=bool)
        else:
            if all_fresh and inverse is not None:
                winners = rep_winner[inverse]
            else:
                assert winners is not None  # allocated by _memo_lookup
                if inverse is not None:
                    winners[need_pos] = rep_winner[inverse]
                else:
                    winners[need_pos] = rep_winner
            if return_fresh:
                if fresh is None:
                    fresh = np.zeros(len(ii), dtype=bool)
                fresh[rep_pos] = True

        n_fresh = len(rep_i)
        self.comparisons += n_fresh
        if self.ledger is not None:
            self.ledger.charge(self.label, n_fresh, self.cost_per_comparison)
            if self.tracer.enabled:
                self.tracer.event(
                    "ledger_charge",
                    label=self.label,
                    count=n_fresh,
                    unit_cost=self.cost_per_comparison,
                )
        if self.memoize:
            if self._memo_flat is not None:
                # Write both orientations so later batches can gather
                # the matrix in whatever orientation they arrive; the
                # mirror code flips 1 <-> 2, which is XOR with 3.
                # ``2 - first`` maps won -> _ROW_WINS, lost -> _COL_WINS
                # in one cheap arithmetic pass (np.where costs ~10x).
                code = 2 - first_wins.view(np.int8)
                self._memo_flat[rep_i * self.n + rep_j] = code
                self._memo_flat[rep_j * self.n + rep_i] = code ^ 3
            else:
                assert self._memo_dict is not None
                lo_rep = np.minimum(rep_i, rep_j)
                hi_rep = np.maximum(rep_i, rep_j)
                # winner == lo  ⟺  (first element won) == (first is lo)
                lo_winner = first_wins == (rep_i == lo_rep)
                rep_keys = lo_rep.astype(np.int64, copy=False) * self.n + hi_rep
                # dict.update consumes the zip at C speed; the sorted
                # snapshot resyncs lazily on the next batch lookup.
                self._memo_dict.update(
                    zip(rep_keys.tolist(), lo_winner.tolist())
                )
            self._memo_stored += n_fresh
        return winners, fresh, n_fresh

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """Total monetary cost of the fresh comparisons so far."""
        return self.comparisons * self.cost_per_comparison

    def reset_counts(self) -> None:
        """Zero the counters (the memo is preserved)."""
        self.comparisons = 0
        self.requests = 0

    def forget(self) -> None:
        """Drop all memoized outcomes."""
        if self._memo_matrix is not None:
            self._memo_matrix.fill(0)
        if self._memo_dict is not None:
            self._memo_dict.clear()
        # A stale sorted snapshot must not survive a clear: the dict can
        # grow back to its old size with different keys.
        self._memo_keys = np.empty(0, dtype=np.int64)
        self._memo_vals = np.empty(0, dtype=bool)
        self._memo_synced = 0
        self._memo_stored = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComparisonOracle(n={self.n}, label={self.label!r}, "
            f"comparisons={self.comparisons}, requests={self.requests})"
        )
