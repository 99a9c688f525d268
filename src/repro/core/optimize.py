"""Procedure 5.1: enumerative search for the time-optimal schedule.

Given an algorithm ``(J, D)`` and a fixed space mapping ``S``, find the
integral schedule ``Pi`` minimizing the total execution time subject to

1. ``Pi D > 0`` (dependences respected),
2. ``rank([S; Pi]) == k`` (genuinely ``(k-1)``-dimensional),
3. ``[S; Pi]`` conflict-free (checked with the strongest theorem for
   the co-rank — Theorem 3.1 / 4.7 / 4.8 / 4.5 — or the exact oracle),
4. optionally an interconnection constraint (Definition 2.2 cond. 2),
   supplied as a callback to keep this module independent of
   :mod:`repro.systolic`.

Candidates are enumerated in non-decreasing execution-time order
(Theorem 2.1 justifies the expanding-ring strategy), exactly the
paper's Steps 1-7 with the candidate set ``C_l = {Pi : sum |pi_i| mu_i
<= x_l}`` and growth ``x_{l+1} = x_l + alpha``.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import prod

import numpy as np

from ..dse.progress import SearchStats
from ..intlin import INT64_MAX, IntMat, as_intmat, as_intvec, kernel_basis
from ..intlin.batch import (
    batch_dependence_mask,
    batch_nonzero_mask,
    batch_point_images,
)
from ..obs import Tracer, get_tracer
from ..model import UniformDependenceAlgorithm
from .conditions import ConditionVerdict, check_conflict_free
from .conflict import (
    adjugate_conflict_matrix,
    batch_adjugate_screen,
    batch_distinct_image_counts,
)
from .mapping import MappingMatrix
from .schedule import LinearSchedule
from .symmetry import SymmetryGroup, symmetry_group_for

__all__ = [
    "BatchCandidateScanner",
    "DEFAULT_BATCH_SIZE",
    "STAGE_CONFLICT",
    "STAGE_DEPS",
    "STAGE_NAMES",
    "STAGE_OK",
    "STAGE_RANK",
    "SearchResult",
    "batch_disabled_reason",
    "batch_supported",
    "enumerate_schedule_vectors",
    "find_all_optima",
    "procedure_5_1",
    "ring_candidate_array",
    "search_bounds",
]

# Stage codes of the candidate filter funnel, in rejection order; the
# sharded engine (repro.dse.executor) transports the same codes in its
# shard records.
STAGE_DEPS = "deps"
STAGE_RANK = "rank"
STAGE_CONFLICT = "conflict"
STAGE_OK = "ok"
#: The stage named by each ``int8`` code :meth:`BatchCandidateScanner.stages` returns.
STAGE_NAMES = (STAGE_DEPS, STAGE_RANK, STAGE_CONFLICT, STAGE_OK)
CODE_DEPS, CODE_RANK, CODE_CONFLICT, CODE_OK = range(len(STAGE_NAMES))

#: Rows per conflict-image chunk: co-rank >= 2 schedule screens and
#: space-design batches (before the memory cap).
DEFAULT_BATCH_SIZE = 512
# Cap on points x candidates cells materialized per conflict-image
# chunk (~32 MB of int64).
_BATCH_CELL_LIMIT = 4_194_304
# Rings with budgets beyond this stay on the scalar path: the int64
# sort keys and |pi_i| entries are only certified below it.
_BATCH_MAX_BOUND = 2**31


def batch_disabled_reason(method: str, max_bound: int) -> str | None:
    """Why the batched funnel cannot run, or ``None`` when it can.

    The vectorized conflict screen decides injectivity of ``tau`` on
    ``J`` exactly — which matches :func:`check_conflict_free` for
    ``method="auto"``/``"exact"`` but not for ``method="paper"``, whose
    Theorem 4.7/4.8 sufficient conditions deliberately keep the paper's
    necessity gap.  Oversized ring budgets also fall back to the scalar
    walker so candidate entries stay certified int64.
    """
    if method not in ("auto", "exact"):
        return (
            f"method={method!r} has no exact vectorized form (the "
            "Theorem 4.7/4.8 sufficient conditions are scalar-only)"
        )
    if max_bound > _BATCH_MAX_BOUND:
        return (
            f"max_bound {max_bound} exceeds 2^31, past the certified "
            "int64 range of the batched funnel"
        )
    return None


def batch_supported(method: str, max_bound: int) -> bool:
    """Whether the batched funnel preserves bit-exact results.

    Equivalent to ``batch_disabled_reason(method, max_bound) is None``;
    see that function for the rationale behind each disqualifier.
    """
    return batch_disabled_reason(method, max_bound) is None


_logger = logging.getLogger("repro.core.optimize")
_warned_batch_reasons: set[str] = set()


def _warn_batch_disabled(reason: str) -> None:
    """One-time (per reason, per process) scalar-fallback warning."""
    if reason in _warned_batch_reasons:
        return
    _warned_batch_reasons.add(reason)
    _logger.warning(
        "batched candidate evaluation disabled: %s; falling back to the "
        "scalar scan (6-47x slower on Examples 5.1/5.2 at mu 4-18)",
        reason,
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of Procedure 5.1.

    Attributes
    ----------
    schedule:
        The optimal ``Pi`` (as a :class:`LinearSchedule`), or ``None``
        if the search bound was exhausted.
    mapping:
        The full conflict-free mapping matrix ``T = [S; Pi]``.
    verdict:
        The conflict checker's verdict for the winning candidate.
    candidates_examined:
        Number of candidate vectors that went through the full check.
    rings_expanded:
        How many times the bound ``x_l`` grew before success.
    stats:
        Uniform :class:`repro.dse.progress.SearchStats` accounting; its
        deterministic counters are identical whichever execution
        strategy (serial, sharded, cached) produced this result.
    """

    schedule: LinearSchedule | None
    mapping: MappingMatrix | None
    verdict: ConditionVerdict | None
    candidates_examined: int
    rings_expanded: int
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.schedule is not None

    @property
    def total_time(self) -> int:
        if self.schedule is None:
            raise ValueError("no schedule found")
        return self.schedule.total_time


def enumerate_schedule_vectors(
    mu: Sequence[int],
    f_max: int,
    *,
    f_min: int = 0,
    nonnegative: bool = False,
) -> Iterator[tuple[int, ...]]:
    """All integral ``Pi`` with ``f_min <= sum |pi_i| mu_i <= f_max``.

    Lazy depth-first enumeration with exact budget pruning; the zero
    vector is excluded (it is never a valid schedule).  Order within
    the ring is deterministic but unsorted — Procedure 5.1 sorts by
    execution time afterwards.
    """
    mu = [int(m) for m in mu]
    n = len(mu)

    def rec(prefix: list[int], spent: int, pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            if f_min <= spent and any(prefix):
                yield tuple(prefix)
            return
        top = (f_max - spent) // mu[pos]
        for v in range(0 if nonnegative else -top, top + 1):
            prefix.append(v)
            yield from rec(prefix, spent + abs(v) * mu[pos], pos + 1)
            prefix.pop()

    yield from rec([], 0, 0)


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(parent, offset)`` enumerating ``offset in range(counts[parent])``."""
    parent = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return parent, np.arange(len(parent), dtype=np.int64) - starts[parent]


@lru_cache(maxsize=8)
def _ring_candidate_array_cached(
    mu: tuple[int, ...], f_max: int, f_min: int
) -> np.ndarray:
    n = len(mu)
    # Non-negative magnitudes, one coordinate at a time, with the budget
    # applied at every step; the last coordinate only takes the values
    # that land the total in [f_min, f_max].  Work is O(shell), not
    # O(bounding box).
    mags = np.zeros((1, 0), dtype=np.int64)
    f = np.zeros(1, dtype=np.int64)
    for pos, m in enumerate(mu):
        hi = (f_max - f) // m
        lo = np.maximum(-((f - f_min) // m), 0) if pos == n - 1 else 0 * f
        parent, val = _expand(np.maximum(hi - lo + 1, 0))
        val += lo[parent]
        mags = np.column_stack([mags[parent], val])
        f = f[parent] + val * m
    keep = (mags != 0).any(axis=1)  # drop the zero vector
    pis, f = mags[keep], f[keep]
    # Every sign pattern, one coordinate at a time: rows with a non-zero
    # entry there gain a negated twin (zeros never flip).
    for j in range(n):
        flip = pis[:, j] != 0
        twins = pis[flip]
        twins[:, j] *= -1
        pis = np.concatenate([pis, twins])
        f = np.concatenate([f, f[flip]])
    # Sort by (f, pi), LinearSchedule.sort_key order: one mixed-radix
    # int64 key when it fits, else np.lexsort (last key sorts first).
    tops = [max(f_max, 0) // m for m in mu]
    scale = prod(2 * t + 1 for t in tops)
    if (max(f_max, 0) + 1) * scale <= INT64_MAX:
        key = f * scale
        for j, t in enumerate(tops):
            scale //= 2 * t + 1
            key += (pis[:, j] + t) * scale
        order = np.argsort(key)
    else:
        order = np.lexsort(tuple(pis[:, j] for j in range(n - 1, -1, -1)) + (f,))
    pis = np.ascontiguousarray(pis[order])
    pis.setflags(write=False)
    return pis


def ring_candidate_array(
    mu: Sequence[int], f_max: int, *, f_min: int = 0
) -> np.ndarray:
    """The ring's candidates as a sorted, read-only ``(N, n)`` array.

    Same candidate set as :func:`enumerate_schedule_vectors`, already in
    Procedure 5.1's documented scan order — primary key total execution
    time, ties broken lexicographically on the vector.  Cached (the
    sharded engine re-derives a ring inside every worker that holds one
    of its slices); callers must treat the array as immutable.
    """
    return _ring_candidate_array_cached(
        tuple(int(m) for m in mu), int(f_max), int(f_min)
    )


class BatchCandidateScanner:
    """Staged vectorized filter funnel over sorted candidate arrays.

    :meth:`stages` judges a whole ring (or shard span) at once and
    returns one ``int8`` stage code per candidate (index into
    :data:`STAGE_NAMES`): a ``Pi D > 0`` dependence mask, a rank mask,
    then the exact conflict screen on the survivors only.  At co-rank 1
    (``len(S) == n - 2``) the rank mask is ``gamma(Pi) != 0`` and the
    screen is the paper's own test on that conflict vector
    (:func:`~repro.core.conflict.batch_adjugate_screen`, Theorems 3.1 and
    2.2).  Other co-ranks test ``Pi`` against the kernel basis of ``S``
    and screen by mixed-radix distinct-image counts of ``[S j | Pi j]``
    over the index box, in memory-capped chunks of at most
    ``batch_size`` rows.  Rows whose int64 bounds cannot be certified
    take the exact arbitrary-precision route.  The codes are the ones
    the scalar loop would assign, so callers rebuild identical counters
    and pick the identical winner.

    Only valid where :func:`batch_supported` holds; the screen *is* the
    exact conflict decider there.

    Two optional pruners ride on top without changing any stage code:

    * ``symmetry`` — a :class:`repro.core.symmetry.SymmetryGroup`; the
      rows that reach the screen are canonicalized to orbit
      representatives, each distinct representative is screened once,
      and every member takes its verdict (valid because the group
      construction certifies stage invariance).
    * ``min_feasible_f`` — an LP-relaxation lower bound on the budget of
      any conflict-free candidate
      (:func:`repro.core.ilp_formulation.schedule_lower_bound`);
      dependence/rank survivors below it are assigned
      :data:`STAGE_CONFLICT` directly, which is exactly the verdict the
      skipped screen would have computed.

    ``tracer`` receives one ``ring.mask`` and one ``ring.screen`` span
    per :meth:`stages` call (default: the process-wide tracer), and the
    work telemetry (``batches_evaluated``, ``conflict_screens``, ...)
    accumulates in ``stats`` (default: a fresh :class:`SearchStats`).
    """

    def __init__(
        self,
        algorithm: UniformDependenceAlgorithm,
        space: Sequence[Sequence[int]],
        *,
        method: str = "auto",
        batch_size: int | None = None,
        symmetry: SymmetryGroup | None = None,
        min_feasible_f: int | None = None,
        tracer: Tracer | None = None,
        stats: SearchStats | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.space_rows = tuple(as_intvec(row) for row in space)
        self.method = method
        size = DEFAULT_BATCH_SIZE if batch_size is None else int(batch_size)
        if size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = size
        self.tracer = tracer
        self.stats = SearchStats() if stats is None else stats
        self.symmetry = (
            symmetry if symmetry is not None and symmetry.order > 1 else None
        )
        self.min_feasible_f = min_feasible_f
        self._mu_arr = np.array([int(m) for m in algorithm.mu], dtype=np.int64)
        self.n = algorithm.n
        self.k = len(self.space_rows) + 1
        points = 1
        for m in algorithm.mu:
            points *= int(m) + 1
        self._chunk = max(1, min(size, _BATCH_CELL_LIMIT // max(1, points)))
        deps = [tuple(int(x) for x in d) for d in algorithm.dependence_vectors()]
        self._dep_mat: IntMat | None = (
            as_intmat([list(row) for row in zip(*deps)]) if deps else None
        )
        # _rank_mat: Pi passes the rank test iff Pi @ _rank_mat != 0;
        # None with _rank_fail False means every Pi passes.
        self._adjugate: IntMat | None = None
        self._rank_mat: IntMat | None = None
        self._rank_fail = False
        self._s_mat: IntMat | None = None
        if self.n - self.k == 1:
            # gamma(Pi) = Pi @ M spans the kernel of [S; Pi], and is zero
            # exactly when [S; Pi] is rank-deficient.
            self._adjugate = adjugate_conflict_matrix(self.space_rows, self.n)
            self._rank_mat = self._adjugate
        elif self.k > 1:
            self._s_mat = as_intmat([list(row) for row in self.space_rows])
            kernel_cols = (
                kernel_basis(self._s_mat)
                if self._s_mat.rank() == self.k - 1
                else []
            )
            if kernel_cols:
                self._rank_mat = as_intmat(
                    [list(row) for row in zip(*[list(c) for c in kernel_cols])]
                )
            else:
                # Row-deficient S (or S already spanning Q^n): no Pi can
                # lift [S; Pi] to rank k.
                self._rank_fail = True
        # (points, their S-images, certified |pi| bound), built on first use.
        self._box: tuple[np.ndarray, np.ndarray, int] | None = None

    def stages(self, pis: np.ndarray, *, stop_at_ok: bool = False) -> np.ndarray:
        """``int8`` stage codes for the rows of ``pis``, in order.

        With ``stop_at_ok`` the chunked image screen (co-rank >= 2)
        stops after the chunk holding the first conflict-free
        representative, and the result covers only the prefix of
        ``pis`` whose codes are final (at least one row when ``pis`` is
        non-empty).  The adjugate screen is cheap enough to always judge
        every row.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        self.stats.batches_evaluated += int(len(pis) > 0)
        codes = np.full(len(pis), CODE_DEPS, dtype=np.int8)
        if not tracer.enabled:  # keep the untraced hot path span-free
            idx = self._masks(pis, codes)
            return codes[: self._screen(pis, idx, codes, stop_at_ok)]
        with tracer.span("ring.mask", candidates=len(pis)):
            idx = self._masks(pis, codes)
        with tracer.span("ring.screen", candidates=int(idx.size)):
            return codes[: self._screen(pis, idx, codes, stop_at_ok)]

    def _masks(self, pis: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Dependence, rank and LP-bound masks into ``codes``; returns
        the indices of the rows left for the conflict screen."""
        idx = np.arange(len(pis))
        if self._dep_mat is not None and idx.size:
            dep_mask, promoted = batch_dependence_mask(pis, self._dep_mat)
            self.stats.fastpath_promotions += promoted
            idx = idx[dep_mask]
        codes[idx] = CODE_RANK
        if self._rank_fail:
            return idx[:0]
        if self._rank_mat is not None and idx.size:
            rank_mask, promoted = batch_nonzero_mask(pis[idx], self._rank_mat)
            self.stats.fastpath_promotions += promoted
            idx = idx[rank_mask]
        if self.k == self.n:
            # Co-rank 0: a full-rank square mapping is injective on Z^n.
            codes[idx] = CODE_OK
            return idx[:0]
        codes[idx] = CODE_CONFLICT
        if self.min_feasible_f is not None and idx.size:
            # Budgets below the LP bound cannot be conflict-free; they
            # keep the screen's inevitable verdict without running it.
            below = np.abs(pis[idx]) @ self._mu_arr < self.min_feasible_f
            self.stats.candidates_skipped += int(below.sum())
            idx = idx[~below]
        return idx

    def _screen(
        self, pis: np.ndarray, idx: np.ndarray, codes: np.ndarray, stop_at_ok: bool
    ) -> int:
        """Screen rows ``idx`` into ``codes``; returns the final prefix length."""
        if idx.size == 0:
            return len(codes)
        reps = pis[idx]
        inverse = np.arange(idx.size)
        if self.symmetry is not None:
            canon = self.symmetry.canonicalize_rows(reps)
            reps, first, inverse = np.unique(
                canon, axis=0, return_index=True, return_inverse=True
            )
            # Renumber representatives by first occurrence, so a lazy
            # screen decides the earliest rows first.
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            reps, inverse = reps[order], rank[inverse.reshape(-1)]
        verdict = np.full(len(reps), -1, dtype=np.int8)
        if self._adjugate is not None:
            free, promoted = batch_adjugate_screen(reps, self._adjugate, self.algorithm.mu)
            self.stats.fastpath_promotions += promoted
            verdict[:] = np.where(free, CODE_OK, CODE_CONFLICT)
            screened = len(reps)
        else:
            for start in range(0, len(reps), self._chunk):
                screened = min(start + self._chunk, len(reps))
                verdict[start:screened] = self._image_screen(reps[start:screened])
                if stop_at_ok and (verdict[start:screened] == CODE_OK).any():
                    break
        self.stats.conflict_screens += screened
        self.stats.orbits_collapsed += int((inverse < screened).sum()) - screened
        codes[idx] = verdict[inverse]
        pending = np.flatnonzero(inverse >= screened)
        return int(idx[pending[0]]) if pending.size else len(codes)

    def _image_screen(self, reps: np.ndarray) -> np.ndarray:
        """Conflict verdicts by distinct images of the index box."""
        if self._box is None:
            pts = self.algorithm.index_set.points_array()
            fixed = (
                np.empty((len(pts), 0), dtype=np.int64)
                if self._s_mat is None
                else self._s_mat.image_of_points(pts)
            )
            bound = int(np.abs(pts).max(initial=0)) * max(1, self.n)
            self._box = (pts, fixed, INT64_MAX if bound == 0 else INT64_MAX // bound)
        pts, fixed, col_thr = self._box
        verdict = np.full(len(reps), CODE_CONFLICT, dtype=np.int8)
        certified = np.abs(reps).max(axis=1, initial=0) <= col_thr
        if fixed.dtype == object:
            certified[:] = False
        fast = np.flatnonzero(certified)
        exact = np.flatnonzero(~certified).tolist()
        if fast.size:
            t_cols, _ = batch_point_images(pts, reps[fast])
            counts = batch_distinct_image_counts(fixed, t_cols[:, :, None])
            verdict[fast[counts == len(pts)]] = CODE_OK
            exact.extend(fast[counts < 0].tolist())
        for i in exact:
            self.stats.fastpath_promotions += 1
            t = MappingMatrix(
                space=self.space_rows, schedule=tuple(int(v) for v in reps[i])
            )
            if check_conflict_free(t, self.algorithm.mu, method=self.method).holds:
                verdict[i] = CODE_OK
        return verdict


def search_bounds(
    algorithm: UniformDependenceAlgorithm,
    *,
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
) -> tuple[int, int, int]:
    """Resolve Procedure 5.1's ``(alpha, initial_bound, max_bound)`` defaults.

    One place owns the defaulting rules so the serial search and the
    sharded engine (:mod:`repro.dse.executor`) expand exactly the same
    rings — a prerequisite for their results comparing equal.
    """
    mu = algorithm.mu
    n = algorithm.n
    if alpha is None:
        alpha = max(1, min(mu))
    if initial_bound is None:
        initial_bound = sum(mu)
    if max_bound is None:
        max_bound = (n + 1) * (max(mu) + 1) * max(mu)
    return alpha, initial_bound, max_bound


def procedure_5_1(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
    batch: bool = True,
    batch_size: int | None = None,
    symmetry: bool = True,
    ring_bound: bool = True,
) -> SearchResult:
    """Find the time-optimal conflict-free schedule for a fixed ``S``.

    Parameters
    ----------
    algorithm:
        The uniform dependence algorithm ``(J, D)``.
    space:
        The given space mapping matrix ``S`` (Problem 2.2 assumes it).
    method:
        Conflict-checking mode passed to
        :func:`repro.core.conditions.check_conflict_free`; ``"auto"``
        follows the paper's Step 5(3) dispatch, ``"exact"`` uses the
        kernel-box oracle.
    alpha:
        Ring growth increment ``x_{l+1} = x_l + alpha`` (default: the
        smallest ``mu_i``).
    initial_bound:
        Starting ``x_1`` (default ``sum(mu)``, enough to contain the
        all-ones schedule).
    max_bound:
        Hard stop; ``None`` derives a conservative cap of
        ``(n + 1) * (max mu + 1) * max mu`` — beyond the largest
        objective any of the closed-form optima in the paper reach.
    extra_constraint:
        Optional predicate on the assembled mapping (used for
        Definition 2.2 condition 2 by :mod:`repro.core.pipeline`).
    batch:
        Evaluate rings through the vectorized
        :class:`BatchCandidateScanner` funnel where
        :func:`batch_supported` holds (the default); ``False`` forces
        the one-candidate-at-a-time scalar loop.  Both produce the same
        winner, tie order, counters and verdict — the escape hatch
        exists for cross-checking and diagnosis, not for different
        answers.
    batch_size:
        Representatives per co-rank >= 2 image-screen chunk (default
        :data:`DEFAULT_BATCH_SIZE`, memory-capped); rings are otherwise
        judged whole.
    symmetry:
        Collapse candidates related by the funnel's signed-permutation
        symmetry group (:mod:`repro.core.symmetry`) onto one orbit
        representative each (the default).  Only applied for the exact
        conflict deciders (``method="auto"``/``"exact"``); the result —
        winner, verdict, tie set and every deterministic counter — is
        bit-identical either way, only the work changes.
    ring_bound:
        Skip conflict screens for candidates whose budget sits below
        the LP-relaxation lower bound of the co-rank-1 disjunctive
        programs (:func:`repro.core.ilp_formulation.schedule_lower_bound`),
        the default.  LP failures degrade to "no bound, scan normally"
        and are recorded as a ``ring_bound_failed`` trace event; results
        are bit-identical with the flag on or off.

    Notes
    -----
    Because candidates are visited in non-decreasing total time and the
    checks are exact (for ``method="exact"``) or sufficient-and-
    necessary for co-rank <= 3 (``method="auto"``), the first surviving
    candidate is optimal.
    """
    mu = algorithm.mu
    # Pre-normalized IntVec rows: MappingMatrix construction inside the
    # candidate loop then reuses them as-is instead of re-validating.
    space_rows = tuple(as_intvec(row) for row in space)
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    disabled_reason = batch_disabled_reason(method, max_bound) if batch else None
    use_batch = batch and disabled_reason is None
    group: SymmetryGroup | None = None
    if symmetry and method in ("auto", "exact"):
        candidate_group = symmetry_group_for(algorithm, space_rows)
        if candidate_group.order > 1:
            group = candidate_group
    min_f: int | None = None
    bound_reason: str | None = None
    if ring_bound:
        # Lazy import: repro.core.ilp_formulation pulls in repro.ilp
        # (scipy) which plain enumerative searches don't need.
        from .ilp_formulation import schedule_lower_bound

        min_f, bound_reason = schedule_lower_bound(algorithm, space_rows)
    tracer = get_tracer()
    stats = SearchStats()
    if use_batch:
        stages = BatchCandidateScanner(
            algorithm, space_rows, method=method, batch_size=batch_size,
            symmetry=group, min_feasible_f=min_f, stats=stats,
        ).stages
    else:
        stages = _scalar_stages(
            algorithm, space_rows, method=method, symmetry=group,
            min_feasible_f=min_f, stats=stats,
        )
    if disabled_reason is not None:
        stats.batch_disabled_reason = disabled_reason
        _warn_batch_disabled(disabled_reason)
    examined = 0
    rings = 0
    x_prev = -1
    x = initial_bound
    result: SearchResult | None = None
    # The root span is the single timing source: SearchStats.wall_time
    # is read back from its monotonic duration after it closes.
    root = tracer.span(
        "core.procedure_5_1",
        algorithm=algorithm.name,
        method=method,
        alpha=alpha,
        initial_bound=initial_bound,
        max_bound=max_bound,
        batch=use_batch,
        symmetry_order=group.order if group is not None else 1,
        ring_bound=min_f,
    )
    if disabled_reason is not None:
        root.set(batch_disabled_reason=disabled_reason)
    with root:
        while x_prev < max_bound and result is None:
            f_hi = min(x, max_bound)
            ring_span = tracer.span(
                "core.ring", ring=rings, f_min=x_prev + 1, f_max=f_hi
            )
            with ring_span:
                if rings == 0 and bound_reason is not None:
                    tracer.event("ring_bound_failed", reason=bound_reason)
                    ring_span.set(ring_bound_failed=bound_reason)
                if min_f is not None and f_hi < min_f:
                    stats.rings_bounded_out += 1
                    ring_span.set(bounded_out=True)
                with tracer.detail("ring.materialize"):
                    if use_batch:
                        ring = ring_candidate_array(mu, f_hi, f_min=x_prev + 1)
                    else:
                        ring = sorted(
                            enumerate_schedule_vectors(mu, f_hi, f_min=x_prev + 1),
                            key=lambda pi: (sum(abs(v) * m for v, m in zip(pi, mu)), pi),
                        )
                examined, found = _scan_ring(
                    stages, ring, algorithm, space_rows, method, extra_constraint,
                    stats=stats, examined=examined,
                )
                ring_span.set(candidates=len(ring))
                if found is not None:
                    cand, t, verdict = found
                    stats.rings_expanded = rings
                    ring_span.set(winner=list(cand.pi))
                    result = SearchResult(
                        schedule=cand,
                        mapping=t,
                        verdict=verdict,
                        candidates_examined=examined,
                        rings_expanded=rings,
                        stats=stats,
                    )
            if result is None:
                rings += 1
                x_prev = min(x, max_bound)
                x += alpha

    if result is None:
        stats.rings_expanded = rings
        result = SearchResult(
            schedule=None,
            mapping=None,
            verdict=None,
            candidates_examined=examined,
            rings_expanded=rings,
            stats=stats,
        )
    # stats is shared with the result; the frozen dataclass holds the
    # reference, so deriving wall_time from the span after construction
    # is visible to callers.
    stats.wall_time = root.duration
    stats.shard_wall_times = (stats.wall_time,)
    return result


_RingWinner = tuple[LinearSchedule, MappingMatrix, ConditionVerdict]
_StageFn = Callable[..., np.ndarray]


def _scalar_stages(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str,
    symmetry: SymmetryGroup | None,
    min_feasible_f: int | None,
    stats: SearchStats,
) -> _StageFn:
    """The one-candidate-at-a-time funnel, shaped like
    :meth:`BatchCandidateScanner.stages`.

    Judges rows in order with the scalar predicates and
    :func:`check_conflict_free`; ``stop_at_ok`` stops right after the
    first conflict-free row.  Pruning matches the batched funnel: below
    ``min_feasible_f`` the conflict check is skipped, and with
    ``symmetry`` the rows that reach the check are canonicalized so each
    orbit representative is checked once (memoized for the function's
    lifetime).  Pruning telemetry accumulates in ``stats``.
    """
    space_rows = tuple(as_intvec(row) for row in space)
    k = len(space_rows) + 1
    memo: dict[tuple[int, ...], int] = {}

    def judge(pi: tuple[int, ...]) -> int:
        sched = LinearSchedule(pi=pi, index_set=algorithm.index_set)
        if not sched.respects(algorithm):
            return CODE_DEPS
        if MappingMatrix(space=space_rows, schedule=pi).rank() != k:
            return CODE_RANK
        if min_feasible_f is not None and sched.f < min_feasible_f:
            stats.candidates_skipped += 1
            return CODE_CONFLICT
        rep = pi if symmetry is None else symmetry.canonicalize(pi)
        if rep in memo:
            stats.orbits_collapsed += 1
        else:
            stats.conflict_screens += 1
            t = MappingMatrix(space=space_rows, schedule=rep)
            holds = check_conflict_free(t, algorithm.mu, method=method).holds
            memo[rep] = CODE_OK if holds else CODE_CONFLICT
        return memo[rep]

    def stages(rows: Sequence[Sequence[int]], *, stop_at_ok: bool = False) -> np.ndarray:
        codes = []
        for row in rows:
            codes.append(judge(tuple(int(v) for v in row)))
            if stop_at_ok and codes[-1] == CODE_OK:
                break
        return np.array(codes, dtype=np.int8)

    return stages


def _scan_ring(
    stages: _StageFn,
    ring: Sequence[Sequence[int]],
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    method: str,
    extra_constraint: Callable[[MappingMatrix], bool] | None,
    *,
    stats: SearchStats,
    examined: int,
) -> tuple[int, _RingWinner | None]:
    """One sorted ring through a stage function; returns (examined, winner).

    Counters follow the scalar loop's prefix semantics exactly: they are
    tallied from the stage codes only up to (and including) the winning
    candidate, and the winner's verdict is recomputed by the scalar
    :func:`check_conflict_free`, so the returned
    :class:`ConditionVerdict` is the same whichever funnel judged it.
    """
    stats.candidates_enumerated += len(ring)
    pos = 0
    while True:
        codes = stages(ring[pos:], stop_at_ok=True)
        for i in np.flatnonzero(codes == CODE_OK).tolist():
            pi = tuple(int(v) for v in ring[pos + i])
            t = MappingMatrix(space=space_rows, schedule=pi)
            verdict = check_conflict_free(t, algorithm.mu, method=method)
            if not verdict.holds:  # pragma: no cover - screens are exact
                stats.conflicts_rejected += 1
                continue
            if extra_constraint is None or extra_constraint(t):
                examined = _tally_stage_codes(stats, codes[: i + 1], examined)
                cand = LinearSchedule(pi=pi, index_set=algorithm.index_set)
                return examined, (cand, t, verdict)
        examined = _tally_stage_codes(stats, codes, examined)
        pos += len(codes)
        if pos >= len(ring):
            return examined, None


def _tally_stage_codes(stats: SearchStats, codes: np.ndarray, examined: int) -> int:
    """Add a run of visited stage codes to the prefix counters.

    The scalar loop's accounting, by code: ``deps`` and ``rank`` are
    pruned, every code past ``deps`` is examined, ``conflict`` and
    ``ok`` are checked, ``conflict`` is rejected.  Returns the updated
    ``examined`` count.
    """
    deps, rank, conflict, ok = np.bincount(codes, minlength=len(STAGE_NAMES)).tolist()
    stats.candidates_pruned += deps + rank
    stats.candidates_checked += conflict + ok
    stats.conflicts_rejected += conflict
    return examined + len(codes) - deps


def find_all_optima(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    **kwargs,
) -> list[SearchResult]:
    """All co-optimal conflict-free schedules (Procedure 5.1's full tie set).

    The paper's Example 5.1 notes two optima (``[1, mu, 1]`` and
    ``[mu, 1, 1]``); this returns every schedule achieving the minimal
    total time, each wrapped as a :class:`SearchResult`.  Runs the
    standard search once for the optimum, then sweeps the optimal ring
    exhaustively in the search's documented
    :meth:`~repro.core.schedule.LinearSchedule.sort_key` order.

    Each returned result carries its *own* :class:`SearchStats` copy
    (same counter values — one search was performed); mutating one
    result's telemetry never leaks into its siblings.

    The tie sweep honors the same ``symmetry`` keyword as
    :func:`procedure_5_1`: orbits whose representative fails the
    conflict screen are dismissed wholesale, while every *surviving*
    member still gets its own verdict object — the returned tie list is
    bit-identical to the unpruned sweep, in the same sort-key order.
    """
    first = procedure_5_1(algorithm, space, method=method, **kwargs)
    if not first.found:
        return []
    mu = algorithm.mu
    space_rows = tuple(as_intvec(row) for row in space)
    k = len(space_rows) + 1
    group: SymmetryGroup | None = None
    if kwargs.get("symmetry", True) and method in ("auto", "exact"):
        candidate_group = symmetry_group_for(algorithm, space_rows)
        if candidate_group.order > 1:
            group = candidate_group
    rep_holds: dict[tuple[int, ...], bool] = {}
    best_f = first.schedule.f
    ties = [
        LinearSchedule(pi=pi, index_set=algorithm.index_set)
        for pi in enumerate_schedule_vectors(mu, best_f, f_min=best_f)
    ]
    ties.sort(key=LinearSchedule.sort_key)
    results: list[SearchResult] = []
    for cand in ties:
        if not algorithm.is_acyclic_under(cand.pi):
            continue
        t = MappingMatrix(space=space_rows, schedule=cand.pi)
        if t.rank() != k:
            continue
        if group is not None:
            rep = group.canonicalize(cand.pi)
            holds = rep_holds.get(rep)
            if holds is None:
                rep_t = MappingMatrix(space=space_rows, schedule=rep)
                holds = check_conflict_free(rep_t, mu, method=method).holds
                rep_holds[rep] = holds
            if not holds:
                continue
        verdict = check_conflict_free(t, mu, method=method)
        if not verdict.holds:
            # Unreachable when group pre-screened the orbit (invariance);
            # the ordinary rejection path otherwise.
            continue
        results.append(
            SearchResult(
                schedule=cand,
                mapping=t,
                verdict=verdict,
                candidates_examined=first.candidates_examined,
                rings_expanded=first.rings_expanded,
                stats=replace(first.stats),
            )
        )
    return results


# Backwards-friendly alias matching the paper's wording.
find_time_optimal_schedule = procedure_5_1

_ = field  # keep dataclass import grouped for linters
