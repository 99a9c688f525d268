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

One ring driver, :func:`search_rings`, owns that loop for every
execution strategy: :func:`procedure_5_1` hands it an in-process judge,
and :func:`repro.dse.executor.explore_schedule` a sharded, cached and
journaled one.  Every judge evaluates candidates through the one
vectorized :class:`BatchCandidateScanner`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd, prod

import numpy as np

from ..dse.partition import ring_bounds
from ..dse.progress import SearchStats
from ..intlin import INT64_MAX, IntMat, as_intmat, as_intvec, kernel_basis
from ..intlin.batch import batch_dependence_mask, batch_nonzero_mask
from ..obs import Span, Tracer, get_tracer
from ..model import UniformDependenceAlgorithm
from .conditions import ConditionVerdict, check_conflict_free
from .conflict import (
    adjugate_conflict_matrix,
    batch_adjugate_screen,
    box_kernel_screen,
    box_kernel_table,
)
from .mapping import MappingMatrix
from .schedule import LinearSchedule

__all__ = [
    "BatchCandidateScanner",
    "STAGE_CONFLICT",
    "STAGE_DEPS",
    "STAGE_NAMES",
    "STAGE_OK",
    "STAGE_RANK",
    "Ring",
    "RingJudge",
    "SearchResult",
    "enumerate_schedule_vectors",
    "find_all_optima",
    "forced_signs",
    "procedure_5_1",
    "ring_candidate_array",
    "ring_size",
    "search_bounds",
    "search_rings",
]

# Stage codes of the candidate filter funnel, in rejection order; the
# sharded engine (repro.dse.executor) transports the same codes in its
# shard outputs.
STAGE_DEPS = "deps"
STAGE_RANK = "rank"
STAGE_CONFLICT = "conflict"
STAGE_OK = "ok"
#: The stage named by each ``int8`` code :meth:`BatchCandidateScanner.stages` returns.
STAGE_NAMES = (STAGE_DEPS, STAGE_RANK, STAGE_CONFLICT, STAGE_OK)
CODE_DEPS, CODE_RANK, CODE_CONFLICT, CODE_OK = range(len(STAGE_NAMES))

_METHODS = ("auto", "exact", "paper")


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
    the ring is deterministic but unsorted.  This is the reference
    enumerator the tests check :func:`ring_candidate_array` against;
    Procedure 5.1 itself scans the sorted ring arrays.
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


def forced_signs(
    dependences: Sequence[Sequence[int]], n: int
) -> tuple[int, ...]:
    """The sign each coordinate of ``Pi`` must take for ``Pi D > 0``.

    Entry ``j`` is ``+1`` or ``-1`` when every ``Pi`` with ``Pi d > 0``
    for all columns ``d`` of ``D`` has ``pi_j`` of that sign (so
    ``|pi_j| >= 1``), and ``0`` when this rule does not decide it.  The
    rule: coordinate ``j`` is forced to ``sign(d_j)`` when some ``d``
    has ``d_j != 0`` and each of its other non-zero entries ``d_i`` sits
    on a coordinate already forced to ``-sign(d_i)``; then every other
    term of ``Pi . d`` is negative, and ``Pi . d > 0`` needs
    ``d_j pi_j > 0``.  Applied until nothing changes.  A zero column
    forces nothing.
    """
    signs = [0] * n
    columns = [[(i, 1 if x > 0 else -1) for i, x in enumerate(d) if x] for d in dependences]
    changed = True
    while changed:
        changed = False
        for support in columns:
            free = [(i, s) for i, s in support if signs[i] != -s]
            if len(free) == 1 and signs[free[0][0]] == 0:
                signs[free[0][0]] = free[0][1]
                changed = True
    return tuple(signs)


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(parent, offset)`` enumerating ``offset in range(counts[parent])``."""
    parent = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return parent, np.arange(len(parent), dtype=np.int64) - starts[parent]


@lru_cache(maxsize=8)
def _ring_candidate_array_cached(
    mu: tuple[int, ...], f_max: int, f_min: int, signs: tuple[int, ...]
) -> np.ndarray:
    n = len(mu)
    # Non-negative magnitudes, one coordinate at a time, with the budget
    # applied at every step; the last coordinate only takes the values
    # that land the total in [f_min, f_max].  A forced coordinate starts
    # at magnitude 1.  Work is O(shell), not O(bounding box).
    mags = np.zeros((1, 0), dtype=np.int64)
    f = np.zeros(1, dtype=np.int64)
    for pos, m in enumerate(mu):
        hi = (f_max - f) // m
        lo = np.full_like(f, abs(signs[pos]))
        if pos == n - 1:
            lo = np.maximum(-((f - f_min) // m), lo)
        parent, val = _expand(np.maximum(hi - lo + 1, 0))
        val += lo[parent]
        mags = np.column_stack([mags[parent], val])
        f = f[parent] + val * m
    if not any(signs):
        keep = (mags != 0).any(axis=1)  # drop the zero vector
        mags, f = mags[keep], f[keep]
    # A forced coordinate takes its sign; every other coordinate gets
    # both, one at a time: rows with a non-zero entry there gain a
    # negated twin (zeros never flip).
    pis = mags * np.array([s or 1 for s in signs], dtype=np.int64)
    for j in range(n):
        if signs[j]:
            continue
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
    mu: Sequence[int],
    f_max: int,
    *,
    f_min: int = 0,
    signs: Sequence[int] | None = None,
) -> np.ndarray:
    """The ring's candidates as a sorted, read-only ``(N, n)`` array.

    Same candidate set as :func:`enumerate_schedule_vectors`, already in
    Procedure 5.1's documented scan order — primary key total execution
    time, ties broken lexicographically on the vector.  ``signs`` (from
    :func:`forced_signs`) restricts the ring to the rows whose forced
    coordinates carry their forced sign; the result is then the
    subsequence of the full ring that can pass ``Pi D > 0``.  Cached
    (the sharded engine re-derives a ring inside every worker that
    holds one of its slices); callers must treat the array as immutable.
    """
    mu_t = tuple(int(m) for m in mu)
    signs_t = (0,) * len(mu_t) if signs is None else tuple(int(s) for s in signs)
    return _ring_candidate_array_cached(mu_t, int(f_max), int(f_min), signs_t)


#: Largest budget (in units of ``gcd(mu)``) the ring counter tabulates;
#: past it, a count builds the full ring instead.
_COUNT_TABLE_LIMIT = 1 << 20


@lru_cache(maxsize=8)
def _budget_tables(mu: tuple[int, ...], size: int) -> tuple[np.ndarray, ...]:
    """Exact-budget counts over coordinate suffixes, budgets ``< size``.

    Entry ``j`` maps a budget ``b`` to the number of integral
    ``(pi_j, ..., pi_{n-1})`` with ``sum |pi_i| mu_i == b``; entry ``n``
    counts the empty suffix.  Table ``j`` is table ``j + 1`` plus
    ``2 * sum_{k >= 1} table_{j+1}[b - k mu_j]`` (``pi_j = +-k``): a
    residue-strided cumsum.
    """
    bound = prod(2 * ((size - 1) // m) + 1 for m in mu)
    dtype = np.int64 if bound <= INT64_MAX else object
    table = np.zeros(size, dtype=dtype)
    table[0] = 1
    tables = [table]
    for m in reversed(mu):
        rows = -(-size // m)
        strided = np.zeros(rows * m, dtype=dtype)
        strided[:size] = table
        strided = strided.reshape(rows, m).cumsum(axis=0).ravel()
        shifted = np.zeros(size, dtype=dtype)
        if m < size:
            shifted[m:] = strided[: size - m]
        table = table + 2 * shifted
        tables.append(table)
    for table in tables:
        table.setflags(write=False)
    return tuple(reversed(tables))


def _count_tables(mu: Sequence[int], f_max: int) -> tuple[int, tuple, tuple] | None:
    """``(g, reduced mu, suffix tables)`` covering budgets up to ``f_max``.

    Every budget is a multiple of ``g = gcd(mu)``, so the tables run over
    ``f // g``; ``None`` when that exceeds :data:`_COUNT_TABLE_LIMIT`.
    """
    g = gcd(*mu)
    top = f_max // g
    if top >= _COUNT_TABLE_LIMIT:
        return None
    reduced = tuple(m // g for m in mu)
    return g, reduced, _budget_tables(reduced, 1 << max(top, 0).bit_length())


def ring_size(mu: Sequence[int], f_max: int, f_min: int = 0) -> int:
    """Exact size of the full ring ``f_min <= sum |pi_i| mu_i <= f_max``.

    The zero vector is excluded, as in :func:`ring_candidate_array`
    with no ``signs``; the ring is counted from exact-budget tables, not
    built.
    """
    mu = tuple(int(m) for m in mu)
    if f_max < max(f_min, 1):
        return 0
    counted = _count_tables(mu, f_max)
    if counted is None:
        return len(ring_candidate_array(mu, f_max, f_min=f_min))
    g, _reduced, tables = counted
    lo = max(-(-f_min // g), 1)
    return int(tables[0][lo : f_max // g + 1].sum())


def _full_ring_rank(mu: tuple[int, ...], f_min: int, f_max: int, pi: tuple[int, ...]) -> int:
    """How many rows of the full ring ``[f_min, f_max]`` sort before ``pi``.

    Rows with a smaller total time, then a digit DP over the rows of
    ``pi``'s own budget: those that agree with ``pi`` before coordinate
    ``j`` and are smaller at ``j``.
    """
    f_pi = sum(abs(v) * m for v, m in zip(pi, mu))
    counted = _count_tables(mu, f_pi)
    if counted is None:
        full = ring_candidate_array(mu, f_max, f_min=f_min)
        return int(np.flatnonzero((full == np.array(pi)).all(axis=1))[0])
    g, reduced, tables = counted
    before = ring_size(mu, f_pi - 1, f_min)
    rem = f_pi // g
    for j, (v, m) in enumerate(zip(pi, reduced)):
        smaller = np.arange(-(rem // m), v)
        before += int(tables[j + 1][rem - np.abs(smaller) * m].sum())
        rem -= abs(v) * m
    return before


class BatchCandidateScanner:
    """Staged vectorized filter funnel over sorted candidate arrays.

    :meth:`stages` judges a whole ring (or shard span) at once and
    returns one ``int8`` stage code per candidate (index into
    :data:`STAGE_NAMES`): a ``Pi D > 0`` dependence mask, a rank mask,
    then the conflict screen on the survivors only.  The screen depends
    on ``method`` and the co-rank:

    * ``"paper"`` — the paper's Step 5(3) dispatch
      (:func:`check_conflict_free` with ``method="paper"``: Theorem
      3.1, 4.7, 4.8 or 4.5), one candidate at a time, so a lazy scan
      stops at the first conflict-free row.
    * ``"auto"``/``"exact"`` at co-rank 1 (``len(S) == n - 2``) — the
      paper's own test on the conflict vector ``gamma(Pi)``
      (:func:`~repro.core.conflict.batch_adjugate_screen`, Theorems 3.1
      and 2.2), one call for every survivor; the rank mask there is
      ``gamma(Pi) != 0``.
    * ``"auto"``/``"exact"`` at co-rank >= 2 — ``Pi`` is tested
      against the kernel basis of ``S``, and is conflict-free iff
      ``Pi . x != 0`` for every point ``x`` of the
      :func:`~repro.core.conflict.box_kernel_table` of ``S``
      (:func:`~repro.core.conflict.box_kernel_screen`).  The table is
      built once per ``(S, mu)`` and process.

    Every screen is exact for its ``method``, so the codes are the
    verdicts :func:`check_conflict_free` would give one by one.

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
        tracer: Tracer | None = None,
        stats: SearchStats | None = None,
    ) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.algorithm = algorithm
        self.space_rows = tuple(as_intvec(row) for row in space)
        self.method = method
        self.tracer = tracer
        self.stats = SearchStats() if stats is None else stats
        self.n = algorithm.n
        self.k = len(self.space_rows) + 1
        deps = [tuple(int(x) for x in d) for d in algorithm.dependence_vectors()]
        self._dep_mat: IntMat | None = (
            as_intmat([list(row) for row in zip(*deps)]) if deps else None
        )
        # _rank_mat: Pi passes the rank test iff Pi @ _rank_mat != 0;
        # None with _rank_fail False means every Pi passes.
        self._adjugate: IntMat | None = None
        self._rank_mat: IntMat | None = None
        self._rank_fail = False
        if self.n - self.k == 1:
            # gamma(Pi) = Pi @ M spans the kernel of [S; Pi], and is zero
            # exactly when [S; Pi] is rank-deficient.
            self._adjugate = adjugate_conflict_matrix(self.space_rows, self.n)
            self._rank_mat = self._adjugate
        elif self.k > 1:
            s_mat = as_intmat([list(row) for row in self.space_rows])
            kernel_cols = (
                kernel_basis(s_mat) if s_mat.rank() == self.k - 1 else []
            )
            if kernel_cols:
                self._rank_mat = as_intmat(
                    [list(row) for row in zip(*[list(c) for c in kernel_cols])]
                )
            else:
                # Row-deficient S (or S already spanning Q^n): no Pi can
                # lift [S; Pi] to rank k.
                self._rank_fail = True
        if method == "paper":
            self._screen_rows = self._paper_screen
        elif self._adjugate is not None:
            self._screen_rows = self._adjugate_screen
        else:
            self._screen_rows = self._table_screen

    def stages(self, pis: np.ndarray, *, stop_at_ok: bool = False) -> np.ndarray:
        """``int8`` stage codes for the rows of ``pis``, in order.

        With ``stop_at_ok`` the paper's per-candidate dispatch stops at
        the first conflict-free row, and the result covers only the
        prefix of ``pis`` whose codes are final (at least one row when
        ``pis`` is non-empty).  The vectorized screens always judge
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
        """Dependence and rank masks into ``codes``; returns the indices
        of the rows left for the conflict screen."""
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
        return idx

    def _screen(
        self, pis: np.ndarray, idx: np.ndarray, codes: np.ndarray, stop_at_ok: bool
    ) -> int:
        """Screen rows ``idx`` into ``codes``; returns the final prefix length."""
        rows = pis[idx]
        step = 1 if self.method == "paper" else max(1, len(rows))
        screened = 0
        while screened < len(rows):
            start, screened = screened, min(screened + step, len(rows))
            verdict = self._screen_rows(rows[start:screened])
            codes[idx[start:screened]] = verdict
            if stop_at_ok and (verdict == CODE_OK).any():
                break
        self.stats.conflict_screens += screened
        return int(idx[screened]) if screened < len(rows) else len(codes)

    def _adjugate_screen(self, rows: np.ndarray) -> np.ndarray:
        """Conflict verdicts by the co-rank-1 conflict-vector test."""
        assert self._adjugate is not None  # chosen only at co-rank 1
        free, promoted = batch_adjugate_screen(rows, self._adjugate, self.algorithm.mu)
        self.stats.fastpath_promotions += promoted
        return np.where(free, CODE_OK, CODE_CONFLICT).astype(np.int8)

    def _paper_screen(self, rows: np.ndarray) -> np.ndarray:
        """Conflict verdicts by the paper's per-co-rank theorems."""
        verdict = np.full(len(rows), CODE_CONFLICT, dtype=np.int8)
        for i, row in enumerate(rows.tolist()):
            t = MappingMatrix(space=self.space_rows, schedule=tuple(row))
            if check_conflict_free(t, self.algorithm.mu, method="paper").holds:
                verdict[i] = CODE_OK
        return verdict

    def _table_screen(self, rows: np.ndarray) -> np.ndarray:
        """Conflict verdicts against the box kernel of ``S`` (co-rank >= 2)."""
        table = box_kernel_table(self.space_rows, self.algorithm.mu)
        free, promoted = box_kernel_screen(rows[:, None, :], table)
        self.stats.fastpath_promotions += promoted
        return np.where(free, CODE_OK, CODE_CONFLICT).astype(np.int8)


def search_bounds(
    algorithm: UniformDependenceAlgorithm,
    *,
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
) -> tuple[int, int, int]:
    """Resolve Procedure 5.1's ``(alpha, initial_bound, max_bound)`` defaults.

    One place owns the defaulting rules so every caller of
    :func:`search_rings` expands exactly the same rings.  Ring budgets
    are int64 throughout (the ring builder's sort keys and candidate
    entries), so a ``max_bound`` past ``INT64_MAX`` is a
    :class:`ValueError`.
    """
    mu = algorithm.mu
    n = algorithm.n
    if alpha is None:
        alpha = max(1, min(mu))
    if initial_bound is None:
        initial_bound = sum(mu)
    if max_bound is None:
        max_bound = (n + 1) * (max(mu) + 1) * max(mu)
    if max_bound > INT64_MAX:
        raise ValueError(
            f"max_bound {max_bound} exceeds INT64_MAX, the ring builder's "
            "budget range"
        )
    return alpha, initial_bound, max_bound


@dataclass(frozen=True)
class Ring:
    """One expanding ring ``C_l`` as :func:`search_rings` hands it out.

    ``candidates`` is the sorted :func:`ring_candidate_array` of the
    budget window ``[f_min, f_max]``, restricted to the
    :func:`forced_signs` of ``D``; ``size`` counts the full ring
    (:func:`ring_size`), whose other rows all fail ``Pi D > 0``.  ``span`` is the open trace
    span of the ring, for judges that annotate it.
    """

    index: int
    f_min: int
    f_max: int
    candidates: np.ndarray
    size: int
    span: Span


_RingWinner = tuple[LinearSchedule, MappingMatrix, ConditionVerdict]

#: ``judge(ring, start)`` returns ``int8`` stage codes for a non-empty
#: prefix of ``ring.candidates[start:]``, in order.
RingJudge = Callable[[Ring, int], np.ndarray]


def search_rings(
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    judge: RingJudge,
    verdict_of: Callable[[MappingMatrix], ConditionVerdict],
    *,
    alpha: int,
    initial_bound: int,
    max_bound: int,
    stats: SearchStats,
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
    span_name: str = "core.ring",
    before_ring: Callable[[int], None] | None = None,
    after_ring: Callable[[Ring, bool], None] | None = None,
) -> SearchResult:
    """The ring loop of Procedure 5.1 (Steps 1-7), for any judge.

    Rings follow :func:`~repro.dse.partition.ring_bounds`; each is
    materialized once, with only the rows whose signs can satisfy
    ``Pi D > 0`` (:func:`forced_signs`), judged by ``judge`` and walked
    in scan order.  The first ``ok`` candidate that passes
    ``extra_constraint`` wins; the prefix counters of ``stats`` are
    tallied up to and including it, the rows never built counting as
    ``deps``, and its verdict is recomputed by ``verdict_of``, so the
    result is the same whichever judge ran.  ``before_ring``
    receives each ring's ``f_max`` before it is materialized, and
    ``after_ring`` each closed ring and whether it produced the winner.
    """
    tracer = get_tracer()
    signs = forced_signs(algorithm.dependence_vectors(), algorithm.n)
    examined = 0
    rings = 0
    found: _RingWinner | None = None
    for f_min, f_max in ring_bounds(initial_bound, alpha, max_bound):
        if before_ring is not None:
            before_ring(f_max)
        with tracer.span(span_name, ring=rings, f_min=f_min, f_max=f_max) as span:
            with tracer.detail("ring.materialize"):
                candidates = ring_candidate_array(
                    algorithm.mu, f_max, f_min=f_min, signs=signs
                )
            size = ring_size(algorithm.mu, f_max, f_min)
            span.set(candidates=size, materialized=len(candidates))
            ring = Ring(rings, f_min, f_max, candidates, size, span)
            stats.candidates_enumerated += size
            examined, found = _scan_ring(
                judge, ring, algorithm, space_rows, verdict_of, extra_constraint,
                stats=stats, examined=examined,
            )
            if found is not None:
                span.set(winner=list(found[0].pi))
        if after_ring is not None:
            after_ring(ring, found is not None)
        if found is not None:
            break
        rings += 1
    stats.rings_expanded = rings
    schedule, mapping, verdict = found if found is not None else (None, None, None)
    return SearchResult(
        schedule=schedule,
        mapping=mapping,
        verdict=verdict,
        candidates_examined=examined,
        rings_expanded=rings,
        stats=stats,
    )


def _scan_ring(
    judge: RingJudge,
    ring: Ring,
    algorithm: UniformDependenceAlgorithm,
    space_rows: tuple,
    verdict_of: Callable[[MappingMatrix], ConditionVerdict],
    extra_constraint: Callable[[MappingMatrix], bool] | None,
    *,
    stats: SearchStats,
    examined: int,
) -> tuple[int, _RingWinner | None]:
    """Walk one ring's stage codes in scan order; returns (examined, winner).

    Counters follow the prefix semantics: they are tallied from the
    stage codes only up to (and including) the winning candidate.  The
    full-ring rows that were never built count as ``deps``: all of them
    for a ring without a winner, and those sorting before the winner
    for the winning ring.
    """
    pos = 0
    while pos < len(ring.candidates):
        codes = judge(ring, pos)
        for i in np.flatnonzero(codes == CODE_OK).tolist():
            pi = tuple(int(v) for v in ring.candidates[pos + i])
            t = MappingMatrix(space=space_rows, schedule=pi)
            verdict = verdict_of(t)
            if not verdict.holds:  # pragma: no cover - screens are exact
                stats.conflicts_rejected += 1
                continue
            if extra_constraint is None or extra_constraint(t):
                examined = _tally_stage_codes(stats, codes[: i + 1], examined)
                stats.candidates_pruned += (
                    _full_ring_rank(algorithm.mu, ring.f_min, ring.f_max, pi) - (pos + i)
                )
                cand = LinearSchedule(pi=pi, index_set=algorithm.index_set)
                return examined, (cand, t, verdict)
        examined = _tally_stage_codes(stats, codes, examined)
        pos += len(codes)
    stats.candidates_pruned += ring.size - len(ring.candidates)
    return examined, None


def _tally_stage_codes(stats: SearchStats, codes: np.ndarray, examined: int) -> int:
    """Add a run of visited stage codes to the prefix counters.

    By code: ``deps`` and ``rank`` are pruned, every code past ``deps``
    is examined, ``conflict`` and ``ok`` are checked, ``conflict`` is
    rejected.  Returns the updated ``examined`` count.
    """
    deps, rank, conflict, ok = np.bincount(codes, minlength=len(STAGE_NAMES)).tolist()
    stats.candidates_pruned += deps + rank
    stats.candidates_checked += conflict + ok
    stats.conflicts_rejected += conflict
    return examined + len(codes) - deps


def procedure_5_1(
    algorithm: UniformDependenceAlgorithm,
    space: Sequence[Sequence[int]],
    *,
    method: str = "auto",
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
) -> SearchResult:
    """Find the time-optimal conflict-free schedule for a fixed ``S``.

    Parameters
    ----------
    algorithm:
        The uniform dependence algorithm ``(J, D)``.
    space:
        The given space mapping matrix ``S`` (Problem 2.2 assumes it).
    method:
        Conflict-checking mode, as in
        :func:`repro.core.conditions.check_conflict_free`; ``"auto"``
        decides exactly, ``"paper"`` follows the paper's Step 5(3)
        dispatch, ``"exact"`` uses the kernel-box oracle.
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
        Past ``INT64_MAX`` it is a :class:`ValueError`.
    extra_constraint:
        Optional predicate on the assembled mapping (used for
        Definition 2.2 condition 2 by :mod:`repro.core.pipeline`).

    Notes
    -----
    Because candidates are visited in non-decreasing total time and the
    checks are exact (for ``method="exact"``) or sufficient-and-
    necessary for co-rank <= 3 (``method="auto"``), the first surviving
    candidate is optimal.
    """
    space_rows = tuple(as_intvec(row) for row in space)
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    stats = SearchStats()
    scanner = BatchCandidateScanner(algorithm, space_rows, method=method, stats=stats)
    # The root span is the single timing source: SearchStats.wall_time
    # is read back from its monotonic duration after it closes.
    root = get_tracer().span(
        "core.procedure_5_1",
        algorithm=algorithm.name,
        method=method,
        alpha=alpha,
        initial_bound=initial_bound,
        max_bound=max_bound,
    )
    with root:
        result = search_rings(
            algorithm, space_rows,
            lambda ring, start: scanner.stages(ring.candidates[start:], stop_at_ok=True),
            lambda t: check_conflict_free(t, algorithm.mu, method=method),
            alpha=alpha, initial_bound=initial_bound, max_bound=max_bound,
            stats=stats, extra_constraint=extra_constraint,
        )
    # stats is shared with the result; the frozen dataclass holds the
    # reference, so deriving wall_time from the span after construction
    # is visible to callers.
    stats.wall_time = root.duration
    stats.shard_wall_times = (stats.wall_time,)
    return result


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
    standard search once for the optimum, then judges the whole optimal
    ring with the same :class:`BatchCandidateScanner`, in the search's
    documented :meth:`~repro.core.schedule.LinearSchedule.sort_key`
    order.

    Each returned result carries its *own* :class:`SearchStats` copy
    (same counter values — one search was performed); mutating one
    result's telemetry never leaks into its siblings.
    """
    first = procedure_5_1(algorithm, space, method=method, **kwargs)
    if not first.found:
        return []
    space_rows = tuple(as_intvec(row) for row in space)
    best_f = first.schedule.f
    ties = ring_candidate_array(
        algorithm.mu, best_f, f_min=best_f,
        signs=forced_signs(algorithm.dependence_vectors(), algorithm.n),
    )
    scanner = BatchCandidateScanner(algorithm, space_rows, method=method)
    results: list[SearchResult] = []
    for i in np.flatnonzero(scanner.stages(ties) == CODE_OK).tolist():
        pi = tuple(int(v) for v in ties[i])
        t = MappingMatrix(space=space_rows, schedule=pi)
        results.append(
            SearchResult(
                schedule=LinearSchedule(pi=pi, index_set=algorithm.index_set),
                mapping=t,
                verdict=check_conflict_free(t, algorithm.mu, method=method),
                candidates_examined=first.candidates_examined,
                rings_expanded=first.rings_expanded,
                stats=replace(first.stats),
            )
        )
    return results


# Backwards-friendly alias matching the paper's wording.
find_time_optimal_schedule = procedure_5_1
