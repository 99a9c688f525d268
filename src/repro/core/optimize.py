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

One ring loop, :func:`search_rings`, and one judge serve every path:
:func:`scan_rings` runs the loop on one vectorized
:class:`BatchCandidateScanner`, in process.  :func:`procedure_5_1` and
:func:`repro.dse.executor.explore_schedule` (the same search behind the
result cache and the checkpoint journal) both call it, and
:mod:`repro.core.bitlevel` hands the loop a judge of its own.  The loop
builds rings in groups whose rows double, judges a group per call (a
co-rank >= 2 scan: a ring per call) and walks the codes ring by ring.
It and the scanner take a stack of space mappings: the rings and the
``Pi D > 0`` mask do not depend on ``S``, so
:func:`procedure_5_1_stacked` (Problem 6.2's inner search) builds and
masks each group once for every candidate ``S``; :func:`procedure_5_1`
is its one-``S`` case.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd, prod

import numpy as np

from ..dse.progress import SearchStats
from ..intlin.hermite import kernel_basis
from ..intlin.intmat import INT64_MAX, IntMat, as_intmat, as_intvec
from ..intlin.batch import batch_dependence_mask, batch_matmul
from ..obs.tracer import Span, Tracer, get_tracer
from ..model.algorithm import UniformDependenceAlgorithm
from .conditions import ConditionVerdict, check_conflict_free
from .conflict import (
    _CELL_LIMIT,
    adjugate_conflict_matrix,
    box_kernel_screen,
    box_kernel_table,
    conflict_vector_verdicts,
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
    "procedure_5_1_stacked",
    "ring_bounds",
    "ring_candidate_array",
    "ring_size",
    "scan_rings",
    "search_bounds",
    "search_rings",
]

# Stage codes of the candidate filter funnel, in rejection order.
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
        deterministic counters are identical whichever entry point
        (:func:`procedure_5_1`, the engine, a cache or journal replay)
        produced this result.
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
    (:func:`find_all_optima` re-judges the optimal ring its search
    built, and repeated queries reuse rings); callers must treat the
    array as immutable.
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


@dataclass
class _Space:
    """What a :class:`BatchCandidateScanner` holds for one ``S`` of its stack."""

    rows: tuple
    #: ``Pi`` passes the rank test iff ``Pi @ rank_mat != 0``.
    rank_mat: IntMat
    stats: SearchStats
    #: The box kernel table of ``S`` and its points as an ``IntMat``,
    #: built at the first co-rank >= 2 screen and kept for the search.
    table: tuple[np.ndarray, IntMat] | None = None


class BatchCandidateScanner:
    """Staged vectorized filter funnel over sorted candidate arrays.

    The scanner holds a stack of space mappings ``S`` (all with the same
    number of rows); ``BatchCandidateScanner(algo, S)`` is the stack of
    one.  :meth:`stacked_stages` judges a whole ring (or its unjudged
    tail) for every ``S`` of a subset at once and returns one ``int8``
    stage code per candidate and ``S`` (index into :data:`STAGE_NAMES`): a
    ``Pi D > 0`` dependence mask, run once since it does not depend on
    ``S``; a rank mask, one product of the survivors against the rank
    matrices of every ``S``; then each ``S``'s conflict screen on its
    own survivors.  The screen depends on the co-rank and ``method``:

    * co-rank 1 (``len(S) == n - 2``), every method — the paper's own
      test on the conflict vector ``gamma(Pi)``
      (:func:`~repro.core.conflict.conflict_vector_verdicts`, Theorems
      3.1 and 2.2), which is also the paper's Step 5(3) dispatch at
      co-rank 1.  ``gamma(Pi) = Pi M`` with ``M`` the
      :func:`~repro.core.conflict.adjugate_conflict_matrix` of ``S``,
      and ``M`` is also the rank matrix (``gamma(Pi) != 0``), so the
      rank product of the stack already holds every ``gamma``.
    * ``"paper"`` at co-rank >= 2 — the paper's Step 5(3) dispatch
      (:func:`check_conflict_free` with ``method="paper"``: Theorem
      4.7, 4.8 or 4.5), one candidate at a time, so a lazy scan stops
      at the first conflict-free row.
    * ``"auto"``/``"exact"`` at co-rank >= 2 — ``Pi`` is tested
      against the kernel basis of ``S``, and is conflict-free iff
      ``Pi . x != 0`` for every point ``x`` of the
      :func:`~repro.core.conflict.box_kernel_table` of ``S``
      (:func:`~repro.core.conflict.box_kernel_screen`).  The scanner
      builds each table and its ``IntMat`` once and keeps them.

    Every screen is exact for its ``method``, so the codes are the
    verdicts :func:`check_conflict_free` would give one by one.

    ``tracer`` receives one ``ring.mask`` and one ``ring.screen`` span
    per :meth:`stacked_stages` call (default: the process-wide tracer).
    The work telemetry (``batches_evaluated``, ``conflict_screens``,
    ...) of ``S`` number ``i`` accumulates in ``stats[i]`` (default:
    fresh :class:`SearchStats`; a single one is the stack of one's);
    ``self.stats`` is the first ``S``'s.  Rows a shared product promoted
    to Python ints count for every ``S`` it judged.
    """

    def __init__(
        self,
        algorithm: UniformDependenceAlgorithm,
        *spaces: Sequence[Sequence[int]],
        method: str = "auto",
        tracer: Tracer | None = None,
        stats: SearchStats | Sequence[SearchStats] | None = None,
    ) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        stacks = [tuple(as_intvec(row) for row in space) for space in spaces]
        if not stacks or len({len(rows) for rows in stacks}) != 1:
            raise ValueError("a scanner needs space mappings with equal row counts")
        if stats is None:
            stats = [SearchStats() for _ in stacks]
        elif isinstance(stats, SearchStats):
            stats = [stats]
        self.algorithm = algorithm
        self.method = method
        self.tracer = tracer
        self.n = algorithm.n
        self.k = len(stacks[0]) + 1
        deps = [tuple(int(x) for x in d) for d in algorithm.dependence_vectors()]
        self._dep_mat: IntMat | None = (
            as_intmat([list(row) for row in zip(*deps)]) if deps else None
        )
        # Co-rank 1: gamma(Pi) = Pi @ M spans the kernel of [S; Pi], and
        # is zero exactly when [S; Pi] is rank-deficient.  Otherwise Pi
        # lifts [S; Pi] to rank k iff it leaves the row span of S, i.e.
        # Pi @ K != 0 for a kernel basis K of S (the identity without
        # rows); a row-deficient S gets zero columns, which no Pi passes.
        self._width = self.n if self.n - self.k == 1 else max(1, self.n - self.k + 1)
        self._spaces = [
            _Space(rows, self._rank_matrix(rows), space_stats)
            for rows, space_stats in zip(stacks, stats, strict=True)
        ]
        self.stats = self._spaces[0].stats
        self._stacks: dict[tuple[int, ...], IntMat] = {}

    def _rank_matrix(self, rows: tuple) -> IntMat:
        if self.n - self.k == 1:
            return adjugate_conflict_matrix(rows, self.n)
        if not rows:
            return IntMat.identity(self.n)
        s_mat = as_intmat([list(row) for row in rows])
        kernel_cols = kernel_basis(s_mat) if s_mat.rank() == self.k - 1 else []
        if not kernel_cols:
            return IntMat.zeros(self.n, self._width)
        return as_intmat([list(row) for row in zip(*[list(c) for c in kernel_cols])])

    def _rank_stack(self, spaces: tuple[int, ...]) -> IntMat:
        """The rank matrices of ``spaces``, side by side (built once per subset)."""
        if len(spaces) == 1:
            return self._spaces[spaces[0]].rank_mat
        if spaces not in self._stacks:
            mats = [self._spaces[s].rank_mat for s in spaces]
            self._stacks[spaces] = as_intmat(
                [[x for mat in mats for x in mat[i]] for i in range(self.n)]
            )
        return self._stacks[spaces]

    def stages(self, pis: np.ndarray) -> np.ndarray:
        """``int8`` stage codes for the rows of ``pis`` under the first ``S``."""
        return self.stacked_stages(pis, (0,))[0]

    def stacked_stages(
        self, pis: np.ndarray, spaces: Sequence[int], *, ends: Sequence[int] | None = None
    ) -> list[np.ndarray]:
        """``int8`` stage codes for the rows of ``pis``, one array per ``S``.

        ``spaces`` indexes the scanner's stack.  ``ends``, the row offsets
        where the segments (rings) of ``pis`` end, makes the costly
        co-rank >= 2 screens lazy: they judge only through the end of the
        first non-empty segment, and the paper's per-candidate dispatch
        stops at an ``S``'s first conflict-free row, so that ``S``'s codes
        cover only the prefix of ``pis`` whose codes are final (at least
        one row when ``pis`` is non-empty).  The co-rank 0 and 1 screens
        are a by-product of the rank product and always judge every row.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        spaces = tuple(spaces)
        if ends is not None and self.n - self.k >= 2:
            pis = pis[: next((end for end in ends if end > 0), 0)]
        for s in spaces:
            self._spaces[s].stats.batches_evaluated += int(len(pis) > 0)
        codes = np.full((len(spaces), len(pis)), CODE_DEPS, dtype=np.int8)
        if not tracer.enabled:  # keep the untraced hot path span-free
            masked = self._masks(pis, spaces, codes)
            return self._screen(pis, spaces, *masked, codes, ends is not None)
        with tracer.span("ring.mask", candidates=len(pis)):
            masked = self._masks(pis, spaces, codes)
        with tracer.span("ring.screen", candidates=int(masked[1].sum())):
            return self._screen(pis, spaces, *masked, codes, ends is not None)

    def _masks(
        self, pis: np.ndarray, spaces: tuple[int, ...], codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Dependence and rank masks into ``codes``.

        Returns the dependence survivors' indices ``idx``, whether each
        passes each ``S``'s rank test and, for the co-rank-1 screen,
        whether its conflict vector under each ``S`` is feasible (both
        ``(len(idx), len(spaces))``; the latter ``None`` otherwise).
        The rank product runs in row blocks of at most ``_CELL_LIMIT``
        cells.
        """
        idx = np.arange(len(pis))
        promoted = 0
        if self._dep_mat is not None and idx.size:
            dep_mask, promoted = batch_dependence_mask(pis, self._dep_mat)
            idx = idx[dep_mask]
        codes[:, idx] = CODE_RANK
        stack = self._rank_stack(spaces)
        passed = np.zeros((idx.size, len(spaces)), dtype=bool)
        free = np.zeros_like(passed) if self.n - self.k == 1 else None
        step = max(1, _CELL_LIMIT // stack.ncols)
        for lo in range(0, idx.size, step):
            product, rank_promoted = batch_matmul(pis[idx[lo : lo + step]], stack)
            promoted += rank_promoted
            product = product.reshape(len(product), len(spaces), self._width)
            passed[lo : lo + step] = (product != 0).any(axis=2)
            if free is not None:
                free[lo : lo + step] = conflict_vector_verdicts(
                    product, self.algorithm.mu
                )
        for s in spaces:
            self._spaces[s].stats.fastpath_promotions += promoted
        return idx, passed, free

    def _screen(
        self,
        pis: np.ndarray,
        spaces: tuple[int, ...],
        idx: np.ndarray,
        passed: np.ndarray,
        free: np.ndarray | None,
        codes: np.ndarray,
        stop_at_ok: bool,
    ) -> list[np.ndarray]:
        """Screen each ``S``'s rank survivors into ``codes``; returns each
        ``S``'s final prefix of its codes."""
        if self.k == self.n:
            # Co-rank 0: a full-rank square mapping is injective on Z^n.
            codes[:, idx] = np.where(passed, CODE_OK, CODE_RANK).T
            return list(codes)
        if free is not None:
            codes[:, idx] = np.where(
                passed, np.where(free, CODE_OK, CODE_CONFLICT), CODE_RANK
            ).T
            for s, screened in zip(spaces, passed.sum(axis=0).tolist()):
                self._spaces[s].stats.conflict_screens += screened
            return list(codes)
        return [
            row[: self._screen_space(pis, self._spaces[s], idx[passed[:, j]], row, stop_at_ok)]
            for j, (s, row) in enumerate(zip(spaces, codes))
        ]

    def _screen_space(
        self, pis: np.ndarray, space: _Space, idx: np.ndarray, codes: np.ndarray,
        stop_at_ok: bool,
    ) -> int:
        """Screen one ``S``'s rows ``idx`` into its ``codes``; returns the
        final prefix length."""
        codes[idx] = CODE_CONFLICT
        rows = pis[idx]
        screened = len(rows)
        if self.method == "paper":
            for i, row in enumerate(rows.tolist()):
                t = MappingMatrix(space=space.rows, schedule=tuple(row))
                if check_conflict_free(t, self.algorithm.mu, method="paper").holds:
                    codes[idx[i]] = CODE_OK
                    if stop_at_ok:
                        screened = i + 1
                        break
        elif screened:
            if space.table is None:
                table = box_kernel_table(space.rows, self.algorithm.mu)
                space.table = (table, as_intmat(table.T))
            free, promoted = box_kernel_screen(rows[:, None, :], *space.table)
            space.stats.fastpath_promotions += promoted
            codes[idx[free]] = CODE_OK
        space.stats.conflict_screens += screened
        return int(idx[screened]) if screened < len(rows) else len(codes)


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
    """Consecutive expanding rings ``C_l`` as :func:`search_rings` hands
    them out: a group to a judge, one logical ring to ``after_ring``.
    ``candidates`` is the sorted :func:`ring_candidate_array` of the
    window ``[f_min, f_max]`` with the :func:`forced_signs` of ``D``;
    ``size`` counts the full window (:func:`ring_size`), whose other rows
    all fail ``Pi D > 0``.  ``ends`` holds the row offset where each
    logical ring ends; ``span`` is the group's open trace span, for
    judges that annotate it."""

    index: int
    f_min: int
    f_max: int
    candidates: np.ndarray
    size: int
    span: Span
    ends: tuple[int, ...]


_RingWinner = tuple[LinearSchedule, MappingMatrix, ConditionVerdict]

#: ``judge(group, start, spaces)`` returns, for each index in ``spaces``
#: (into the search's stack of space mappings), ``int8`` stage codes for
#: a non-empty prefix of ``group.candidates[start:]``, in order.
RingJudge = Callable[[Ring, int, Sequence[int]], Sequence[np.ndarray]]


def ring_bounds(
    initial_bound: int, alpha: int, max_bound: int
) -> Iterator[tuple[int, int]]:
    """Successive ``(f_min, f_max)`` windows of Procedure 5.1's rings.

    The first ring is ``[0, initial_bound]``, each following ring covers
    ``[previous_max + 1, previous_max + alpha]``, and every upper bound
    is clamped to ``max_bound``.  The iterator stops once ``max_bound``
    has been covered.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    x_prev = -1
    x = initial_bound
    while x_prev < max_bound:
        top = min(x, max_bound)
        yield (x_prev + 1, top)
        x_prev = top
        x += alpha


def _ring_groups(
    mu: tuple[int, ...], windows: Iterator[tuple[int, int]]
) -> Iterator[list[tuple[int, int, int]]]:
    """Consecutive ring windows as groups of ``(f_min, f_max, ring_size)``:
    the first ring alone, then each group as many rings as its full-ring
    rows need to reach those of all earlier groups."""
    group: list[tuple[int, int, int]] = []
    rows = before = 0  # full-ring rows of the group and of earlier groups
    for f_min, f_max in windows:
        group.append((f_min, f_max, ring_size(mu, f_max, f_min)))
        rows += group[-1][2]
        if rows >= before:
            yield group
            group, rows, before = [], 0, before + rows
    if group:
        yield group


def search_rings(
    algorithm: UniformDependenceAlgorithm,
    spaces: Sequence[tuple],
    judge: RingJudge,
    verdict_of: Callable[[MappingMatrix], ConditionVerdict],
    *,
    alpha: int,
    initial_bound: int,
    max_bound: int,
    stats: Sequence[SearchStats],
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
    span_name: str = "core.ring",
    before_ring: Callable[[int], None] | None = None,
    after_ring: Callable[[Ring, bool], None] | None = None,
) -> list[SearchResult]:
    """The ring loop of Procedure 5.1 (Steps 1-7), for any judge and a
    stack of space mappings; one :class:`SearchResult` per ``S``.

    Rings follow :func:`ring_bounds` in :func:`_ring_groups`; a ring
    array is sorted by ``(f, Pi)``, so a group's array is its rings' in
    scan order.  Neither depends on ``S``: each group is materialized
    once for the stack, with only the rows whose signs can satisfy
    ``Pi D > 0`` (:func:`forced_signs`), and judged by one
    ``judge(group, 0, open)`` call for the ``S`` still open, continued
    by one call per later ring for the ``S`` a lazy judge stopped before
    it.  Split into logical rings at the rows' times, ring by ring, each
    open ``S`` walks its codes in scan order (:func:`_walk_ring`): its
    first ``ok`` candidate that passes ``extra_constraint`` wins, and its
    verdict is recomputed by ``verdict_of``.  So each result is the same
    whichever judge ran, whatever else was stacked and however rings
    were grouped.  The hooks see a ring-by-ring loop: each walked
    logical ring's ``f_max`` goes to ``before_ring`` (the group's first
    before the group is built, the others once its span closes), then
    the ring and whether some ``S`` won in it to ``after_ring``.
    """
    tracer = get_tracer()
    mu = algorithm.mu
    signs = forced_signs(algorithm.dependence_vectors(), algorithm.n)
    examined = [0] * len(spaces)
    found: list[_RingWinner | None] = [None] * len(spaces)
    open_ = list(range(len(spaces)))
    groups = _ring_groups(mu, ring_bounds(initial_bound, alpha, max_bound))
    rings = 0
    while open_ and (group := next(groups, None)):
        f_lo, f_hi, total = group[0][0], group[-1][1], sum(g[2] for g in group)
        if before_ring is not None:
            before_ring(group[0][1])
        walked: list[tuple[Ring, bool]] = []
        opened = len(open_)
        with tracer.span(
            span_name, ring=rings, rings=len(group), f_min=f_lo, f_max=f_hi
        ) as span:
            with tracer.detail("ring.materialize"):
                candidates = ring_candidate_array(mu, f_hi, f_min=f_lo, signs=signs)
            span.set(candidates=total, materialized=len(candidates))
            if len(spaces) > 1:
                span.set(spaces_open=len(open_))
            # Split at the rows' times, freed before the judge allocates.
            ends = np.searchsorted(np.abs(candidates) @ np.array(mu, dtype=np.int64),
                                   [g[1] for g in group], "right").tolist()
            whole = Ring(rings, f_lo, f_hi, candidates, total, span, tuple(ends))
            codes = {s: np.empty(0, dtype=np.int8) for s in open_}
            for (f_min, f_max, size), start, end in zip(group, [0, *ends], ends):
                # One judge call for every S whose codes stop where this ring starts.
                behind = [s for s in open_ if len(codes[s]) == start < end]
                for s, more in zip(behind, judge(whole, start, behind) if behind else ()):
                    codes[s] = np.concatenate([codes[s], more])
                ring = Ring(rings, f_min, f_max, candidates[start:end], size, span, (end - start,))
                for s in open_:
                    stats[s].candidates_enumerated += size
                    examined[s], found[s] = _walk_ring(
                        judge, whole, ring, start, s, codes, algorithm, spaces[s],
                        verdict_of, extra_constraint, stats=stats[s],
                        examined=examined[s],
                    )
                    stats[s].rings_expanded += found[s] is None
                walked.append((ring, any(found[s] is not None for s in open_)))
                open_ = [s for s in open_ if found[s] is None]
                rings += 1
                if not open_:
                    break
            if len(spaces) > 1:
                span.set(retired=opened - len(open_))
            elif not open_:
                span.set(winner=list(found[0][0].pi))
        for k, (ring, won) in enumerate(walked):
            if k and before_ring is not None:
                before_ring(ring.f_max)
            if after_ring is not None:
                after_ring(ring, won)
    return [
        SearchResult(
            *(winner or (None, None, None)), candidates_examined=examined[s],
            rings_expanded=stats[s].rings_expanded, stats=stats[s],
        )
        for s, winner in enumerate(found)
    ]


def _walk_ring(
    judge: RingJudge, group: Ring, ring: Ring, start: int, s: int,
    codes: dict[int, np.ndarray], algorithm: UniformDependenceAlgorithm,
    space_rows: tuple, verdict_of: Callable[[MappingMatrix], ConditionVerdict],
    extra_constraint: Callable[[MappingMatrix], bool] | None,
    *, stats: SearchStats, examined: int,
) -> tuple[int, _RingWinner | None]:
    """Walk ``codes[s]``, ``S`` number ``s``'s stage codes of ``group``,
    over its logical ``ring`` at row ``start``; returns (examined, winner).
    A prefix that ends inside the ring is continued by ``judge(group,
    len(codes[s]), [s])``.  Counters are tallied up to (and including)
    the winner; the full-ring rows never built count as ``deps``: all of
    them without a winner, those sorting before it with one."""
    pos, end = start, start + len(ring.candidates)
    while pos < end:
        if pos == len(codes[s]):
            codes[s] = np.concatenate([codes[s], judge(group, pos, [s])[0]])
        run = codes[s][pos:end]
        for i in np.flatnonzero(run == CODE_OK).tolist():
            pi = tuple(int(v) for v in group.candidates[pos + i])
            t = MappingMatrix(space=space_rows, schedule=pi)
            if extra_constraint is None or extra_constraint(t):
                examined = _tally_stage_codes(stats, run[: i + 1], examined)
                stats.candidates_pruned += (
                    _full_ring_rank(algorithm.mu, ring.f_min, ring.f_max, pi)
                    - (pos + i - start)
                )
                cand = LinearSchedule(pi=pi, index_set=algorithm.index_set)
                return examined, (cand, t, verdict_of(t))
        examined = _tally_stage_codes(stats, run, examined)
        pos += len(run)
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


def scan_rings(
    algorithm: UniformDependenceAlgorithm,
    stack: Sequence[tuple],
    stats: Sequence[SearchStats],
    *,
    method: str = "auto",
    **ring_kwargs,
) -> list[SearchResult]:
    """:func:`search_rings` judged in process by one :class:`BatchCandidateScanner`.

    The scanner holds the whole ``stack`` (normalized rows) and judges
    each ring group with its rings' ``ends``; a winner's verdict is
    recomputed by :func:`check_conflict_free` under ``method``.
    ``stats[i]`` receives the counters of ``stack[i]``; ``ring_kwargs``
    are :func:`search_rings`'s keyword arguments (bounds,
    ``extra_constraint``, span name and ring hooks)."""
    scanner = BatchCandidateScanner(algorithm, *stack, method=method, stats=stats)
    return search_rings(
        algorithm, stack,
        lambda ring, start, open_: scanner.stacked_stages(
            ring.candidates[start:], open_, ends=[end - start for end in ring.ends]
        ),
        lambda t: check_conflict_free(t, algorithm.mu, method=method),
        stats=stats, **ring_kwargs,
    )


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
    candidate is optimal.  This is the one-``S`` case of
    :func:`procedure_5_1_stacked`.
    """
    [result] = procedure_5_1_stacked(
        algorithm, [space], method=method, alpha=alpha,
        initial_bound=initial_bound, max_bound=max_bound,
        extra_constraint=extra_constraint,
    )
    return result


def procedure_5_1_stacked(
    algorithm: UniformDependenceAlgorithm,
    spaces: Sequence[Sequence[Sequence[int]]],
    *,
    method: str = "auto",
    alpha: int | None = None,
    initial_bound: int | None = None,
    max_bound: int | None = None,
    extra_constraint: Callable[[MappingMatrix], bool] | None = None,
) -> list[SearchResult]:
    """Procedure 5.1 for every ``S`` of a stack, in one ring pass.

    ``result[i]`` equals ``procedure_5_1(algorithm, spaces[i], ...)``,
    counters included: :func:`search_rings` builds each ring and its
    ``Pi D > 0`` mask once for every ``S`` still open, one
    :class:`BatchCandidateScanner` product gives every open ``S``'s rank
    test (and at co-rank 1 its conflict vectors), and each ``S`` retires
    at its first winner.  Every ``S`` has the same number of rows
    (Problem 6.2's candidates for one ``array_dim``).  Parameters as in
    :func:`procedure_5_1`.
    """
    stack = [tuple(as_intvec(row) for row in space) for space in spaces]
    alpha, initial_bound, max_bound = search_bounds(
        algorithm, alpha=alpha, initial_bound=initial_bound, max_bound=max_bound
    )
    if not stack:
        return []
    stats = [SearchStats() for _ in stack]
    # The root span is the single timing source: SearchStats.wall_time
    # is read back from its monotonic duration after it closes.
    root = get_tracer().span(
        "core.procedure_5_1",
        algorithm=algorithm.name,
        method=method,
        alpha=alpha,
        initial_bound=initial_bound,
        max_bound=max_bound,
        spaces=len(stack),
    )
    with root:
        results = scan_rings(
            algorithm, stack, stats, method=method, alpha=alpha,
            initial_bound=initial_bound, max_bound=max_bound,
            extra_constraint=extra_constraint,
        )
    # Each stats object is shared with its result; the frozen dataclass
    # holds the reference, so deriving wall_time from the span after
    # construction is visible to callers.
    for space_stats in stats:
        space_stats.wall_time = root.duration
        space_stats.shard_wall_times = (space_stats.wall_time,)
    return results


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
