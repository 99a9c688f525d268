"""Conflict vectors and conflict-freedom deciders.

Implements the backbone of Sections 2-4:

* **Definition 2.3** — conflict vectors (primitive integral kernel
  vectors of ``T``), feasible vs non-feasible, conflict-free matrices;
* **Theorem 2.2** — a conflict vector is feasible iff some entry
  exceeds the corresponding problem-size bound;
* **Equation 3.2 / Theorem 3.1** — the closed-form unique conflict
  vector for co-rank-1 mappings via the adjugate; a stack of candidate
  schedules times :func:`adjugate_conflict_matrix` is a stack of
  conflict vectors, which :func:`conflict_vector_verdicts` judges at
  once;
* **Theorems 4.1-4.2** — the Hermite-normal-form generator set
  ``u_{k+1}, ..., u_n`` of *all* conflict vectors;
* the **box kernel** of the rows a search holds fixed — every conflict
  vector any candidate can have, enumerated once per search — and the
  batched screen of candidate rows against it, for any co-rank;
* two *exact* deciders used as oracles throughout the test-suite and
  available to users who want certainty beyond the sufficient
  conditions of Section 4:

  - :func:`is_conflict_free_bruteforce` checks all index points
    directly (the method the paper says earlier work was reduced to);
  - :func:`is_conflict_free_kernel_box` enumerates the kernel lattice
    inside the bounding box — exponentially cheaper than brute force
    (it never touches ``|J|``) and exact for any co-rank.

Everything here operates on the mapping's immutable
:attr:`~repro.core.mapping.MappingMatrix.matrix` (:class:`IntMat`)
directly: the Hermite cache is keyed on that matrix value, and the
vectorized brute-force decider routes through
:meth:`IntMat.image_of_points`, whose overflow guard promotes to exact
object arithmetic instead of silently wrapping in int64.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from ..intlin.gcdutil import normalize_primitive
from ..intlin.hermite import hnf_cached, kernel_basis
from ..intlin.intmat import IntMat, IntVec, as_intmat
from ..intlin.batch import batch_matmul
from ..model.index_set import ConstantBoundedIndexSet
from .mapping import MappingMatrix

# Cap on the int64 cells (rows x table points, or beta rows x n) one
# box-kernel step materializes: ~32 MB.
_CELL_LIMIT = 4_194_304

__all__ = [
    "ConflictAnalysis",
    "is_feasible_conflict_vector",
    "conflict_vector_corank1",
    "adjugate_conflict_matrix",
    "conflict_vector_verdicts",
    "box_kernel_table",
    "box_kernel_screen",
    "conflict_generators",
    "distinct_image_count",
    "is_conflict_free_bruteforce",
    "is_conflict_free_bruteforce_vectorized",
    "is_conflict_free_kernel_box",
    "conflict_margin",
    "find_conflict_witness",
    "analyze_conflicts",
]


def is_feasible_conflict_vector(gamma: Sequence[int], mu: Sequence[int]) -> bool:
    """Theorem 2.2: feasible iff ``|gamma_i| > mu_i`` for some ``i``.

    A feasible conflict vector never connects two points of the index
    set, so it cannot cause a computational conflict.
    """
    g = [int(x) for x in gamma]
    m = [int(x) for x in mu]
    if len(g) != len(m):
        raise ValueError(f"gamma has {len(g)} entries, mu has {len(m)}")
    return any(abs(gi) > mi for gi, mi in zip(g, m))


def conflict_vector_corank1(t: MappingMatrix) -> IntVec:
    """The unique conflict vector of a co-rank-1 mapping (Theorem 3.1).

    Equation 3.2 in cofactor form: ``gamma = Pi M`` with ``M`` the cached
    :func:`adjugate_conflict_matrix` of the space rows, normalized to
    relatively prime entries with positive first non-zero entry, as
    Section 3 fixes.  A rank-deficient ``T`` has ``gamma = 0`` and is a
    :class:`ValueError`.
    """
    if t.corank != 1:
        raise ValueError(f"mapping has co-rank {t.corank}, expected 1")
    m = adjugate_conflict_matrix(t.space, t.n)
    gamma = [t.schedule.dot(col) for col in m.columns()]
    if not any(gamma):
        raise ValueError(
            "mapping matrix does not have full row rank; Definition 2.2 "
            "condition 4 requires rank(T) == k"
        )
    return IntVec(normalize_primitive(gamma))


def adjugate_conflict_matrix(space: Sequence[Sequence[int]], n: int) -> IntMat:
    """The ``(n, n)`` matrix ``M`` with ``gamma(Pi) = Pi M`` for ``T = [S; Pi]``.

    Equation 3.2 in cofactor form: the kernel of a rank-``(n-1)``
    ``(n-1) x n`` matrix ``T`` is spanned by its signed maximal minors
    ``gamma_j = (-1)^j det(T without column j)``, and ``gamma == 0``
    exactly when ``T`` is rank-deficient.  Expanding each minor along
    the ``Pi`` row makes ``gamma`` linear in ``Pi``; row ``i`` of ``M``
    is ``gamma(e_i)``.  ``M`` depends only on the ``n - 2`` rows of
    ``S`` (none when ``n == 2``), so one matrix serves every candidate.
    """
    return _adjugate_conflict_matrix(tuple(tuple(map(int, row)) for row in space), n)


@lru_cache(maxsize=64)
def _adjugate_conflict_matrix(space: tuple[tuple[int, ...], ...], n: int) -> IntMat:
    rows = [list(row) for row in space]
    if len(rows) != n - 2:
        raise ValueError(f"co-rank 1 needs {n - 2} space rows, got {len(rows)}")
    adj = []
    for i in range(n):
        t = rows + [[int(c == i) for c in range(n)]]
        adj.append([
            (-1) ** j * as_intmat([r[:j] + r[j + 1:] for r in t]).det()
            for j in range(n)
        ])
    return as_intmat(adj)


def conflict_vector_verdicts(gamma: np.ndarray, mu: Sequence[int]) -> np.ndarray:
    """Theorem 2.2 on a stack of co-rank-1 conflict vectors up to scale.

    ``gamma`` holds one vector along its last axis (any leading shape,
    ``int64`` or exact ``object``); the result has the leading shape and
    is ``True`` where ``|gamma_i| / gcd(gamma) > mu_i`` for some ``i``,
    so a zero vector (a rank-deficient ``T``) is ``False``.
    """
    if gamma.dtype == object:
        flat = gamma.reshape(-1, gamma.shape[-1]).tolist()
        free = np.zeros(len(flat), dtype=bool)
        for c, row in enumerate(flat):
            g = gcd(*row) or 1
            free[c] = any(abs(x) // g > m for x, m in zip(row, mu))
        return free.reshape(gamma.shape[:-1])
    mag = np.abs(gamma)
    g = np.maximum(np.gcd.reduce(mag, axis=-1), 1)
    mu_arr = np.array([int(m) for m in mu], dtype=np.int64)
    return (mag // g[..., None] > mu_arr).any(axis=-1)


def box_kernel_table(
    fixed_rows: Sequence[Sequence[int]], mu: Sequence[int]
) -> np.ndarray:
    """The box kernel ``X`` of ``F``: ``ker F`` inside ``[-mu, mu]^n``.

    Theorem 2.2 and Definition 2.3: ``T`` is conflict-free iff no
    non-zero ``gamma`` in ``ker T`` has ``|gamma_i| <= mu_i``.  When ``T``
    stacks fixed rows ``F`` on varying ones, ``ker T = ker F`` intersected
    with the varying rows' orthogonal complement, so every conflict any
    candidate can have is a point of ``X`` (see :func:`box_kernel_screen`).

    Returns the non-zero in-box points as the rows of an ``(|X|, n)``
    ``int64`` array, one per ``+-`` pair with its first non-zero entry
    positive.  They come from the half of the ``beta`` grid below zero,
    over the saturated :func:`~repro.intlin.kernel_basis` of ``F`` and
    within :func:`_exact_beta_bounds`: the sweep
    :func:`is_conflict_free_kernel_box` runs, vectorized.  ``F`` without
    rows has the whole box as kernel; ``F`` without kernel gives an empty
    table.  ``F`` must have full row rank (:class:`ValueError`
    otherwise, as for ``kernel_basis``).  Cached; the returned array is
    read-only.
    """
    return _box_kernel_table(
        tuple(tuple(int(x) for x in row) for row in fixed_rows),
        tuple(int(m) for m in mu),
    )


@lru_cache(maxsize=16)
def _box_kernel_table(
    fixed: tuple[tuple[int, ...], ...], mu: tuple[int, ...]
) -> np.ndarray:
    n = len(mu)
    basis = (
        kernel_basis(fixed) if fixed
        else [IntVec(int(i == j) for i in range(n)) for j in range(n)]
    )
    table = np.empty((0, n), dtype=np.int64)
    if basis:
        bounds = _exact_beta_bounds(basis, mu)
        sizes = tuple(2 * b + 1 for b in bounds)
        generators = as_intmat([list(g) for g in basis])
        box = np.array(mu, dtype=np.int64)
        # In C order, flat indices below the middle one are exactly the
        # beta whose first non-zero entry is negative: one per +- pair.
        half = prod(sizes) // 2
        step = max(1, _CELL_LIMIT // n)
        parts = [table]
        for lo in range(0, half, step):
            flat = np.arange(lo, min(lo + step, half), dtype=np.int64)
            beta = np.stack(np.unravel_index(flat, sizes), axis=1) - np.array(bounds)
            points, _ = batch_matmul(beta, generators)
            inside = (np.abs(points) <= box).all(axis=1)
            parts.append(points[inside].astype(np.int64))
        table = np.concatenate(parts)
        lead = table[np.arange(len(table)), (table != 0).argmax(axis=1)]
        table[lead < 0] *= -1
    table.setflags(write=False)
    return table


def box_kernel_screen(
    stack: np.ndarray, table: np.ndarray, points: IntMat | None = None
) -> tuple[np.ndarray, int]:
    """Conflict verdicts for a ``(C, w, n)`` stack of candidates at once.

    Candidate ``c`` adds the rows ``stack[c]`` to the fixed rows whose
    :func:`box_kernel_table` is ``table``; it is conflict-free iff every
    point of ``X`` has a non-zero product with one of its rows.  A zero
    row has none, so candidates of unequal width can be padded with
    zero rows.  An empty table makes every candidate conflict-free.

    The products ``stack[c] . x`` run through :func:`batch_matmul` in
    steps of at most ``_CELL_LIMIT`` cells.  Returns ``(conflict_free,
    promoted)``: a boolean per candidate and the number of rows whose
    products could not be certified int64 and were computed over Python
    ints.  Agrees with :func:`is_conflict_free_kernel_box` on every
    ``T`` of full row rank.  ``points`` is ``as_intmat(table.T)``, for a
    caller that screens many stacks against one table to build once.
    """
    count, width, n = stack.shape
    free = np.ones(count, dtype=bool)
    if not len(table) or not count:
        return free, 0
    if points is None:
        points = as_intmat(table.T)
    step = max(1, _CELL_LIMIT // max(1, width * len(table)))
    promoted = 0
    for lo in range(0, count, step):
        block = stack[lo : lo + step]
        products, rows_promoted = batch_matmul(block.reshape(-1, n), points)
        promoted += rows_promoted
        hit = (products != 0).reshape(len(block), width, len(table))
        free[lo : lo + step] = hit.any(axis=1).all(axis=1)
    return free, promoted


def conflict_generators(t: MappingMatrix) -> list[IntVec]:
    """Hermite generators ``u_{k+1}, ..., u_n`` of all conflict vectors.

    Theorem 4.2(3): every conflict vector of ``T`` is ``U_2 beta`` for
    integral, relatively prime, not-all-zero ``beta`` — and conversely.
    The returned columns are primitive (columns of a unimodular matrix
    always are).
    """
    return hnf_cached(t.matrix).kernel_columns()


def is_conflict_free_bruteforce(
    t: MappingMatrix, index_set: ConstantBoundedIndexSet
) -> bool:
    """Direct check of Definition 2.2 condition 3 over all index points.

    ``O(|J|)`` time and space; the referee the cleverer deciders are
    validated against.
    """
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for j in index_set:
        image = t.tau(j)
        if image in seen:
            return False
        seen[image] = j
    return True


def is_conflict_free_bruteforce_vectorized(
    t: MappingMatrix, index_set: ConstantBoundedIndexSet
) -> bool:
    """Vectorized brute force: one ``(|J|, n) @ (n, k)`` product.

    Same semantics as :func:`is_conflict_free_bruteforce` — conflict-
    free iff ``tau`` is injective on ``J`` — but materialized as a
    single matmul plus a unique-rows count, an order of magnitude
    faster on the larger index sets.  The product goes through
    :meth:`IntMat.image_of_points`, which certifies the int64 bound
    ``max|point| * max|T| * n`` before vectorizing and otherwise
    computes the exact object-dtype product — mappings with huge
    entries get the same verdict, never a wrapped one.
    """
    pts = index_set.points_array()
    images = t.matrix.image_of_points(pts)
    return distinct_image_count(images) == pts.shape[0]


def distinct_image_count(images: np.ndarray) -> int:
    """Number of distinct rows of an ``(N, k)`` image array, exactly.

    Object-dtype images (the overflow-promoted route) are counted with
    a set of row tuples over Python ints.  int64 images collapse each
    row to a single scalar key — ``(row - lo) . strides``, a mixed-radix
    encoding over the per-column value ranges — when the total range
    provably fits int64 (checked in Python-int arithmetic, so the key
    computation itself cannot wrap), and fall back to a lexicographic
    row sort otherwise.  Both are order-of-magnitude cheaper than
    ``np.unique(images, axis=0)``, which sorts void views.
    """
    n, k = images.shape
    if n <= 1 or k == 0:
        return n
    if images.dtype == object:
        return len({tuple(row) for row in images.tolist()})
    lo = images.min(axis=0)
    hi = images.max(axis=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    total = 1
    for s in spans:
        total *= s
    if total <= np.iinfo(np.int64).max:
        strides = np.empty(k, dtype=np.int64)
        acc = 1
        for j in range(k - 1, -1, -1):
            strides[j] = acc
            acc *= spans[j]
        keys = (images - lo) @ strides
        keys.sort()
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    order = np.lexsort(images.T)
    rows = images[order]
    changed = np.any(rows[1:] != rows[:-1], axis=1)
    return 1 + int(np.count_nonzero(changed))


def _exact_beta_bounds(
    generators: Sequence[Sequence[int]], mu: Sequence[int]
) -> list[int]:
    """Per-coordinate bounds on ``beta`` with ``U_2 beta`` inside the box.

    Solves the normal equations ``beta = (G^T G)^{-1} G^T gamma`` over
    exact rationals; the bound for ``beta_l`` is the weighted 1-norm of
    the ``l``-th pseudo-inverse row against the box half-widths.  Exact
    arithmetic (``Fraction``) removes any floating-point soundness gap.
    """
    n = len(generators[0])
    c = len(generators)
    g = [[Fraction(generators[col][row]) for col in range(c)] for row in range(n)]
    # gram = G^T G  (c x c), rhs rows = G^T
    gram = [
        [sum(g[r][i] * g[r][j] for r in range(n)) for j in range(c)] for i in range(c)
    ]
    gt = [[g[r][i] for r in range(n)] for i in range(c)]
    # Invert gram by Gauss-Jordan over Fractions (c is tiny: the co-rank).
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(c)]
           for i, row in enumerate(gram)]
    for col in range(c):
        pivot = next(r for r in range(col, c) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(c):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    gram_inv = [row[c:] for row in aug]
    pinv = [
        [sum(gram_inv[i][l] * gt[l][r] for l in range(c)) for r in range(n)]
        for i in range(c)
    ]
    bounds = []
    for i in range(c):
        weight = sum(abs(pinv[i][r]) * int(mu[r]) for r in range(n))
        bounds.append(int(weight))  # floor of an exact rational bound
    return bounds


def _kernel_box_violation(
    generators: Sequence[Sequence[int]], mu: Sequence[int]
) -> list[int] | None:
    """The first non-zero lattice point ``U_2 beta`` inside ``[-mu, mu]^n``.

    The single enumeration shared by the exact decider and the witness
    finder: both answer "does the kernel lattice meet the box away from
    the origin?", and sharing the sweep makes the two answers
    structurally consistent — whenever the decider says *not*
    conflict-free, this function hands the witness finder the very
    in-box conflict vector that proved it.
    """
    bounds = _exact_beta_bounds(generators, mu)
    n = len(generators[0])
    for beta in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if all(x == 0 for x in beta):
            continue
        gamma = []
        ok = True
        for r in range(n):
            entry = sum(beta[l] * generators[l][r] for l in range(len(beta)))
            if abs(entry) > mu[r]:
                ok = False
                break
            gamma.append(entry)
        if ok:
            return gamma
    return None


def is_conflict_free_kernel_box(
    t: MappingMatrix, mu: Sequence[int] | None = None,
    *,
    index_set: ConstantBoundedIndexSet | None = None,
) -> bool:
    """Exact decider: no non-zero kernel vector lies in ``[-mu, mu]^n``.

    Conflict-freedom is equivalent to the kernel lattice of ``T``
    meeting the box ``{|gamma_i| <= mu_i}`` only at the origin: a
    non-primitive lattice point in the box implies its primitive part
    is in the box too, so the gcd normalization of Definition 2.3 never
    changes the answer.  Enumerates ``beta`` coefficients inside exact
    rational bounds derived from the pseudo-inverse of the generator
    matrix — cost is independent of ``|J|``.
    """
    if mu is None:
        if index_set is None:
            raise ValueError("provide mu or index_set")
        mu = index_set.mu
    mu = [int(x) for x in mu]
    if len(mu) != t.n:
        raise ValueError(f"mu has {len(mu)} entries, mapping has n={t.n}")
    generators = conflict_generators(t)
    if not generators:
        return True  # square full-rank T: kernel is trivial
    return _kernel_box_violation(generators, mu) is None


def find_conflict_witness(
    t: MappingMatrix, index_set: ConstantBoundedIndexSet
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two distinct index points with ``tau(j1) == tau(j2)``, or ``None``.

    Runs the same kernel-box enumeration as
    :func:`is_conflict_free_kernel_box` (the shared
    :func:`_kernel_box_violation` sweep) to find a non-feasible conflict
    vector, then applies Theorem 2.2's constructive witness point.
    Sharing the sweep guarantees ``not conflict_free`` always comes with
    a witness: the in-box ``gamma`` that failed the decider translates
    by construction.
    """
    generators = conflict_generators(t)
    if not generators:
        return None
    gamma = _kernel_box_violation(generators, index_set.mu)
    if gamma is None:
        return None
    j = index_set.translate_witness(gamma)
    assert j is not None  # |gamma_i| <= mu_i by construction
    j2 = tuple(a + g for a, g in zip(j, gamma))
    return j, j2


def conflict_margin(t: MappingMatrix, mu: Sequence[int]) -> Fraction:
    """How much the problem size can scale before conflicts appear.

    Defined as ``min over non-zero kernel vectors of max_i |gamma_i| /
    mu_i`` — the scale factor by which the box ``[-mu, mu]`` must grow
    to capture the nearest kernel lattice point.  A mapping is
    conflict-free iff the margin is strictly greater than 1 (the
    nearest conflict lies outside the current box); the value tells a
    designer how much head-room a mapping has if the loop bounds grow.

    Computed exactly: LLL-reduce the kernel basis, then evaluate the
    scaled-infinity measure over a small coefficient sweep around the
    reduced vectors plus all lattice points inside the doubled box
    (enough to contain the minimizer once the reduced basis is short).
    """
    from ..intlin.reduction import lll_reduce

    mu = [int(x) for x in mu]
    if any(m <= 0 for m in mu):
        # The measure divides by each mu_i; a zero entry would raise a
        # bare ZeroDivisionError from Fraction deep in the sweep.
        raise ValueError(
            f"conflict_margin requires every mu entry to be positive, got {mu}"
        )
    generators = conflict_generators(t)
    if not generators:
        raise ValueError("square full-rank mappings have no conflict lattice")

    def measure(v: Sequence[int]) -> Fraction:
        return max(Fraction(abs(x), m) for x, m in zip(v, mu))

    rows = [list(g) for g in generators]
    reduced = lll_reduce(rows)
    # Candidate pool: small combinations of reduced vectors...
    best: Fraction | None = None
    r = len(reduced)
    n = t.n
    for z in itertools.product(range(-2, 3), repeat=r):
        if not any(z):
            continue
        v = [sum(z[c] * reduced[c][i] for c in range(r)) for i in range(n)]
        m = measure(v)
        if best is None or m < best:
            best = m
    # ...plus every lattice point inside the box scaled by the current
    # best (exactness: the minimizer lies in that scaled box by
    # definition, and the enumeration below is exhaustive there).
    assert best is not None
    scale_box = [int(best * m) + 1 for m in mu]
    bounds = _exact_beta_bounds(generators, scale_box)
    for beta in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(beta):
            continue
        v = [
            sum(beta[l] * generators[l][i] for l in range(len(beta)))
            for i in range(n)
        ]
        m = measure(v)
        if m < best:
            best = m
    return best


@dataclass(frozen=True)
class ConflictAnalysis:
    """Structured summary of a mapping's conflict situation.

    Attributes
    ----------
    conflict_free:
        Exact verdict (kernel-box decider).
    generators:
        The HNF generator columns ``u_{k+1..n}``.
    generator_feasible:
        Theorem 2.2 verdict for each generator.
    witness:
        A colliding index-point pair when not conflict-free.
    """

    conflict_free: bool
    generators: tuple[IntVec, ...]
    generator_feasible: tuple[bool, ...]
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


def analyze_conflicts(
    t: MappingMatrix, index_set: ConstantBoundedIndexSet
) -> ConflictAnalysis:
    """Full conflict analysis: exact verdict, generators, witness if any."""
    generators = conflict_generators(t)
    feasible = tuple(
        is_feasible_conflict_vector(g, index_set.mu) for g in generators
    )
    free = is_conflict_free_kernel_box(t, index_set.mu)
    witness = None if free else find_conflict_witness(t, index_set)
    return ConflictAnalysis(
        conflict_free=free,
        generators=tuple(generators),
        generator_feasible=feasible,
        witness=witness,
    )
