"""Loop-nest front-end: extract ``(J, D)`` from a nested-loop statement.

Definition 2.1 relates uniform dependence algorithms to "programs where
a single statement appears in the body of a multiply nested loop and
the indices of the variable in the left hand side differ by a constant
from the corresponding indices in each reference to the same variable
in the right hand side".  This module mechanizes that reading — it is
the stand-in for the front half of the RAB tool (Section 1), which
analyzed C loop nests and uniformized them.

Two kinds of right-hand-side references are handled:

* **self references** ``v[i-1, j, k]`` — the dependence vector is the
  constant subscript offset (negated), exactly Definition 2.1;
* **input-stream references** ``a[i, k]`` (a different variable, often
  with fewer subscripts) — the reference is *uniformized* by pipelining
  it along a direction in which the access function is invariant, i.e.
  a primitive kernel vector of the access matrix.  This is the standard
  broadcast-removal step the paper cites ([14], [24]).

Example
-------
>>> nest = LoopNest(indices=("j1", "j2", "j3"), bounds=(4, 4, 4))
>>> algo = nest.uniformize(
...     output=Access("c", ("j1", "j2", "j3-1"), variable_is_output=True),
...     reads=(Access("a", ("j1", "j3")), Access("b", ("j3", "j2"))),
... )
>>> algo.dependence_vectors()
[(0, 1, 0), (1, 0, 0), (0, 0, 1)]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..intlin.gcdutil import normalize_primitive
from ..intlin.hermite import kernel_basis
from .algorithm import DependenceError, UniformDependenceAlgorithm
from .index_set import ConstantBoundedIndexSet

__all__ = ["Access", "LoopNest", "SubscriptError"]

_TERM_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_]\w*)\s*(?:(?P<sign>[+-])\s*(?P<const>\d+))?\s*$"
)

_AFFINE_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+)\s*\*\s*)?(?P<body>[A-Za-z_]\w*|\d+)"
)


class SubscriptError(ValueError):
    """Raised when a subscript expression is not of the form ``index ± const``."""


def parse_affine(expr: str, indices: tuple[str, ...]) -> tuple[dict[str, int], int]:
    """Parse an affine subscript like ``"i - k"`` or ``"2*i + j - 1"``.

    Returns ``(coefficients_by_index, constant)``.  Used for input-
    stream accesses, whose access functions may mix several loop
    indices (the classic ``x[i - k]`` of convolution); self references
    stay restricted to ``index ± constant`` as Definition 2.1 requires.
    """
    coeffs: dict[str, int] = {}
    const = 0
    pos = 0
    expr = expr.strip()
    if not expr:
        raise SubscriptError("empty subscript expression")
    while pos < len(expr):
        m = _AFFINE_TERM_RE.match(expr, pos)
        if not m:
            raise SubscriptError(f"cannot parse subscript {expr!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = int(m.group("coef")) if m.group("coef") else 1
        body = m.group("body")
        if body.isdigit():
            if m.group("coef"):
                raise SubscriptError(f"constant with coefficient in {expr!r}")
            const += sign * int(body)
        else:
            if body not in indices:
                raise SubscriptError(
                    f"unknown loop index {body!r} in subscript {expr!r}; "
                    f"nest indices are {indices}"
                )
            coeffs[body] = coeffs.get(body, 0) + sign * coef
        pos = m.end()
    return coeffs, const


@dataclass(frozen=True)
class Access:
    """A subscripted array reference such as ``v[j1-1, j2, j3]``.

    Parameters
    ----------
    variable:
        Array name.
    subscripts:
        One expression string per dimension; each must be a loop index
        optionally offset by an integer constant (``"i"``, ``"i-1"``,
        ``"k+2"``).  General affine subscripts would leave the uniform
        dependence class, which the paper (and hence this front-end)
        excludes.
    variable_is_output:
        Marks the left-hand-side access.
    """

    variable: str
    subscripts: tuple[str, ...]
    variable_is_output: bool = False

    def parsed(self) -> list[tuple[str, int]]:
        """Each subscript as ``(index_name, constant_offset)``."""
        out = []
        for expr in self.subscripts:
            m = _TERM_RE.match(expr)
            if not m:
                raise SubscriptError(
                    f"subscript {expr!r} is not of the form 'index +/- constant'"
                )
            const = int(m.group("const") or 0)
            if m.group("sign") == "-":
                const = -const
            out.append((m.group("name"), const))
        return out


@dataclass(frozen=True)
class LoopNest:
    """An ``n``-deep rectangular loop nest ``0 <= index_i <= bounds_i``."""

    indices: tuple[str, ...]
    bounds: tuple[int, ...]
    name: str = field(default="loopnest")

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.bounds):
            raise ValueError("indices and bounds must have equal length")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"duplicate loop indices in {self.indices}")

    @property
    def n(self) -> int:
        return len(self.indices)

    def index_position(self, name: str) -> int:
        try:
            return self.indices.index(name)
        except ValueError:
            raise SubscriptError(
                f"unknown loop index {name!r}; nest indices are {self.indices}"
            ) from None

    # -- dependence extraction -------------------------------------------

    def self_dependence(self, output: Access, read: Access) -> tuple[int, ...]:
        """Dependence vector for a read of the output variable itself.

        With the statement ``v[f(j)] = ... v[g(j)] ...`` and both ``f``
        and ``g`` of the "index + constant" form, the value read at
        iteration ``j`` was written at the iteration ``j'`` with
        ``f(j') = g(j)``; uniformity gives ``d = j - j'`` constant.
        """
        if output.variable != read.variable:
            raise ValueError("self_dependence requires matching variable names")
        if len(output.subscripts) != len(read.subscripts):
            raise SubscriptError(
                f"rank mismatch on {output.variable!r}: "
                f"{len(output.subscripts)} vs {len(read.subscripts)}"
            )
        d = [0] * self.n
        seen: set[int] = set()
        for (w_idx, w_off), (r_idx, r_off) in zip(output.parsed(), read.parsed()):
            if w_idx != r_idx:
                raise SubscriptError(
                    f"non-uniform reference: subscript pairs ({w_idx!r}, {r_idx!r}) "
                    "use different loop indices"
                )
            pos = self.index_position(w_idx)
            if pos in seen:
                raise SubscriptError(f"loop index {w_idx!r} used twice in subscripts")
            seen.add(pos)
            d[pos] = w_off - r_off
        if all(x == 0 for x in d):
            raise DependenceError(
                f"read {read.variable}{list(read.subscripts)} is the same iteration "
                "as the write (zero dependence vector)"
            )
        return tuple(d)

    def input_stream_direction(self, read: Access) -> tuple[int, ...]:
        """Uniformization direction for an input-stream reference.

        The access matrix ``F`` maps the iteration vector to the
        subscript vector; any primitive kernel vector of ``F`` is a
        direction along which the same datum is reused, so the datum is
        pipelined along it.  Raises when the access is injective (no
        reuse: the reference needs no uniformization and induces no
        dependence) or when the reuse space is multidimensional and
        therefore ambiguous.
        """
        if not read.subscripts:
            raise SubscriptError(f"scalar reference {read.variable!r} has no subscripts")
        f = []
        for expr in read.subscripts:
            coeffs, _const = parse_affine(expr, self.indices)
            f.append([coeffs.get(name, 0) for name in self.indices])
        basis = kernel_basis(_full_rank_rows(f))
        if len(basis) == 0:
            raise DependenceError(
                f"access {read.variable}{list(read.subscripts)} is injective; "
                "it induces no reuse and no dependence vector"
            )
        if len(basis) > 1:
            raise DependenceError(
                f"access {read.variable}{list(read.subscripts)} has a "
                f"{len(basis)}-dimensional reuse space; pick a pipelining "
                "direction explicitly"
            )
        d = normalize_primitive(basis[0])
        return tuple(d)

    def uniformize(
        self,
        output: Access,
        reads: tuple[Access, ...],
        *,
        name: str | None = None,
    ) -> UniformDependenceAlgorithm:
        """Build the uniform dependence algorithm for one statement.

        Dependence vectors are emitted in the order of ``reads``:
        self-references via :meth:`self_dependence`, other variables via
        :meth:`input_stream_direction`.  The output access itself also
        contributes when its subscripts carry a constant offset (a
        write at ``v[j3-1]`` means iteration ``j`` produces the value
        consumed at ``j + offset``).

        Loop nests are untrusted front-door input, so the bounds pass
        the :mod:`repro.model.validate` caps (:class:`SpecError` on
        violation) before any dependence extraction runs.
        """
        from .validate import validate_mu

        validate_mu(self.bounds)
        columns: list[tuple[int, ...]] = []
        for read in reads:
            if read.variable == output.variable:
                columns.append(self.self_dependence(output, read))
            else:
                columns.append(self.input_stream_direction(read))
        out_offsets = [off for _idx, off in output.parsed()]
        if any(off != 0 for off in out_offsets):
            d = [0] * self.n
            for (idx, off) in output.parsed():
                d[self.index_position(idx)] = -off
            columns.append(tuple(d))
        if not columns:
            raise DependenceError("statement induces no dependence vectors")
        dep_matrix = tuple(
            tuple(col[r] for col in columns) for r in range(self.n)
        )
        return UniformDependenceAlgorithm(
            index_set=ConstantBoundedIndexSet(self.bounds),
            dependence_matrix=dep_matrix,
            name=name or self.name,
        )


def _full_rank_rows(f: list[list[int]]) -> list[list[int]]:
    """Select a maximal linearly independent subset of rows of ``f``.

    ``kernel_basis`` (HNF) requires full row rank; duplicated
    subscripts like ``a[i, i]`` produce dependent rows that carry no
    extra kernel information.
    """
    from ..intlin.matrix import rank as int_rank

    rows: list[list[int]] = []
    for row in f:
        candidate = rows + [row]
        if int_rank(candidate) == len(candidate):
            rows.append(row)
    return rows
