"""Proposition 8.1: closed-form Hermite multiplier columns for ``T in Z^{3x5}``.

When a 5-dimensional algorithm (e.g. bit-level matrix multiplication)
is mapped onto a 2-dimensional array, ``T = [S; Pi]`` is ``3 x 5`` and
Theorem 4.7's conditions are phrased in the last two columns
``u_4, u_5`` of the multiplier ``U``.  Proposition 8.1 expresses those
columns as functions of ``Pi`` under the normalizations ``s_11 = 1``
and ``s_22 - s_21 * s_12 = 1``:

    ``u_4 = (h_34 / g_1) * w_3 - (h_33 / g_1) * w_4``
    ``u_5 = (p_1 h_35 / g_2) * w_3 + (q_1 h_35 / g_2) * w_4'
            - (g_1 / g_2) * w_5``

(the paper's 8.3a/8.3b with the ``w`` columns built from the
``c_1j, c_2j`` constants of 8.5), where ``h_3j`` are the linear
functions of ``Pi`` in 8.4, ``g_1 = gcd(h_33, h_34)`` with Bezout pair
``(p_1, q_1)`` and ``g_2 = gcd(g_1, h_35)``.

This module computes ``h``, ``c``, ``g`` and the two columns exactly
and *verifies* ``T u_4 = T u_5 = 0`` before returning — the original
proof lives in chapter 6 of [30] (unavailable), so the implementation
is validated constructively on every call and cross-checked against
the generic HNF kernel in the test-suite (same lattice spanned).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..intlin.gcdutil import extended_gcd
from .mapping import MappingMatrix

__all__ = ["Prop81Result", "prop81_columns", "prop81_applicable"]


@dataclass(frozen=True)
class Prop81Result:
    """The closed-form kernel columns and all intermediate quantities.

    Attributes mirror the paper's symbols: ``h`` is ``(h_33, h_34,
    h_35)``, ``c`` the six constants of 8.5, ``g`` the gcd pair
    ``(g_1, g_2)``, ``bezout`` the pairs ``(p_1, q_1)`` and
    ``(p_2, q_2)``.
    """

    u4: tuple[int, ...]
    u5: tuple[int, ...]
    h: tuple[int, int, int]
    c: dict[str, int]
    g: tuple[int, int]
    bezout: tuple[tuple[int, int], tuple[int, int]]


def prop81_applicable(space: Sequence[Sequence[int]]) -> bool:
    """Check the proposition's normalizations: ``s11 == 1`` and
    ``s22 - s21 s12 == 1``.

    Any full-rank ``S`` can be brought to this form by unimodular row
    operations (which do not change the mapping up to relabeling of
    processor coordinates); the check is left explicit rather than
    automatic so users see which ``S`` the formula was applied to.
    """
    s = [list(map(int, row)) for row in space]
    if len(s) != 2 or any(len(row) != 5 for row in s):
        return False
    return s[0][0] == 1 and s[1][1] - s[1][0] * s[0][1] == 1


def prop81_columns(
    space: Sequence[Sequence[int]], pi: Sequence[int]
) -> Prop81Result:
    """Evaluate Proposition 8.1 for a concrete ``S`` and ``Pi``.

    Raises :class:`ValueError` when the normalizations do not hold,
    when a gcd degenerates to zero (``Pi`` makes ``h_33 = h_34 = 0``,
    outside the proposition's premise), or when the constructed columns
    fail the defining property ``T u = 0`` (which would indicate the
    closed form does not apply to this corner case).
    """
    if not prop81_applicable(space):
        raise ValueError(
            "Proposition 8.1 requires s11 == 1 and s22 - s21*s12 == 1"
        )
    s = [list(map(int, row)) for row in space]
    p = [int(x) for x in pi]
    if len(p) != 5:
        raise ValueError("Pi must have 5 entries")
    s11, s12, s13, s14, s15 = s[0]
    s21, s22, s23, s24, s25 = s[1]
    pi1, pi2, pi3, pi4, pi5 = p

    # Equations 8.4 — the linear functions of Pi.
    h33 = -pi1 * (s12 * s21 * s13 - s12 * s23 + s13) + pi2 * (s21 * s13 - s23) + pi3
    h34 = -pi1 * (s12 * s21 * s14 - s12 * s24 + s14) + pi2 * (s21 * s14 - s24) + pi4
    h35 = -pi1 * (s12 * s21 * s15 - s12 * s25 + s15) + pi2 * (s21 * s15 - s25) + pi5

    # Equations 8.5 — the constants from S.
    c13 = -s12 * (s21 * s13 - s23) - s13
    c14 = -s12 * (s21 * s14 - s24) - s14
    c15 = -s12 * (s21 * s15 - s25) - s15
    c23 = s21 * s13 - s23
    c24 = s21 * s14 - s24
    c25 = s21 * s15 - s25

    g1, p1, q1 = extended_gcd(h33, h34)
    if g1 == 0:
        raise ValueError("Proposition 8.1 degenerates: h33 = h34 = 0 for this Pi")
    g2, p2, q2 = extended_gcd(g1, h35)

    # The w-columns annihilate S by construction of the c constants
    # (S w_j = 0 via the two normalizations) and satisfy Pi w_j = h_3j,
    # so any combination of them with h-orthogonal coefficients is a
    # kernel vector of the full T.
    w3 = [c13, c23, 1, 0, 0]
    w4 = [c14, c24, 0, 1, 0]
    w5 = [c15, c25, 0, 0, 1]

    # Equation 8.3a: coefficients (h34, -h33) / g1 — integral because g1
    # divides both h33 and h34.
    u4 = [(h34 * a - h33 * b) // g1 for a, b in zip(w3, w4)]

    # Equation 8.3b: coefficients (p1 h35, q1 h35, -g1) / g2 — integral
    # because g2 = gcd(g1, h35) divides h35 and g1.
    u5 = [
        (p1 * h35 * a + q1 * h35 * b - g1 * e) // g2
        for a, b, e in zip(w3, w4, w5)
    ]

    t = MappingMatrix(space=tuple(tuple(r) for r in s), schedule=tuple(p))
    for col, label in ((u4, "u4"), (u5, "u5")):
        if any(t.matrix.matvec(col)):
            raise ValueError(f"constructed {label} is not in the kernel of T")

    return Prop81Result(
        u4=tuple(u4),
        u5=tuple(u5),
        h=(h33, h34, h35),
        c={"c13": c13, "c14": c14, "c15": c15, "c23": c23, "c24": c24, "c25": c25},
        g=(g1, g2),
        bezout=((p1, q1), (p2, q2)),
    )
