"""Integer linear programming substrate.

The paper formulates time-optimal conflict-free mapping as integer
programs (Section 5) and solves the worked examples by the appendix's
extreme-point technique.  This package supplies both solution paths:

* :func:`solve_ilp` — exact branch-and-bound over HiGHS LP relaxations;
* :func:`enumerate_vertices` / :func:`best_integral_vertex` — exact
  rational extreme-point enumeration (the appendix, mechanized).
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".branch_bound": ("solve_ilp", "solve_lp_relaxation"),
    ".problem": ("LinearProgram", "LPSolution"),
    ".vertex_enum": ("all_vertices_integral", "best_integral_vertex", "enumerate_vertices"),
})
