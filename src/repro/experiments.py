"""Programmatic regeneration of every paper experiment.

The benchmark modules under ``benchmarks/`` print the paper's tables
during timed runs; this module exposes the same data as plain
functions returning structured rows, so users (and the test-suite) can
regenerate any figure or worked example without pytest:

>>> from repro.experiments import experiment_e3_matmul
>>> rows = experiment_e3_matmul(sweep=(2, 4))
>>> rows[1]["t_ours"]
25

``run_all()`` executes every experiment and
``write_markdown_report(path)`` renders them into a single markdown
document (the machine-generated companion to EXPERIMENTS.md).  The CLI
exposes this as ``python -m repro report``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from .core.baselines import matmul_baseline_ref23, transitive_closure_baseline_ref22
from .core.certificates import certify_optimality, verify_certificate
from .core.conflict import (
    conflict_vector_corank1,
    is_conflict_free_kernel_box,
    is_feasible_conflict_vector,
)
from .core.free_schedule import optimal_free_schedule
from .core.ilp_formulation import solve_corank1_optimal
from .core.mapping import MappingMatrix
from .core.optimize import procedure_5_1
from .core.space_optimize import solve_space_optimal
from .intlin.hermite import hnf
from .model.index_set import ConstantBoundedIndexSet
from .model.library import (
    bit_level_matrix_multiplication,
    matrix_multiplication,
    transitive_closure,
)
from .systolic.interconnect import plan_interconnection
from .systolic.simulator import simulate_mapping

__all__ = [
    "experiment_e1_conflict_vectors",
    "experiment_e2_hnf_4d",
    "experiment_e3_matmul",
    "experiment_e4_transitive_closure",
    "experiment_e5_array_structure",
    "experiment_e6_execution",
    "experiment_e8_bitlevel",
    "experiment_e11_space_design",
    "experiment_e12_conflict_penalty",
    "run_all",
    "write_markdown_report",
]


def experiment_e1_conflict_vectors(mu: tuple[int, int] = (4, 4)) -> dict[str, Any]:
    """Figure 1: classify the paper's two exemplar vectors."""
    j = ConstantBoundedIndexSet(mu)
    return {
        "mu": mu,
        "gamma_1_1_feasible": is_feasible_conflict_vector((1, 1), j.mu),
        "gamma_3_5_feasible": is_feasible_conflict_vector((3, 5), j.mu),
    }


def experiment_e2_hnf_4d() -> dict[str, Any]:
    """Examples 2.1/4.2: the Hermite data of Equation 2.8's mapping."""
    rows = [[1, 7, 1, 1], [1, 7, 1, 0]]
    res = hnf(rows)
    t = MappingMatrix.from_rows(rows)
    mu = (6, 6, 6, 6)
    return {
        "h": res.h,
        "generators": res.kernel_columns(),
        "conflict_free": is_conflict_free_kernel_box(t, mu),
        "gamma3_feasible": is_feasible_conflict_vector([1, 0, -1, 0], mu),
    }


def experiment_e3_matmul(sweep: Sequence[int] = (2, 3, 4, 6)) -> list[dict[str, Any]]:
    """Example 5.1: the optimal-vs-[23] comparison rows."""
    rows = []
    for mu in sweep:
        algo = matrix_multiplication(mu)
        res = solve_corank1_optimal(algo, [[1, 1, -1]])
        baseline = matmul_baseline_ref23(mu)
        rows.append(
            {
                "mu": mu,
                "pi_ours": list(res.schedule.pi),
                "t_ours": res.total_time,
                "pi_ref23": list(baseline.mapping.schedule),
                "t_ref23": baseline.total_time,
                "used_search_fallback": res.used_search_fallback,
            }
        )
    return rows


def experiment_e4_transitive_closure(
    sweep: Sequence[int] = (2, 3, 4, 6),
) -> list[dict[str, Any]]:
    """Example 5.2: the optimal-vs-[22] comparison rows."""
    rows = []
    for mu in sweep:
        algo = transitive_closure(mu)
        res = solve_corank1_optimal(algo, [[0, 0, 1]])
        baseline = transitive_closure_baseline_ref22(mu)
        rows.append(
            {
                "mu": mu,
                "pi_ours": list(res.schedule.pi),
                "t_ours": res.total_time,
                "t_formula": mu * (mu + 3) + 1,
                "t_ref22": baseline.total_time,
                "gamma": conflict_vector_corank1(res.mapping),
            }
        )
    return rows


def experiment_e5_array_structure(mu: int = 4) -> dict[str, Any]:
    """Figure 2: the link plan of the optimal matmul mapping."""
    algo = matrix_multiplication(mu)
    t = MappingMatrix(space=((1, 1, -1),), schedule=(1, mu, 1))
    plan = plan_interconnection(algo, t)
    return {
        "buffers": list(plan.buffers),
        "total_buffers": plan.total_buffers,
        "hops": [plan.hops(i) for i in range(3)],
        "statically_collision_free": plan.statically_collision_free(),
    }


def experiment_e6_execution(mu: int = 4) -> dict[str, Any]:
    """Figure 3: the simulated execution audit."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.integers(0, 10, (mu + 1, mu + 1))
    b = rng.integers(0, 10, (mu + 1, mu + 1))
    algo = matrix_multiplication(mu, a=a, b=b)
    t = MappingMatrix(space=((1, 1, -1),), schedule=(1, mu, 1))
    report = simulate_mapping(algo, t)
    from .systolic.semantics import verify_matmul

    ok, _sim, _ref = verify_matmul(report.values, a, b)
    return {
        "makespan": report.makespan,
        "expected_makespan": mu * (mu + 2) + 1,
        "conflicts": len(report.conflicts),
        "link_collisions": len(report.link_collisions),
        "processors": report.num_processors,
        "result_exact": ok,
    }


def experiment_e8_bitlevel(
    sweep: Sequence[tuple[int, int]] = ((1, 1), (2, 1)),
) -> list[dict[str, Any]]:
    """The 5-D bit-level matmul onto a 2-D array."""
    space = [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]
    rows = []
    for mu, word in sweep:
        algo = bit_level_matrix_multiplication(mu, word)
        res = procedure_5_1(algo, space)
        report = simulate_mapping(algo, res.mapping)
        rows.append(
            {
                "mu": mu,
                "word_bits": word,
                "pi": list(res.schedule.pi),
                "t": res.total_time,
                "processors": report.num_processors,
                "clean": report.ok,
            }
        )
    return rows


def experiment_e11_space_design(mu: int = 2) -> dict[str, Any]:
    """Problem 6.1: the design-space exploration headline."""
    algo = matrix_multiplication(mu)
    pi = procedure_5_1(algo, [[1, 1, -1]]).schedule.pi
    res = solve_space_optimal(algo, pi)
    paper = next(
        (d for d in res.ranking if d.mapping.space == ((1, 1, -1),)), None
    )
    return {
        "pi": list(pi),
        "best_space": [list(r) for r in res.best.mapping.space],
        "best_processors": res.best.cost.processors,
        "paper_processors": paper.cost.processors if paper else None,
    }


def experiment_e12_conflict_penalty(
    sweep: Sequence[int] = (2, 4, 6),
) -> list[dict[str, Any]]:
    """The conflict-penalty ablation plus optimality certificates."""
    rows = []
    for mu in sweep:
        algo = matrix_multiplication(mu)
        free_t = optimal_free_schedule(algo).total_time
        res = solve_corank1_optimal(algo, [[1, 1, -1]])
        cert = certify_optimality(algo, [[1, 1, -1]], res.schedule.pi)
        rows.append(
            {
                "mu": mu,
                "t_free": free_t,
                "t_array": res.total_time,
                "penalty": res.total_time - free_t,
                "certificate_refutations": len(cert.refutations),
                "certificate_valid": verify_certificate(algo, cert),
            }
        )
    return rows


def run_all(*, quick: bool = True) -> dict[str, Any]:
    """Execute every experiment; ``quick`` trims the sweeps."""
    sweep3 = (2, 3, 4) if quick else (2, 3, 4, 5, 6, 8)
    bit_sweep = ((1, 1),) if quick else ((1, 1), (2, 1), (1, 2), (2, 2))
    return {
        "E1": experiment_e1_conflict_vectors(),
        "E2": experiment_e2_hnf_4d(),
        "E3": experiment_e3_matmul(sweep3),
        "E4": experiment_e4_transitive_closure(sweep3),
        "E5": experiment_e5_array_structure(),
        "E6": experiment_e6_execution(),
        "E8": experiment_e8_bitlevel(bit_sweep),
        "E11": experiment_e11_space_design(),
        "E12": experiment_e12_conflict_penalty(sweep3[:2] + sweep3[-1:]),
    }


def write_markdown_report(path: str, *, quick: bool = True) -> dict[str, Any]:
    """Run everything and render a markdown report to ``path``."""
    data = run_all(quick=quick)
    lines = ["# Regenerated experiment report", ""]
    for key in sorted(data):
        lines.append(f"## {key}")
        lines.append("")
        value = data[key]
        if isinstance(value, list):
            if value:
                headers = list(value[0].keys())
                lines.append("| " + " | ".join(headers) + " |")
                lines.append("|" + "---|" * len(headers))
                for row in value:
                    lines.append(
                        "| " + " | ".join(str(row[h]) for h in headers) + " |"
                    )
        else:
            for k, v in value.items():
                lines.append(f"- **{k}**: {v}")
        lines.append("")
    text = "\n".join(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return data
