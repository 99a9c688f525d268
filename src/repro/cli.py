"""Command-line interface: ``python -m repro <command>``.

Four subcommands mirror the library's workflow:

* ``map``      — find the time-optimal conflict-free schedule for a
  named algorithm and a given space mapping (Problem 2.2);
* ``check``    — run the conflict-freedom checkers on an explicit
  mapping matrix (Problem 2.1);
* ``simulate`` — execute a mapping cycle-accurately and report
  conflicts / collisions / makespan, optionally rendering the
  space-time table;
* ``design``   — space-optimal / joint design-space exploration
  (Problems 6.1 / 6.2);
* ``explore``  — the same searches through the parallel, cached
  work-queue engine (:mod:`repro.dse`), with ``--jobs`` /
  ``--cache-dir`` / ``--no-cache``, fault-tolerance knobs
  (``--shard-timeout`` / ``--max-retries`` / ``--no-degrade``),
  crash-safe checkpoint/resume (``--checkpoint`` / ``--resume``),
  run budgets (``--max-seconds`` / ``--max-shards`` / ``--max-bits``),
  ``--strict`` and full telemetry;
* ``report``   — regenerate every experiment into a markdown report
  (see :mod:`repro.experiments`);
* ``obs``      — validate a JSONL trace or render its per-phase
  wall-time breakdown (see :mod:`repro.obs`).

Every subcommand accepts ``--trace FILE`` (export a structured JSONL
trace of the run) and ``--log-level LEVEL`` (wire the ``repro`` logger
hierarchy to stderr).  ``--mu`` takes one value or a comma-separated
tuple where the algorithm has several size parameters (e.g.
``--algorithm convolution --mu 8,32``); entries must be positive.

Examples
--------
::

    python -m repro map --algorithm matmul --mu 4 --space "1,1,-1"
    python -m repro check --rows "1,7,1,1;1,7,1,0" --mu 6,6,6,6
    python -m repro simulate --algorithm matmul --mu 4 \
        --space "1,1,-1" --schedule 1,4,1 --render
    python -m repro design --algorithm matmul --mu 4 --schedule 1,4,1
    python -m repro explore --algorithm matmul --mu 4 --space "1,1,-1" \
        --trace run.jsonl
    python -m repro explore --algorithm matmul --mu 4 --jobs 4  # joint
    python -m repro obs report run.jsonl
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence

from .model.algorithm import UniformDependenceAlgorithm
from .model.library import (
    bit_level_convolution,
    bit_level_lu_decomposition,
    bit_level_matrix_multiplication,
    convolution_1d,
    convolution_2d,
    lu_decomposition,
    matrix_multiplication,
    transitive_closure,
)

__all__ = ["main", "build_parser", "EXIT_INTERRUPTED", "EXIT_STRICT"]

#: ``explore`` exit code for a clean, resumable stop (signal or budget);
#: modeled on BSD's EX_TEMPFAIL — "try again later" is the right reading.
EXIT_INTERRUPTED = 75

#: ``explore --strict`` exit code when the run completed only through
#: degradation (pool restarts, exhausted retries, in-process fallback).
EXIT_STRICT = 3


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer vector {text!r}") from exc


def _parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    rows = tuple(_parse_vector(row) for row in text.split(";") if row.strip())
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise argparse.ArgumentTypeError(f"ragged matrix {text!r}")
    return rows


def _parse_mu(text: str) -> tuple[int, ...]:
    """``--mu``: a positive int or comma-separated tuple of positive ints.

    One parser for every subcommand — ``map``/``simulate``/... and
    ``check`` used to disagree (scalar int vs vector), and none rejected
    non-positive sizes until deep library code crashed on them.
    """
    values = _parse_vector(text)
    if not values:
        raise argparse.ArgumentTypeError(
            f"--mu needs at least one integer, got {text!r}"
        )
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"--mu entries must be positive integers, got {text!r}"
        )
    return values


def _parse_mu_range(text: str) -> tuple[int, int]:
    """``--mu-range LO:HI`` for the symbolic compiler."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"--mu-range takes LO:HI (e.g. 1:16), got {text!r}"
        )
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad --mu-range {text!r}: bounds must be integers"
        ) from exc
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(
            f"--mu-range needs 1 <= LO <= HI, got {text!r}"
        )
    return (lo, hi)


def _mu_arity(name: str, mu: tuple[int, ...], arities: tuple[int, ...]) -> None:
    if len(mu) not in arities:
        expected = " or ".join(str(a) for a in arities)
        raise SystemExit(
            f"--mu for {name!r} takes {expected} value(s), "
            f"got {len(mu)}: {','.join(str(m) for m in mu)}"
        )


def _make_algorithm(
    name: str, mu: tuple[int, ...], word_bits: int
) -> UniformDependenceAlgorithm:
    def one() -> int:
        _mu_arity(name, mu, (1,))
        return mu[0]

    def pair() -> tuple[int, int]:
        # (taps, samples); a single value sets both.
        _mu_arity(name, mu, (1, 2))
        return (mu[0], mu[0]) if len(mu) == 1 else (mu[0], mu[1])

    def quad() -> tuple[int, int, int, int]:
        _mu_arity(name, mu, (1, 4))
        if len(mu) == 4:
            return mu[0], mu[1], mu[2], mu[3]
        m = mu[0]
        return m, m, max(1, m // 2), max(1, m // 2)

    registry = {
        "matmul": lambda: matrix_multiplication(one()),
        "transitive-closure": lambda: transitive_closure(one()),
        "convolution": lambda: convolution_1d(*pair()),
        "convolution2d": lambda: convolution_2d(*quad()),
        "lu": lambda: lu_decomposition(one()),
        "bit-matmul": lambda: bit_level_matrix_multiplication(one(), word_bits),
        "bit-convolution": lambda: bit_level_convolution(*pair(), word_bits),
        "bit-lu": lambda: bit_level_lu_decomposition(one(), word_bits),
    }
    if name not in registry:
        raise SystemExit(
            f"unknown algorithm {name!r}; choose from {sorted(registry)}"
        )
    return registry[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Time-optimal, conflict-free mappings of uniform dependence "
            "algorithms onto lower dimensional processor arrays "
            "(Shang & Fortes, ICPP 1990)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="export a structured JSONL trace of this run "
                            "(inspect with 'repro obs report FILE')")
        p.add_argument("--log-level", default=None,
                       metavar="LEVEL",
                       help="stderr logging for the repro.* loggers "
                            "(DEBUG, INFO, WARNING, ...)")

    def add_algo_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algorithm", "-a", default="matmul",
                       help="algorithm name (matmul, transitive-closure, ...)")
        p.add_argument("--mu", type=_parse_mu, default=(4,),
                       help="problem size(s): one positive int, or a "
                            "comma-separated tuple for multi-parameter "
                            "algorithms (convolution: taps,samples; "
                            "convolution2d: 1 or 4 values)")
        p.add_argument("--word-bits", type=int, default=2,
                       help="word size for bit-level algorithms")
        add_obs_args(p)

    p_map = sub.add_parser("map", help="find the time-optimal conflict-free schedule")
    add_algo_args(p_map)
    p_map.add_argument("--space", "-s", type=_parse_matrix, required=True,
                       help='space mapping rows, e.g. "1,1,-1" or "1,0;0,1"')
    p_map.add_argument("--solver", default="auto",
                       choices=["auto", "ilp", "procedure-5.1"])

    p_check = sub.add_parser("check", help="conflict-freedom of an explicit T")
    p_check.add_argument("--rows", type=_parse_matrix, required=True,
                         help='T rows, e.g. "1,7,1,1;1,7,1,0" (last row = Pi)')
    p_check.add_argument("--mu", type=_parse_mu, required=True,
                         help="problem-size bounds, e.g. 6,6,6,6 (a single "
                              "value broadcasts to every dimension)")
    p_check.add_argument("--method", default="auto",
                         choices=["auto", "paper", "exact"])
    add_obs_args(p_check)

    p_sim = sub.add_parser("simulate", help="cycle-accurate execution audit")
    add_algo_args(p_sim)
    p_sim.add_argument("--space", "-s", type=_parse_matrix, required=True)
    p_sim.add_argument("--schedule", "-p", type=_parse_vector, required=True)
    p_sim.add_argument("--render", action="store_true",
                       help="print the space-time table (linear arrays)")

    p_design = sub.add_parser(
        "design", help="space-optimal design exploration (Problem 6.1)"
    )
    add_algo_args(p_design)
    p_design.add_argument("--schedule", "-p", type=_parse_vector, required=True)
    p_design.add_argument("--array-dim", type=int, default=1)
    p_design.add_argument("--magnitude", type=int, default=1)

    p_explore = sub.add_parser(
        "explore",
        help="parallel, cached design-space exploration (repro.dse)",
        description=(
            "Run the mapping searches through the repro.dse work-queue "
            "engine.  With --space: time-optimal schedule for that S "
            "(Problem 2.2).  With --schedule: space-optimal S for that "
            "Pi (Problem 6.1).  With neither: joint optimization over "
            "both (Problem 6.2).  Results are identical to the serial "
            "map/design commands for any --jobs value and cache state; "
            "the schedule search always runs in process."
        ),
    )
    add_algo_args(p_explore)
    p_explore.add_argument("--space", "-s", type=_parse_matrix,
                           help="fix S and search Pi (Problem 2.2)")
    p_explore.add_argument("--schedule", "-p", type=_parse_vector,
                           help="fix Pi and search S (Problem 6.1)")
    p_explore.add_argument("--jobs", "-j", type=int, default=None,
                           help="worker processes of a design search "
                                "(--schedule, or neither; default: CPU "
                                "count); a --space search runs in process")
    p_explore.add_argument("--cache-dir", default=None,
                           help="result cache directory "
                                "(default: ~/.cache/repro-dse)")
    p_explore.add_argument("--no-cache", action="store_true",
                           help="disable the persistent result cache")
    p_explore.add_argument("--shard-timeout", type=float, default=None,
                           help="seconds a shard batch may run before hung "
                                "workers are replaced (default: no timeout)")
    p_explore.add_argument("--max-retries", type=int, default=2,
                           help="re-submissions of a failed shard before "
                                "degrading (default: 2)")
    p_explore.add_argument("--no-degrade", action="store_true",
                           help="fail instead of falling back to in-process "
                                "execution when shard retries are exhausted")
    p_explore.add_argument("--method", default="auto",
                           choices=["auto", "paper", "exact"],
                           help="conflict-check mode for schedule search")
    p_explore.add_argument("--array-dim", type=int, default=1)
    p_explore.add_argument("--magnitude", type=int, default=1)
    p_explore.add_argument("--checkpoint", metavar="PATH", default=None,
                           help="write-ahead journal of the run (completed "
                                "design shards, the final answer); "
                                "SIGINT/SIGTERM and budget stops become "
                                f"clean exits (code {EXIT_INTERRUPTED})")
    p_explore.add_argument("--resume", action="store_true",
                           help="replay --checkpoint first and skip every "
                                "shard it already holds")
    p_explore.add_argument("--max-seconds", type=float, default=None,
                           help="wall-clock budget; exceeding it stops "
                                "cleanly and resumably")
    p_explore.add_argument("--max-shards", type=int, default=None,
                           help="budget on dispatched design shards "
                                "(resumed shards are free)")
    p_explore.add_argument("--max-bits", type=int, default=None,
                           help="cap on the schedule ring bound's bit "
                                "length (bounds exact-arithmetic growth)")
    p_explore.add_argument("--strict", action="store_true",
                           help=f"exit {EXIT_STRICT} when the run needed "
                                "fallbacks (shard retries, pool restarts, "
                                "or degraded execution) to complete")
    p_explore.add_argument("maintenance", nargs="?", choices=["cache"],
                           help="'cache': report the result cache "
                                "(counters, entry/corrupt/temp files, "
                                "disk usage) instead of searching")
    p_explore.add_argument("--sweep", action="store_true",
                           help="with 'cache': remove leftover writer "
                                "temp files (run only when no explore "
                                "is active)")
    p_explore.add_argument("--clear", action="store_true",
                           help="with 'cache': delete every cache entry, "
                                "temp file and quarantined file")

    p_serve = sub.add_parser(
        "serve",
        help="mapping-as-a-service job server (repro.serve)",
        description=(
            "Run the asyncio job-queue server over the exploration "
            "engine.  POST /jobs accepts validated job specs, identical "
            "requests deduplicate onto one job, every search is "
            "journaled so killing and restarting the server resumes "
            "in-flight jobs with results equal to uninterrupted runs. "
            "See docs/serving.md."
        ),
    )
    p_serve.add_argument("--state-dir", required=True,
                         help="directory for job records, per-job "
                              "checkpoint journals and event logs")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 picks an ephemeral port; "
                              "see --port-file)")
    p_serve.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the bound port here once listening")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent searches (worker threads)")
    p_serve.add_argument("--search-jobs", type=int, default=1,
                         help="worker processes per design (space/joint) "
                              "search; a spec's own 'jobs' field is capped "
                              "at this value")
    p_serve.add_argument("--cache-dir", default=None,
                         help="result cache directory "
                              "(default: ~/.cache/repro-dse)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the persistent result cache")
    p_serve.add_argument("--shard-timeout", type=float, default=None)
    p_serve.add_argument("--max-retries", type=int, default=2)
    p_serve.add_argument("--no-degrade", action="store_true")
    p_serve.add_argument("--max-active", type=int, default=None,
                         help="default per-tenant cap on in-flight jobs")
    p_serve.add_argument("--max-seconds", type=float, default=None,
                         help="default per-job wall-clock budget")
    p_serve.add_argument("--max-shards", type=int, default=None,
                         help="default per-job budget of dispatched "
                              "design shards")
    p_serve.add_argument("--max-bits", type=int, default=None,
                         help="default per-job ring-bound bit cap")
    p_serve.add_argument("--tenants-file", default=None, metavar="PATH",
                         help="JSON {tenant: {max_active, max_seconds, "
                              "max_shards, max_bits, rate, burst}} "
                              "overriding the default policy per tenant")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="server-wide bound on queued jobs; submits "
                              "past it are shed with 503 + Retry-After "
                              "(default: 256)")
    p_serve.add_argument("--job-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock deadline enforced by "
                              "the watchdog: the search is stopped "
                              "(resumable) and, if it ignores the stop, "
                              "abandoned so the worker slot is reclaimed "
                              "(default: none)")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         help="failures before containment trips: a "
                              "digest failing this many times is "
                              "quarantined (never re-executed), a tenant "
                              "with this many consecutive failures has "
                              "its breaker opened (default: 3)")
    p_serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                         metavar="SECONDS",
                         help="seconds an open breaker waits before "
                              "admitting one half-open probe "
                              "(default: 30)")
    p_serve.add_argument("--rate-limit", type=float, default=None,
                         metavar="PER_SECOND",
                         help="default per-tenant submit rate "
                              "(token bucket, tokens/second); over it "
                              "submits get 429 + Retry-After "
                              "(default: unlimited)")
    p_serve.add_argument("--rate-burst", type=int, default=None,
                         help="token-bucket depth for --rate-limit "
                              "(default: max(1, rate))")
    p_serve.add_argument("--no-hardening", action="store_true",
                         help="disable the failure-containment layer "
                              "entirely (queue bound, watchdog, breaker, "
                              "quarantine) — benchmark baselines only")
    add_obs_args(p_serve)

    p_report = sub.add_parser(
        "report", help="regenerate all experiments into a markdown report"
    )
    p_report.add_argument("--output", "-o", default="experiment_report.md")
    p_report.add_argument("--full", action="store_true",
                          help="full sweeps (slower)")
    add_obs_args(p_report)

    p_obs = sub.add_parser(
        "obs",
        help="inspect JSONL traces written with --trace",
        description=(
            "Work with structured traces (repro.obs).  'report' renders "
            "a per-phase wall-time breakdown; 'validate' checks every "
            "record against the trace schema and exits non-zero on any "
            "problem."
        ),
    )
    p_obs.add_argument("action", choices=["report", "validate"])
    p_obs.add_argument("trace_file", help="JSONL trace written with --trace")
    p_obs.add_argument("--top", type=int, default=None,
                       help="show only the N most expensive phases")
    add_obs_args(p_obs)

    p_sym = sub.add_parser(
        "symbolic",
        help="compile a parametric design: solve once in mu, serve any size",
        description=(
            "The symbolic design compiler (repro.symbolic).  'solve' runs "
            "the enumerative engine at a few sample sizes and certifies "
            "piecewise-polynomial optima over a whole mu range; 'eval' "
            "answers one concrete size in O(1) from the compiled artifact "
            "(recompiling or falling back to enumeration when needed)."
        ),
    )
    p_sym.add_argument("action", choices=["solve", "eval"])
    p_sym.add_argument("--algorithm", "-a", default="matmul",
                       help="algorithm family name (matmul, "
                            "transitive-closure, ...)")
    p_sym.add_argument("--word-bits", type=int, default=2,
                       help="word size for bit-level algorithm families")
    p_sym.add_argument("--task", default="schedule",
                       choices=["schedule", "space", "joint"],
                       help="which search to compile symbolically")
    p_sym.add_argument("--space", "-s", type=_parse_matrix, default=None,
                       help='space mapping rows (schedule task), e.g. "1,1,-1"')
    p_sym.add_argument("--pi", default=None,
                       help="schedule vector for the space task; entries "
                            'may be polynomials in mu, e.g. "1,2,mu-1"')
    p_sym.add_argument("--mu-range", type=_parse_mu_range, default=(1, 16),
                       metavar="LO:HI",
                       help="size range to certify (default 1:16)")
    p_sym.add_argument("--mu", type=int, default=None,
                       help="concrete size to answer (eval action)")
    p_sym.add_argument("--max-degree", type=int, default=2,
                       help="polynomial degree ceiling for the fit")
    p_sym.add_argument("--array-dim", type=int, default=1,
                       help="target array dimension (space/joint tasks)")
    p_sym.add_argument("--magnitude", type=int, default=1,
                       help="space-mapping entry bound (space/joint tasks)")
    p_sym.add_argument("--time-weight", type=float, default=1.0,
                       help="joint objective time weight")
    p_sym.add_argument("--space-weight", type=float, default=1.0,
                       help="joint objective space weight")
    p_sym.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="solution cache directory; eval reuses a "
                            "solve's compiled artifact through it")
    p_sym.add_argument("--json", action="store_true",
                       help="machine-readable output")
    add_obs_args(p_sym)
    return parser


def _require_width(algo: UniformDependenceAlgorithm, rows, what: str) -> None:
    if rows and len(rows[0]) != algo.n:
        raise SystemExit(
            f"{what} has {len(rows[0])} columns but {algo.name} has "
            f"n={algo.n} index dimensions"
        )


def _cmd_map(args: argparse.Namespace) -> int:
    from .core.pipeline import find_time_optimal_mapping

    algo = _make_algorithm(args.algorithm, args.mu, args.word_bits)
    _require_width(algo, args.space, "--space")
    result = find_time_optimal_mapping(algo, args.space, solver=args.solver)
    print(f"algorithm      : {algo.name}")
    print(f"space mapping  : {[list(r) for r in args.space]}")
    print(f"optimal Pi     : {list(result.schedule.pi)}")
    print(f"total time     : {result.total_time}")
    print(f"solver         : {result.solver}  {result.stats}")
    print(f"conflict gens  : {[list(g) for g in result.analysis.generators]}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .core.conditions import check_conflict_free
    from .core.conflict import analyze_conflicts
    from .core.mapping import MappingMatrix
    from .model.index_set import ConstantBoundedIndexSet

    t = MappingMatrix.from_rows(args.rows)
    mu = args.mu
    if len(mu) == 1:
        mu = mu * t.n  # scalar --mu broadcasts to every dimension
    if len(mu) != t.n:
        raise SystemExit(
            f"--mu has {len(mu)} entries, T has {t.n} columns "
            f"(give one value or {t.n})"
        )
    if t.rank() < t.k:
        raise SystemExit(
            f"T has rank {t.rank()} < {t.k} rows; Definition 2.2 "
            "condition 4 requires full row rank"
        )
    verdict = check_conflict_free(t, mu, method=args.method)
    print(f"T ({t.k} x {t.n}, co-rank {t.corank}) rank = {t.rank()}")
    print(f"checker        : {verdict.theorem} ({verdict.kind})")
    print(f"conflict-free  : {verdict.holds}")
    if not verdict.holds:
        analysis = analyze_conflicts(t, ConstantBoundedIndexSet(tuple(mu)))
        if analysis.witness:
            j1, j2 = analysis.witness
            print(f"witness        : tau{j1} == tau{j2} == {t.tau(j1)}")
    return 0 if verdict.holds else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.mapping import MappingMatrix
    from .systolic.simulator import simulate_mapping
    from .systolic.visualize import render_space_time

    algo = _make_algorithm(args.algorithm, args.mu, args.word_bits)
    _require_width(algo, args.space, "--space")
    _require_width(algo, (args.schedule,), "--schedule")
    t = MappingMatrix(space=args.space, schedule=args.schedule)
    report = simulate_mapping(algo, t)
    print(f"algorithm      : {algo.name}")
    print(f"makespan       : {report.makespan} cycles on "
          f"{report.num_processors} PEs")
    print(f"conflicts      : {len(report.conflicts)}")
    print(f"link collisions: {len(report.link_collisions)}")
    print(f"late operands  : {len(report.latency_violations)}")
    print(f"buffers (plan) : {report.plan.buffers}")
    print(f"verdict        : {'CLEAN' if report.ok else 'DEFECTIVE'}")
    if args.render:
        print(render_space_time(algo, t))
    return 0 if report.ok else 1


def _cmd_design(args: argparse.Namespace) -> int:
    from .core.space_optimize import solve_space_optimal

    algo = _make_algorithm(args.algorithm, args.mu, args.word_bits)
    result = solve_space_optimal(
        algo, args.schedule, array_dim=args.array_dim, magnitude=args.magnitude
    )
    print(f"algorithm      : {algo.name}   Pi = {list(args.schedule)}")
    print(f"candidates     : {result.candidates_examined} "
          f"(conflicted: {result.rejected_conflicts}, "
          f"unroutable: {result.rejected_routing})")
    if not result.found:
        print("no conflict-free design in the search bound")
        return 1
    for rank_idx, design in enumerate(result.ranking, start=1):
        c = design.cost
        print(f"  #{rank_idx}: S = {[list(r) for r in design.mapping.space]}  "
              f"PEs={c.processors} wire={c.wire_length} "
              f"buffers={c.buffers} t={c.total_time}  "
              f"objective={design.objective:g}")
    return 0


def _strict_violation(stats) -> str | None:
    """Why a ``--strict`` run should fail, or ``None`` when it is clean.

    The result is still exactly correct in these cases (degradation
    re-judges shards deterministically) — strict mode exists for users
    who treat needing the fallback machinery as an environment failure.
    """
    reasons = []
    if stats.degraded:
        reasons.append("degraded to in-process execution")
    if stats.pool_restarts:
        reasons.append(f"{stats.pool_restarts} pool restart(s)")
    if stats.shard_retries:
        reasons.append(f"{stats.shard_retries} shard retry(s)")
    return "; ".join(reasons) if reasons else None


def _finish_explore(result, args, code: int) -> int:
    if args.strict and code == 0:
        problem = _strict_violation(result.stats)
        if problem is not None:
            print(f"strict: completed only via fallbacks: {problem}",
                  file=sys.stderr)
            return EXIT_STRICT
    return code


def _cmd_explore_cache(args: argparse.Namespace) -> int:
    """``repro explore cache``: report and maintain the result cache."""
    from .dse.cache import ResultCache

    cache = ResultCache(args.cache_dir, enabled=not args.no_cache)
    if args.clear:
        removed = cache.clear()
        print(f"cleared        : {removed} entr{'y' if removed == 1 else 'ies'}")
    elif args.sweep:
        removed = cache.sweep_temp(max_age_seconds=0.0)
        print(f"swept          : {removed} temp file(s)")
    stats = cache.stats()
    print(f"cache dir      : {stats['dir']}")
    print(f"enabled        : {stats['enabled']}")
    print(f"schema         : v{stats['schema']}")
    print(f"entries        : {stats['entries']}")
    print(f"corrupt files  : {stats['corrupt_files']}")
    print(f"temp files     : {stats['temp_files']}")
    print(f"disk bytes     : {stats['disk_bytes']}")
    print(f"session        : {stats['hits']} hits / {stats['misses']} misses / "
          f"{stats['quarantined']} quarantined / {stats['swept']} swept on open")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .dse.cache import ResultCache
    from .dse.checkpoint import RunBudget, RunInterrupted
    from .dse.executor import resolve_jobs
    from .dse.resilience import ResiliencePolicy

    if args.maintenance == "cache":
        return _cmd_explore_cache(args)
    if args.sweep or args.clear:
        raise SystemExit("--sweep/--clear need the 'cache' subcommand: "
                         "repro explore cache [--sweep|--clear]")
    if args.space is not None and args.schedule is not None:
        raise SystemExit(
            "give --space (schedule search) OR --schedule (space search) "
            "OR neither (joint search), not both"
        )
    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint PATH")
    algo = _make_algorithm(args.algorithm, args.mu, args.word_bits)
    cache = ResultCache(args.cache_dir, enabled=not args.no_cache)
    try:
        policy = ResiliencePolicy(
            shard_timeout=args.shard_timeout,
            max_retries=args.max_retries,
            degrade=not args.no_degrade,
        )
        budget = None
        if (args.max_seconds is not None or args.max_shards is not None
                or args.max_bits is not None):
            budget = RunBudget(
                max_seconds=args.max_seconds,
                max_shards=args.max_shards,
                max_bits=args.max_bits,
            )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"algorithm      : {algo.name}")
    try:
        return _run_explore(args, algo, cache, policy, budget)
    except RunInterrupted as exc:
        print(f"interrupted: {exc.reason}", file=sys.stderr)
        if args.checkpoint is not None:
            print(
                f"resumable: rerun with --checkpoint {args.checkpoint} --resume",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED


def _run_explore(args, algo, cache, policy, budget) -> int:
    from .dse.executor import explore_joint, explore_schedule, explore_space
    from .dse.progress import format_stats

    engine_kwargs = dict(
        cache=cache, checkpoint=args.checkpoint, resume=args.resume,
        budget=budget,
    )

    if args.space is not None:
        result = explore_schedule(
            algo, args.space, method=args.method, **engine_kwargs
        )
        print(f"mode           : schedule search (Problem 2.2)")
        print(f"space mapping  : {[list(r) for r in args.space]}")
        if not result.found:
            print("no conflict-free schedule within the search bound")
            print(format_stats(result.stats))
            return _finish_explore(result, args, 1)
        print(f"optimal Pi     : {list(result.schedule.pi)}")
        print(f"total time     : {result.total_time}")
        print(format_stats(result.stats))
        return _finish_explore(result, args, 0)

    engine_kwargs.update(jobs=args.jobs, resilience=policy)
    if args.schedule is not None:
        result = explore_space(
            algo, args.schedule,
            array_dim=args.array_dim, magnitude=args.magnitude,
            **engine_kwargs,
        )
        print(f"mode           : space search (Problem 6.1)")
        print(f"schedule Pi    : {list(args.schedule)}")
    else:
        result = explore_joint(
            algo, array_dim=args.array_dim, magnitude=args.magnitude,
            **engine_kwargs,
        )
        print(f"mode           : joint search (Problem 6.2)")

    if not result.found:
        print("no conflict-free design within the search bound")
        print(format_stats(result.stats))
        return _finish_explore(result, args, 1)
    for rank_idx, design in enumerate(result.ranking, start=1):
        c = design.cost
        print(f"  #{rank_idx}: S = {[list(r) for r in design.mapping.space]}  "
              f"Pi = {list(design.mapping.schedule)}  "
              f"PEs={c.processors} wire={c.wire_length} t={c.total_time}  "
              f"objective={design.objective:g}")
    print(format_stats(result.stats))
    return _finish_explore(result, args, 0)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from .dse.resilience import ResiliencePolicy
    from .serve.hardening import HardeningPolicy
    from .serve.queue import TenantPolicy
    from .serve.server import ServerConfig, run_server

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.search_jobs is not None and args.search_jobs < 1:
        raise SystemExit(f"--search-jobs must be >= 1, got {args.search_jobs}")
    try:
        if args.no_hardening:
            hardening = HardeningPolicy.disabled()
        else:
            hardening = HardeningPolicy(
                max_queue=args.max_queue,
                job_deadline=args.job_deadline,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown=args.breaker_cooldown,
            )
        default_policy = TenantPolicy(
            max_active=args.max_active,
            max_seconds=args.max_seconds,
            max_shards=args.max_shards,
            max_bits=args.max_bits,
            rate=args.rate_limit,
            burst=args.rate_burst,
        )
        # Mint a budget (and a token bucket) once to surface bad
        # ceilings at startup, not at first job admission.
        default_policy.budget()
        if default_policy.rate is not None:
            from .serve.hardening import TokenBucket

            TokenBucket(default_policy.rate, default_policy.burst)
        tenants = {"default": default_policy}
        if args.tenants_file:
            with open(args.tenants_file, encoding="utf-8") as fh:
                overrides = _json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("tenants file must be a JSON object")
            for tenant, policy in overrides.items():
                tenants[tenant] = TenantPolicy.from_dict(policy)
                tenants[tenant].budget()
                if tenants[tenant].rate is not None:
                    from .serve.hardening import TokenBucket

                    TokenBucket(tenants[tenant].rate, tenants[tenant].burst)
        resilience = ResiliencePolicy(
            shard_timeout=args.shard_timeout,
            max_retries=args.max_retries,
            degrade=not args.no_degrade,
        )
    except (OSError, ValueError, TypeError, _json.JSONDecodeError) as exc:
        raise SystemExit(str(exc)) from exc
    config = ServerConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        workers=args.workers,
        search_jobs=args.search_jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        tenants=tenants,
        resilience=resilience,
        hardening=hardening,
    )
    return run_server(config)


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import write_markdown_report

    data = write_markdown_report(args.output, quick=not args.full)
    print(f"wrote {args.output} ({len(data)} experiments)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.report import report_file
    from .obs.schema import validate_trace_file

    if args.action == "validate":
        records, errors = validate_trace_file(args.trace_file)
        if errors:
            for problem in errors[:20]:
                print(problem)
            if len(errors) > 20:
                print(f"... and {len(errors) - 20} more")
            print(f"INVALID: {len(errors)} problem(s) in {len(records)} "
                  "valid record(s)")
            return 1
        print(f"OK: {len(records)} schema-valid record(s)")
        return 0
    try:
        print(report_file(args.trace_file, top=args.top))
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    return 0


_PI_EXPR = re.compile(r"[0-9mu+\-*() ]+\Z")


def _parse_pi_exprs(text: str, max_degree: int):
    """Parse ``--pi "1,2,mu-1"`` into exact :class:`RationalPoly` entries.

    Each comma-separated component is integer arithmetic in ``mu``; the
    expression is sampled at a few sizes and the polynomial recovered
    exactly (and cross-checked) by :func:`repro.symbolic.poly_from_samples`.
    """
    from .symbolic.poly import poly_from_samples

    polys = []
    for part in (p.strip() for p in text.split(",")):
        if not part or not _PI_EXPR.match(part):
            raise SystemExit(
                f"bad --pi component {part!r}: use integer arithmetic in "
                "'mu', e.g. \"1,2,mu-1\""
            )
        try:
            code = compile(part, "<pi>", "eval")

            def evaluate(m, _code=code):
                return eval(_code, {"__builtins__": {}}, {"mu": m})

            polys.append(poly_from_samples(evaluate, max_degree))
        except SyntaxError as exc:
            raise SystemExit(f"bad --pi component {part!r}: {exc}") from exc
        except ValueError as exc:
            raise SystemExit(f"bad --pi component {part!r}: {exc}") from exc
    if not polys:
        raise SystemExit("--pi needs at least one component")
    return tuple(polys)


def _cmd_symbolic(args: argparse.Namespace) -> int:
    from .dse.cache import ResultCache
    from .symbolic.compiler import (
        AlgorithmFamily,
        CompileError,
        compile_joint,
        compile_schedule,
        compile_space,
        joint_compile_params,
        load_or_compile,
        schedule_compile_params,
        space_compile_params,
    )

    name, word_bits = args.algorithm, args.word_bits

    def build(m: int) -> UniformDependenceAlgorithm:
        return _make_algorithm(name, (m,), word_bits)

    probe = build(max(2, args.mu_range[0]))  # fail fast on unknown names
    family = AlgorithmFamily(name=name, build=build)
    dep = probe.dependence_matrix.tolist()
    common = dict(mu_range=args.mu_range, max_degree=args.max_degree)

    if args.task == "schedule":
        if args.space is None:
            raise SystemExit("--task schedule needs --space")
        _require_width(probe, args.space, "--space")
        params = schedule_compile_params(dep, args.space, **common)
        compile_fn = lambda: compile_schedule(family, args.space, **common)
    elif args.task == "space":
        if args.pi is None:
            raise SystemExit("--task space needs --pi")
        pi = _parse_pi_exprs(args.pi, args.max_degree)
        if len(pi) != probe.n:
            raise SystemExit(
                f"--pi has {len(pi)} components but {probe.name} has "
                f"n={probe.n} index dimensions"
            )
        shape = dict(array_dim=args.array_dim, magnitude=args.magnitude)
        params = space_compile_params(dep, pi, **shape, **common)
        compile_fn = lambda: compile_space(family, pi, **shape, **common)
    else:
        weights = dict(
            array_dim=args.array_dim, magnitude=args.magnitude,
            time_weight=args.time_weight, space_weight=args.space_weight,
        )
        params = joint_compile_params(dep, **weights, **common)
        compile_fn = lambda: compile_joint(family, **weights, **common)

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    try:
        solution, compiled = load_or_compile(compile_fn, params, cache)
    except CompileError as exc:
        raise SystemExit(f"symbolic compile failed: {exc}") from exc

    if args.action == "solve":
        if args.json:
            print(json.dumps(solution.to_dict(), indent=2))
            return 0
        lo, hi = solution.mu_lo, solution.mu_hi
        origin = "compiled" if compiled else "cached"
        print(f"family         : {solution.family}  task={solution.task}")
        print(f"certified range: mu in [{lo}, {hi}]  ({origin}, "
              f"{solution.samples} enumerative samples, "
              f"{solution.compile_seconds:.2f}s)")
        for iv in solution.intervals:
            print(f"interval [{iv.lo}, {iv.hi}]"
                  + ("" if iv.found else "  (no design)"))
            if iv.pi is not None:
                print(f"  Pi         : [{', '.join(str(p) for p in iv.pi)}]")
            if iv.space is not None:
                for row in iv.space:
                    print(f"  S row      : [{', '.join(str(p) for p in row)}]")
            if iv.total_time is not None:
                print(f"  total time : {iv.total_time}")
            print(f"  verified at: {list(iv.verified)}")
        return 0

    # -- eval ------------------------------------------------------------
    if args.mu is None:
        raise SystemExit("action 'eval' needs --mu")
    if args.mu < 1:
        raise SystemExit(f"--mu must be >= 1, got {args.mu}")
    answer = solution.eval(args.mu)
    if answer is not None:
        payload = dict(answer.to_dict(), mode="symbolic")
    else:
        payload = _symbolic_eval_fallback(args, build(args.mu))
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"mu             : {args.mu}  ({payload['mode']})")
    if not payload["found"]:
        print("result         : no conflict-free design within bounds")
        return 1
    if "pi" in payload:
        print(f"optimal Pi     : {payload['pi']}")
    if "space" in payload:
        print(f"space mapping  : {payload['space']}")
    if "total_time" in payload:
        print(f"total time     : {payload['total_time']}")
    if "cost" in payload:
        print(f"cost           : {payload['cost']}")
    return 0


def _symbolic_eval_fallback(args: argparse.Namespace, algo) -> dict:
    """Enumerative answer for a size the certificate does not cover."""
    from .core.optimize import procedure_5_1
    from .core.space_optimize import solve_joint_optimal, solve_space_optimal

    if args.task == "schedule":
        result = procedure_5_1(algo, args.space)
        payload = {"task": "schedule", "mode": "enumerative", "mu": args.mu,
                   "found": result.found}
        if result.found:
            payload["pi"] = list(result.schedule.pi)
            payload["total_time"] = result.total_time
        return payload
    if args.task == "space":
        pi = [p.eval_int(args.mu)
              for p in _parse_pi_exprs(args.pi, args.max_degree)]
        result = solve_space_optimal(
            algo, pi, array_dim=args.array_dim, magnitude=args.magnitude
        )
    else:
        result = solve_joint_optimal(
            algo, array_dim=args.array_dim, magnitude=args.magnitude,
            time_weight=args.time_weight, space_weight=args.space_weight,
        )
    payload = {"task": args.task, "mode": "enumerative", "mu": args.mu,
               "found": result.found}
    if result.found:
        best = result.best
        payload["space"] = [list(r) for r in best.mapping.space]
        if args.task == "joint":
            payload["pi"] = list(best.mapping.schedule)
        cost = best.cost
        payload["cost"] = {
            "processors": cost.processors, "wire_length": cost.wire_length,
            "buffers": cost.buffers, "total_time": cost.total_time,
        }
        payload["objective"] = best.objective
        payload["total_time"] = cost.total_time
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "map": _cmd_map,
        "check": _cmd_check,
        "simulate": _cmd_simulate,
        "design": _cmd_design,
        "explore": _cmd_explore,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "obs": _cmd_obs,
        "symbolic": _cmd_symbolic,
    }
    handler = handlers[args.command]
    from .obs.tracer import configure_logging, trace_session

    try:
        configure_logging(getattr(args, "log_level", None))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    from .model.validate import SpecError

    try:
        trace_path = getattr(args, "trace", None)
        if trace_path:
            with trace_session(trace_path):
                code = handler(args)
            print(f"trace written: {trace_path}", file=sys.stderr)
            return code
        return handler(args)
    except SpecError as exc:
        # Untrusted-input validation (repro.model.validate): reject with
        # the typed diagnostic instead of a traceback.
        raise SystemExit(f"invalid specification: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
