#!/usr/bin/env python3
"""Regenerate ``expected.json``: the reference answers of the benchmark.

Every answer comes from the exact scalar configuration of the search
(``method="exact"``, ``batch=False``, ``symmetry=False``,
``ring_bound=False``) -- the kernel-box oracle inside the plain
one-candidate-at-a-time scan -- so the benchmark never checks the engine
against itself.  Run from the repository root::

    python3 benchmarks/e2e/gen_expected.py
"""

from __future__ import annotations

import json
import sys

from harness import (
    EXPECTED,
    JOINT_ALGORITHMS,
    JOINT_SIZES,
    SRC,
    build_algorithm,
    serve_pool,
    spec_key,
)

EXACT = {"method": "exact", "batch": False, "symmetry": False, "ring_bound": False}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.core.optimize import procedure_5_1
    from repro.core.space_optimize import solve_joint_optimal
    from repro.serve.protocol import encode_result

    joint = {}
    for algorithm in JOINT_ALGORITHMS:
        for mu in JOINT_SIZES:
            result = solve_joint_optimal(
                build_algorithm(algorithm, mu), schedule_kwargs=EXACT
            )
            encoded = encode_result("joint", result)
            joint[f"{algorithm}/{mu}"] = {
                "found": encoded["found"], "ranking": encoded["ranking"],
            }
    serve = {}
    for algorithm, mu, space in serve_pool():
        result = procedure_5_1(
            build_algorithm(algorithm, mu), [list(space)], **EXACT
        )
        serve[spec_key(algorithm, mu, space)] = {
            "found": result.found,
            "pi": list(result.schedule.pi) if result.found else None,
            "total_time": result.total_time if result.found else None,
        }
    EXPECTED.write_text(
        json.dumps({"config": EXACT, "joint": joint, "serve": serve}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
