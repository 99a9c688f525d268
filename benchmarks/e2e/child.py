"""One fresh search process: set up, answer a list of cold queries, report.

Run by ``run.py`` as ``python3 child.py '<json request>'`` with ``src/``
on ``PYTHONPATH``.  The request names the search, the problem, the
sizes in the order to answer them, whether to trace, and the parent's
``CLOCK_MONOTONIC`` reading taken just before the spawn.  The last line
of standard output is the JSON report.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from harness import build_algorithm


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    request = json.loads(sys.argv[1])
    import_start = _clock()
    from repro.core import optimize
    from repro.dse import executor

    import_s = _clock() - import_start
    tracer = None
    if request["trace"]:
        from layers import SEARCH_TARGETS, LayerTracer

        tracer = LayerTracer()
        tracer.install(SEARCH_TARGETS)

    search = request["search"]

    def answer(algorithm: str, mu: int, space) -> dict:
        algo = build_algorithm(algorithm, mu)
        start = _clock()
        if search == "p51":
            result = optimize.procedure_5_1(algo, space)
        elif search == "explore":
            result = executor.explore_schedule(algo, space, jobs=1, cache=None)
        else:
            result = executor.explore_joint(algo, jobs=1, cache=None)
        seconds = _clock() - start
        if search == "joint":
            from repro.serve.protocol import encode_result

            encoded = encode_result("joint", result)
            return {"seconds": seconds, "found": encoded["found"],
                    "ranking": encoded["ranking"]}
        return {
            "seconds": seconds,
            "found": result.found,
            "pi": list(result.schedule.pi) if result.found else None,
            "total_time": result.total_time if result.found else None,
        }

    space = [list(request["space"])] if request.get("space") else None
    for algorithm in request["warmup_algorithms"]:
        answer(algorithm, request["warmup_mu"], space)
    ready = _clock()

    queries = []
    for algorithm, mu in request["queries"]:
        if tracer is not None:
            tracer.phase = f"{search}:{algorithm}:{mu}"
        queries.append({"algorithm": algorithm, "mu": mu,
                        **answer(algorithm, mu, space)})
    report = {
        "setup_s": ready - request["spawned"],
        "import_s": import_s,
        "queries": queries,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if request.get("spans"):
            tracer.dump(request["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
