"""repro.serve — mapping-as-a-service over the DSE engine.

An asyncio job-queue server (stdlib only) that turns the package's
exploration entry points into a long-running service:

* :mod:`~repro.serve.protocol` — job specs, validation, content
  digests (identical to the engine's cache/journal keys), result
  encoding.
* :mod:`~repro.serve.store` — durable job records, per-job checkpoint
  journals and append-only event logs.
* :mod:`~repro.serve.queue` — admission (per-tenant caps and budgets),
  digest-based deduplication, the run queue.
* :mod:`~repro.serve.hardening` — failure containment: load shedding
  (bounded queue, token buckets), per-tenant circuit breakers,
  poison-job quarantine, the watchdog policy, chaos fault injection.
* :mod:`~repro.serve.bridge` — the worker-thread call into
  ``explore_*`` (always journaled, always resumable).
* :mod:`~repro.serve.server` — the HTTP front end and worker pool;
  ``repro serve`` on the CLI.
* :mod:`~repro.serve.client` — a thin blocking client.

Everything is lazy here: importing :mod:`repro` must not pay for the
server stack.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".protocol": ("JobSpec", "parse_job_spec", "encode_result", "error_body"),
    ".store": ("JobRecord", "JobStore"),
    ".queue": ("JobManager", "TenantPolicy", "TenantBusy"),
    ".hardening": (
        "HardeningPolicy", "TokenBucket", "CircuitBreaker", "QuarantineRegistry",
        "Rejected", "QueueFull", "RateLimited", "BreakerOpen",
    ),
    ".bridge": ("execute_job",),
    ".server": ("ServerConfig", "MappingServer", "run_server"),
    ".client": ("ServeClient", "ServeError"),
})
