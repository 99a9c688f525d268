"""The design searches' shard loop, and its fault tolerance.

The executor's contract — a sharded search returns a result *equal* to
the serial one — makes recovery unusually simple: every shard is a pure
function of its payload, so a shard lost to a crashed worker, a hung
conflict check, or a corrupted result can always be re-judged
deterministically.  This module supplies the machinery:

* :class:`ResiliencePolicy` — the knobs: per-shard timeout, bounded
  retries, and whether the engine may finish the run in process once a
  shard has used up its retries.
* :class:`ResilientShardRunner` — the one shard loop.  Every shard,
  whether it runs on the process pool or in process, is looked up in
  the run's checkpoint journal, run, journaled, announced as a
  ``shard_done`` event and followed by a stop poll.  On the pool it
  detects worker death (``BrokenProcessPool``), hung shards (per-batch
  deadline) and malformed outputs; failed shards are retried on a
  replacement pool and, once retries are exhausted, the rest of the run
  is judged in process — a shard is **never dropped**, which is what
  preserves result equality.
* Deterministic fault injection — ``$REPRO_DSE_FAULT`` makes a chosen
  shard crash, hang, or return garbage *inside the worker process*, so
  the recovery paths are exercised for real in tests rather than
  mocked.

Failure telemetry (``shard_retries``, ``shard_timeouts``,
``pool_restarts``, ``degraded``) is folded into the search's
:class:`~repro.dse.progress.SearchStats`; like all telemetry it is
excluded from result equality.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from collections.abc import Callable
# BrokenExecutor is BrokenProcessPool's base: catching it needs no
# process-pool import, which waits for the first pool (_ensure_pool).
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.tracer import Tracer, get_tracer, set_tracer
from .checkpoint import RunControl

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

logger = logging.getLogger("repro.dse.resilience")

__all__ = [
    "ResiliencePolicy",
    "ResilienceError",
    "ResilientShardRunner",
    "FAULT_ENV_VAR",
    "FAULT_HANG_ENV_VAR",
    "SLOW_ENV_VAR",
    "maybe_slow",
]

# -- fault injection --------------------------------------------------------

#: ``mode:shard_index[:always]`` with mode in {crash, hang, corrupt}.
#: Without ``always`` the fault fires exactly once per search: on the
#: first attempt of the chosen shard in the runner's first batch.
FAULT_ENV_VAR = "REPRO_DSE_FAULT"

#: How long a ``hang`` fault sleeps, in seconds (default 30; the parent
#: terminates the hung worker when the shard deadline passes, so the
#: sleep only bounds cleanup if termination itself fails).
FAULT_HANG_ENV_VAR = "REPRO_DSE_FAULT_HANG"

#: Seconds every shard sleeps before doing real work (default: none).
#: A test/CI knob like ``$REPRO_DSE_FAULT``: it stretches a search that
#: would finish in milliseconds into one long enough to deliver a
#: signal to, so the checkpoint/shutdown paths are exercised for real.
#: Honored on both the pool and the in-process execution paths.
SLOW_ENV_VAR = "REPRO_DSE_SLOW"

_FAULT_MODES = ("crash", "hang", "corrupt")


def maybe_slow() -> None:
    """Sleep ``$REPRO_DSE_SLOW`` seconds, if set (shard workers call
    this first thing, whichever process they run in)."""
    raw = os.environ.get(SLOW_ENV_VAR)
    if raw:
        time.sleep(float(raw))


def _parse_fault_spec(raw: str | None) -> tuple[str, int, bool] | None:
    """``(mode, shard_index, always)`` from a ``$REPRO_DSE_FAULT`` value."""
    if not raw:
        return None
    parts = raw.split(":")
    if len(parts) not in (2, 3) or parts[0] not in _FAULT_MODES:
        raise ValueError(
            f"bad {FAULT_ENV_VAR} value {raw!r}; expected "
            f"'mode:shard_index[:always]' with mode in {_FAULT_MODES}"
        )
    always = len(parts) == 3 and parts[2] == "always"
    return parts[0], int(parts[1]), always


def _maybe_inject_fault(shard_index: int, attempt: int, batch: int) -> bool:
    """Fire the configured fault for this shard, if any.

    Runs inside the worker process.  Returns ``True`` when the caller
    should return a corrupted output (the ``corrupt`` mode); ``crash``
    never returns and ``hang`` returns after its sleep.
    """
    spec = _parse_fault_spec(os.environ.get(FAULT_ENV_VAR))
    if spec is None:
        return False
    mode, target, always = spec
    if shard_index != target:
        return False
    if not always and (attempt > 0 or batch > 0):
        return False
    if mode == "crash":
        os._exit(17)
    if mode == "hang":
        time.sleep(float(os.environ.get(FAULT_HANG_ENV_VAR, "30")))
        return False
    return True  # corrupt


def _init_worker() -> None:
    """Pool worker start-up: drop the signal plumbing a fork inherits.

    A forked worker inherits its parent's ``SIGTERM`` handler and wakeup
    fd.  Under :mod:`repro.serve` the wakeup fd is the asyncio loop's
    self-pipe, so terminating a hung or orphaned worker would wake the
    server as if the *server* had been sent ``SIGTERM`` (it drains and
    exits), and the worker itself would survive the signal.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _call_shard(worker: Callable[[dict], dict], payload: dict) -> object:
    """Pool-side shard entry point: fault hook, then the real worker.

    The runner annotates payloads with ``_shard_index`` / ``_attempt`` /
    ``_batch``; they are stripped before the worker sees the payload.
    The worker runs under a fresh worker-local tracer, enabled when the
    parent traces (``payload["trace"]``); its records travel back in
    the output as ``spans`` for the parent to absorb.
    """
    shard_index = payload.pop("_shard_index", -1)
    attempt = payload.pop("_attempt", 0)
    batch = payload.pop("_batch", 0)
    if _maybe_inject_fault(shard_index, attempt, batch):
        return {"corrupted": True}  # fails _output_ok; retried by parent
    tracer = Tracer(enabled=bool(payload.get("trace")))
    previous = set_tracer(tracer)
    try:
        out = worker(payload)
    finally:
        set_tracer(previous)
    if tracer.enabled:
        out["spans"] = tracer.records()
    return out


def _submit(
    pool: ProcessPoolExecutor, worker: Callable[[dict], dict], payload: dict
) -> Future:
    """Submit one shard; a pool already broken by an earlier shard of
    the batch yields a failed future, retried like any lost shard."""
    try:
        return pool.submit(_call_shard, worker, payload)
    except BrokenExecutor as exc:
        fut: Future = Future()
        fut.set_exception(exc)
        return fut


def _output_ok(out: object) -> bool:
    """Structural sanity of a shard output (guards corrupted transport)."""
    if not isinstance(out, dict):
        return False
    if not isinstance(out.get("wall_time"), (int, float)):
        return False
    return isinstance(out.get("evaluated"), list)


# -- policy -----------------------------------------------------------------

#: Seconds slept before the first retry round; each later round doubles it.
BACKOFF_SECONDS = 0.05


def _backoff_delay(retry_round: int) -> float:
    """Sleep before retry round ``retry_round`` (1-based)."""
    return BACKOFF_SECONDS * 2 ** (retry_round - 1)


class ResilienceError(RuntimeError):
    """A shard could not be completed under the active policy."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """Fault-tolerance knobs for the process-pool path.

    Attributes
    ----------
    shard_timeout:
        Seconds a batch of shards may run before unfinished shards are
        declared hung and their pool replaced (``None``: wait forever).
    max_retries:
        How many times a failed shard is re-submitted to a pool.  Once
        a shard has failed ``max_retries + 1`` times, the rest of the
        run is judged in process.
    degrade:
        Whether that in-process fallback is allowed (the default).  With
        ``degrade=False`` the search raises :class:`ResilienceError`
        instead — the result is still never silently wrong, just absent.
    """

    shard_timeout: float | None = None
    max_retries: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive or None, got {self.shard_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


# -- runner -----------------------------------------------------------------


class ResilientShardRunner:
    """Runs shard payloads in process or on a supervised process pool.

    The pool is created lazily on the first pool batch.  Every failure
    mode ends in one of two states: the shard's result was recomputed
    exactly, or (with ``degrade=False``) :class:`ResilienceError` was
    raised — results are never dropped or reordered, preserving the
    engine's serial-equality contract.

    Failure telemetry accumulates on the runner; callers fold it into
    their :class:`~repro.dse.progress.SearchStats` via
    :meth:`apply_telemetry`.
    """

    def __init__(
        self,
        jobs: int,
        *,
        in_process: bool = False,
        policy: ResiliencePolicy | None = None,
    ) -> None:
        self.jobs = jobs
        self.in_process = in_process or jobs <= 1
        self.policy = policy or ResiliencePolicy()
        self._pool: ProcessPoolExecutor | None = None
        self._batch = 0
        self.shard_retries = 0
        self.shard_timeouts = 0
        self.pool_restarts = 0
        self.degraded = False

    # -- pool lifecycle --------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_init_worker
            )
        return self._pool

    def _abandon_pool(self) -> None:
        """Discard the pool, terminating workers (they may be hung)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Read the workers first: shutdown() forgets them.
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown never raises today
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ResilientShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -------------------------------------------------------

    def run(
        self,
        worker: Callable[[dict], dict],
        payloads: list[dict],
        control: RunControl | None = None,
        *,
        kind: str = "shard",
        encode: Callable[[dict], dict] = dict,
        decode: Callable[[dict], dict] = dict,
    ) -> list[dict]:
        """Run every payload; returns outputs in payload order.

        With a run ``control``, every shard takes the same steps,
        whichever process runs it: a shard the journal already holds
        (keyed by ``kind``, its index and its ``payload["span"]``) is
        replayed through ``decode`` instead of run; a fresh shard runs,
        is journaled through ``encode``, announced as a ``shard_done``
        event, and followed by ``control.poll()``, which raises
        (``RunInterrupted``) to stop the run.  A stop mid-batch cancels
        pending work and terminates in-flight workers; completed shards
        are journaled by then.

        Shards run in process when the runner is (``jobs <= 1``, a live
        callback, a single pending shard, or after degradation), and on
        the pool otherwise.
        """
        outs: list[dict | None] = [None] * len(payloads)
        keys: list[str] = []
        if control is not None and control.journal is not None:
            keys = [
                control.shard_key(kind, 0, i, payload["span"])
                for i, payload in enumerate(payloads)
            ]
            for i, key in enumerate(keys):
                recorded = control.lookup(key)
                if recorded is not None:
                    outs[i] = decode(recorded)
                    control.shards_resumed += 1
        todo = [i for i, out in enumerate(outs) if out is None]
        done = 0

        def finish(i: int, out: dict) -> None:
            nonlocal done
            outs[i] = out
            if control is None:
                return
            if keys:
                control.record_shard(keys[i], encode(out))
            done += 1
            control.emit(
                "shard_done", kind=kind, ring=0, completed=done,
                total=len(todo), wall_time=out["wall_time"],
            )
            control.poll()

        if control is not None:
            if len(todo) < len(payloads):
                control.emit(
                    "shards_resumed", kind=kind, ring=0,
                    count=len(payloads) - len(todo), total=len(payloads),
                )
            control.before_dispatch(len(todo))
        local = todo
        if not self.in_process and len(todo) > 1:
            local = self._run_pool(
                worker, payloads, todo, finish,
                control.poll if control is not None else lambda: None,
            )
        for i in local:
            finish(i, worker(payloads[i]))
        return outs  # type: ignore[return-value]  # every slot is filled

    def _run_pool(
        self,
        worker: Callable[[dict], dict],
        payloads: list[dict],
        pending: list[int],
        finish: Callable[[int, dict], None],
        poll: Callable[[], None],
    ) -> list[int]:
        """Run ``pending`` shards on the pool, retrying failures; returns
        the shards left to run in process (empty unless degraded)."""
        attempts = [0] * len(payloads)
        retry_round = 0
        while pending:
            if retry_round:
                poll()
                time.sleep(_backoff_delay(retry_round))
            failed = self._run_batch(worker, payloads, pending, attempts, finish)
            for i in failed:
                attempts[i] += 1
                if attempts[i] > self.policy.max_retries:
                    self._degrade(i)
                    return failed
            for i in failed:
                self.shard_retries += 1
                get_tracer().event("dse.shard_retry", shard=i, attempt=attempts[i])
                logger.warning(
                    "shard %d failed; retrying (attempt %d/%d)",
                    i, attempts[i], self.policy.max_retries,
                )
            pending = failed
            retry_round += 1
        return []

    def _degrade(self, i: int) -> None:
        """Shard ``i`` used up its retries: judge the rest of the run in
        process (or raise)."""
        if not self.policy.degrade:
            raise ResilienceError(
                f"shard {i} failed {self.policy.max_retries + 1} attempts "
                "and degradation is disabled"
            )
        self.degraded = self.in_process = True
        get_tracer().event("dse.degraded", shard=i)
        logger.warning(
            "shard %d failed %d attempts; judging the rest of the search "
            "in process", i, self.policy.max_retries + 1,
        )

    def _run_batch(
        self,
        worker: Callable[[dict], dict],
        payloads: list[dict],
        pending: list[int],
        attempts: list[int],
        finish: Callable[[int, dict], None],
    ) -> list[int]:
        """Submit ``pending`` shards once; returns the indices that failed."""
        pool = self._ensure_pool()
        batch = self._batch
        self._batch += 1
        submitted = [
            (
                i,
                _submit(
                    pool,
                    worker,
                    dict(payloads[i], _shard_index=i, _attempt=attempts[i], _batch=batch),
                ),
            )
            for i in pending
        ]
        deadline = (
            None
            if self.policy.shard_timeout is None
            else time.monotonic() + self.policy.shard_timeout
        )
        try:
            failed, pool_dead = self._collect_batch(submitted, deadline, finish)
        except BaseException:
            # A stop request (or a journal write failing) mid-batch:
            # cancel what has not started, terminate what has — the
            # run is over, in-flight work would be thrown away anyway.
            for _i, fut in submitted:
                fut.cancel()
            self._abandon_pool()
            raise
        if pool_dead:
            self._abandon_pool()
            self.pool_restarts += 1
            get_tracer().event("dse.pool_restart", restarts=self.pool_restarts)
            logger.warning(
                "process pool abandoned and replaced (restart %d)",
                self.pool_restarts,
            )
        return failed

    def _collect_batch(
        self,
        submitted: list,
        deadline: float | None,
        finish: Callable[[int, dict], None],
    ) -> tuple[list[int], bool]:
        """Await each submitted future, finishing good outputs; returns
        the failed shards and whether the pool must be replaced."""
        failed: list[int] = []
        pool_dead = False
        for i, fut in submitted:
            try:
                if deadline is None:
                    out = fut.result()
                else:
                    out = fut.result(timeout=max(0.0, deadline - time.monotonic()))
            except _FuturesTimeout:
                self.shard_timeouts += 1
                get_tracer().event(
                    "dse.shard_timeout",
                    shard=i,
                    timeout=self.policy.shard_timeout,
                )
                logger.warning(
                    "shard %d exceeded the %gs deadline; worker presumed hung",
                    i, self.policy.shard_timeout,
                )
                failed.append(i)
                pool_dead = True  # the worker may be hung; reclaim it
                continue
            except BrokenExecutor:
                failed.append(i)
                pool_dead = True
                continue
            except Exception:
                failed.append(i)  # worker raised; pool itself survives
                continue
            if _output_ok(out):
                get_tracer().absorb(out.pop("spans", None), shard=i)
                finish(i, out)
            else:
                failed.append(i)
        return failed, pool_dead

    # -- telemetry -------------------------------------------------------

    def apply_telemetry(self, stats) -> None:
        """Fold this runner's failure counters into ``stats``."""
        stats.shard_retries += self.shard_retries
        stats.shard_timeouts += self.shard_timeouts
        stats.pool_restarts += self.pool_restarts
        stats.degraded = stats.degraded or self.degraded
