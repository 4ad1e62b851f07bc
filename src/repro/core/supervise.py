"""One supervised executor for one-shot worker processes.

Both fan-outs of the reproduction run through this module: experiments
(:mod:`repro.experiments.supervisor`) and shard blocks
(:mod:`repro.core.mapreduce`). A task kind subclasses :class:`Executor`
and supplies only what is particular to it — the child entry point,
what the child's one message means, and any policy of its own. The
process mechanics live here once:

* every attempt runs in its own one-shot worker with a result pipe, so
  a crash or hang costs exactly one attempt and there is no shared pool
  to break;
* the parent waits on result pipes and process sentinels together, so a
  result or a death is seen at once, and no wait is unbounded;
* an attempt past its deadline is killed (SIGTERM, then SIGKILL);
* transient failures are requeued after a *seeded* backoff
  (:func:`backoff_delay`), so a faulted run's retry schedule is
  reproducible;
* every live worker is reaped when the run ends, however it ends.

The clock here only decides *when* work runs. What the work produces is
fixed by its inputs, so scheduling never reaches rendered output.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from multiprocessing.connection import wait

from .shard import VERIFY_MODES

__all__ = ["Executor", "Policy", "backoff_delay"]

#: Supervision loop granularity: the longest the parent waits before it
#: looks at deadlines again.
POLL_INTERVAL = 0.05

#: How long a stopped worker gets to exit after SIGTERM, and again
#: after SIGKILL.
_EXIT_WAIT_S = 2.0


def _now() -> float:
    """Scheduling clock for timeouts, deadlines and backoff.

    Never feeds results — REP501's determinism contract is about
    outputs, and the executor only decides *when* to run work whose
    content is fixed by its inputs.
    """
    return time.monotonic()  # reprolint: disable=REP501


def backoff_delay(
    seed: int,
    token: str,
    attempt: int,
    *,
    base: float = 0.25,
    cap: float = 30.0,
) -> float:
    """Deterministic capped exponential backoff with seeded jitter.

    A pure function of ``(seed, token, attempt)``: the raw delay
    doubles per failed attempt up to ``cap``, then jitter drawn from a
    SHA-256 of the inputs spreads it over ``[raw/2, raw)`` so
    concurrent retries decorrelate without any wall-clock RNG. The
    ``token`` names the retried unit (an experiment id, a shard-block
    index) so distinct units decorrelate under one seed.
    """
    raw = min(cap, base * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.sha256(
        f"{seed}:{token}:{attempt}".encode("utf-8")
    ).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
    return raw * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class Policy:
    """Fault-tolerance policy of one supervised run.

    Holds what callers choose. The remaining knobs of each task kind
    (backoff, circuit breaker, heal budget, straggler threshold) are
    constants of the module that owns the kind.
    """

    #: Worker processes running at once.
    jobs: int = 1
    #: Per-attempt wall-clock budget; a worker past it is killed and the
    #: attempt classified ``timeout``. ``None`` disables.
    timeout: float | None = None
    #: Extra attempts per task for transient failures.
    retries: int = 0
    #: Overall run budget for experiments: live workers are killed at it
    #: and unstarted work is cancelled. ``None`` disables.
    deadline: float | None = None
    #: Cancel the rest of an experiment run on its first permanent
    #: failure.
    fail_fast: bool = False
    #: Digest-verification mode block workers open shards with.
    verify: str = "lazy"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        for name in ("timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {self.verify!r}; available: "
                f"{VERIFY_MODES}"
            )


@dataclass
class _Pending:
    """An attempt waiting for a worker slot (possibly in backoff)."""

    key: Hashable
    attempt: int
    eligible_at: float  # monotonic time before which it must wait


@dataclass(eq=False)
class _Running:
    """Book-keeping for one live worker attempt."""

    key: Hashable
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: object  # parent end of the result pipe
    started: float
    kill_at: float | None  # monotonic deadline, None = no timeout


def _terminate(worker: _Running) -> None:
    """Stop a worker if it still runs (SIGTERM, then SIGKILL) and reap it."""
    process = worker.process
    if process.is_alive():
        process.terminate()
        process.join(_EXIT_WAIT_S)
        if process.is_alive():
            process.kill()
    process.join(_EXIT_WAIT_S)
    try:
        worker.conn.close()  # type: ignore[attr-defined]
    except OSError:
        pass


class Executor:
    """Run one task kind's attempts in supervised one-shot workers.

    ``target(conn, *self.args(key, attempt))`` runs in the worker and
    sends exactly one message on ``conn``. A subclass implements
    :meth:`args`, :meth:`on_message` (the message arrived) and
    :meth:`on_failure` (the worker died or hit its deadline), and may
    override :meth:`stop` (checked before every scheduling round) and
    :meth:`speculate` (extra launches once queued work is placed). Keys
    identify tasks; several attempts of one key may run at once. A kind
    reads the clock only through :meth:`past_deadline` and
    :meth:`elapsed`.
    """

    def __init__(
        self,
        target: Callable[..., None],
        *,
        method: str,
        jobs: int,
        timeout: float | None,
        retries: int,
        seed: int,
        backoff: tuple[float, float],
        deadline: float | None = None,
    ) -> None:
        self._ctx = multiprocessing.get_context(method)
        self._target = target
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        #: Monotonic end of the run; every attempt is killed by then.
        self.deadline = None if deadline is None else _now() + deadline
        self.seed = seed
        self.backoff = backoff
        self.pending: list[_Pending] = []
        self.running: list[_Running] = []

    # -- what a task kind supplies ------------------------------------------

    def args(self, key: Hashable, attempt: int) -> tuple:
        """Worker arguments after the pipe end, for one attempt."""
        raise NotImplementedError

    def on_message(self, worker: _Running, message: object) -> None:
        """Handle the one message a worker sent (it is already reaped)."""
        raise NotImplementedError

    def on_failure(self, worker: _Running, kind: str) -> None:
        """Handle an attempt that ended as ``crash`` or ``timeout``."""
        raise NotImplementedError

    def stop(self) -> bool:
        """End the run now (the kind settles what is left); default no."""
        return False

    def speculate(self) -> None:
        """Launch extra attempts into free slots; default none."""

    # -- mechanics -----------------------------------------------------------

    def past_deadline(self) -> bool:
        """Whether the run deadline (if any) has passed."""
        return self.deadline is not None and _now() >= self.deadline

    def elapsed(self, worker: _Running) -> float:
        """Seconds since the worker's attempt started."""
        return _now() - worker.started

    def submit(self, key: Hashable, attempt: int = 1, delay: float = 0.0) -> None:
        """Queue an attempt, eligible to launch after ``delay`` seconds."""
        eligible_at = _now() + delay if delay else 0.0
        self.pending.append(_Pending(key, attempt, eligible_at))

    def retry(self, worker: _Running) -> bool:
        """Requeue a transient failure after its seeded backoff.

        Returns False, queueing nothing, once the key's retries are
        spent.
        """
        if worker.attempt > self.retries:
            return False
        base, cap = self.backoff
        delay = backoff_delay(
            self.seed, str(worker.key), worker.attempt, base=base, cap=cap
        )
        self.submit(worker.key, worker.attempt + 1, delay)
        return True

    def launch(self, key: Hashable, attempt: int) -> None:
        """Start one attempt in a fresh worker with its own result pipe."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=self._target, args=(child_conn, *self.args(key, attempt))
        )
        try:
            process.start()
        except BaseException:
            # A failed start must not leak the pipe: close both ends
            # before propagating, or the parent accumulates dead fds
            # across respawn storms.
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        now = _now()
        kill_at = None if self.timeout is None else now + self.timeout
        if self.deadline is not None:
            kill_at = self.deadline if kill_at is None else min(kill_at, self.deadline)
        self.running.append(
            _Running(key, attempt, process, parent_conn, now, kill_at)
        )

    def kill(self, worker: _Running) -> None:
        """Stop one live worker and drop it from the run."""
        self.running.remove(worker)
        _terminate(worker)

    def reap(self) -> None:
        """Stop every live worker."""
        for worker in self.running:
            _terminate(worker)
        self.running.clear()

    def run(self) -> None:
        """Schedule, wait and dispatch until no attempt is left."""
        try:
            while self.pending or self.running:
                if self.stop():
                    break
                now = _now()
                self.pending.sort(key=lambda item: item.eligible_at)
                while (
                    self.pending
                    and len(self.running) < self.jobs
                    and self.pending[0].eligible_at <= now
                ):
                    item = self.pending.pop(0)
                    self.launch(item.key, item.attempt)
                self.speculate()
                if not self.running:
                    # Everything queued is in backoff: sleep until the
                    # first retry is due (or the run deadline).
                    if self.pending:
                        wake = self.pending[0].eligible_at
                        if self.deadline is not None:
                            wake = min(wake, self.deadline)
                        time.sleep(max(0.0, wake - _now()))
                    continue
                self._wait()
                self._dispatch()
        finally:
            self.reap()

    def _wait(self) -> None:
        """Block until a worker reports or dies, or a deadline is due."""
        timeout = POLL_INTERVAL
        for worker in self.running:
            if worker.kill_at is not None:
                timeout = min(timeout, worker.kill_at - _now())
        wait(
            [worker.conn for worker in self.running]
            + [worker.process.sentinel for worker in self.running],
            timeout=max(0.0, timeout),
        )

    def _dispatch(self) -> None:
        now = _now()
        for worker in list(self.running):
            if worker not in self.running:
                continue  # a hook already stopped it
            if worker.conn.poll():  # type: ignore[attr-defined]
                self.running.remove(worker)
                try:
                    message = worker.conn.recv()  # type: ignore[attr-defined]
                except (EOFError, OSError):
                    _terminate(worker)  # died mid-send
                    self.on_failure(worker, "crash")
                    continue
                _terminate(worker)
                self.on_message(worker, message)
            elif not worker.process.is_alive():
                self.kill(worker)
                self.on_failure(worker, "crash")
            elif worker.kill_at is not None and now >= worker.kill_at:
                self.kill(worker)
                self.on_failure(worker, "timeout")
