"""Child-process supervision with bounded exponential backoff.

``repro serve --supervise`` does not serve directly: it spawns the real
worker (the same command line minus the supervision flags) as a child
process and restarts it whenever it dies abnormally — SIGKILL, an
injected chaos crash, an OOM kill — with exponential backoff between
attempts (``base`` doubling up to ``cap``).  The worker recovers its
state from the durable snapshot + journal on every start, so the
restart is *replay*, not best-effort.  A child that exits 0 (clean
``shutdown``) ends supervision; one that stays up ``healthy_seconds``
resets the backoff and the retry budget, so ``max_restarts`` bounds
*consecutive* failures, not lifetime restarts.

Restart counts are published through the metrics registry
(:mod:`repro.obs`): pass ``registry`` and the supervisor keeps
``repro_supervisor_restarts_total`` / ``repro_supervisor_backoff_seconds``
/ ``repro_supervisor_last_exit_code`` current across the restart loop.
The child's environment still carries ``REPRO_SERVICE_RESTARTS`` (total
restarts so far) — the supervisor and the worker are separate processes,
so the env var is the boot-time seed from which the worker's front-end
fills its own ``repro_restarts`` gauge; ``status`` reads that gauge (the
field stays byte-compatible), together with its ``pid`` — that is how
the CI chaos stage finds the worker to SIGKILL and observes that
supervision brought it back.

Everything is injectable (``spawn``, ``sleep``, ``clock``) so the tests
drive supervision with fake children and a fake clock.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["BackoffPolicy", "reap", "supervise"]

#: Environment variable carrying the restart count into the worker.
RESTARTS_ENV = "REPRO_SERVICE_RESTARTS"


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff: ``base`` doubling up to ``cap``,
    giving up after ``max_restarts`` consecutive abnormal exits."""

    base: float = 0.5
    cap: float = 10.0
    max_restarts: int = 5
    healthy_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.cap < self.base:
            raise ValueError(
                f"backoff needs 0 < base <= cap, got base={self.base} cap={self.cap}"
            )
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")


def reap(proc: subprocess.Popen, patience: float = 10.0, grace: float = 5.0) -> int:
    """Collect a child that has been asked (or is about) to stop: wait
    ``patience`` seconds for it to exit on its own, SIGTERM it and wait
    ``grace`` more, then SIGKILL.  Returns its exit code; never leaves a
    zombie or an orphan behind."""
    try:
        return proc.wait(timeout=patience)
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        return proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def supervise(
    cmd: Sequence[str],
    *,
    policy: BackoffPolicy = BackoffPolicy(),
    spawn: "Callable[..., subprocess.Popen] | None" = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_restart: "Callable[[int, int, float], None] | None" = None,
    registry=None,
) -> int:
    """Run ``cmd`` under supervision; returns the final exit code.

    0 on clean child exit; the child's last abnormal code once
    ``max_restarts`` consecutive failures exhaust the budget; 130 on
    KeyboardInterrupt (the child is terminated first).  ``on_restart``
    is called with ``(restarts, exit_code, delay)`` before each backoff
    sleep.  ``registry`` (a :class:`~repro.obs.MetricsRegistry`)
    publishes the restart loop as metrics.
    """
    spawn_fn = spawn if spawn is not None else subprocess.Popen
    restarts = 0  # lifetime count, exported to the child
    consecutive = 0
    delay = policy.base
    m_restarts = m_backoff = m_exit = None
    if registry is not None:
        m_restarts = registry.counter(
            "repro_supervisor_restarts_total", "Worker restarts after abnormal exits"
        )
        m_backoff = registry.gauge(
            "repro_supervisor_backoff_seconds", "Backoff slept before the last restart"
        )
        m_exit = registry.gauge(
            "repro_supervisor_last_exit_code", "Exit code of the last worker death"
        )
    while True:
        env = dict(os.environ)
        env[RESTARTS_ENV] = str(restarts)
        proc = spawn_fn(list(cmd), env=env)
        started = clock()
        try:
            code = proc.wait()
        except KeyboardInterrupt:
            reap(proc, patience=0)
            return 130
        if code == 0:
            return 0
        if clock() - started >= policy.healthy_seconds:
            # the child did real work before dying: fresh budget
            consecutive = 0
            delay = policy.base
        if consecutive >= policy.max_restarts:
            return code
        consecutive += 1
        restarts += 1
        if m_restarts is not None:
            m_restarts.inc()
            m_backoff.set(delay)
            m_exit.set(code)
        if on_restart is not None:
            on_restart(restarts, code, delay)
        sleep(delay)
        delay = min(delay * 2.0, policy.cap)
