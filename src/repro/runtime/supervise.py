"""Supervised child processes: spawn, watch, harvest, escalate.

:class:`SupervisedProcess` is a **one-shot** worker: spawn, run one
payload, report once over a pipe, exit.  The sweep harness
(:mod:`repro.experiments.parallel`) runs every isolated attempt through
one of these.

Liveness contract: the parent holds only the read end of the
child→parent pipe, so a worker that dies without reporting —
``os._exit``, SIGKILL, OOM — surfaces as EOF rather than a hang, and
:meth:`terminate` escalates ``terminate → kill`` for stubborn children.
Workers are daemonic: an abandoned supervisor never leaks processes.
"""

from __future__ import annotations

import multiprocessing
import time

__all__ = ["mp_context", "SupervisedProcess"]


def mp_context():
    """The platform's best start method: ``fork`` when available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _terminate(proc) -> None:
    if proc.is_alive():
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():  # pragma: no cover - stubborn worker
            proc.kill()
            proc.join(1.0)


class SupervisedProcess:
    """One supervised one-shot attempt: a child process plus its pipe.

    ``target(conn, payload)`` runs in the child and must send exactly one
    report — by convention ``{"ok": True, "result": ...}`` or
    ``{"ok": False, "error": ...}`` — before closing the connection.
    """

    def __init__(self, target, payload, timeout: "float | None", ctx=None):
        ctx = ctx or mp_context()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        self.conn = recv_conn
        self.proc = ctx.Process(target=target, args=(send_conn, payload), daemon=True)
        self.started = time.monotonic()
        self.proc.start()
        send_conn.close()  # parent keeps only the read end, so EOF == dead worker
        self.deadline = None if timeout is None else self.started + timeout

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def terminate(self) -> None:
        _terminate(self.proc)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def harvest(self) -> "tuple[str, object, dict | None]":
        """Collect the attempt's verdict: (status, result|message, spans).

        ``spans`` is the worker's span-profiler snapshot when the worker
        shipped one (``None`` otherwise, and always for crashed workers —
        a dead worker ships nothing).
        """
        try:
            message = self.conn.recv()
        except (EOFError, OSError):
            self.proc.join(5.0)
            code = self.proc.exitcode
            self.conn.close()
            return (
                "crash",
                f"worker died before reporting a result (exit code {code})",
                None,
            )
        self.proc.join(5.0)
        self.conn.close()
        spans = message.get("spans")
        if message.get("ok"):
            return "ok", message["result"], spans
        return "error", str(message.get("error", "unknown worker error")), spans
