"""Supervised child processes: spawn, watch, harvest, escalate.

The process-supervision primitives that used to live inside the sweep
harness (:mod:`repro.experiments.parallel`), extracted so the sharded
runtime (:mod:`repro.runtime.sharded`) can reuse them without reaching
up the layer stack.  Two shapes are provided:

* :class:`SupervisedProcess` — a **one-shot** worker: spawn, run one
  payload, report once over a pipe, exit.  The sweep harness runs every
  isolated attempt through one of these.
* :class:`PersistentWorker` — a **long-lived** request/response worker:
  the parent sends one command per round and waits (with an optional
  deadline) for the reply.  The shard runtime keeps one per shard.

Both share the same liveness contract: the parent holds only the read
end of the child→parent pipe, so a worker that dies without reporting —
``os._exit``, SIGKILL, OOM — surfaces as EOF rather than a hang, and
:meth:`terminate` escalates ``terminate → kill`` for stubborn children.
Workers are daemonic: an abandoned supervisor never leaks processes.
"""

from __future__ import annotations

import multiprocessing
import time

__all__ = ["mp_context", "SupervisedProcess", "PersistentWorker"]


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


class PersistentWorker:
    """One supervised long-lived worker serving request/response rounds.

    ``target(conn, payload)`` runs in the child with a duplex-by-pairs
    connection: it should loop ``recv() → handle → send()`` until EOF or
    a sentinel command.  Parent-side, :meth:`post` then :meth:`collect`
    make one round with crash (EOF) and deadline detection; the caller
    decides whether to respawn on failure.
    """

    def __init__(self, target, payload, ctx=None):
        ctx = ctx or mp_context()
        self._ctx = ctx
        up_recv, up_send = ctx.Pipe(duplex=False)  # child -> parent
        down_recv, down_send = ctx.Pipe(duplex=False)  # parent -> child
        self.proc = ctx.Process(
            target=target, args=((down_recv, up_send), payload), daemon=True
        )
        self.proc.start()
        # parent drops the child-held ends: child death then reads as EOF
        up_send.close()
        down_recv.close()
        self._recv = up_recv
        self._send = down_send

    def post(self, message) -> bool:
        """Send one command without waiting; ``False`` if the pipe is dead."""
        try:
            self._send.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def collect(self, timeout: "float | None" = None) -> "tuple[str, object]":
        """Wait for one reply: returns (status, reply|description).

        ``status`` is ``"ok"`` (reply received), ``"crash"`` (the worker
        died before replying) or ``"timeout"`` (no reply inside
        *timeout* seconds).  On crash/timeout the worker is terminated
        and this handle must not be reused.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if self._recv.poll(wait):
                try:
                    return "ok", self._recv.recv()
                except (EOFError, OSError):
                    self.proc.join(5.0)
                    code = self.proc.exitcode
                    self.close()
                    return "crash", f"worker died before replying (exit code {code})"
            if deadline is not None and time.monotonic() >= deadline:
                self.close()
                return "timeout", f"no reply within {timeout:g}s"

    def close(self) -> None:
        """Terminate the worker (escalating) and drop both pipe ends."""
        _terminate(self.proc)
        for conn in (self._recv, self._send):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
