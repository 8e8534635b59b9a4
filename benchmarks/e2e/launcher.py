"""Server subprocesses: start, readiness handshake, control pipe, reap.

Each shard (and the managed-store server) is a real process — a fresh
interpreter running this module — on an ephemeral port.  Driver and
child talk in length-prefixed pickles over the child's stdin/stdout:
the child reports ``("ready", port)`` once it is accepting, answers a
few control commands, and on ``"stop"`` (or when the driver's end of
the pipe closes) drains, then hands back its counters and — in a
traced pass — its spans.  Children are plain ``subprocess.Popen``
children, not ``multiprocessing`` ones: that module's spawn context
starts a resource-tracker process of its own which outlives the driver
by a moment, and the benchmark must leave no process behind.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import subprocess
import sys

from benchmarks.e2e.hygiene import REPO_ROOT, scrub_environment
from benchmarks.e2e.measure import SpanRecorder, peak_rss_mb

#: Seconds the driver waits for a child's handshake or reply before it
#: gives the child up (a hung server must become failed ops, not a hang).
REPLY_TIMEOUT_S = 60.0


def stored_bytes(backend) -> int:
    """Σ(len key + len value) over every namespace, through the public
    ``StorageBackend`` API — the numerator of ``index_bytes_per_record``."""
    return sum(
        len(key) + len(value)
        for ns in backend.namespaces()
        for key, value in backend.items(ns)
    )


def _send(stream, message) -> None:
    body = pickle.dumps(message)
    frame = memoryview(struct.pack(">I", len(body)) + body)
    try:
        while frame:  # an unbuffered pipe may take a large frame in parts
            frame = frame[stream.write(frame):]
    except ValueError:  # the stream was closed under us (a killed child)
        raise EOFError("control pipe closed") from None


def _read_exactly(stream, size: int) -> bytes:
    chunks = []
    while size:
        try:
            chunk = stream.read(size)
        except ValueError:
            chunk = b""
        if not chunk:
            raise EOFError("control pipe closed")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _recv(stream):
    (size,) = struct.unpack(">I", _read_exactly(stream, 4))
    return pickle.loads(_read_exactly(stream, size))


def serve(inbox, outbox, label: str, sqlite_path: "str | None",
          trace: bool) -> None:
    """Child entry point: host one ``RsseServer`` until told to stop."""
    scrub_environment()
    from repro.exec import QueryExecutor
    from repro.net import serve_in_thread
    from repro.protocol import RsseServer
    from repro.storage import InMemoryBackend, SqliteBackend

    raw = SqliteBackend(sqlite_path) if sqlite_path else InMemoryBackend()
    rec = None
    backend, executor = raw, None
    if trace:
        from benchmarks.e2e import wrappers

        rec = SpanRecorder(label)
        backend = wrappers.TimedBackend(raw, rec)
        executor = wrappers.TimedExecutor(rec)
    else:
        executor = QueryExecutor()
    core = RsseServer(backend, executor=executor)
    if rec is not None:
        wrappers.time_handle(core, rec)
    server = serve_in_thread(core)
    try:
        _send(outbox, ("ready", server.port))
        while True:
            command = _recv(inbox)
            if command == "stored_bytes":
                _send(outbox, stored_bytes(raw))
            elif command == "stop":
                break
    except (EOFError, KeyboardInterrupt):
        pass  # the driver went away: just shut down
    finally:
        server.stop()
    stores = core.stats_dict().get("stores", {})
    report = {
        "rss_mb": peak_rss_mb(),
        "cache": executor.cache.stats(),
        "stores": stores,
        "spans": rec.export() if rec is not None else [],
    }
    executor.close()
    raw.close()
    try:
        _send(outbox, ("done", report))
    except (EOFError, OSError):
        pass


class ServerProcess:
    """Driver-side handle to one server subprocess."""

    def __init__(self, label: str, *, sqlite_path: "str | None" = None,
                 trace: bool = False) -> None:
        self.label = label
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT), str(REPO_ROOT / "src")]
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.launcher",
             label, sqlite_path or "", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, env=env,
        )
        try:
            tag, self.port = self._recv()
        except BaseException:
            self.kill()
            raise
        if tag != "ready":
            self.kill()
            raise RuntimeError(f"server {label} sent {tag!r} instead of ready")
        self.host = "127.0.0.1"

    def _recv(self):
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], REPLY_TIMEOUT_S)
        except ValueError:
            raise EOFError("control pipe closed") from None
        if not ready:
            raise TimeoutError(f"server {self.label} did not answer")
        return _recv(self._proc.stdout)

    def ask(self, command: str):
        """One control round-trip (``"stored_bytes"``)."""
        _send(self._proc.stdin, command)
        return self._recv()

    def stop(self) -> dict:
        """Drain and stop the server, wait until it has ended, and
        return its final report."""
        try:
            _send(self._proc.stdin, "stop")
            tag, report = self._recv()
            try:
                self._proc.wait(REPLY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass  # stuck on its way out: kill() below ends it
            return report
        finally:
            self.kill()

    def alive(self) -> bool:
        return self._proc.poll() is None

    def kill(self) -> None:
        """End the child if it still runs, reap it, close the pipe
        (idempotent; returns only once the process is gone)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()


def main(argv) -> None:
    label, sqlite_path, trace = argv
    # The control pipe owns fds 0 and 1; anything the program prints
    # goes to stderr instead of corrupting a frame.
    inbox = os.fdopen(os.dup(0), "rb", buffering=0)
    outbox = os.fdopen(os.dup(1), "wb", buffering=0)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    serve(inbox, outbox, label, sqlite_path or None, trace == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
