"""Environment hygiene and the run's recorded provenance."""

from __future__ import annotations

import os
import platform
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def scrub_environment() -> "list[str]":
    """Drop every ``REPRO_*`` variable so library defaults apply
    (engine workers = min(8, nproc), 131 072-leaf expansion cache,
    serial kernel); returns the names removed.

    Refuses to start when one of them is a simulated-time knob: a run
    someone tried to put on a simulated clock must not pass silently
    as a real one.  Server subprocesses inherit the scrubbed
    environment and scrub again on their side.
    """
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    simulated = [name for name in names if "SIM" in name]
    if simulated:
        raise SystemExit(
            f"refusing to start: simulated-time knob(s) set: {simulated}; "
            "this benchmark reports real wall-clock only"
        )
    for name in names:
        del os.environ[name]
    return names


def _git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"  # an exported checkout: do not search above it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _sqlite_flush_policy(scratch_dir: Path) -> dict:
    """Journal and synchronous mode as ``SqliteBackend`` sets them —
    the flush policy every SQLite number here was taken under."""
    from repro.storage import SqliteBackend

    with tempfile.TemporaryDirectory(prefix="probe-", dir=scratch_dir) as tmp:
        backend = SqliteBackend(Path(tmp) / "probe.db")
        try:
            conn = backend._conn  # diagnostic read of the backend's own PRAGMAs
            journal = conn.execute("PRAGMA journal_mode").fetchone()[0]
            level = conn.execute("PRAGMA synchronous").fetchone()[0]
        finally:
            backend.close()
    names = {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}
    return {"journal_mode": journal, "synchronous": names.get(level, level)}


def run_meta(*, seed: int, seconds: float, smoke: bool, scratch_dir: Path,
             scrubbed: "list[str]") -> dict:
    """What a reader needs to reproduce or distrust these numbers."""
    return {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "sqlite": sqlite3.sqlite_version,
        "sqlite_flush_policy": _sqlite_flush_policy(scratch_dir),
        "git_commit": _git_commit(),
        "scrubbed_env": scrubbed,
        "clock": "time.perf_counter (real wall-clock; no simulated lanes)",
    }
