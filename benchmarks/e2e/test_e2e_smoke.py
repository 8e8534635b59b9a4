"""Harness self-tests at smoke scale (collected by the tier-1 command).

They check the harness, not the system's speed: every workload emits
every metric it names; a wrong oracle and a dead server are both
noticed, loudly and promptly.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from unittest import mock

import pytest

from benchmarks.e2e import catalogue, run, workloads
from benchmarks.e2e.measure import now
from benchmarks.e2e.runner import run_workload

SECONDS = 0.5


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(name):
    result = run_workload(name, seed=5, seconds=SECONDS, smoke=True)
    assert result.correct and result.failed == 0
    assert result.checked == result.attempted > 0
    expected = {metric.name for metric in catalogue.end_to_end_for(name)}
    assert set(result.end_to_end) == expected
    for metric, value in result.end_to_end.items():
        assert math.isfinite(value) and value >= 0, (metric, value)
    assert result.end_to_end["oracle_checked_share"] == 1.0
    for metric in ("setup_s", "search_p50_ms", "queries_per_s",
                   "index_bytes_per_record", "response_bytes_per_result"):
        assert result.end_to_end[metric] > 0, metric


def test_traced_pass_joins_processes_and_accounts_for_the_wall():
    result = run_workload(
        "cluster2-logbrc-small", seed=5, seconds=3 * SECONDS, trace=True, smoke=True
    )
    assert result.correct
    layers = result.per_layer
    assert set(layers) == {name for name, _, _ in catalogue.PER_LAYER}
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    # Spans from the driver and both shard processes met in one tree.
    for metric in ("cluster.router.busy_s", "cluster.lane.busy_s", "net.rtt.busy_s",
                   "protocol.server.busy_s", "exec.engine.busy_s",
                   "crypto.kernel.labels_s", "storage.read.busy_s",
                   "protocol.codec.decode_us_per_frame", "trace.overhead_x"):
        assert layers[metric] > 0, metric
    assert layers["net.self_s"] < layers["net.rtt.busy_s"]
    assert layers["trace.unattributed_share"] <= 0.05
    assert abs(layers["trace.accounted_share"] - 1.0) <= 0.05
    trace_file = workloads.OUT_DIR / "trace-cluster2-logbrc-small.jsonl"
    first = json.loads(trace_file.read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "op", "proc", "self"} <= set(first)


def test_perturbed_oracle_fails_the_command(tmp_path, capsys):
    argv = ["--workload", "local-const-mem", "--smoke", "--seed", "5",
            "--seconds", str(SECONDS), "--out", str(tmp_path / "result.json")]
    with mock.patch.dict(os.environ):  # main() scrubs REPRO_*; put it back
        assert run.main(argv) == 0
        good = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert run.main(argv + ["--perturb-oracle"]) == 1
        bad = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert good["correct"] and good["failed"] == 0
    assert set(good["metrics"]) == {
        m.name for m in catalogue.END_TO_END if m.contract
    }
    assert not bad["correct"] and bad["failed"] > 0
    document = json.loads((tmp_path / "result.json").read_text())
    assert document["workloads"]["local-const-mem"]["end_to_end"][
        "failed_ops_share"]["value"] > 0
    assert {"nproc", "python", "sqlite", "sqlite_flush_policy", "seed",
            "git_commit"} <= set(document["meta"])


def test_simulated_time_knob_refuses_to_start():
    with mock.patch.dict(os.environ, {"REPRO_CRYPTO_SIM_HMAC_US": "5"}):
        with pytest.raises(SystemExit, match="simulated"):
            run.main(["--workload", "local-const-mem", "--smoke"])


def test_killed_server_is_failed_ops_not_a_hang(monkeypatch):
    monkeypatch.setitem(workloads.NET_KWARGS, "retries", 0)
    workload = workloads.ChurnNetSqlite(seed=5, smoke=True)
    started = now()
    workload.open()
    try:
        workload.setup()
        killer = threading.Timer(0.3, workload.servers[0].kill)
        killer.start()
        window = workload.window(3.0)
        killer.join(5)
        checked, failed, _ = workload.verify(window)
    finally:
        workload.close()
    assert now() - started < 10.0
    assert failed > 0
    assert any(call.error for call in window.calls)
    assert len(window.flushes) < window.planned_flushes  # the writer gave up
    assert not workload.servers[0].alive()


def test_the_command_leaves_no_process_behind():
    """Everything ``run.py`` starts has ended when it exits (the PR
    driver refuses a benchmark that leaves so much as a helper alive)."""
    child = subprocess.Popen(
        [sys.executable, run.__file__, "--workload", "cluster2-logbrc-small",
         "--smoke", "--seed", "5", "--out", os.devnull],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert child.wait(60) == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)  # its session's process group is empty
