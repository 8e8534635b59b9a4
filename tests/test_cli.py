"""Tests for the rsse-experiments command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.cli import main, run_experiment


class TestArgumentHandling:
    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "fig5a" in out and "table2" in out


class TestFastExperimentsThroughMain:
    def test_ablation_tdag(self, capsys):
        assert main(["ablation-tdag"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 1" in out and "worst" in out

    def test_ablation_urc(self, capsys):
        assert main(["ablation-urc"]) == 0
        out = capsys.readouterr().out
        assert "urc min" in out

    def test_fig8a_with_csv(self, tmp_path: pathlib.Path, capsys):
        assert main(["fig8a", "--csv-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Query size" in out
        csv_file = tmp_path / "fig8a.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("range size,")

    def test_fig8b_renders_ms(self, capsys):
        assert main(["fig8b"]) == 0
        assert "ms" in capsys.readouterr().out


class TestRunExperimentContract:
    def test_every_fast_name_returns_text(self):
        for name in ("ablation-tdag", "ablation-urc", "fig8a", "fig8b"):
            assert run_experiment(name).strip()


class TestNetworkSubcommands:
    def test_connect_against_live_server(self, capsys):
        """The connect subcommand outsources, queries and verifies over
        a real loopback server, exiting 0 on a clean differential."""
        from repro.net import serve_in_thread
        from repro.protocol import RsseServer

        with serve_in_thread(RsseServer()) as server:
            code = main(
                [
                    "connect",
                    "--port",
                    str(server.port),
                    "--records",
                    "80",
                    "--domain",
                    "256",
                    "--queries",
                    "5",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        assert "frames in" in out

    def test_connect_unreachable_port_fails_fast(self):
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            main(["connect", "--port", "1", "--records", "10", "--queries", "1"])

    def test_serve_help_does_not_touch_sockets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--max-inflight" in capsys.readouterr().out

    def test_serve_drains_on_sigterm(self):
        """``serve --port 0`` announces its port, answers a client, and
        on SIGTERM drains, prints ``drained.`` and exits 0."""
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.net import NetTransport
        from repro.protocol import OkResponse, UploadRecords, parse_reply

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on [^:]+:(\d+)", line)
            assert match, line
            with NetTransport("127.0.0.1", int(match.group(1))) as transport:
                reply = transport(UploadRecords(1, [(1, b"x")]).to_frame())
                assert isinstance(parse_reply(reply), OkResponse)
                # An idle pooled connection must not hold the drain up.
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained." in out
        assert "1 frames in, 1 out" in out
