"""The repo's end-to-end benchmark (see README.md in this directory).

One command — ``python3 benchmarks/e2e/run.py`` — drives four
deployment-shape workloads with real wall-clock only, checks every
answer against the plaintext oracle, and reports the end-to-end and
per-layer metrics named in ``BENCHMARK.json``.  Nothing here reads or
sets a simulated-time knob.
"""
