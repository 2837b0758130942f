"""The repo benchmark: four closed-loop workloads, end to end and per layer.

See ``README.md`` in this directory; run with
``PYTHONPATH=src python -m benchmarks.e2e --seed N``.
"""
