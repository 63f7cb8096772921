"""Repository benchmark: end-to-end and per-layer measurements of the
cross-feature anomaly-detection pipeline (see ``bench/README.md``).

Run ``python -m bench.run --help`` from the repository root.
"""
