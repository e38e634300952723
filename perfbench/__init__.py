"""End-to-end and per-layer benchmark of the mapping flows.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``perfbench/README.md`` defines the metrics.
"""
