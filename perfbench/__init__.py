"""The repository benchmark: end-to-end workloads plus a traced layer split.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
