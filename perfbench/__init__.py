"""The ccdae benchmark: three seeded workloads and per-layer traces.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the root of a checkout. The
workloads are listed, with the reason for each, in ``BENCHMARK.json``.
"""
