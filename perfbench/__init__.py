"""Repository benchmark: workloads, outside-in tracing, checks, compare tool.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``BENCHMARK.md``.
"""
