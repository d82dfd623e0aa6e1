"""One benchmark for the repository: netsim link configuration, the
service pump and the PHY relay link, timed end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``README.md`` here.
"""
