"""End-to-end and per-layer benchmark of the qrealize certification path.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--workload all`` runs every
workload, each in its own process.  The benchmark imports the package from
``src/`` of the checkout it sits in and never edits it: per-layer numbers
come from wrappers installed around public calls (``perfbench.trace``).
"""
