"""The repository benchmark: three seeded workloads measured from outside.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints, as its last stdout line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded at the layer
boundaries and reports the per-layer metrics instead.  The harness only
calls the public functions of ``repro``; nothing under ``src/`` knows it
is being measured.
"""
