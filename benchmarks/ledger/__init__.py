"""The benchmark ledger: one harness, five workloads, named metrics.

See ``README.md`` in this directory.  Entry point: :mod:`.run`
(``python3 benchmarks/ledger/run.py`` or
``PYTHONPATH=src python -m benchmarks.ledger.run`` from the repo root).

Nothing here imports ``benchmarks/_common.py`` or reads ``REPRO_BENCH_*``;
the harness measures ``src/repro`` from outside and edits nothing in it.
"""
