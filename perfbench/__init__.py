"""Benchmark of the column-combining system; run ``perfbench/run.py``."""
