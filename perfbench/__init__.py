"""Benchmark of the mixedop CLI verbs; see ``perfbench/run.py``."""
