"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""
