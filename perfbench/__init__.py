"""extremenu benchmark harness; run perfbench/run.py."""
