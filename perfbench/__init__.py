"""factorcomm benchmark harness; entry point: perfbench/run.py."""
