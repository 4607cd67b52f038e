"""The repo's benchmark: whole-path and per-layer, floor-of-passes timed.

Run it as ``python3 bench_e2e/run.py``; see ``README.md`` here.
"""
