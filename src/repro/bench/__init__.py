"""Per-layer microbenchmarks: harness, JSON baselines, regression
comparison (``python -m repro bench``; end to end: ``python -m e2e_bench``)."""
