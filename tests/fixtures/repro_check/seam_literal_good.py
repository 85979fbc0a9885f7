"""GOOD: registered seam names (and docstring mentions of
REPRO_ANYTHING_AT_ALL are exempt, like this one)."""

FLAG = "REPRO_FAST_BACKEND"
OTHER = "REPRO_BENCH_ENGINE"
