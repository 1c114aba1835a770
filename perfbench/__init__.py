"""The repository's benchmark: three workloads, end-to-end and per-layer
metrics, answer checks made apart from the program. See README.md."""
