"""Benchmark of the wsdalg certificate pipeline; see NOTES.md."""
