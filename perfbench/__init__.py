"""Benchmark harness for the botimpact pipeline; see README.md here."""
