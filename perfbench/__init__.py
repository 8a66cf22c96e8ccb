"""Benchmark for topocode; see README.md."""
