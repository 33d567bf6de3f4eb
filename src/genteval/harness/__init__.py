"""Evaluation pipeline: sweeps, persistence, curve fits, and the CLI."""
