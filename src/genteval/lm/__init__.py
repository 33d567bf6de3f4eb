"""Language model backends and scoring utilities."""
