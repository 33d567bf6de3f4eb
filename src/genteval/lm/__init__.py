"""Language model backends and scoring utilities."""

from .base import as_ids, perplexity
from .ffn import PAD_TOKEN, FeedForwardLM
from .ngram import NGramLM, ngram_fit
from .store import load_model, save_model

__all__ = [
    "FeedForwardLM",
    "NGramLM",
    "PAD_TOKEN",
    "as_ids",
    "load_model",
    "ngram_fit",
    "perplexity",
    "save_model",
]
