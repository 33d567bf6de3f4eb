"""Language model backends and scoring utilities."""

from .base import LanguageModel, ProbTrace, TraceEntry, as_ids, perplexity, token_prob_trace
from .ffn import PAD_TOKEN, FeedForwardLM, log_softmax, softmax
from .ngram import NGramLM, ngram_fit
from .store import load_model, save_model

__all__ = [
    "FeedForwardLM",
    "LanguageModel",
    "NGramLM",
    "PAD_TOKEN",
    "ProbTrace",
    "TraceEntry",
    "as_ids",
    "load_model",
    "log_softmax",
    "ngram_fit",
    "perplexity",
    "save_model",
    "softmax",
    "token_prob_trace",
]
