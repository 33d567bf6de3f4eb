"""genteval: evaluate language models on open-ended text generation.

Three axes of evaluation over token-id sequences:

* quality — corpus BLEU against human continuations, forward
  perplexity, length-normalized acceptability;
* diversity — self-BLEU, repeated n-gram rate, reverse perplexity;
* consistency — perplexity-based selection accuracy on two-option
  datasets.

Plus the machinery the comparisons need: two desk-scale language models
(counted n-gram, feed-forward neural), six decoding strategies, a
multi-objective trainer with hand-derived gradients, and a deterministic
sweep harness with a CLI front end (``genteval --help``).
"""

import os

# One BLAS thread unless the caller set a count: a threaded OpenBLAS
# splits the training matmuls so that the weights move in the last bits
# with the core count. This must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import consistency, corpus, decode, harness, losses, metrics, rng
from .corpus import CorpusSplits, TokenSequence, Vocab, split_corpus, tokenize
from .decode import DecoderConfig, generate_batch
from .errors import ConfigError, DataError, ToolkitError
from .lm import FeedForwardLM, NGramLM, load_model, ngram_fit, perplexity, save_model
from .metrics import BleuConfig, Sample, SampleSet, corpus_bleu, self_bleu, seq_rep_n

__version__ = "0.1.0"

__all__ = [
    "BleuConfig",
    "ConfigError",
    "CorpusSplits",
    "DataError",
    "DecoderConfig",
    "FeedForwardLM",
    "NGramLM",
    "Sample",
    "SampleSet",
    "TokenSequence",
    "ToolkitError",
    "Vocab",
    "consistency",
    "corpus",
    "corpus_bleu",
    "decode",
    "generate_batch",
    "harness",
    "load_model",
    "losses",
    "metrics",
    "ngram_fit",
    "perplexity",
    "rng",
    "save_model",
    "self_bleu",
    "seq_rep_n",
    "split_corpus",
    "tokenize",
    "__version__",
]
