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

__version__ = "0.1.0"
