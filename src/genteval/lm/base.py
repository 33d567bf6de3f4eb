"""Language model contract plus scoring utilities shared by all backends.

A language model has a ``vocab``; a ``context_len`` ``c``, the number of
trailing context ids its predictions depend on (order-1 for the n-gram,
the window for the ffn) or None for the whole context; and two batched
methods over token ids, each sequence an int64 array, a matrix row or an
int list:

- ``next_dist_batch(windows)``: row i is the next-token distribution
  (summing to 1 within 1e-9) after row i of the ``(rows, c)`` int64
  matrix ``windows``, a context's last ``c`` ids left-padded with -1 ("no
  token"). Decoders hold their ids in one matrix and pass it a slice.
- ``score_batch(seqs, contexts=())``: the summed natural log-probability
  of each ``seqs[i]`` given ``contexts[i]`` (or no context); the context
  conditions but is never scored. An empty sequence scores 0.0. Every
  scorer (perplexities, acceptability, consistency) makes one call.

Every -1-padded window comes from :func:`id_lines` (the decoders' through
:func:`left_padded`), which refuses a negative id everywhere. Both
backends also keep ``next_dist(context)``, the one-row call of
``next_dist_batch`` on a list of ids. A row
may differ between batches in the last bits, depending on the batch
size and the row's position. The n-gram computes rows elementwise from
sorted-array lookups, so they do not depend on the batch; the ffn's
matrix products are not batch-invariant (about 1e-19 absolute on
probabilities near 1e-4 at |V| = 5000, a few 1e-16 relative on scores).
A decode is therefore a function of the batch it ran in, which is why
``genteval generate`` and a sweep cell decode the same prefixes in the
same batches.

:func:`exp_rows` turns every block of logit rows into distributions: the
ffn's forward passes, the classification head's loss and the temperature
and penalized decoders all normalize through it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..corpus import flat_rows
from ..errors import ConfigError


def id_lines(seqs: Sequence[Sequence[int]], contexts: Sequence[Sequence[int]], c: int) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, q)``: each ``seqs[i]`` after ``c`` slots holding the last ``c`` ids of
    ``contexts[i]`` left-padded with -1 ("no token"), end to end in ``flat``, and where
    each id of ``seqs`` sits in it: ``flat[q]`` are those ids and
    ``flat[q[:, None] - c + np.arange(c)]`` their windows. Either side may be an id
    matrix or a list of id arrays, matrix rows, lists or tuples. Refuses a negative id."""
    if len(contexts) != len(seqs):
        raise ConfigError("need one context per sequence")
    ids, bounds = flat_rows(seqs)
    tails, tail_bounds = flat_rows([ctx[max(0, len(ctx) - c) :] for ctx in contexts])
    if min(ids.min(initial=0), tails.min(initial=0)) < 0:
        raise ConfigError("token ids must be non-negative")
    shift = c * np.arange(1, len(seqs) + 1)  # the slots before each line's ids
    q = np.arange(len(ids)) + np.repeat(shift, np.diff(bounds))
    flat = np.full(c * len(seqs) + len(ids), -1, dtype=np.int64)
    flat[q] = ids
    flat[np.arange(len(tails)) + np.repeat(bounds[:-1] + shift - tail_bounds[1:], np.diff(tail_bounds))] = tails
    return flat, q


def left_padded(seqs: Sequence[Sequence[int]], width: int | None) -> np.ndarray:
    """``(len(seqs), width)`` int64: row i is the last ``width`` ids of ``seqs[i]``
    after -1s, as :func:`id_lines` pads them; ``width`` None fits the longest."""
    width = max(map(len, seqs), default=0) if width is None else width
    return id_lines([()] * len(seqs), seqs, width)[0].reshape(len(seqs), width)


def perplexity(model, seqs, contexts: Sequence = ()) -> list[float]:
    """exp of the mean per-token negative log-likelihood of each of ``seqs``
    (after ``contexts[i]``, when given), from one ``score_batch`` call.

    A zero-probability token makes that perplexity +inf rather than
    raising; degenerate inputs are a data condition, not a crash.
    """
    if not all(map(len, seqs)):
        raise ValueError("cannot take perplexity of an empty sequence")
    scores = model.score_batch(seqs, contexts)
    return [math.exp(-lp / len(s)) if math.isfinite(lp) else math.inf for s, lp in zip(seqs, scores)]


def summed_scores(token_logp: Callable, seqs, contexts: Sequence = ()) -> list[float]:
    """``score_batch`` from a backend's ``token_logp(seqs, contexts)``, the
    log-probability of every id of ``seqs`` end to end: each sequence's sum,
    left to right as a per-token loop adds (one cumsum along the rows of a
    zero-padded block), and 0.0 for an empty one."""
    logp = token_logp(seqs, contexts if len(contexts) else [()] * len(seqs))
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    block = np.zeros((len(seqs), int(lens.max(initial=0)) + 1))
    block[:, 1:][np.arange(block.shape[1] - 1) < lens[:, None]] = logp
    return np.cumsum(block, axis=1)[np.arange(len(seqs)), lens].tolist()


def exp_rows(z: np.ndarray, gold: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Exponentiate a ``(rows, n)`` block of logits in place, each row shifted
    by its max, so that ``z / denom[:, None]`` is its softmax. Returns the
    row sums ``denom`` and, given ``gold`` (one column per row), each row's
    log-probability of its gold column, else None. A row of only -inf comes
    out NaN, as a reference softmax does."""
    z -= z.max(axis=1, keepdims=True)
    gold_z = None if gold is None else z[np.arange(len(z)), gold]
    np.exp(z, out=z)
    denom = z.sum(axis=1)
    return denom, None if gold is None else gold_z - np.log(denom)
