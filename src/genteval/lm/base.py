"""Language model contract plus scoring utilities shared by all backends.

A language model has a ``vocab`` attribute, a ``next_dist(context)``
returning a probability vector over the vocab (summing to 1 within
1e-9), and a ``score(seq, context)`` returning the summed natural
log-probability of ``seq`` given ``context``. Only the tokens of ``seq``
contribute to the score; the context conditions but is never scored.

It also declares ``context_len``: the number of trailing context ids its
predictions depend on (order-1 for the n-gram, the window for the ffn),
or None when they depend on the whole context. Decoders pass only that
many trailing ids.

And it has ``next_dist_batch(contexts)``, returning a
``(len(contexts), |V|)`` array whose row i is the distribution after
``contexts[i]``; the decoders make one call per step for all the
prefixes (or beam hypotheses) they decode together. A
batched row may differ from ``next_dist`` of the same context in the
last bits, and the difference may depend on the batch size and on the
row's position. The n-gram's ``next_dist`` is its one-row batch, and
each row is computed elementwise from sorted-array lookups, so its rows
do not depend on the batch; the ffn's matrix products are not
batch-invariant (about 1e-19 absolute on probabilities near 1e-4 at
|V| = 5000). A decode is therefore a function of the batch it ran in,
which is why ``genteval generate`` and a sweep cell decode the same
prefixes in the same batches.

A model may also offer ``score_batch(seqs, contexts=())``, the
``score`` of every sequence from one call; :func:`batch_scores` uses it
for the perplexity metrics and calls ``score`` per sequence otherwise.
The n-gram's ``score`` is its one-sequence batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..corpus import TokenSequence, Vocab
from .. import decode


class LanguageModel(Protocol):
    vocab: Vocab
    context_len: int | None

    def next_dist(self, context: Sequence[int]) -> np.ndarray: ...

    def next_dist_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray: ...

    # Optional: score_batch(seqs, contexts=()) -> list of scores, see the module docstring.

    def score(self, seq, context: Sequence[int] = ()) -> float: ...


def as_ids(seq) -> tuple[int, ...]:
    """Accept a TokenSequence or any id sequence (possibly empty)."""
    if seq is None:
        return ()
    if isinstance(seq, TokenSequence):
        return seq.ids
    return tuple(int(i) for i in seq)


def batch_scores(model, seqs) -> list[float]:
    """``model.score(seq)`` of each of ``seqs``, in one ``score_batch`` call
    when the model has it."""
    batch = getattr(model, "score_batch", None)
    if batch is None:
        return [model.score(s) for s in seqs]
    return batch(seqs)


def perplexity(model, seq, context: Sequence[int] = ()) -> float:
    """exp of mean per-token negative log-likelihood of ``seq``.

    A zero-probability token makes the result +inf rather than raising;
    degenerate inputs are a data condition, not a crash.
    """
    ids = as_ids(seq)
    if not ids:
        raise ValueError("cannot take perplexity of an empty sequence")
    logprob = model.score(ids, as_ids(context))
    if not math.isfinite(logprob):
        return math.inf
    return math.exp(-logprob / len(ids))


@dataclass(frozen=True)
class TraceEntry:
    token: int
    prob: float
    truncated_prob: float


@dataclass(frozen=True)
class ProbTrace:
    """Per-position probabilities a model assigns to a fixed sequence."""

    entries: tuple[TraceEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def token_prob_trace(
    model,
    seq,
    truncation: tuple[str, float] | None = None,
    context: Sequence[int] = (),
) -> ProbTrace:
    """Trace raw and truncated probabilities of each token of ``seq``.

    ``truncation`` is None or a ("topk"|"topp", value) pair applied via
    :func:`genteval.decode.truncate_renormalize`; a token dropped by the
    truncation reports a truncated probability of 0.
    """
    ids = as_ids(seq)
    ctx = list(as_ids(context))
    entries = []
    for tok in ids:
        dist = np.asarray(model.next_dist(ctx), dtype=np.float64)
        raw = float(dist[tok])
        if truncation is None:
            trunc = raw
        else:
            mode, value = truncation
            trunc = float(decode.truncate_renormalize(dist, mode, value)[tok])
        entries.append(TraceEntry(token=int(tok), prob=raw, truncated_prob=trunc))
        ctx.append(int(tok))
    return ProbTrace(entries=tuple(entries))
