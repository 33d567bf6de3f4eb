"""Count-based n-gram language model with add-k smoothing and backoff.

The conditional for a context of length order-1 is

    p(w | ctx) = (count(ctx + w) + k_s) / (count(ctx) + k_s * |V|)

where count(ctx) is the number of continuations observed after ctx (so
the unsmoothed conditionals are exact relative frequencies). With
k_s > 0 the formula is defined for every context; an entirely unseen
context yields the uniform distribution. With k_s = 0 an unseen context
would be 0/0, so the model backs off to the shortened context (dropping
the leftmost token) until it finds one with observations; the unigram
level always qualifies on non-empty training data.

``next_dist`` reads each context's observed continuations from a
CSR-style row index (context -> slice of flat next-id and count arrays),
so one call costs O(|V|) numpy work plus O(observed continuations). The
index of an order is built on the first ``next_dist`` that answers from
it, never at fit or load time: models fitted only for scoring (reverse
perplexity) never pay for it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from ..corpus import TokenSequence, Vocab
from ..errors import BadOrder, ConfigError, EmptyInput
from .base import as_ids


class NGramLM:
    backend = "ngram"

    def __init__(
        self,
        vocab: Vocab,
        order: int,
        k_s: float,
        counts: dict[int, dict[tuple[int, ...], int]],
    ) -> None:
        if order < 1:
            raise BadOrder("n-gram order must be at least 1")
        if k_s < 0:
            raise ConfigError("smoothing constant must be non-negative")
        self.vocab = vocab
        self.order = order
        self.k_s = float(k_s)
        self.counts = {o: dict(counts.get(o, {})) for o in range(1, order + 1)}
        counts = self.counts
        # Continuation totals per context; the unigram context is ().
        self.ctx_totals: dict[int, dict[tuple[int, ...], int]] = {}
        for o, table in counts.items():
            totals: dict[tuple[int, ...], int] = {}
            for gram, c in table.items():
                ctx = gram[:-1]
                totals[ctx] = totals.get(ctx, 0) + c
            self.ctx_totals[o] = totals
        if self.ctx_totals.get(1, {}).get((), 0) == 0:
            raise EmptyInput("n-gram model fitted on no tokens")
        self._rows: dict[int, _Rows] = {}

    @property
    def context_len(self) -> int:
        """Only the last order-1 ids of a context affect a prediction."""
        return self.order - 1

    def _level(self, context: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
        """Pick the order to answer from: longest usable context."""
        ctx = context[max(0, len(context) - (self.order - 1)) :] if self.order > 1 else ()
        for o in range(min(self.order, len(ctx) + 1), 0, -1):
            c = ctx[len(ctx) - (o - 1) :] if o > 1 else ()
            total = self.ctx_totals[o].get(c, 0)
            if total > 0 or self.k_s > 0 or o == 1:
                return o, c, total
        raise AssertionError("unreachable: unigram level always answers")

    def token_prob(self, token: int, context: Sequence[int]) -> float:
        o, ctx, total = self._level(tuple(context))
        c = self.counts[o].get(ctx + (token,), 0)
        denom = total + self.k_s * self.vocab.size
        return (c + self.k_s) / denom if denom > 0 else 0.0

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        dist = np.empty(self.vocab.size)
        self._fill(dist, as_ids(context))
        return dist

    def next_dist_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """``(len(contexts), V)``; row i is bit for bit ``next_dist(contexts[i])``."""
        out = np.empty((len(contexts), self.vocab.size))
        for dist, context in zip(out, contexts):
            self._fill(dist, as_ids(context))
        return out

    def _fill(self, dist: np.ndarray, context: tuple[int, ...]) -> None:
        o, ctx, total = self._level(context)
        v = dist.size
        denom = total + self.k_s * v
        if denom == 0:
            dist.fill(0.0)  # k_s = 0 with an empty unigram table cannot happen
            return
        # Same float operations as (count + k_s) / denom per token.
        dist.fill(self.k_s / denom)
        rows = self._rows.get(o)
        if rows is None:
            rows = self._rows[o] = _Rows(self.counts[o], v)
        span = rows.index.get(ctx)
        if span is not None:
            start, end = span
            dist[rows.next_ids[start:end]] = (rows.counts[start:end] + self.k_s) / denom

    def score(self, seq, context: Sequence[int] = ()) -> float:
        ids = as_ids(seq)
        ctx = list(as_ids(context))
        total = 0.0
        for tok in ids:
            p = self.token_prob(tok, tuple(ctx))
            if p <= 0.0:
                return -np.inf
            total += np.log(p)
            ctx.append(tok)
        return float(total)


class _Rows:
    """Observed continuations of every context of one order, CSR style.

    The continuations of ``ctx`` are ``next_ids[start:end]`` with counts
    ``counts[start:end]``, where ``(start, end) = index[ctx]``. Next ids
    outside the vocab are left out, as no distribution entry holds them.
    """

    __slots__ = ("index", "next_ids", "counts")

    def __init__(self, table: dict[tuple[int, ...], int], vocab_size: int) -> None:
        grouped: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for gram, c in table.items():
            if 0 <= gram[-1] < vocab_size:
                grouped.setdefault(gram[:-1], []).append((gram[-1], c))
        self.index: dict[tuple[int, ...], tuple[int, int]] = {}
        flat: list[tuple[int, int]] = []
        for ctx, row in grouped.items():
            self.index[ctx] = (len(flat), len(flat) + len(row))
            flat += row
        pairs = np.array(flat, dtype=np.int64).reshape(len(flat), 2)
        self.next_ids = pairs[:, 0]
        self.counts = pairs[:, 1]


def ngram_fit(
    corpus: TokenSequence | Iterable[TokenSequence],
    order: int,
    k_s: float = 1.0,
    vocab: Vocab | None = None,
) -> NGramLM:
    """Count n-grams of orders 1..order over one or more sequences.

    Windows never span sequence boundaries. The vocab defaults to the
    vocab of the first sequence; pass one explicitly when fitting on raw
    generated ids.
    """
    if order < 1:
        raise BadOrder("n-gram order must be at least 1")
    if isinstance(corpus, TokenSequence):
        corpus = [corpus]
    sequences = list(corpus)
    if not sequences:
        raise EmptyInput("no training sequences")
    if vocab is None:
        vocab = sequences[0].vocab
    counts: dict[int, dict[tuple[int, ...], int]] = {
        o: Counter() for o in range(1, order + 1)
    }
    for seq in sequences:
        ids = as_ids(seq)
        for o in range(1, order + 1):
            # The windows ids[i : i + o], in order, counted in C.
            counts[o].update(zip(*(ids[j:] for j in range(o))))
    return NGramLM(vocab, order, k_s, {o: dict(t) for o, t in counts.items()})
