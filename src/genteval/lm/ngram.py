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

The grams of each order live in a :class:`genteval.corpus.GramTable`,
their counts beside it in key order. One backoff chain, with one
``GramTable.find`` per order, reads ids end to end, each id's context
the ids after the last -1 before it: ``score_batch`` lays them out with
:func:`genteval.lm.base.id_lines`, ``next_dist_batch`` appends a -1 to
each window. A query id that no gram holds reads as an unknown token.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..corpus import GramTable, Vocab, ngram_windows
from ..errors import BadOrder, ConfigError, EmptyInput
from .base import id_lines, left_padded, summed_scores


def check_settings(order: int, k_s: float) -> None:
    """Refuse an order below 1 or a smoothing constant that is negative, inf or NaN."""
    if order < 1:
        raise BadOrder("n-gram order must be at least 1")
    if not 0 <= k_s < math.inf:
        raise ConfigError(f"smoothing constant must be non-negative and finite, not {k_s}")


class NGramLM:
    backend = "ngram"

    def __init__(self, vocab: Vocab, order: int, k_s: float, table: GramTable, counts: dict) -> None:
        """``table``: the grams of orders 1..``order`` or more; ``counts[o]``:
        the counts of order o's grams, in key order."""
        check_settings(order, k_s)
        self.vocab, self.order, self.k_s, self.table = vocab, order, float(k_s), table
        # counts[o] views all but a trailing 0 that row -1 (no gram) reads.
        self._counts = {o: np.append(np.asarray(counts[o], dtype=np.int64), 0) for o in range(1, order + 1)}
        self.counts = {o: c[:-1] for o, c in self._counts.items()}
        # Per order: each context row's total count, then a 0 that row -1 (absent) reads.
        self._totals = {}
        for o in self.counts:
            n_ctx = len(table.keys[o - 2]) - 1 if o > 1 else 1
            by_ctx = np.bincount(table.keys[o - 1][:-1] // table.base, self.counts[o], n_ctx)
            self._totals[o] = np.append(by_ctx.astype(np.int64), 0)
        if self._totals[1][0] == 0:
            raise EmptyInput("n-gram model fitted on no tokens")

    @property
    def context_len(self) -> int:
        """Only the last order-1 ids of a context affect a prediction."""
        return self.order - 1

    def _backoff(self, flat: np.ndarray, q: np.ndarray):
        """Backoff level, context row and context total of each id ``flat[q]``, and per
        order k < ``order`` the row of the k-gram ending at each id. An id's context is
        the ids after the last -1 before it; overwrites ``flat``."""
        self.table.clip(flat, out=flat)
        level, row = np.ones(len(q), dtype=np.int64), np.zeros(len(q), dtype=np.int64)
        total, ends, avail = np.full(len(q), self._totals[1][0]), [], np.ones(len(q), dtype=bool)
        prefix = np.zeros(len(flat), dtype=np.int64)  # row of the (k-1)-gram ending before i
        for k in range(1, self.order):
            ends.append(self.table.find(k, prefix, flat))  # row of the k-gram ending at i
            prefix = np.concatenate(([-1], ends[-1][:-1]))
            avail &= flat[q - k] >= 0  # no -1 among the k ids before the id
            r = prefix[q]
            t = self._totals[k + 1][r]
            pick = avail if self.k_s > 0 else t > 0
            level, row, total = np.where(pick, k + 1, level), np.where(pick, r, row), np.where(pick, t, total)
        return level, row, total, ends

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        return self.next_dist_batch(left_padded([context], self.context_len))[0]

    def next_dist_batch(self, windows: np.ndarray) -> np.ndarray:
        """``(rows, V)``: the distributions after the ids past each row's last -1."""
        rows, w = windows.shape
        flat = np.concatenate((windows, np.full((rows, 1), -1)), axis=1).ravel()  # then the next id
        level, row, total, _ = self._backoff(flat, np.arange(w, len(flat), w + 1))
        v = self.vocab.size
        denom = total + self.k_s * v
        # Same float operations as (count + k_s) / denom per token.
        out = np.empty((len(level), v))
        out[:] = (self.k_s / denom)[:, None]
        keys, base = self.table.keys, self.table.base
        for o in np.flatnonzero(np.bincount(level[row >= 0])).tolist():  # the levels that answer from counts
            b = np.flatnonzero((level == o) & (row >= 0))
            first = row[b] * base  # context r's keys run from r * base, ascending with their last ids
            lo = np.searchsorted(keys[o - 1], first)
            n = np.searchsorted(keys[o - 1], first + min(v, base)) - lo  # a counted id the vocab lacks has no entry
            at = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
            b, nxt = np.repeat(b, n), keys[o - 1][at] - np.repeat(first, n)
            out[b, nxt] = (self.counts[o][at] + self.k_s) / denom[b]
        return out

    def score_batch(self, seqs, contexts: Sequence[Sequence[int]] = ()) -> list[float]:
        """The summed log-probability of each ``seqs[i]`` after ``contexts[i]``,
        from one lookup; a zero-probability token makes it -inf."""
        return summed_scores(self._token_logp, seqs, contexts)

    def _token_logp(self, seqs, contexts) -> np.ndarray:
        flat, q = id_lines(seqs, contexts, self.context_len)
        level, row, total, ends = self._backoff(flat, q)
        # Each id's gram count at its level; a top-order id's context is ``row``.
        top = self.table.find(self.order, np.where(level == self.order, row, -1), flat[q])
        count = self._counts[self.order][top]
        for k, e in enumerate(ends, 1):
            count = np.where(level == k, self._counts[k][e[q]], count)
        p = (count + self.k_s) / (total + self.k_s * self.vocab.size)
        return np.log(p, out=np.full(len(p), -np.inf), where=p > 0)


def ngram_fit(ids, vocab: Vocab, order: int, k_s: float = 1.0, lengths=None, windows: tuple | None = None) -> NGramLM:
    """Count n-grams of orders 1..order over some sequences of ids from ``vocab``.

    ``ids`` is a matrix whose rows are the sequences, or flat ids: the
    sequences of ``lengths`` end to end, or one sequence when ``lengths``
    is None. Windows never span sequences. ``windows``, when given, is
    ``ngram_windows`` of the sequences at least ``order`` deep, counted by
    the caller.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 2:
        ids, lengths = ids.reshape(-1), [ids.shape[1]] * len(ids)
    if windows is None:
        windows = ngram_windows(ids, [len(ids)] if lengths is None else lengths, order)
    _, _, grams, table = windows
    counts = {o: np.bincount(grams[o - 1][grams[o - 1] >= 0]) for o in range(1, order + 1)}
    return NGramLM(vocab, order, k_s, table, counts)
