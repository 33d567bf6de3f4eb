"""Quality and diversity metrics over sets of generated continuations.

All metrics operate on continuations only; prefixes are shared human
text and would dilute every score. BLEU here is the clipped modified
n-gram precision form: geometric mean of precisions for n = 1..max_n
(capped at the candidate length so a candidate identical to a reference
always scores 1.0), zero-count precisions replaced by a small epsilon,
times the brevity penalty exp(min(0, 1 - r/c)) where r is the closest
reference length with ties broken toward the shorter reference.

A :class:`SampleSet` holds its continuations as one flat int64 id array
with row offsets, and the perplexities score views of it. It counts
their n-grams once, as the dense gram ids of ``corpus.ngram_windows``,
and Self-BLEU, seq-rep-n and the reverse-ppl fit read that one count.
Corpus BLEU looks each candidate n-gram up in the reference set's
``corpus.GramTable``, built once per set, and caps its count at the
gram's largest count in one reference; a gram no reference holds
matches nothing.
Self-BLEU counts every (sequence, gram) pair with one ``np.unique`` per
order, and one ``lexsort`` per order ranks each gram's counts across
the sequences, so a candidate's clipped count is the lesser of its own
and the best count in a sequence other than itself. Matched counts are
integers and each candidate's floats stay in Python, so the values
equal those of the brute-force oracle in the test suite exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import GramTable, Vocab, flat_rows, ngram_windows, positions, row_lists
from .errors import BadOrder, ConfigError, InsufficientSamples
from .lm.ngram import check_settings, ngram_fit
from .rng import SplitMix64


@dataclass(frozen=True)
class Sample:
    """One sample of a :class:`SampleSet`: views of its prefix (possibly empty) and continuation ids."""

    id: str
    prefix: np.ndarray
    continuation: np.ndarray


class SampleSet:
    """Generated (or human) continuations plus their provenance, as flat ids.

    Sample i, named ``names[i]`` (unique), continues with the ids
    ``flat[bounds[i]:bounds[i + 1]]`` of ``vocab`` after its prefix
    ``prefix_flat[prefix_bounds[i]:prefix_bounds[i + 1]]``, possibly empty.
    Each part comes in as an id matrix or id sequences (``corpus.flat_rows``)
    that the caller checked against the vocab; ``samples`` views them as
    :class:`Sample` objects, built on first use. Provenance records model
    id, strategy, parameter, and seed.

    A set counts its continuations' n-grams once. ``_grams`` memoizes the
    deepest :meth:`_windows` asked for so far, which serve every lower
    order, and, on a reference set, corpus BLEU's table
    (:func:`_reference_table`). One cell's Self-BLEU, seq-rep-n and
    reverse-ppl fit thus share one windowing pass, and a sweep, whose
    metrics share one reference set, builds the table once. A subsample
    is a new set that counts its own n-grams.
    """

    def __init__(self, names, vocab: Vocab | None, continuations, prefixes=None, provenance: dict | None = None):
        self.names, self.vocab, self.provenance = tuple(names), vocab, dict(provenance or {})
        if len(set(self.names)) != len(self.names):
            raise ConfigError("sample ids must be unique")
        self.flat, self.bounds = flat_rows(continuations)
        self.lengths = np.diff(self.bounds)
        self.prefix_flat, self.prefix_bounds = flat_rows([()] * len(self.names) if prefixes is None else prefixes)
        if not len(self.bounds) == len(self.prefix_bounds) == len(self.names) + 1:
            raise ConfigError("need one continuation and one prefix per sample")
        for a in (self.flat, self.bounds, self.lengths, self.prefix_flat, self.prefix_bounds):
            a.setflags(write=False)  # the n-gram memo counts these ids once
        self._grams: dict = {}

    def __len__(self) -> int:
        return len(self.names)

    def continuations(self) -> list[np.ndarray]:
        """Views of each sample's continuation ids."""
        return row_lists(self.flat, self.bounds)

    @cached_property
    def samples(self) -> tuple[Sample, ...]:
        prefixes = row_lists(self.prefix_flat, self.prefix_bounds)
        return tuple(map(Sample, self.names, prefixes, self.continuations()))

    def _windows(self, max_n: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], GramTable]:
        """``corpus.ngram_windows`` of the continuations for orders 1..max_n
        or more, from the deepest windows counted so far."""
        if max_n < 1:
            raise BadOrder("n-gram order must be at least 1")
        held = self._grams.get("windows")
        if held is None or (len(held[2]) < max_n and len(held[2]) < int(self.lengths.max())):
            held = self._grams["windows"] = ngram_windows(self.flat, self.lengths, max_n)
            for a in (held[1], *held[2], *held[3].keys):
                a.setflags(write=False)  # every metric of the set reads these arrays
        flat, owner, ids, table = held
        pad = max(0, max_n - len(ids))  # the held windows rank every order that has any
        keys = table.keys + [np.array([GramTable.END])] * pad
        return flat, owner, ids + [np.full(len(flat), -1, dtype=np.int64)] * pad, GramTable(table.base, keys)


SMOOTHING_EPSILON = 1e-9  # a clipped precision of zero counts as this


@dataclass(frozen=True)
class BleuConfig:
    max_n: int = 4
    # Candidate-set subsample for the corpus-level metrics; None = all.
    subsample: int | None = None
    subsample_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ConfigError("max_n must be at least 1")
        if self.subsample is not None and self.subsample < 1:
            raise ConfigError("subsample must be positive")


def _pair_counts(owner: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct (sequence, gram) pair among one order's windows, with
    its count, ordered by sequence, then gram."""
    at = ids >= 0
    base = int(ids.max(initial=0)) + 1
    keys, counts = np.unique(owner[at] * base + ids[at], return_counts=True)
    return keys // base, keys % base, counts


def _clipped_counts(cands: SampleSet, max_n: int) -> np.ndarray:
    """Clipped n-gram matches of each candidate against all the others:
    entry (i, n - 1) sums, over candidate i's n-grams, its count capped at
    the gram's largest count in one candidate other than i. Orders past
    the longest candidate have no n-grams, so the columns stop there."""
    max_n = min(max_n, int(cands.lengths.max()))
    _, owner, ids, _ = cands._windows(max_n)
    out = np.zeros((len(cands), max_n), dtype=np.int64)
    for n in range(max_n):
        seq, gram, count = _pair_counts(owner, ids[n])
        # By gram, then count descending: each gram's first entry holds its
        # best count and that count's owner, the next entry of the same gram
        # the second best. On a tie the two are equal, so the owner is moot.
        order = np.lexsort((-count, gram))
        r_seq, r_gram, r_count = seq[order], gram[order], count[order]
        head = np.flatnonzero(np.diff(r_gram, prepend=-1))
        has_second = np.append(r_gram, -1)[head + 1] == r_gram[head]
        n_grams = int(ids[n].max(initial=-1)) + 1
        best, second = np.zeros((2, n_grams), dtype=np.int64)
        owner_of_best = np.full(n_grams, -1)
        best[r_gram[head]], owner_of_best[r_gram[head]] = r_count[head], r_seq[head]
        second[r_gram[head[has_second]]] = r_count[head[has_second] + 1]
        clip = np.minimum(count, np.where(owner_of_best[gram] == seq, second[gram], best[gram]))
        out[:, n] = np.bincount(seq, weights=clip, minlength=len(out))
    return out


def _reference_table(ref: SampleSet, depth: int) -> tuple[GramTable, list[np.ndarray]]:
    """``ref``'s gram table and, per order 1..``depth`` or more, each gram's
    largest count in one reference: corpus BLEU's table, each order built once per set."""
    best = ref._grams.setdefault("best", [])
    _, owner, ids, table = ref._windows(depth)
    for o in range(len(best), depth):
        _, gram, count = _pair_counts(owner, ids[o])
        best.append(np.zeros(len(table.keys[o]) - 1, dtype=np.int64))
        np.maximum.at(best[o], gram, count)
    return table, best


def _reference_matches(cands: SampleSet, ref: SampleSet, max_n: int) -> np.ndarray:
    """Clipped n-gram matches of each candidate against the references:
    entry (i, n - 1) sums, over candidate i's n-grams, its count capped at
    the gram's largest count in one reference. Each order takes one
    ``GramTable.find`` of the candidate windows whose prefix the table
    holds, and counts only the windows it finds there. The columns stop at
    the longest candidate; orders past the longest reference match nothing."""
    n_cols = min(max_n, int(cands.lengths.max()))
    out = np.zeros((len(cands), n_cols), dtype=np.int64)
    table, best = _reference_table(ref, min(n_cols, int(ref.lengths.max())))
    owner, room = positions(cands.lengths)
    last = table.clip(cands.flat)
    at, row = np.argsort(last), np.zeros(len(last), dtype=np.int64)  # id-ordered windows (faster searches), rows or -1
    for o in range(min(n_cols, len(best))):
        live = (room[at] > o) & (row >= 0)  # the windows that go on past a prefix the table holds
        at = at[live]
        row = table.find(o + 1, row[live], last[at + o])
        seq, gram, count = _pair_counts(owner[at], row)
        out[:, o] = np.bincount(seq, weights=np.minimum(count, best[o][gram]), minlength=len(out))
    return out


def _closest(ref_lens: np.ndarray, c_lens: np.ndarray, skip: int) -> np.ndarray:
    """Nearest reference length to each candidate length, ties toward the
    shorter, once ``skip`` copies of the candidate's own length are set aside."""
    pool = np.sort(ref_lens)
    lo, hi = np.searchsorted(pool, c_lens, "left"), np.searchsorted(pool, c_lens, "right")
    far = 1 << 62  # farther than any length, so never the nearest
    padded = np.concatenate(([-far], pool, [far]))
    below, above = padded[lo], padded[hi + 1]
    nearest = np.where(c_lens - below <= above - c_lens, below, above)
    return np.where(hi - lo > skip, c_lens, nearest)


def _mean_bleu(matched: np.ndarray, c_lens: np.ndarray, r_lens: np.ndarray, max_n: int) -> float:
    """Mean BLEU over candidates of lengths ``c_lens`` with clipped matches
    ``matched`` and closest reference lengths ``r_lens``.

    Matched counts are integers; each candidate's floats are Python's,
    summed left to right, as the brute-force oracle computes them.
    """
    total = 0.0
    for c_len, r_len, row in zip(c_lens.tolist(), r_lens.tolist(), matched.tolist()):
        orders = min(max_n, c_len)
        log_sum = 0.0
        for n in range(1, orders + 1):
            m = row[n - 1]
            p = m / (c_len - n + 1) if m > 0 else SMOOTHING_EPSILON
            log_sum += math.log(p)
        geo = math.exp(log_sum / orders)
        total += math.exp(min(0.0, 1.0 - r_len / c_len)) * geo
    return total / len(c_lens)


def _candidates(gen: SampleSet, cfg: BleuConfig) -> SampleSet:
    """``gen``, or its configured subsample as a new set."""
    if cfg.subsample is None or cfg.subsample >= len(gen):
        return gen
    order = list(range(len(gen)))
    SplitMix64(cfg.subsample_seed).shuffle(order)
    keep, rows = sorted(order[: cfg.subsample]), gen.continuations()
    return SampleSet([gen.names[i] for i in keep], gen.vocab, [rows[i] for i in keep], provenance=gen.provenance)


def corpus_bleu(gen: SampleSet, ref: SampleSet, cfg: BleuConfig | None = None) -> float:
    """Mean BLEU of generated continuations against the reference pool."""
    cfg = cfg or BleuConfig()
    if not len(gen) or not len(ref):
        raise InsufficientSamples("corpus_bleu needs non-empty gen and ref sets")
    cands = _candidates(gen, cfg)
    c_lens = cands.lengths
    matched = _reference_matches(cands, ref, cfg.max_n)
    return _mean_bleu(matched, c_lens, _closest(ref.lengths, c_lens, 0), cfg.max_n)


def self_bleu(gen: SampleSet, cfg: BleuConfig | None = None) -> float:
    """Mean BLEU of each continuation against all the others.

    High values mean the samples resemble each other (low diversity).
    When a subsample is configured both the candidates and their
    leave-one-out references come from the subsampled set.
    """
    cfg = cfg or BleuConfig()
    cands = _candidates(gen, cfg)
    if len(cands) < 2:
        raise InsufficientSamples("self_bleu needs at least two samples")
    c_lens = cands.lengths
    return _mean_bleu(_clipped_counts(cands, cfg.max_n), c_lens, _closest(c_lens, c_lens, 1), cfg.max_n)


def _seq_reps(windows: tuple, n_seqs: int, n: int) -> list[float | None]:
    """1 - distinct/total n-grams of each sequence of ``windows``
    (``corpus.ngram_windows`` of ``n_seqs`` sequences); None where it has none."""
    _, owner, ids, _ = windows
    seq, _, _ = _pair_counts(owner, ids[n - 1])
    total = np.bincount(owner[ids[n - 1] >= 0], minlength=n_seqs)
    reps = 1.0 - np.bincount(seq, minlength=n_seqs) / np.maximum(total, 1)
    return [r if t else None for r, t in zip(reps.tolist(), total.tolist())]


def seq_rep_n(seq, n: int = 4) -> float | None:
    """Repeated n-gram fraction: 1 - unique/total. None when len < n."""
    return _seq_reps(ngram_windows(seq, [len(seq)], n), 1, n)[0]


def mean_seq_rep(gen: SampleSet, n: int = 4) -> tuple[float | None, int]:
    """Average seq_rep_n over a set; returns (mean, null count)."""
    values = [v for v in _seq_reps(gen._windows(n), len(gen), n) if v is not None]
    nulls = len(gen) - len(values)
    if not values:
        return None, nulls
    return sum(values) / len(values), nulls


def _pooled_ppl(scorer, sset: SampleSet) -> float:
    """exp of the token-weighted mean NLL of ``sset``'s continuations, each
    scored from an empty context so that samples never condition each other."""
    total_lp = 0.0
    for lp in scorer.score_batch(sset.continuations()):
        if not math.isfinite(lp):
            return math.inf
        total_lp += lp
    return math.exp(-total_lp / len(sset.flat))


def forward_ppl(scorer, gen: SampleSet) -> float:
    """Perplexity of the generated continuations under ``scorer``."""
    if not len(gen):
        raise InsufficientSamples("forward_ppl needs at least one sample")
    return _pooled_ppl(scorer, gen)


def check_reverse_settings(order: int, k_s: float) -> None:
    """Refuse an n-gram setting :func:`reverse_ppl` cannot fit with."""
    check_settings(order, k_s)
    if not k_s > 0:
        raise ConfigError("reverse_ppl requires k_s > 0")


def reverse_ppl(
    gen: SampleSet,
    human_test: SampleSet,
    order: int = 2,
    k_s: float = 1.0,
) -> float:
    """Fit a fresh n-gram LM on the generations, score the human text.

    Degenerate generations yield a model that finds real text surprising,
    pushing this up. Smoothing is mandatory (k_s > 0): the fitted model
    must assign finite probability to unseen human n-grams. The model is
    smoothed over the human set's vocab, so every model's generations are
    compared over the same tokens.
    """
    check_reverse_settings(order, k_s)
    if not len(gen) or not len(human_test):
        raise InsufficientSamples("reverse_ppl needs non-empty gen and human sets")
    scorer = ngram_fit(gen.flat, human_test.vocab, order, k_s, lengths=gen.lengths, windows=gen._windows(order))
    return _pooled_ppl(scorer, human_test)


def acceptability_penlp(scorer, sentences, alpha: float = 0.6) -> list[float]:
    """Length-normalized log-probability of each sentence, from one
    ``score_batch`` call: ln p / ((5 + |s|) / 6) ** alpha.

    Less negative is more acceptable. alpha = 0 disables normalization;
    a single-token sentence has penalty exactly 1.
    """
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    if not all(map(len, sentences)):
        raise InsufficientSamples("cannot score an empty sentence")
    scores = scorer.score_batch(sentences)
    return [lp / ((5.0 + len(ids)) / 6.0) ** alpha for ids, lp in zip(sentences, scores)]
