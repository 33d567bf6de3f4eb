"""Quality and diversity metrics over sets of generated continuations.

All metrics operate on continuations only; prefixes are shared human
text and would dilute every score. BLEU here is the clipped modified
n-gram precision form: geometric mean of precisions for n = 1..max_n
(capped at the candidate length so a candidate identical to a reference
always scores 1.0), zero-count precisions replaced by a small epsilon,
times the brevity penalty exp(min(0, 1 - r/c)) where r is the closest
reference length with ties broken toward the shorter reference.

Corpus-BLEU and Self-BLEU score each candidate against a shared
reference pool, so references are pre-hashed into per-order max-count
tables once instead of being rescanned per candidate; the slow path
this replaces is kept alive as a brute-force oracle in the test suite
and the two must agree exactly.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import TokenSequence, Vocab, extract_ngrams
from .errors import ConfigError, InsufficientSamples
from .lm.base import as_ids
from .lm.ngram import NGramLM, ngram_fit
from .rng import SplitMix64


@dataclass(frozen=True)
class Sample:
    id: str
    prefix: TokenSequence | None
    continuation: TokenSequence


@dataclass(frozen=True)
class SampleSet:
    """Generated (or human) continuations plus their provenance.

    Provenance records model id, strategy, parameter, and seed; ids must
    be unique and every sequence must index the same vocab.
    """

    samples: tuple[Sample, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ConfigError("sample ids must be unique")
        vocabs = {id(s.continuation.vocab) for s in self.samples}
        if len(vocabs) > 1:
            first = self.samples[0].continuation.vocab
            for s in self.samples:
                if s.continuation.vocab != first:
                    raise ConfigError("all samples must share one vocab")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def vocab(self) -> Vocab:
        return self.samples[0].continuation.vocab

    def continuations(self) -> list[TokenSequence]:
        return [s.continuation for s in self.samples]


@dataclass(frozen=True)
class BleuConfig:
    max_n: int = 4
    smoothing_epsilon: float = 1e-9
    # Candidate-set subsample for the corpus-level metrics; None = all.
    subsample: int | None = None
    subsample_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ConfigError("max_n must be at least 1")
        if not self.smoothing_epsilon > 0:
            raise ConfigError("smoothing epsilon must be positive")
        if self.subsample is not None and self.subsample < 1:
            raise ConfigError("subsample must be positive")


class RefIndex:
    """Per-order hashed max-counts over a fixed reference pool.

    :func:`corpus_bleu` accepts one in place of the reference set, so a
    caller scoring many candidate sets against the same references (a
    sweep, once per cell) builds it once.
    """

    def __init__(self, refs: Sequence[Sequence[int]], max_n: int) -> None:
        self.max_n = max_n
        self.lengths = sorted(len(r) for r in refs)
        self.max_counts: list[dict[tuple[int, ...], int]] = [dict() for _ in range(max_n)]
        for ref in refs:
            for n in range(1, max_n + 1):
                table = self.max_counts[n - 1]
                for gram, c in extract_ngrams(ref, n).items():
                    if c > table.get(gram, 0):
                        table[gram] = c

    @classmethod
    def from_set(cls, ref: SampleSet, max_n: int) -> "RefIndex":
        return cls([s.continuation.ids for s in ref.samples], max_n)

    def clipped(self, gram_counts: Counter, n: int) -> int:
        table = self.max_counts[n - 1]
        return sum(min(c, table.get(g, 0)) for g, c in gram_counts.items())

    def closest_length(self, c_len: int) -> int:
        return _closest(self.lengths, c_len)


def _closest(sorted_lengths: list[int], c_len: int, skip_one_of: int | None = None) -> int:
    """Nearest length, ties toward the shorter; optionally ignore one copy."""
    # Fixed-length pools are the common case; answer without scanning.
    if sorted_lengths and sorted_lengths[0] == sorted_lengths[-1]:
        if skip_one_of != sorted_lengths[0] or len(sorted_lengths) > 1:
            return sorted_lengths[0]
    best: int | None = None
    best_key: tuple[int, int] | None = None
    pos = bisect.bisect_left(sorted_lengths, c_len)
    skipped = False
    lo, hi = pos - 1, pos
    n = len(sorted_lengths)
    while lo >= 0 or hi < n:
        for idx in (hi if hi < n else None, lo if lo >= 0 else None):
            if idx is None:
                continue
            length = sorted_lengths[idx]
            if not skipped and length == skip_one_of:
                skipped = True
                continue
            key = (abs(length - c_len), length)
            if best_key is None or key < best_key:
                best, best_key = length, key
        # Distances grow outward on sorted data; once both frontiers are
        # strictly past the best distance nothing remaining can win,
        # even on the shorter-length tie-break.
        if best_key is not None:
            left_done = lo < 0 or c_len - sorted_lengths[lo] > best_key[0]
            right_done = hi >= n or sorted_lengths[hi] - c_len > best_key[0]
            if left_done and right_done:
                break
        lo -= 1
        hi += 1
    return best if best is not None else 0


def _bleu_core(cand: tuple[int, ...], clipped_fn, cfg: BleuConfig, ref_length: int) -> float:
    c_len = len(cand)
    orders = min(cfg.max_n, c_len)
    log_sum = 0.0
    for n in range(1, orders + 1):
        counts = extract_ngrams(cand, n)
        matched = clipped_fn(counts, n)
        p = matched / (c_len - n + 1) if matched > 0 else cfg.smoothing_epsilon
        log_sum += math.log(p)
    geo = math.exp(log_sum / orders)
    return math.exp(min(0.0, 1.0 - ref_length / c_len)) * geo


def bleu(candidate, references: Sequence, cfg: BleuConfig | None = None) -> float:
    """BLEU of one candidate against one or more references."""
    cfg = cfg or BleuConfig()
    refs = [as_ids(r) for r in references]
    if not refs:
        raise InsufficientSamples("bleu needs at least one reference")
    cand = as_ids(candidate)
    index = RefIndex(refs, cfg.max_n)
    return _bleu_core(cand, index.clipped, cfg, index.closest_length(len(cand)))


def _pick_candidates(n: int, cfg: BleuConfig) -> list[int]:
    if cfg.subsample is None or cfg.subsample >= n:
        return list(range(n))
    order = list(range(n))
    SplitMix64(cfg.subsample_seed).shuffle(order)
    return sorted(order[: cfg.subsample])


def corpus_bleu(gen: SampleSet, ref: SampleSet | RefIndex, cfg: BleuConfig | None = None) -> float:
    """Mean BLEU of generated continuations against the reference pool.

    ``ref`` is the reference set or a :class:`RefIndex` built from it
    with ``cfg.max_n``.
    """
    cfg = cfg or BleuConfig()
    index = ref if isinstance(ref, RefIndex) else RefIndex.from_set(ref, cfg.max_n)
    if not len(gen) or not index.lengths:
        raise InsufficientSamples("corpus_bleu needs non-empty gen and ref sets")
    if index.max_n != cfg.max_n:
        raise ConfigError(f"reference index has max_n={index.max_n}, config wants {cfg.max_n}")
    chosen = _pick_candidates(len(gen), cfg)
    total = 0.0
    for i in chosen:
        cand = gen.samples[i].continuation.ids
        total += _bleu_core(cand, index.clipped, cfg, index.closest_length(len(cand)))
    return total / len(chosen)


class _LooIndex:
    """Reference index supporting leave-one-out queries.

    Tracks the best and second-best per-sequence count of every gram
    along with the best count's owner, so the max over "all sequences
    except i" is a dict lookup instead of a rescan.
    """

    def __init__(self, seqs: Sequence[tuple[int, ...]], max_n: int) -> None:
        self.tables: list[dict[tuple[int, ...], tuple[int, int, int]]] = [
            dict() for _ in range(max_n)
        ]
        self.lengths = sorted(len(s) for s in seqs)
        for owner, ids in enumerate(seqs):
            for n in range(1, max_n + 1):
                table = self.tables[n - 1]
                for gram, c in extract_ngrams(ids, n).items():
                    best, who, second = table.get(gram, (0, -1, 0))
                    if c >= best:
                        table[gram] = (c, owner, best)
                    elif c > second:
                        table[gram] = (best, who, c)

    def clipped_excluding(self, gram_counts: Counter, n: int, exclude: int) -> int:
        table = self.tables[n - 1]
        matched = 0
        for g, c in gram_counts.items():
            best, who, second = table.get(g, (0, -1, 0))
            matched += min(c, second if who == exclude else best)
        return matched

    def closest_length_excluding(self, c_len: int, own_len: int) -> int:
        return _closest(self.lengths, c_len, skip_one_of=own_len)


def self_bleu(gen: SampleSet, cfg: BleuConfig | None = None) -> float:
    """Mean BLEU of each continuation against all the others.

    High values mean the samples resemble each other (low diversity).
    When a subsample is configured both the candidates and their
    leave-one-out references come from the subsampled set.
    """
    cfg = cfg or BleuConfig()
    chosen = _pick_candidates(len(gen), cfg)
    if len(chosen) < 2:
        raise InsufficientSamples("self_bleu needs at least two samples")
    seqs = [gen.samples[i].continuation.ids for i in chosen]
    index = _LooIndex(seqs, cfg.max_n)
    total = 0.0
    for i, cand in enumerate(seqs):
        def clipped(counts, n, _i=i):
            return index.clipped_excluding(counts, n, _i)

        ref_len = index.closest_length_excluding(len(cand), len(cand))
        total += _bleu_core(cand, clipped, cfg, ref_len)
    return total / len(seqs)


def seq_rep_n(seq, n: int = 4) -> float | None:
    """Repeated n-gram fraction: 1 - unique/total. None when len < n."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    ids = as_ids(seq)
    if len(ids) < n:
        return None
    grams = [ids[i : i + n] for i in range(len(ids) - n + 1)]
    return 1.0 - len(set(grams)) / len(grams)


def mean_seq_rep(gen: SampleSet, n: int = 4) -> tuple[float | None, int]:
    """Average seq_rep_n over a set; returns (mean, null count)."""
    values = []
    nulls = 0
    for s in gen.samples:
        v = seq_rep_n(s.continuation, n)
        if v is None:
            nulls += 1
        else:
            values.append(v)
    if not values:
        return None, nulls
    return sum(values) / len(values), nulls


def _pooled_ppl(scorer, sset: SampleSet) -> float:
    """exp of the token-weighted mean NLL of ``sset``'s continuations, each
    scored from an empty context so that samples never condition each other."""
    seqs = [s.continuation.ids for s in sset.samples]
    total_lp = 0.0
    for lp in scorer.score_batch(seqs):
        if not math.isfinite(lp):
            return math.inf
        total_lp += lp
    return math.exp(-total_lp / sum(map(len, seqs)))


def forward_ppl(scorer, gen: SampleSet) -> float:
    """Perplexity of the generated continuations under ``scorer``."""
    if not len(gen):
        raise InsufficientSamples("forward_ppl needs at least one sample")
    return _pooled_ppl(scorer, gen)


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
    if not k_s > 0:
        raise ConfigError("reverse_ppl requires k_s > 0")
    if not len(gen) or not len(human_test):
        raise InsufficientSamples("reverse_ppl needs non-empty gen and human sets")
    scorer = ngram_fit(gen.continuations(), order=order, k_s=k_s, vocab=human_test.vocab)
    return _pooled_ppl(scorer, human_test)


def acceptability_penlp(scorer, sentences, alpha: float = 0.6) -> list[float]:
    """Length-normalized log-probability of each sentence, from one
    ``score_batch`` call: ln p / ((5 + |s|) / 6) ** alpha.

    Less negative is more acceptable. alpha = 0 disables normalization;
    a single-token sentence has penalty exactly 1.
    """
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    sentences = [as_ids(s) for s in sentences]
    if not all(sentences):
        raise InsufficientSamples("cannot score an empty sentence")
    scores = scorer.score_batch(sentences)
    return [lp / ((5.0 + len(ids)) / 6.0) ** alpha for ids, lp in zip(sentences, scores)]
