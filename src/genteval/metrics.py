"""Quality and diversity metrics over sets of generated continuations.

All metrics operate on continuations only; prefixes are shared human
text and would dilute every score. BLEU here is the clipped modified
n-gram precision form: geometric mean of precisions for n = 1..max_n
(capped at the candidate length so a candidate identical to a reference
always scores 1.0), zero-count precisions replaced by a small epsilon,
times the brevity penalty exp(min(0, 1 - r/c)) where r is the closest
reference length with ties broken toward the shorter reference.

BLEU, Self-BLEU and seq-rep-n count n-grams as the dense gram ids of
``corpus.ngram_windows``, references and candidates in one call. One
``np.unique`` per order counts every (sequence, gram) pair; one
``lexsort`` per order ranks each gram's counts across the references,
so a candidate's clipped count is the lesser of its own and the best
count in a reference other than itself. Matched counts are integers and
each candidate's floats stay in Python, so the values equal those of
the brute-force oracle in the test suite exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenSequence, Vocab, ngram_windows
from .errors import ConfigError, InsufficientSamples
from .lm.base import as_ids
from .lm.ngram import check_settings, ngram_fit
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


def _clipped_counts(seqs: list, n_refs: int, first_cand: int, max_n: int) -> np.ndarray:
    """Clipped n-gram matches of candidates ``seqs[first_cand:]`` against
    references ``seqs[:n_refs]``: entry (i, n - 1) sums, over candidate i's
    n-grams, its count capped at the gram's largest count in one reference
    other than the candidate itself. Orders past the longest sequence have
    no n-grams, so the columns stop there."""
    max_n = max(1, min(max_n, max(map(len, seqs))))
    _, owner, ids = ngram_windows(seqs, max_n)
    out = np.zeros((len(seqs) - first_cand, max_n), dtype=np.int64)
    for n in range(max_n):
        seq, gram, count = _pair_counts(owner, ids[n])
        ref = seq < n_refs
        # By gram, then count descending: each gram's first entry holds its
        # best count and that count's owner, the next entry of the same gram
        # the second best. On a tie the two are equal, so the owner is moot.
        order = np.lexsort((-count[ref], gram[ref]))
        r_seq, r_gram, r_count = seq[ref][order], gram[ref][order], count[ref][order]
        head = np.flatnonzero(np.diff(r_gram, prepend=-1))
        has_second = np.append(r_gram, -1)[head + 1] == r_gram[head]
        n_grams = int(ids[n].max(initial=-1)) + 1
        best, second = np.zeros((2, n_grams), dtype=np.int64)
        owner_of_best = np.full(n_grams, -1)
        best[r_gram[head]], owner_of_best[r_gram[head]] = r_count[head], r_seq[head]
        second[r_gram[head[has_second]]] = r_count[head[has_second] + 1]
        cand = seq >= first_cand
        g, c_seq = gram[cand], seq[cand]
        clip = np.minimum(count[cand], np.where(owner_of_best[g] == c_seq, second[g], best[g]))
        out[:, n] = np.bincount(c_seq - first_cand, weights=clip, minlength=len(out))
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


def _mean_bleu(cands: list, refs: list | None, cfg: BleuConfig) -> float:
    """Mean BLEU of ``cands`` against ``refs``, or, with ``refs`` None, of
    each candidate against all the other candidates (leave-one-out).

    Matched counts are integers; each candidate's floats are Python's,
    summed left to right, as the brute-force oracle computes them.
    """
    loo = refs is None
    pool = cands if loo else refs
    seqs = cands if loo else [*refs, *cands]
    matched = _clipped_counts(seqs, len(pool), len(seqs) - len(cands), cfg.max_n)
    c_lens = np.array([len(c) for c in cands], dtype=np.int64)
    r_lens = _closest(np.array([len(r) for r in pool], dtype=np.int64), c_lens, int(loo))
    total = 0.0
    for c_len, r_len, row in zip(c_lens.tolist(), r_lens.tolist(), matched.tolist()):
        orders = min(cfg.max_n, c_len)
        log_sum = 0.0
        for n in range(1, orders + 1):
            m = row[n - 1]
            p = m / (c_len - n + 1) if m > 0 else SMOOTHING_EPSILON
            log_sum += math.log(p)
        geo = math.exp(log_sum / orders)
        total += math.exp(min(0.0, 1.0 - r_len / c_len)) * geo
    return total / len(cands)


def _pick_candidates(n: int, cfg: BleuConfig) -> list[int]:
    if cfg.subsample is None or cfg.subsample >= n:
        return list(range(n))
    order = list(range(n))
    SplitMix64(cfg.subsample_seed).shuffle(order)
    return sorted(order[: cfg.subsample])


def corpus_bleu(gen: SampleSet, ref: SampleSet, cfg: BleuConfig | None = None) -> float:
    """Mean BLEU of generated continuations against the reference pool."""
    cfg = cfg or BleuConfig()
    if not len(gen) or not len(ref):
        raise InsufficientSamples("corpus_bleu needs non-empty gen and ref sets")
    cands = [gen.samples[i].continuation.ids for i in _pick_candidates(len(gen), cfg)]
    return _mean_bleu(cands, [s.continuation.ids for s in ref.samples], cfg)


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
    return _mean_bleu([gen.samples[i].continuation.ids for i in chosen], None, cfg)


def _seq_reps(seqs: list, n: int) -> list[float | None]:
    """1 - distinct/total n-grams of each sequence; None where it has none."""
    _, owner, ids = ngram_windows(seqs, n)
    seq, _, _ = _pair_counts(owner, ids[n - 1])
    total = np.bincount(owner[ids[n - 1] >= 0], minlength=len(seqs))
    reps = 1.0 - np.bincount(seq, minlength=len(seqs)) / np.maximum(total, 1)
    return [r if t else None for r, t in zip(reps.tolist(), total.tolist())]


def seq_rep_n(seq, n: int = 4) -> float | None:
    """Repeated n-gram fraction: 1 - unique/total. None when len < n."""
    return _seq_reps([as_ids(seq)], n)[0]


def mean_seq_rep(gen: SampleSet, n: int = 4) -> tuple[float | None, int]:
    """Average seq_rep_n over a set; returns (mean, null count)."""
    values = [v for v in _seq_reps([s.continuation.ids for s in gen.samples], n) if v is not None]
    nulls = len(gen) - len(values)
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
