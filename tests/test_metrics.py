"""Text-degeneration metrics against naive oracles and frozen hand values."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genteval import metrics
from genteval.corpus import Vocab
from genteval.errors import ConfigError, DataError, InsufficientSamples
from genteval.harness.samples import load_sample_set, save_sample_set
from genteval.metrics import (
    BleuConfig,
    SampleSet,
    acceptability_penlp,
    corpus_bleu,
    forward_ppl,
    mean_seq_rep,
    reverse_ppl,
    self_bleu,
    seq_rep_n,
)
from genteval.rng import SplitMix64

from oracles import StackedScores, naive_bleu, naive_self_bleu, naive_seq_rep, one_bleu as bleu


def mk_set(seqs, vocab=None, **prov):
    if vocab is None:
        vocab = Vocab.placeholder(1 + max(max(s) for s in seqs))
    return SampleSet([f"s{i}" for i in range(len(seqs))], vocab, seqs, provenance=dict(prov))


class UniformScorer(StackedScores):
    def __init__(self, v):
        self.logp = math.log(1.0 / v)

    def score(self, ids, context=()):
        return len(ids) * self.logp


class FixedScorer(StackedScores):
    def __init__(self, value):
        self.value = value

    def score(self, ids, context=()):
        return self.value


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_cat_sentence():
    # "the cat sat" vs "the cat sat on the mat": all precisions 1,
    # brevity penalty exp(1 - 6/3).
    assert bleu([0, 1, 2], [[0, 1, 2, 3, 0, 4]]) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_bleu_brevity_only():
    assert bleu([1, 2, 3], [[1, 2, 3, 4]]) == pytest.approx(
        math.exp(-1.0 / 3.0), abs=1e-12
    )


def test_bleu_ref_length_tie_goes_shorter():
    # No gram overlap: every order takes epsilon. Lengths 2 and 4 tie
    # around the len-3 candidate; shorter wins so BP is 1, not exp(-1/3).
    assert bleu([7, 7, 7], [[1, 2], [3, 4, 5, 6]]) == pytest.approx(1e-9, rel=1e-9)


def test_bleu_empty_references():
    with pytest.raises(InsufficientSamples):
        corpus_bleu(mk_set([[1, 2]]), SampleSet((), None, ()))


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12))
def test_bleu_identity_is_one(ids):
    assert bleu(ids, [ids]) == 1.0


def test_bleu_matches_naive_oracle_randomized():
    rng = SplitMix64(2024)
    for _ in range(150):
        c_len = rng.randint(12) + 1
        cand = [rng.randint(6) for _ in range(c_len)]
        refs = []
        for _ in range(rng.randint(3) + 1):
            r_len = rng.randint(12) + 1
            refs.append([rng.randint(6) for _ in range(r_len)])
        assert bleu(cand, refs) == pytest.approx(naive_bleu(cand, refs), abs=1e-9)


def test_corpus_bleu_is_mean_over_candidates():
    gen = mk_set([[0, 1, 2], [3, 3], [2, 1, 0, 4]])
    ref = mk_set([[0, 1, 2, 3], [4, 2, 1]])
    refs = [s.continuation.tolist() for s in ref.samples]
    want = sum(naive_bleu(s.continuation.tolist(), refs) for s in gen.samples) / 3
    assert corpus_bleu(gen, ref) == pytest.approx(want, abs=1e-12)


def _ids(sset):
    return [s.continuation.tolist() for s in sset.samples]


def test_corpus_bleu_subsample_matches_oracle():
    rng = SplitMix64(4)
    gen = mk_set([[rng.randint(5) for _ in range(rng.randint(8) + 1)] for _ in range(9)])
    ref = mk_set([[rng.randint(5) for _ in range(rng.randint(8) + 1)] for _ in range(5)])
    for cfg in (BleuConfig(), BleuConfig(max_n=2, subsample=4, subsample_seed=3)):
        chosen = list(range(len(gen)))
        if cfg.subsample is not None:
            SplitMix64(cfg.subsample_seed).shuffle(chosen)
            chosen = sorted(chosen[: cfg.subsample])
        want = 0.0
        for i in chosen:
            want += naive_bleu(_ids(gen)[i], _ids(ref), max_n=cfg.max_n)
        assert corpus_bleu(gen, ref, cfg) == want / len(chosen)
    with pytest.raises(InsufficientSamples):
        corpus_bleu(gen, SampleSet((), None, ()))


# (candidates, references or None for Self-BLEU, max_n)
BLEU_EDGE_CASES = {
    "self_best_count_tied_across_owners": ([[1, 1, 2], [1, 1, 3], [1, 4, 4]], None, 4),
    "self_duplicate_candidates": ([[5, 6, 7], [5, 6, 7], [5, 6], [7, 7, 5, 6]], None, 4),
    "self_all_distinct_grams": ([[1, 2], [3, 4], [5]], None, 2),
    "corpus_max_n_above_every_length": ([[1, 2], [2], [1, 2, 1]], [[1, 2, 1, 2], [2, 1]], 5),
    "corpus_no_overlap": ([[9, 9, 9], [8]], [[1, 2, 3], [4, 5]], 4),
    "corpus_refs_tied_at_a_best_count": ([[1, 1, 2, 1], [2, 1, 1, 1]], [[1, 1, 3], [3, 1, 1], [1, 2]], 4),
    "corpus_candidate_longer_than_every_reference": ([[1, 2, 1, 2, 3, 1, 2], [2, 3]], [[1, 2], [2, 3, 1]], 6),
    # Refs hold ids up to 1, so the reference table's id base is 3: unclipped,
    # the bigrams (0, 3) and (0, 4) would read as the refs' (1, 0) and (1, 1).
    "corpus_ids_past_every_reference_id": ([[0, 3, 0, 4], [4, 3]], [[0, 1, 0, 1, 1]], 4),
    "corpus_max_n_1": ([[1, 2, 2], [3], [2, 2, 2, 2]], [[2, 2, 4], [1]], 1),
}


@pytest.mark.parametrize("case", sorted(BLEU_EDGE_CASES))
def test_bleu_edge_cases_match_oracle(case):
    cands, refs, max_n = BLEU_EDGE_CASES[case]
    cfg = BleuConfig(max_n=max_n)
    if refs is None:
        assert self_bleu(mk_set(cands), cfg) == naive_self_bleu(cands, max_n=max_n)
    else:
        want = 0.0
        for c in cands:
            want += naive_bleu(c, refs, max_n=max_n)
        ref = mk_set(refs, vocab=Vocab.placeholder(10))
        assert corpus_bleu(mk_set(cands, vocab=Vocab.placeholder(10)), ref, cfg) == want / len(cands)


def test_corpus_bleu_reads_the_pad_id_and_foreign_ids_as_unmatched():
    refs = [[0, 1, 0, 1, 4], [1, 1, 2]]
    ref = mk_set(refs, vocab=Vocab.placeholder(5))
    # The ffn's pad id V = 5 is one past the vocab; the table's base is 6.
    padded = Vocab.placeholder(5)
    pad_cands = [(0, 5, 0, 1, 4), (5, 5, 1, 1), (1, 0, 5)]
    pad_set = SampleSet(map(str, range(len(pad_cands))), padded, pad_cands)
    # A distinct vocab object with ids the references never use.
    foreign = [[0, 1, 7, 0, 1], [6, 6, 1, 1, 2]]
    foreign_set = mk_set(foreign, vocab=Vocab([f"w{i}" for i in range(8)]))
    for gen, cands in ((pad_set, pad_cands), (foreign_set, foreign)):
        for max_n in (1, 2, 4):
            want = 0.0
            for c in cands:
                want += naive_bleu(c, refs, max_n=max_n)
            assert corpus_bleu(gen, ref, BleuConfig(max_n=max_n)) == want / len(cands)


def _set_pair():
    # Two ids, so the sets share grams of every order up to 6.
    rng = SplitMix64(31)
    gen = [[rng.randint(2) for _ in range(rng.randint(7) + 6)] for _ in range(8)]
    human = [[rng.randint(2) for _ in range(rng.randint(7) + 6)] for _ in range(5)]
    vocab = Vocab.placeholder(2)
    return (lambda: mk_set(gen, vocab=vocab)), (lambda: mk_set(human, vocab=vocab)), gen


def test_one_sample_set_serves_every_order_as_fresh_sets_do():
    fresh_gen, fresh_human, _ = _set_pair()
    metrics_of = {
        "rev5": lambda g, h: reverse_ppl(g, h, order=5),
        "rev2": lambda g, h: reverse_ppl(g, h, order=2),
        "self4": lambda g, h: self_bleu(g, BleuConfig(max_n=4)),
        "corpus4": lambda g, h: corpus_bleu(g, h, BleuConfig(max_n=4)),
        "corpus2": lambda g, h: corpus_bleu(g, h, BleuConfig(max_n=2)),
        "corpus6": lambda g, h: corpus_bleu(g, h, BleuConfig(max_n=6)),
        "rep4": lambda g, h: mean_seq_rep(g, 4),
    }
    want = {name: f(fresh_gen(), fresh_human()) for name, f in metrics_of.items()}
    for order in (list(metrics_of), list(reversed(metrics_of))):
        gen, human = fresh_gen(), fresh_human()
        assert {name: metrics_of[name](gen, human) for name in order} == want


def test_orders_past_the_longest_continuation_reuse_the_held_windows():
    # Continuations of 2 and 3 ids: the first request ranks every order that
    # has windows, so the deeper ones only pad.
    seqs = [[0, 1, 0], [1, 1], [0, 0, 1]]
    asks = [lambda g: mean_seq_rep(g, 3), lambda g: self_bleu(g, BleuConfig(max_n=4)),
            lambda g: mean_seq_rep(g, 4), lambda g: reverse_ppl(g, mk_set(seqs), order=5)]
    want = [ask(mk_set(seqs)) for ask in asks]
    gen = mk_set(seqs)
    with mock.patch.object(metrics, "ngram_windows", wraps=metrics.ngram_windows) as windowed:
        assert [ask(gen) for ask in asks] == want
    assert windowed.call_count == 1


def test_a_subsample_counts_its_own_ngrams():
    fresh_gen, fresh_human, seqs = _set_pair()
    gen, human = fresh_gen(), fresh_human()
    self_bleu(gen, BleuConfig(max_n=4))  # fills the full set's memo
    corpus_bleu(gen, human, BleuConfig(max_n=4))
    cfg = BleuConfig(max_n=4, subsample=5, subsample_seed=3)
    chosen = list(range(len(seqs)))
    SplitMix64(cfg.subsample_seed).shuffle(chosen)
    subset = [seqs[i] for i in sorted(chosen[: cfg.subsample])]
    assert self_bleu(gen, cfg) == naive_self_bleu(subset, max_n=4)
    assert corpus_bleu(gen, human, cfg) == corpus_bleu(fresh_gen(), fresh_human(), cfg)


@given(
    st.sampled_from([3, 5, 5000]),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=10), min_size=2, max_size=8),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_bleu_and_self_bleu_equal_the_oracle(top, seqs, max_n, data):
    seqs = [[t * top // 5 for t in s] for s in seqs]  # ids reach top, with repeats
    n_refs = data.draw(st.integers(1, len(seqs) - 1))
    refs, cands = seqs[:n_refs], seqs[n_refs:]
    cfg = BleuConfig(max_n=max_n)
    vocab = Vocab.placeholder(top + 1)
    assert self_bleu(mk_set(seqs, vocab=vocab), cfg) == naive_self_bleu(seqs, max_n=max_n)
    want = 0.0
    for c in cands:
        want += naive_bleu(c, refs, max_n=max_n)
    assert corpus_bleu(mk_set(cands, vocab=vocab), mk_set(refs, vocab=vocab), cfg) == want / len(cands)


def test_bleu_counts_no_order_past_the_longest_sequence():
    cands, refs = [[1, 2, 3] * 10, [3, 1]], [[1, 2, 3, 4] * 5] * 6
    cfg = BleuConfig(max_n=10**5)
    ref = mk_set(refs)
    # Corpus BLEU counts the orders up to the longest reference (20): the
    # first call builds the reference table and walks the candidates through
    # it, a second call on the same reference set only walks.
    for calls in (2 * 20, 20):
        with mock.patch.object(metrics, "_pair_counts", wraps=metrics._pair_counts) as counted:
            assert corpus_bleu(mk_set(cands), ref, cfg) == sum(naive_bleu(c, refs, 10**5) for c in cands) / 2
        assert counted.call_count == calls
    with mock.patch.object(metrics, "_pair_counts", wraps=metrics._pair_counts) as counted:
        assert self_bleu(mk_set(cands + refs), cfg) == naive_self_bleu(cands + refs, 10**5)
    assert counted.call_count <= 30  # the longest sequence


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=12),
    st.lists(st.integers(1, 12), min_size=1, max_size=12),
    st.booleans(),
)
def test_closest_reference_length_matches_a_scan(pool, c_lens, leave_one_out):
    if leave_one_out:
        pool = pool + c_lens  # each candidate's own length is in the pool
    got = metrics._closest(np.array(pool), np.array(c_lens), int(leave_one_out))
    for c, r in zip(c_lens, got.tolist()):
        rest = list(pool)
        if leave_one_out:
            rest.remove(c)
        assert r == min(rest, key=lambda length: (abs(length - c), length))


def test_corpus_bleu_allows_distinct_vocabs():
    gen = mk_set([[0, 1]], vocab=Vocab(["x", "y"]))
    ref = mk_set([[0, 1, 2]], vocab=Vocab(["p", "q", "r"]))
    # comparison is by id only; surface tables need not agree
    assert corpus_bleu(gen, ref) > 0.0


def test_corpus_bleu_empty_sets():
    gen = mk_set([[0, 1]])
    empty = SampleSet((), None, ())
    with pytest.raises(InsufficientSamples):
        corpus_bleu(gen, empty)
    with pytest.raises(InsufficientSamples):
        corpus_bleu(empty, gen)


def test_corpus_bleu_subsample_determinism():
    rng = SplitMix64(9)
    gen = mk_set([[rng.randint(5) for _ in range(6)] for _ in range(10)])
    ref = mk_set([[rng.randint(5) for _ in range(6)] for _ in range(4)])
    cfg = BleuConfig(subsample=3, subsample_seed=1)
    assert corpus_bleu(gen, ref, cfg) == corpus_bleu(gen, ref, cfg)
    full = BleuConfig(subsample=99)
    assert corpus_bleu(gen, ref, full) == corpus_bleu(gen, ref)


def test_self_bleu_matches_naive_oracle_randomized():
    rng = SplitMix64(77)
    for _ in range(30):
        n = rng.randint(4) + 3
        seqs = [
            [rng.randint(5) for _ in range(rng.randint(8) + 2)] for _ in range(n)
        ]
        got = self_bleu(mk_set(seqs))
        assert got == pytest.approx(naive_self_bleu(seqs), abs=1e-9)


def test_self_bleu_identical_samples_score_one():
    assert self_bleu(mk_set([[1, 2, 3]] * 4)) == 1.0


def test_self_bleu_needs_two_after_subsample():
    gen = mk_set([[0, 1], [1, 2], [2, 0]])
    with pytest.raises(InsufficientSamples):
        self_bleu(gen, BleuConfig(subsample=1))
    with pytest.raises(InsufficientSamples):
        self_bleu(mk_set([[0, 1]]))


def test_self_bleu_subsample_is_deterministic():
    rng = SplitMix64(5)
    gen = mk_set([[rng.randint(4) for _ in range(5)] for _ in range(8)])
    cfg = BleuConfig(subsample=4, subsample_seed=2)
    assert self_bleu(gen, cfg) == self_bleu(gen, cfg)


# ---------------------------------------------------------------------------
# Repetition
# ---------------------------------------------------------------------------


def test_seq_rep_frozen_values():
    assert seq_rep_n([1, 2, 1, 2, 1, 2], n=2) == pytest.approx(0.6)
    assert seq_rep_n([0] * 8, n=4) == pytest.approx(0.8)
    assert seq_rep_n([1, 2, 3, 4], n=4) == 0.0
    assert seq_rep_n([1, 2, 3], n=4) is None


def test_seq_rep_rejects_bad_order():
    with pytest.raises(ConfigError):
        seq_rep_n([1, 2], n=0)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=30),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60)
def test_seq_rep_matches_naive(ids, n):
    assert seq_rep_n(ids, n) == naive_seq_rep(ids, n)


def test_mean_seq_rep_counts_nulls():
    vocab = Vocab.placeholder(3)
    gen = mk_set([[0, 1, 2], [0, 0, 0, 0, 0]], vocab=vocab)
    mean, nulls = mean_seq_rep(gen, n=4)
    assert nulls == 1
    assert mean == pytest.approx(0.5)  # only the len-5 run counts: 1 - 1/2


def test_mean_seq_rep_all_null():
    gen = mk_set([[0], [1]])
    assert mean_seq_rep(gen, n=4) == (None, 2)


# ---------------------------------------------------------------------------
# Perplexities
# ---------------------------------------------------------------------------


def test_forward_ppl_uniform_scorer():
    gen = mk_set([[0, 1, 2], [3, 4]])
    assert forward_ppl(UniformScorer(7), gen) == pytest.approx(7.0, rel=1e-12)


def test_forward_ppl_token_weighted():
    # 2 tokens at p=1/2 plus 4 tokens at p=1/8 -> exp(mean nll), not
    # the mean of the two per-sample ppls.
    class TwoRate(StackedScores):
        def score(self, ids, context=()):
            p = 0.5 if len(ids) == 2 else 0.125
            return len(ids) * math.log(p)

    gen = mk_set([[0, 1], [0, 1, 2, 3]])
    want = math.exp((2 * math.log(2) + 4 * math.log(8)) / 6)
    assert forward_ppl(TwoRate(), gen) == pytest.approx(want, rel=1e-12)


def test_forward_ppl_infinite_on_zero_prob():
    gen = mk_set([[0, 1]])
    assert forward_ppl(FixedScorer(-math.inf), gen) == math.inf


def test_forward_ppl_empty_set():
    with pytest.raises(InsufficientSamples):
        forward_ppl(UniformScorer(3), SampleSet((), None, ()))


def test_reverse_ppl_requires_smoothing():
    gen = mk_set([[0, 1, 0, 1]])
    with pytest.raises(ConfigError):
        reverse_ppl(gen, gen, k_s=0.0)


def test_reverse_ppl_penalizes_degenerate_generations():
    vocab = Vocab.placeholder(8)
    human = mk_set([[i % 8, (i + 3) % 8, (i + 5) % 8, (2 * i + 1) % 8] for i in range(12)], vocab=vocab)
    varied = mk_set([[(i + 2) % 8, (3 * i) % 8, (i + 7) % 8, i % 8] for i in range(12)], vocab=vocab)
    collapsed = mk_set([[1, 1, 1, 1]] * 12, vocab=vocab)
    assert reverse_ppl(collapsed, human) > reverse_ppl(varied, human)


def test_reverse_ppl_handles_vocab_size_mismatch():
    gen = mk_set([[0, 1, 0]], vocab=Vocab.placeholder(2))
    human = mk_set([[0, 1, 2, 3]], vocab=Vocab.placeholder(4))
    # human ids beyond the gen vocab must still be scorable (smoothed)
    assert math.isfinite(reverse_ppl(gen, human))
    assert math.isfinite(reverse_ppl(human, gen))


# ---------------------------------------------------------------------------
# Acceptability
# ---------------------------------------------------------------------------


def test_penlp_single_token_has_unit_penalty():
    assert acceptability_penlp(FixedScorer(-3.0), [[4]]) == [pytest.approx(-3.0)]


def test_penlp_seven_tokens():
    [got] = acceptability_penlp(FixedScorer(-7.0), [[0] * 7])
    assert got == pytest.approx(-7.0 / 2.0**0.6, rel=1e-12)


def test_penlp_alpha_zero_is_raw_score():
    assert acceptability_penlp(FixedScorer(-5.0), [[0] * 9], alpha=0.0) == [-5.0]


def test_penlp_rejects_negative_alpha_and_empty_input():
    with pytest.raises(ConfigError):
        acceptability_penlp(FixedScorer(0.0), [[1]], alpha=-0.1)
    with pytest.raises(InsufficientSamples):
        acceptability_penlp(FixedScorer(0.0), [[1], []])


# ---------------------------------------------------------------------------
# Sample sets
# ---------------------------------------------------------------------------


def test_sample_set_rejects_duplicate_ids():
    with pytest.raises(ConfigError, match="sample ids must be unique"):
        SampleSet(["a", "a"], Vocab.placeholder(2), [np.array([0]), np.array([0])])


def test_sample_set_rejects_mixed_vocabs(tmp_path):
    # A set has one vocab: ids written under a larger one do not load under a smaller.
    path = tmp_path / "s.jsonl"
    save_sample_set(path, SampleSet(["a", "b"], Vocab(["x", "y"]), [(0,), (1,)]))
    with pytest.raises(DataError, match="token id 1 out of range for vocab of 1"):
        load_sample_set(path, Vocab(["x"]))


def test_sample_set_accepts_equal_vocab_objects(tmp_path):
    # distinct Vocab instances with identical tables are fine
    path = tmp_path / "s.jsonl"
    save_sample_set(path, SampleSet(["a", "b"], Vocab(["x", "y"]), [(0,), (1,)]))
    loaded = load_sample_set(path, Vocab(["x", "y"]))
    assert len(loaded) == 2 and loaded.vocab == Vocab(["x", "y"])
    rows = [(s.id, s.prefix.tolist(), s.continuation.tolist()) for s in loaded.samples]
    assert rows == [("a", [], [0]), ("b", [], [1])]
