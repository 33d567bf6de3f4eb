"""Fast paths against the slow paths they replace (tests/oracles.py).

Decoding comparisons are exact: those fast paths promise bit-identical
output, so distributions are compared with ``tobytes()`` and decodes id
for id. The blocked training step sums the same terms in another order
and is held to a stated relative tolerance instead.
"""

import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genteval.corpus import SentencePair, Vocab
from dataclasses import replace

from genteval import decode
from genteval.decode import DecoderConfig, generate_batch
from genteval.errors import ConfigError
from genteval.harness.sweep import SweepConfig, run_sweep
from genteval.lm.base import exp_rows, id_lines, left_padded, summed_scores
from genteval.lm.ffn import BLOCK_ROWS, FeedForwardLM
from genteval.lm.ngram import ngram_fit
from genteval.lm.store import load_model, save_model
from genteval import losses
from genteval.losses import (
    AdamState,
    TrainConfig,
    multitask_step,
)
from genteval.rng import SplitMix64, stable_hash

from oracles import (
    DictNGram,
    fit_on,
    log_softmax,
    SlowLM,
    StackedRows,
    naive_adam_update,
    naive_beam_search,
    naive_generate,
    naive_generate_batch,
    naive_margin_rank_loss,
    naive_multitask_step,
    naive_next_dist,
    naive_ngrams,
    ngram_from_tables,
    naive_previous_token_candidates,
    naive_sample,
    naive_top_ids,
    naive_truncate,
    naive_ffn_score,
    naive_summed_scores,
    naive_ul_seq_candidates,
    naive_windows,
    one_generate,
    one_sample,
    one_truncate,
    row_penalize,
    row_pick,
    row_temperature,
    softmax,
    tuple_window_dists,
)
from toytext import char_splits, word_splits


def _rows(matrix):
    """A decoded id matrix as one tuple per row, as the reference decoders return them."""
    return [tuple(row) for row in matrix.tolist()]


# --- n-gram sorted arrays against the dict model ---------------------------


def _bits(x):
    return np.float64(x).tobytes()


@st.composite
def _ngram_case(draw, max_order=4):
    """A fitted model, its dict oracle and queries: the corpus leaves the
    top id unused (unseen contexts; zero-probability tokens when k_s = 0),
    and with ``oov`` it also counts ids the vocab lacks."""
    v = draw(st.integers(min_value=2, max_value=9))
    order = draw(st.integers(min_value=1, max_value=max_order))
    k_s = draw(st.sampled_from([0.0, 0.5, 1.0]))
    top = v + 1 if draw(st.booleans()) else v - 2
    corpus = draw(st.lists(st.lists(st.integers(0, top), min_size=1, max_size=40), min_size=1, max_size=3))
    vocab = Vocab.placeholder(v)
    model = fit_on(corpus, vocab, order, k_s)
    queries = draw(st.lists(st.lists(st.integers(0, v - 1), max_size=9), min_size=1, max_size=5))
    contexts = draw(st.lists(st.lists(st.integers(0, v - 1), max_size=6), min_size=len(queries),
                             max_size=len(queries)))
    queries += [(), corpus[0], (v - 1,) * 3]
    contexts += [(), (), corpus[0]]
    return model, DictNGram.fit(corpus, vocab, order, k_s), queries, contexts


# --- score_batch on both backends against the per-sequence scorers --------


def _scoring_case(v=300):
    """A fitted n-gram, an ffn with a 4-id window, and sequences whose
    windows fill more than two ``BLOCK_ROWS`` blocks, with one sequence
    straddling a block boundary, empty sequences, and contexts shorter
    and longer than the window."""
    rng = SplitMix64(11)
    lens = [0, 1, 3, 7, 0, 40, 2, 90, 5, 11]
    ctx_lens = [0, 2, 5, 0, 3, 1, 9, 0, 4, 12]
    seqs = [tuple(rng.randint(v) for _ in range(n)) for n in lens]
    contexts = [tuple(rng.randint(v) for _ in range(n)) for n in ctx_lens]
    starts = np.cumsum(lens) - lens
    assert sum(lens) > 2 * BLOCK_ROWS
    assert any(a // BLOCK_ROWS < (a + n - 1) // BLOCK_ROWS for a, n in zip(starts, lens) if n)
    corpus = [tuple(rng.randint(v) for _ in range(60)) for _ in range(8)]
    ngram = fit_on(corpus, Vocab.placeholder(v), 3, 0.5)
    ffn = FeedForwardLM.init(Vocab.placeholder(v), context=4, embed_dim=8, hidden_dim=16, seed=5)
    return ngram, ffn, seqs, contexts


def test_ngram_score_batch_matches_the_dict_model_past_one_block():
    ngram, _, seqs, contexts = _scoring_case()
    ref = DictNGram.of(ngram)
    want = [_bits(ref.score(s, c)) for s, c in zip(seqs, contexts)]
    assert [_bits(x) for x in ngram.score_batch(seqs, contexts)] == want


def test_ffn_score_batch_matches_the_per_sequence_scorer():
    _, ffn, seqs, contexts = _scoring_case()
    want = [naive_ffn_score(ffn, s, c) for s, c in zip(seqs, contexts)]
    got = ffn.score_batch(seqs, contexts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    no_context = [naive_ffn_score(ffn, s) for s in seqs]
    np.testing.assert_allclose(ffn.score_batch(seqs), no_context, rtol=1e-12, atol=0)


def test_empty_sequences_score_zero_on_both_backends():
    ngram, ffn, seqs, contexts = _scoring_case()
    for model in (ngram, ffn):
        got = model.score_batch(seqs, contexts)
        assert [got[i] for i, s in enumerate(seqs) if not s] == [0.0, 0.0]
        assert all(x < 0 for x, s in zip(got, seqs) if s)
        assert model.score_batch([()], [(1, 2)]) == [0.0] and model.score_batch([]) == []
        with pytest.raises(ConfigError):
            model.score_batch(seqs, contexts[:-1])


@given(case=_ngram_case())
@settings(max_examples=120, deadline=None)
def test_score_batch_and_score_match_the_dict_model(case):
    model, ref, seqs, contexts = case
    want = [ref.score(s, c) for s, c in zip(seqs, contexts)]
    got = model.score_batch(seqs, contexts)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]
    no_context = [_bits(ref.score(s)) for s in seqs]
    assert [_bits(x) for x in model.score_batch(seqs)] == no_context


@given(
    corpus=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=30), min_size=1, max_size=3),
    order=st.integers(min_value=1, max_value=4),
    k_s=st.sampled_from([0.0, 0.5]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_ngram_score_batch_with_contexts_back_to_back(corpus, order, k_s, data):
    # Every context holds at least c = order - 1 ids, so no -1 separates one
    # sequence's line from the next: the backoff must still stop at each line.
    vocab = Vocab.placeholder(6)
    model = fit_on(corpus, vocab, order, k_s)
    ref = DictNGram.fit(corpus, vocab, order, k_s)
    ids = st.integers(0, 8)
    seqs = data.draw(st.lists(st.lists(ids, max_size=9), min_size=1, max_size=5))
    contexts = [data.draw(st.lists(ids, min_size=order - 1, max_size=order + 3)) for _ in seqs]
    got = model.score_batch(seqs, contexts)
    assert [_bits(x) for x in got] == [_bits(ref.score(s, c)) for s, c in zip(seqs, contexts)]


@given(
    seqs=st.lists(
        st.lists(st.sampled_from([-0.25, -1.5, -1e-17, -3.0e2, -np.inf, -np.log(3.0)]), max_size=12),
        max_size=7,
    )
)
@settings(max_examples=150, deadline=None)
def test_summed_scores_match_one_cumsum_per_sequence(seqs):
    logp = np.array([x for s in seqs for x in s], dtype=np.float64)
    got = summed_scores(lambda s, c: logp, seqs)
    want = naive_summed_scores(logp, seqs)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]
    assert all(x == 0.0 for x, s in zip(got, seqs) if not s)
    assert summed_scores(lambda s, c: np.empty(0), []) == []


@given(case=_ngram_case())
@settings(max_examples=80, deadline=None)
def test_next_dist_matches_naive_loop(case):
    model, ref, seqs, contexts = case
    contexts = contexts + seqs + [(0,) * model.order]
    for ctx in contexts:
        want = naive_next_dist(ref, ctx).tobytes()
        assert model.next_dist(ctx).tobytes() == want
        assert naive_next_dist(model, ctx).tobytes() == want
    batch = model.next_dist_batch(left_padded(contexts, model.context_len))
    for row, ctx in zip(batch, contexts):
        assert row.tobytes() == naive_next_dist(ref, ctx).tobytes()


@given(case=_ngram_case(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_ngram_window_matrix_rows_match_the_dict_model(case, data):
    # Rows hold 0..c real ids after their -1 padding; the model's corpus
    # (a context here) may count ids the vocab lacks.
    model, ref, seqs, contexts = case
    c = model.context_len
    rows = []
    for ctx in contexts + seqs:
        n = data.draw(st.integers(0, min(c, len(ctx))))
        rows.append([-1] * (c - n) + list(ctx[len(ctx) - n :]))
    batch = model.next_dist_batch(np.array(rows, dtype=np.int64).reshape(len(rows), c))
    for got, row in zip(batch, rows):
        assert got.tobytes() == naive_next_dist(ref, [i for i in row if i >= 0]).tobytes()


@given(
    corpus=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=30), min_size=1, max_size=4),
    order=st.integers(min_value=1, max_value=4),
)
def test_fit_counts_match_window_scan(corpus, order):
    vocab = Vocab.placeholder(6)
    model = fit_on(corpus, vocab, order)
    for o in range(1, order + 1):
        want = {}
        for ids in corpus:
            for gram, c in naive_ngrams(ids, o).items():
                want[gram] = want.get(gram, 0) + c
        got = list(zip(map(tuple, model.table.grams(o).tolist()), model.counts[o].tolist()))
        assert got == sorted(want.items())


@given(case=_ngram_case())
@settings(max_examples=40, deadline=None)
def test_saved_model_bytes_equal_the_dict_writer(case):
    model, ref, _, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lmek"
        save_model(model, path)
        assert path.read_bytes() == ref.to_bytes()
        if model.table.grams(1).max() >= model.vocab.size:
            return  # a file with ids the vocab lacks is refused
        loaded = load_model(path)
    # The fit's table comes from ngram_windows, the loaded one from the
    # file's grams: both hold the same keys at every order.
    assert loaded.table.base == model.table.base
    for o in range(1, model.order + 1):
        assert loaded.table.keys[o - 1].tobytes() == model.table.keys[o - 1].tobytes()
        assert loaded.table.grams(o).tobytes() == model.table.grams(o).tobytes()
        assert loaded.counts[o].tobytes() == model.counts[o].tobytes()


def test_orders_whose_mixed_radix_key_would_overflow_int64():
    # 5001**6 and 100**10 are past 2**63; the keys use context rows instead.
    rng = np.random.default_rng(3)
    for v, order in ((5001, 6), (100, 10)):
        assert v**order >= 2**63
        vocab = Vocab.placeholder(v)
        corpus = [tuple(rng.integers(0, v, size=60).tolist()) for _ in range(3)]
        corpus.append(corpus[0][:30] * 2)  # repeated contexts at every order
        for k_s in (0.0, 0.5):
            model = fit_on(corpus, vocab, order, k_s)
            ref = DictNGram.fit(corpus, vocab, order, k_s)
            seqs = [corpus[3][:25], corpus[1][5:40], (v - 1, 0, v - 1)]
            assert [_bits(x) for x in model.score_batch(seqs)] == [_bits(ref.score(s)) for s in seqs]
            for ctx in (corpus[3][:order + 2], corpus[2][-order:], ()):
                assert model.next_dist(ctx).tobytes() == naive_next_dist(ref, ctx).tobytes()


def test_next_dist_ignores_counted_ids_outside_the_vocab():
    # A model file can carry ids the vocab lacks; no entry can hold them.
    counts = {1: {(0,): 3, (1,): 1, (5,): 2}, 2: {(0, 1): 2, (0, 7): 1, (1, 0): 1}}
    for k_s in (0.0, 1.0):
        model = ngram_from_tables(Vocab.placeholder(3), 2, k_s, counts)
        ref = DictNGram(Vocab.placeholder(3), 2, k_s, counts)
        for ctx in ((), (0,), (1,), (2,)):
            assert model.next_dist(ctx).tobytes() == naive_next_dist(ref, ctx).tobytes()


def test_loaded_model_answers_bit_for_bit_as_fitted(tmp_path):
    seq = np.array([0, 1, 2, 1, 0, 2, 2])
    model = ngram_fit(seq, Vocab.placeholder(3), order=3, k_s=0.5)
    save_model(model, tmp_path / "m.lmek")
    loaded = load_model(tmp_path / "m.lmek")
    windows = left_padded([(), (0,), (0, 1), (2, 2, 2)], model.context_len)
    assert loaded.next_dist_batch(windows).tobytes() == model.next_dist_batch(windows).tobytes()
    assert loaded.score_batch([seq]) == model.score_batch([seq])


def test_rows_cache_is_safe_under_concurrent_first_use():
    splits, vocab = word_splits(120, 16)
    contexts = [s[:j].tolist() for s in splits.train[:6] for j in range(4)]
    expected = None
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            model = ngram_fit(splits.train, vocab, order=3, k_s=0.0)
            if expected is None:
                expected = [naive_next_dist(model, c).tobytes() for c in contexts]
            results = [None] * 8

            def work(slot, model=model):
                results[slot] = [model.next_dist(c).tobytes() for c in contexts]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(old)


# --- selection on tie-heavy distributions -------------------------------------

# Few distinct values, so most rankings hinge on the id tie rule.
_LEVELS = [0.0, 0.05, 0.1, 0.25, 0.5]


def _tie_heavy():
    return st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=700).filter(
        lambda xs: sum(xs) > 0
    ).map(lambda xs: np.array(xs) / sum(xs))


@given(values=st.lists(st.sampled_from(_LEVELS + [-np.inf]), min_size=1, max_size=700), data=st.data())
@settings(max_examples=120, deadline=None)
def test_top_ids_matches_stable_argsort(values, data):
    values = np.array(values)
    for k in {1, 2, data.draw(st.integers(1, values.size)), values.size}:
        assert np.array_equal(decode._top_rows(values[None], k)[0], naive_top_ids(values, k))


@given(dist=_tie_heavy(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_topk_and_topp_match_full_sort(dist, data):
    k = data.draw(st.integers(1, dist.size))
    assert one_truncate(dist, "topk", k).tobytes() == naive_truncate(dist, "topk", k).tobytes()
    # Exact cumulative sums are the boundary cases of top-p.
    cum = np.cumsum(dist[naive_top_ids(dist, dist.size)])
    for p in {data.draw(st.floats(0.01, 1.0)), float(min(1.0, cum[0])), float(min(1.0, cum[-1])), 1.0}:
        assert one_truncate(dist, "topp", p).tobytes() == naive_truncate(dist, "topp", p).tobytes()


@given(dist=_tie_heavy(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=120, deadline=None)
def test_sample_matches_full_sort(dist, seed):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for _ in range(20):
        assert one_sample(dist, fast) == naive_sample(dist, slow)
    # Every cumulative boundary, plus the ends of [0, 1).
    cum = np.cumsum(dist[naive_top_ids(dist, dist.size)])
    for u in [0.0, np.nextafter(1.0, 0.0), *cum[:50], *np.nextafter(cum[:50], 0.0)]:
        assert one_sample(dist, _FixedU(u)) == naive_sample(dist, _FixedU(u))


@pytest.mark.parametrize("case", ["distinct", "one_tie", "levels", "nan", "mostly_nan", "signed_zero"])
def test_large_vocab_rankings_match_full_sort(case):
    # A wide row, ranked in full and cut to its top 40 by the sorted kept set.
    rng = np.random.default_rng(7)
    values = rng.random(5000)
    if case == "one_tie":
        values[4321] = values[17]
    elif case == "levels":
        values = rng.choice(np.array(_LEVELS[1:]), size=5000)
    elif case == "nan":
        values[[5, 900]] = np.nan
    elif case == "mostly_nan":
        values[10:] = np.nan
    elif case == "signed_zero":
        values[[3, 30, 300]] = [0.0, -0.0, 0.0]
    assert np.array_equal(decode._top_rows(values[None], 5000)[0], naive_top_ids(values, 5000))
    assert np.array_equal(decode._top_rows(values[None], 40)[0], naive_top_ids(values, 40))
    if case in ("nan", "mostly_nan", "signed_zero"):
        return
    dist = values / values.sum()
    for p in (0.3, 0.9, 1.0):
        assert one_truncate(dist, "topp", p).tobytes() == naive_truncate(dist, "topp", p).tobytes()
    assert one_truncate(dist, "topk", 40).tobytes() == naive_truncate(dist, "topk", 40).tobytes()
    fast, slow = SplitMix64(3), SplitMix64(3)
    for _ in range(20):
        assert one_sample(dist, fast) == naive_sample(dist, slow)


_TOP_KINDS = ("distinct", "tie_at_k", "addk", "nan", "mostly_nan", "neginf")


def _top_row(kind, width, k, rng):
    """One row of values for ``_top_rows`` with the named kind of ties."""
    values = rng.random(width)
    if kind == "tie_at_k" and k < width:  # copies of the k-th value beyond it
        order = np.argsort(-values, kind="stable")
        values[rng.choice(order[k:], min(width - k, 1 + rng.integers(3 * k)), replace=False)] = values[order[k - 1]]
    elif kind == "addk":  # log of an add-k n-gram row: every unseen id shares one value
        seen = rng.choice(width, min(width, int(rng.integers(0, 2 * k + 2))), replace=False)
        counts = np.ones(width)
        counts[seen] += rng.integers(1, 4, seen.size)
        values = np.log(counts / counts.sum())
    elif kind in ("nan", "mostly_nan"):  # a few NaN, or fewer than k values that compare
        at = rng.choice(width, 3, replace=False) if kind == "nan" else np.arange(int(rng.integers(0, k)), width)
        values[at] = np.nan
    elif kind == "neginf":  # a log of sparse probabilities, sometimes fewer than k finite
        values = np.full(width, -np.inf)
        finite = rng.choice(width, min(width, int(rng.integers(0, 2 * k))), replace=False)
        values[finite] = np.log(rng.integers(1, 4, finite.size))
    return values


@given(width=st.sampled_from([101, 5001]), k=st.sampled_from([1, 4, 9, 40, None]),
       kinds=st.lists(st.sampled_from(_TOP_KINDS), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_top_rows_of_mixed_blocks_match_stable_argsort_row_by_row(width, k, kinds, seed):
    # Rows with and without ties at the k-th value, NaN and -inf rows in
    # one block, for argmax passes (k <= 8) and the sorted kept set.
    k = width if k is None else k
    rng = np.random.default_rng(seed)
    block = np.stack([_top_row(kind, width, k, rng) for kind in kinds])
    got = decode._top_rows(block, k)
    for row, ids in zip(block, got):
        assert np.array_equal(ids, naive_top_ids(row, k))
    # The beam's top-k of the same values read as probabilities, by their log.
    top, logp = decode._beam_top(np.exp(block), k)
    for row, ids, lp in zip(decode._log_rows(np.exp(block)), top, logp):
        assert np.array_equal(ids, naive_top_ids(row, k)) and lp.tobytes() == row[ids].tobytes()


@given(width=st.integers(1, 12), k=st.integers(1, 8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_top_rows_by_argmax_passes_match_stable_argsort(width, k, data):
    # k past the width, rows with fewer than k finite values, NaN, and a
    # row of only -inf, in one block.
    value = st.sampled_from([0.5, 0.25, 0.0, -1.0, -np.inf, np.nan])
    rows = data.draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=6))
    block = np.array(rows + [[-np.inf] * width])
    got = decode._top_rows(block, k)
    assert got.shape == (len(block), min(k, width))
    for row, ids in zip(block, got):
        assert np.array_equal(ids, naive_top_ids(row, k))


def test_log_rows_is_minus_inf_at_zero_negative_and_nan_and_the_masked_log_elsewhere():
    rng = np.random.default_rng(4)
    dists = rng.random((20, 101))
    dists[dists < 0.3] = 0.0
    dists[0, :6] = [-0.0, -0.25, np.nan, 1e-310, 1.0, -np.inf]
    got = decode._log_rows(dists)
    want = np.log(dists, out=np.full(dists.shape, -np.inf), where=dists > 0)
    assert got.tobytes() == want.tobytes()
    assert np.isneginf(got[0, :3]).all() and np.isneginf(got[dists == 0]).all()


def test_sample_degenerate_all_zero_keeps_old_answer():
    dist = np.zeros(40)
    assert one_sample(dist, _FixedU(0.3)) == naive_sample(dist, _FixedU(0.3)) == 0


def test_renormalizing_that_merges_two_probabilities_ranks_again():
    # Token 0 sits one ulp below token 1. Dividing by the kept mass rounds
    # both to one value, so after truncation the lower id ranks first.
    dist = np.array([np.nextafter(0.24, 0.0), 0.24, 0.4, 0.12])
    for cfg in (DecoderConfig("topk", param=3), DecoderConfig("topp", param=0.85)):
        out = one_truncate(dist, cfg.strategy, cfg.param)
        assert out[0] == out[1] and out.tobytes() == naive_truncate(dist, cfg.strategy, cfg.param).tobytes()
        picks = [row_pick(dist, cfg, [], _FixedU(u)) for u in (0.0, 0.5, 0.8, 0.99)]
        assert picks == [2, 0, 1, 1]
        assert [int(decode._choose(dist[None], cfg, np.array([u]), None)[0]) for u in (0.0, 0.5, 0.8, 0.99)] == picks


class _FixedU:
    def __init__(self, u):
        self.u = float(u)

    def uniform(self):
        return self.u


class TieLM(StackedRows):
    """Context-hashed distributions over a few levels: ties everywhere."""

    def __init__(self, vocab_size, seed=0):
        self.vocab = Vocab.placeholder(vocab_size)
        self.seed = seed

    def next_dist(self, context):
        rng = SplitMix64(self.seed ^ stable_hash(" ".join(map(str, context))))
        w = np.array([_LEVELS[1 + rng.randint(len(_LEVELS) - 1)] for _ in range(self.vocab.size)])
        return w / w.sum()


# Widths of 8 and more take their top b + 1 from the sorted kept set.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 12])
def test_beam_matches_full_sort_on_ties(width):
    model = TieLM(80, seed=width)
    cfg = DecoderConfig(strategy="beam", param=width, max_len=6)
    for prefix in ([0], [3, 1], [7, 7, 7]):
        assert one_generate(model, prefix, cfg) == naive_generate(model, prefix, cfg)


def _naive_beams(model, prefixes, cfg):
    return [naive_beam_search(model, p, cfg.param, cfg.max_len) for p in prefixes]


# Mixed lengths, the empty prefix among them.
_MIXED_PREFIXES = ([], [0], [3, 1], [7, 7, 7], [2, 5, 1, 4, 4], [1] * 9)


@pytest.mark.parametrize("extra", [0, 3])
def test_beam_at_and_above_the_vocab_size_matches_naive_search(extra):
    # Above |V| the first step has fewer candidates than the width, and
    # the beam fills up over the steps.
    model = TieLM(5, seed=extra)
    cfg = DecoderConfig(strategy="beam", param=5 + extra, max_len=4)
    got = _rows(generate_batch(model, _MIXED_PREFIXES, cfg))
    assert got == _naive_beams(model, _MIXED_PREFIXES, cfg)


class _ContextFreeTieLM(TieLM):
    """One distribution over a few levels for every context: hypotheses
    (a, b) and (b, a) score alike, so ties across parents are everywhere
    and the token ids decide."""

    def next_dist(self, context):
        return super().next_dist(())


@pytest.mark.parametrize("width", [2, 4, 7, 9])
@pytest.mark.parametrize("model", [TieLM(12, seed=3), _ContextFreeTieLM(12, seed=5)], ids=["hashed", "context_free"])
def test_beam_batch_of_mixed_prefixes_breaks_score_ties_by_ids(model, width):
    cfg = DecoderConfig(strategy="beam", param=width, max_len=5)
    got = _rows(generate_batch(model, _MIXED_PREFIXES, cfg))
    assert got == _naive_beams(model, _MIXED_PREFIXES, cfg)


class _LastTokenLM(StackedRows):
    """Next-token distributions keyed by the last token of the context."""

    vocab = Vocab.placeholder(4)
    table = {
        None: [0.1, 0.3, 0.5, 0.1],
        0: [0.25, 0.25, 0.25, 0.25],
        1: [0.5, 0.2, 0.2, 0.1],
        2: [0.3, 0.25, 0.25, 0.2],
        3: [0.1, 0.3, 0.5, 0.1],  # as after no context
    }

    def next_dist(self, context):
        return np.array(self.table[context[-1] if len(context) else None])


def test_beam_tie_across_parents_goes_to_the_lower_ids_not_the_better_parent():
    # (2, 0) and (1, 0) both score log 0.5 + log 0.3, the best of all.
    # Parent (2,) outscores parent (1,), but (1, 0) sorts first by ids.
    model = _LastTokenLM()
    cfg = DecoderConfig(strategy="beam", param=2, max_len=2)
    prefixes = [[], [3], [1, 3], [0, 0, 3]]
    got = _rows(generate_batch(model, prefixes, cfg))
    assert got == [(1, 0)] * 4 == _naive_beams(model, prefixes, cfg)


# beam:4 continuations of 20 prefixes decoded as one batch by an add-k
# char n-gram and a briefly trained char ffn, as the merge that sorted
# (ids, score) tuples per prefix decoded them.
_PINNED_BEAMS = {
    "ngram": [
        " cat. the ol", "d. the small", " the cat. th", "e cat. the s", " the cat. th",
        "nd the small", "the cat. the", "ran the old ", "met the smal", "cat. the old",
        "he cat. the ", "ish. the old", "cat. the old", "cat. the old", " cat. the ol",
        "e cat. the s", "et the small", "rd. the old ", "ree. the old", " the cat. th",
    ],
    "ffn": [
        " a  t ae   a", "  ase a a   ", "   ae   ae  ", "he ae a ae a", "   ae   ae  ",
        " a ae   ae  ", " ae   ae   a", "  ae   ae   ", "aese ae   ae", "t  as   ae  ",
        " sts  a a   ", "tsesa a    a", "he ae a ae a", "ae   ae   ae", " a  t ae   a",
        "   ae   ae  ", " ae   ae   a", "se ae   ae  ", " at   ae   a", "   ae   ae  ",
    ],
}


def test_beam_outputs_are_pinned():
    splits, vocab = char_splits(300, 64, seed=5)
    train = splits.train
    ffn = FeedForwardLM.init(vocab, context=6, embed_dim=8, hidden_dim=16, seed=4)
    losses.train(ffn, {"sequences": train}, TrainConfig(epochs=1, batch_size=16), seed=1)
    models = {"ngram": ngram_fit(train, vocab, order=4, k_s=1.0), "ffn": ffn}
    prefixes = [train[i][: 3 + i] for i in range(20)]
    cfg = DecoderConfig(strategy="beam", param=4, max_len=12)
    for name, model in models.items():
        got = ["".join(vocab.tokens[t] for t in row) for row in generate_batch(model, prefixes, cfg).tolist()]
        assert got == _PINNED_BEAMS[name], name


# --- block selection against the per-row code --------------------------------

_ROW_KINDS = ("ngram", "unsmoothed", "ffn", "peaked", "levels", "adjacent", "onehot", "near_uniform", "flat",
              "empty")


def _block_row(kind, v, rng):
    """One next-token distribution of the given shape of support and ties."""
    w = np.zeros(v)
    if kind == "ngram":  # add-k smoothed: every unseen token shares one level
        w[:] = 1.0
        w[rng.choice(v, 30, replace=False)] += rng.integers(1, 4, 30)
    elif kind == "unsmoothed":  # a few counted tokens with tied counts, zeros elsewhere
        w[rng.choice(v, 12, replace=False)] = rng.integers(1, 4, 12)
    elif kind in ("ffn", "peaked"):  # a softmax: no ties; peaked rows underflow under temperature
        w = np.exp(rng.normal(0.0, 3.0 if kind == "ffn" else 60.0, v))
    elif kind == "levels":
        w = rng.choice(np.array(_LEVELS), v)
        w[rng.integers(v)] = 0.5
    elif kind == "adjacent":  # neighbouring floats, which renormalizing can merge
        ids = rng.choice(v, 16, replace=False)
        w[ids[:8]] = rng.random(8)
        w /= 2 * w.sum()
        w[ids[8:]] = np.nextafter(w[ids[:8]], 0.0)
        return w
    elif kind == "onehot":
        w[rng.integers(v)] = 1.0
    elif kind == "near_uniform":  # a barely trained softmax: top-p 0.9 keeps about 90% of the ids
        w = np.exp(rng.normal(0.0, 0.05, v))
    elif kind == "flat":  # 2-5 levels over all ids, so draws land deep in a run of ties
        w = rng.choice(rng.random(int(rng.integers(2, 6))) + 0.1, v)
    else:
        return w
    return w / w.sum()


@st.composite
def _selection_case(draw, strategies=("greedy", "topk", "topp", "temperature", "penalized"), empty=True):
    """A ``(B, |V|)`` block of mixed rows, a config, and per-row histories and seeds."""
    v = draw(st.sampled_from([100, 5001]))
    kinds = _ROW_KINDS if empty else _ROW_KINDS[:-1]
    rows = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dists = np.stack([_block_row(kind, v, rng) for kind in rows])
    strategy = draw(st.sampled_from(strategies))
    if strategy == "topk":
        cfg = DecoderConfig(strategy, draw(st.sampled_from([1, 2, 40, v]) | st.integers(1, v)))
    elif strategy == "topp":
        ranked = -np.sort(-dists[draw(st.integers(0, len(rows) - 1))])
        exact = float(min(1.0, np.cumsum(ranked)[draw(st.integers(0, 40))]))  # a boundary hit
        exact = exact if exact > 0 else 1.0  # a row without mass has none
        cfg = DecoderConfig(strategy, draw(st.sampled_from([1.0, exact]) | st.floats(0.01, 1.0)))
    elif strategy == "temperature":
        cfg = DecoderConfig(strategy, draw(st.sampled_from([1.0, 0.3, 0.8, 1.5])))
    elif strategy == "penalized":
        cfg = DecoderConfig(strategy, draw(st.sampled_from([1.0, 1.5, 30.0])),
                            t=draw(st.sampled_from([None, 1.0, 0.7])))
    elif strategy == "beam":
        cfg = DecoderConfig(strategy, draw(st.integers(1, 3)))
    else:
        cfg = DecoderConfig(strategy)
    generated = [draw(st.lists(st.integers(0, v - 1), max_size=6)) for _ in rows]
    seeds = [draw(st.integers(0, 2**64 - 1)) for _ in rows]
    return dists, cfg, generated, seeds


@given(case=_selection_case())
@settings(max_examples=200, deadline=None)
def test_block_selection_matches_per_row_code(case):
    dists, cfg, generated, seeds = case
    seen = np.zeros(dists.shape, dtype=bool)
    for i, out in enumerate(generated):
        seen[i, out] = True
    # The block takes one uniform per row if the strategy samples; the
    # per-row code must then draw exactly one from each stream, else none.
    fast, slow = [SplitMix64(s) for s in seeds], [SplitMix64(s) for s in seeds]
    samples = cfg.strategy in ("temperature", "topk", "topp") or cfg.t is not None
    u = np.array([rng.uniform() for rng in fast]) if samples else None
    with np.errstate(invalid="ignore"):  # a row without mass penalizes to NaN
        try:
            want = [int(np.argmax(d)) if cfg.strategy == "greedy" else row_pick(d, cfg, out, rng)
                    for d, out, rng in zip(dists, generated, slow)]
        except ValueError:  # temperature of a row without mass
            with pytest.raises(ValueError):
                decode._choose(dists, cfg, u, seen)
            return
        got = decode._choose(dists, cfg, u, seen).tolist()
    assert got == want
    assert [r.state for r in fast] == [r.state for r in slow]


@given(case=_selection_case(strategies=("topk", "topp", "temperature", "penalized")))
@settings(max_examples=150, deadline=None)
def test_block_probabilities_match_per_row_code_bit_for_bit(case):
    dists, cfg, generated, _ = case
    if cfg.strategy == "penalized":
        seen = np.zeros(dists.shape, dtype=bool)
        for i, out in enumerate(generated):
            seen[i, out] = True
        with np.errstate(invalid="ignore"):  # a row without mass penalizes to NaN
            got = decode._penalize_rows(dists, seen, cfg.param)
            want = np.stack([row_penalize(d, out, cfg.param) for d, out in zip(dists, generated)])
        live = dists.any(axis=1)
        assert got[live].tobytes() == want[live].tobytes() and np.isnan(got[~live]).all()
        return
    if cfg.strategy == "temperature":
        dists = dists[dists.any(axis=1)]  # a row without mass has no temperature
        if len(dists):
            got = decode._temperature_rows(dists, cfg.param)
            assert got.tobytes() == np.stack([row_temperature(d, cfg.param) for d in dists]).tobytes()
        return
    got, top = decode._truncate_rows(dists, cfg.strategy, cfg.param)
    assert got.tobytes() == np.stack([naive_truncate(d, cfg.strategy, cfg.param) for d in dists]).tobytes()
    # The sorted values hold every row's support, in descending order.
    ranked = -np.sort(-got, axis=1)
    assert top.tobytes() == ranked[:, : top.shape[1]].tobytes() and not ranked[:, top.shape[1] :].any()


class _ReplayLM(StackedRows):
    """Serves the rows of a fixed block, one picked by a hash of the context."""

    def __init__(self, rows):
        self.rows = rows
        self.vocab = Vocab.placeholder(rows.shape[1])

    def next_dist(self, context):
        return self.rows[stable_hash(" ".join(map(str, context))) % len(self.rows)]


@given(case=_selection_case(strategies=("beam", "topk", "topp", "temperature", "penalized"), empty=False),
       n=st.integers(1, 7), cap=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_block_decode_cut_by_max_batch_rows_matches_per_row_decode(case, n, cap):
    dists, cfg, _, seeds = case
    model = _ReplayLM(dists)
    prefixes = [[i % dists.shape[1]] for i in range(n)]
    cfg, seeds = replace(cfg, max_len=4), [seeds[0] ^ i for i in range(n)]
    with mock.patch.object(decode, "MAX_BATCH_ROWS", cap):
        got = _rows(generate_batch(model, prefixes, cfg, seeds))
    assert got == _rows(naive_generate_batch(model, prefixes, cfg, seeds))


def _drawn(dist, cfg, out):
    """The distribution row_pick draws from, for a sampled config."""
    if cfg.strategy == "penalized":
        return row_temperature(row_penalize(dist, out, cfg.param), cfg.t)
    return naive_truncate(dist, cfg.strategy, cfg.param)


_SAMPLED = [DecoderConfig("topk", param=40), DecoderConfig("topp", param=0.9), DecoderConfig("topp", param=0.3),
            DecoderConfig("temperature", param=0.8), DecoderConfig("penalized", param=1.5, t=0.7)]


@pytest.mark.parametrize("v", [100, 5001])
@pytest.mark.parametrize("cfg", _SAMPLED, ids=lambda c: f"{c.strategy}-{c.param}")
def test_draws_at_cumulative_boundaries_match_per_row_code(cfg, v):
    # Bench-like rows: a near-uniform softmax and a few levels over all ids.
    # Row i draws its j-th u: an exact cumulative sum of its drawn
    # distribution, the double below it, 0 or nextafter(1, 0), which
    # round-off leaves past the support.
    rng = np.random.default_rng(v)
    dists = np.stack([_block_row(kind, v, rng) for kind in ("near_uniform", "flat", "flat", "near_uniform")])
    generated = [[1, 2, 2], [], [0, 5], [7]]
    seen = np.zeros(dists.shape, dtype=bool)
    for i, out in enumerate(generated):
        seen[i, out] = True
    cums = [np.cumsum(-np.sort(-_drawn(d, cfg, out))) for d, out in zip(dists, generated)]
    picks = [np.unique(np.r_[0, np.linspace(0, len(c) - 1, 40).astype(int), len(c) - 1]) for c in cums]
    us = [np.r_[0.0, np.nextafter(1.0, 0.0), c[at], np.nextafter(c[at], 0.0)] for c, at in zip(cums, picks)]
    deep = 0
    for j in range(min(map(len, us))):
        u = np.array([row[j] for row in us])
        got = decode._choose(dists, cfg, u, seen).tolist()
        want = [row_pick(d, cfg, out, _FixedU(x)) for d, out, x in zip(dists, generated, u)]
        assert got == want
        deep += sum(tok > np.flatnonzero(d == d[tok])[0] for d, tok in zip(dists, got))
    assert deep  # some draws take a tie that is not the lowest id of its value


@pytest.mark.parametrize("v", [100, 5001])
def test_truncation_and_trace_of_bench_like_rows_match_naive_truncate(v):
    rng = np.random.default_rng(3 + v)
    dists = np.stack([_block_row(kind, v, rng) for kind in ("near_uniform", "flat", "near_uniform", "flat")])
    kept, _ = decode._truncate_rows(dists, "topp", 0.9)
    assert 0.85 * v < np.count_nonzero(kept[0]) < 0.95 * v
    model, seq = _ReplayLM(dists), rng.integers(0, v, 12).tolist()
    rows = [model.next_dist(seq[:t]) for t in range(len(seq))]
    for truncation in (("topp", 0.9), ("topp", 0.5), ("topk", 40), ("topk", v // 2)):
        got, top = decode._truncate_rows(dists, *truncation)
        assert got.tobytes() == np.stack([naive_truncate(d, *truncation) for d in dists]).tobytes()
        assert top.tobytes() == (-np.sort(-got, axis=1))[:, : top.shape[1]].tobytes()
        _, trunc = decode.token_prob_trace(model, seq, decode.DecoderConfig(*truncation, max_len=1))
        want = [naive_truncate(d, *truncation)[tok] for d, tok in zip(rows, seq)]
        assert trunc.tobytes() == np.array(want).tobytes()


def _log_merged(p):
    """The first double from ``p`` up whose log equals its lower neighbour's."""
    while np.log(p) != np.log(np.nextafter(p, 0.0)):
        p = np.nextafter(p, 1.0)
    return p


def _merge_rows(v):
    """Beam rows (b = 2) where two different probabilities share one log."""
    p = _log_merged(1e-4)
    q = np.nextafter(p, 0.0)
    rows = np.full((7, v), 1e-6)
    rows[0, [9, 4, 2]] = [0.5, p, q]  # the b-th pick p, and q below it at a lower id
    rows[1, [9, 7, 3]] = [p, q, q]  # a larger pick p shares q's log: id 3 ties id 7
    rows[2] = 0.0  # fewer than b positive entries; NaN and -inf rank with zero's log
    rows[2, [1, 3, 6]] = [np.nan, -np.inf, 0.5]
    rows[3] = -np.inf  # one positive entry; the NaN at id 0 logs to -inf too
    rows[3, [0, 7]] = [np.nan, 0.5]
    rows[4, [9, 6, 8, 3]] = [0.5, p, p, q]  # the b-th pick ties past b, q below at a lower id
    rows[5, [8, 5, 1, 0]] = [0.5, p, p, q / 2]  # a plain tie at the b-th pick, q / 2 far below
    rows[6, [9, 2, 4, 7]] = [0.5, p, p, q]  # q below a tie shares its log, at a higher id: same picks
    return rows


@pytest.mark.parametrize("v", [12, 101, 5001])
def test_beam_top_where_logs_merge_matches_log_ranking(v):
    rows = _merge_rows(v)
    logp = decode._log_rows(rows)
    for b in (1, 2, 3):
        top, lp = decode._beam_top(rows, b)
        want = np.stack([naive_top_ids(row, b) for row in logp])
        assert np.array_equal(top, want)
        assert lp.tobytes() == logp[np.arange(len(rows))[:, None], want].tobytes()
    # The probabilities pick other ids than the logs in all rows but the last two.
    assert [any(set(naive_top_ids(row, b)) != set(naive_top_ids(lp, b)) for b in (1, 2, 3))
            for row, lp in zip(rows, logp)] == [True] * 5 + [False] * 2


def test_beam_decode_where_logs_merge_matches_naive_beam_search():
    model = _ReplayLM(np.abs(np.nan_to_num(_merge_rows(60), neginf=0.0)))
    for cfg in [DecoderConfig("beam", param=b, max_len=4) for b in (1, 2, 3)]:
        prefixes = [[i] for i in range(6)]
        got = _rows(generate_batch(model, prefixes, cfg))
        assert got == [naive_beam_search(model, p, cfg.param, cfg.max_len) for p in prefixes]


def test_sample_rows_take_each_streams_uniforms_once(monkeypatch):
    # A sampled decode hands step j the j-th uniform of every row's stream,
    # the values of per-row uniform() calls; the others draw none.
    calls = []
    choose = decode._choose
    monkeypatch.setattr(decode, "_choose", lambda d, cfg, u, seen: calls.append(u) or choose(d, cfg, u, seen))
    model = _ReplayLM(np.stack([_block_row("flat", 30, np.random.default_rng(i)) for i in range(3)]))
    seeds = [5, 2**64 - 1, 0]
    for cfg in (DecoderConfig("topp", param=0.9, max_len=6), DecoderConfig("penalized", param=1.5, t=0.8, max_len=6)):
        calls.clear()
        generate_batch(model, [[1], [2], [3]], cfg, seeds)
        rngs = [SplitMix64(s) for s in seeds]
        assert np.stack(calls).tobytes() == np.array([[r.uniform() for r in rngs] for _ in range(6)]).tobytes()
    for cfg in (DecoderConfig("greedy", max_len=3), DecoderConfig("penalized", param=1.5, max_len=3)):
        calls.clear()
        generate_batch(model, [[1], [2]], cfg)
        assert calls == [None] * 3


# --- whole decodes: trailing windows and every strategy ----------------------

# Each config with its seed, by strategy, parameter and the temperature it samples at.
CONFIGS = [
    pytest.param(DecoderConfig(strategy="greedy", max_len=15), 0, id="greedy-None-None"),
    pytest.param(DecoderConfig(strategy="beam", param=3, max_len=8), 0, id="beam-3-None"),
    pytest.param(DecoderConfig(strategy="temperature", param=0.8, max_len=15), 3, id="temperature-0.8-0.8"),
    pytest.param(DecoderConfig(strategy="topk", param=4, max_len=15), 4, id="topk-4-None"),
    pytest.param(DecoderConfig(strategy="topp", param=0.7, max_len=15), 5, id="topp-0.7-None"),
    pytest.param(DecoderConfig(strategy="penalized", param=1.5, max_len=15), 0, id="penalized-1.5-None"),
    pytest.param(DecoderConfig(strategy="penalized", param=1.5, t=0.9, max_len=15), 6, id="penalized-1.5-0.9"),
]


def _models():
    splits, vocab = word_splits(150, 24)
    train = splits.train
    return splits, {
        "ngram3": ngram_fit(train, vocab, order=3, k_s=0.0),
        "ngram2s": ngram_fit(train, vocab, order=2, k_s=0.5),
        "unigram": ngram_fit(train, vocab, order=1, k_s=1.0),
        "ffn": FeedForwardLM.init(vocab, context=3, embed_dim=4, hidden_dim=8, seed=2),
    }


class _NoWindow(StackedRows):
    """The same model with a whole-context ``context_len`` and stacked rows."""

    def __init__(self, model):
        self.vocab = model.vocab
        self.next_dist = model.next_dist


@pytest.mark.parametrize("cfg, seed", CONFIGS)
def test_generate_with_window_equals_whole_context(cfg, seed):
    splits, models = _models()
    prefixes = [splits.train[i][:10] for i in range(3)] + [[0]]
    for name, model in models.items():
        for prefix in prefixes:
            fast = one_generate(model, prefix, cfg, seed)
            assert fast == one_generate(_NoWindow(model), prefix, cfg, seed), name
            assert fast == naive_generate(SlowLM(model), prefix, cfg, seed), name


# --- lockstep batches --------------------------------------------------------


def _batch(seed, splits, n=9):
    """Prefixes of mixed lengths, each with its own seed."""
    prefixes = [splits.train[i][: 4 + i] for i in range(n - 2)] + [[0], [3, 1]]
    return prefixes, [seed * 1000 + 17 * i for i in range(n)]


@pytest.mark.parametrize("max_rows", [2, decode.MAX_BATCH_ROWS])
@pytest.mark.parametrize("cfg, seed", CONFIGS)
def test_generate_batch_equals_per_prefix_decodes_on_the_ngram(cfg, seed, max_rows, monkeypatch):
    # A cap of 2 rows splits the batch into several calls (one prefix per
    # call for beam(3)).
    monkeypatch.setattr(decode, "MAX_BATCH_ROWS", max_rows)
    splits, models = _models()
    prefixes, seeds = _batch(seed, splits)
    for name in ("ngram3", "ngram2s", "unigram"):
        model = models[name]
        slow = _rows(naive_generate_batch(SlowLM(model), prefixes, cfg, seeds))
        assert _rows(generate_batch(model, prefixes, cfg, seeds)) == slow, name
        # Served by stacking next_dist rows.
        assert _rows(generate_batch(_NoWindow(model), prefixes, cfg, seeds)) == slow, name


@pytest.mark.parametrize("cfg, seed", CONFIGS)
def test_generate_batch_equals_per_prefix_decodes_on_the_ffn(cfg, seed):
    splits, models = _models()
    prefixes, seeds = _batch(seed, splits)
    fast = generate_batch(models["ffn"], prefixes, cfg, seeds)
    assert fast.tolist() == naive_generate_batch(models["ffn"], prefixes, cfg, seeds).tolist()


def test_ffn_batch_rows_match_single_rows():
    model = FeedForwardLM.init(Vocab.placeholder(3000), context=4, embed_dim=16, hidden_dim=64, seed=3)
    contexts = [[], [5], list(range(7))] + [[(13 * i + j) % 3000 for j in range(4)] for i in range(29)]
    batch = model.next_dist_batch(left_padded(contexts, model.context_len))
    assert batch.shape == (32, model.vocab.size)
    # -1 padding reads as the pad id, exactly as the old tuple windows put it.
    assert batch.tobytes() == tuple_window_dists(model, contexts).tobytes()
    for row, ctx in zip(batch, contexts):
        np.testing.assert_allclose(row, model.next_dist(ctx), rtol=1e-12, atol=0)


def test_generate_batch_needs_one_seed_per_prefix():
    _, models = _models()
    model = models["ngram3"]
    topp = DecoderConfig(strategy="topp", param=0.9, max_len=3)
    assert generate_batch(model, [], topp).shape == generate_batch(model, [], topp, []).shape == (0, topp.max_len)
    for seeds in ([], [7], [7, 8, 9]):
        with pytest.raises(ConfigError, match="one seed per prefix"):
            generate_batch(model, [[0], [1]], topp, seeds)
    # No seeds seed every row with 0.
    ids = generate_batch(model, [[0], [1]], topp)
    assert ids.tolist() == generate_batch(model, [[0], [1]], topp, [0, 0]).tolist()


def test_trace_runs_in_blocks_and_equals_per_prefix_rows():
    ngram, ffn, _, _ = _scoring_case()
    rng = SplitMix64(19)
    seq, context = tuple(rng.randint(300) for _ in range(300)), (5, 7, 9)
    for model in (ngram, ffn):
        dists = [model.next_dist(context + seq[:t]) for t in range(len(seq))]
        for truncation in (None, ("topk", 40), ("topp", 0.9)):
            sizes, batch = [], model.next_dist_batch
            with mock.patch.object(model, "next_dist_batch", lambda c: sizes.append(len(c)) or batch(c)), \
                    mock.patch.object(model, "next_dist", None):  # no one-row call
                cfg = truncation and decode.DecoderConfig(*truncation, max_len=1)
                got = np.concatenate(decode.token_prob_trace(model, seq, cfg, context))
            assert sum(sizes) == len(seq) and max(sizes) <= decode.MAX_BATCH_ROWS
            kept = [naive_truncate(d, *truncation) for d in dists] if truncation else dists
            want = np.array([d[tok] for rows in (dists, kept) for d, tok in zip(rows, seq)])
            if model is ngram:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_batched_seq_ul_trains_like_per_item_decoding(monkeypatch):
    splits, vocab = word_splits(150, 24)
    cfg = TrainConfig(
        epochs=2,
        batch_size=8,
        objectives=(("mle", 1.0), ("ul", 1.0)),
        mix_prob=0.7, ul_prefix_len=8, ul_gen_len=10, ul_ngram=2,
    )

    def train():
        model = FeedForwardLM.init(vocab, context=3, embed_dim=8, hidden_dim=16, seed=4)
        history = losses.train(model, {"sequences": splits.train}, cfg, seed=2)
        return history, model.params

    hist, params = train()
    assert any(step["ul_branch"] == 1.0 for step in hist)
    monkeypatch.setattr("genteval.losses.generate_batch", naive_generate_batch)
    slow_hist, slow_params = train()
    assert hist == slow_hist
    assert all(params[n].tobytes() == slow_params[n].tobytes() for n in params)


# --- the shared row normalization against the reference softmax ----------


@given(rows=st.integers(1, 6), width=st.sampled_from([1, 2, 7, 101, 5001]),
       dead=st.sampled_from([0.0, 0.3, 0.9, 1.0]), scale=st.sampled_from([1.0, 30.0, 800.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_exp_rows_matches_the_reference_softmax_bit_for_bit(rows, width, dead, scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (rows, width))
    logits[rng.random(logits.shape) < dead] = -np.inf  # dead=1.0: every row is all -inf
    gold = rng.integers(0, width, rows)
    with np.errstate(invalid="ignore"):  # an all -inf row shifts by -inf - -inf
        want_p, want_logp = softmax(logits), log_softmax(logits)[np.arange(rows), gold]
        z, plain = logits.copy(), logits.copy()
        denom, gold_logp = exp_rows(z, gold)
        plain_denom, no_gold = exp_rows(plain)
        assert no_gold is None and (plain.tobytes(), plain_denom.tobytes()) == (z.tobytes(), denom.tobytes())
        z /= denom[:, None]
    assert z.tobytes() == want_p.tobytes()
    assert gold_logp.tobytes() == want_logp.tobytes()
    all_inf = np.isneginf(logits).all(axis=1)
    assert np.isnan(z[all_inf]).all() and np.isnan(gold_logp[all_inf]).all()
    assert not np.isnan(z[~all_inf]).any()


# --- the blocked training step ----------------------------------------------


_PAD = 99  # above every id the windows below hold


# The forms a token-id sequence takes: a tuple, a list or an int64 array (a matrix row is one).
_ID_FORMS = st.sampled_from([tuple, list, lambda ids: np.array(ids, dtype=np.int64)])


@given(
    lines=st.lists(
        st.tuples(st.lists(st.integers(0, 40), max_size=12), st.lists(st.integers(0, 40), max_size=12),
                  _ID_FORMS, _ID_FORMS),
        max_size=6,
    ),
    c=st.sampled_from([0, 1, 3, 8]),
    bad_form=_ID_FORMS,
)
@settings(max_examples=150, deadline=None)
def test_id_lines_windows_match_per_row_slices(lines, c, bad_form):
    # Contexts run from empty to longer than c; -1 in a window reads as the pad.
    # Each sequence and context comes in its own form, empty arrays included.
    seqs = [seq_form(s) for s, _, seq_form, _ in lines]
    contexts = [ctx_form(x) for _, x, _, ctx_form in lines]
    flat, q = id_lines(seqs, contexts, c)
    assert flat.dtype == q.dtype == np.int64 and len(flat) == len(q) + c * len(seqs)
    windows = flat[q[:, None] - c + np.arange(c)]
    slices = SimpleNamespace(context=c, pad_id=_PAD)
    want = [np.empty((0, c), dtype=np.int64)] + [naive_windows(slices, s, x) for s, x in zip(seqs, contexts)]
    assert np.array_equal(np.where(windows < 0, _PAD, windows), np.concatenate(want))
    assert flat[q].tolist() == [i for s in seqs for i in s]
    # Every row in one form (all arrays join in one copy) lays out the same ids.
    for form in (tuple, list, lambda ids: np.array(ids, dtype=np.int64)):
        same = id_lines([form(s) for s in seqs], [form(x) for x in contexts], c)
        assert np.array_equal(same[0], flat) and np.array_equal(same[1], q)
    # left_padded's rows are the windows of a one-id sequence after each context.
    rows = left_padded(contexts, c)
    want = [np.empty((0, c), dtype=np.int64)] + [naive_windows(slices, (0,), x) for x in contexts]
    assert np.array_equal(np.where(rows < 0, _PAD, rows), np.concatenate(want))
    # A negative id is refused in a sequence, and in a context's last c ids.
    with pytest.raises(ConfigError, match="token ids must be non-negative"):
        id_lines([*seqs, bad_form([3, -2])], [*contexts, bad_form([])], c)
    if c:
        with pytest.raises(ConfigError, match="token ids must be non-negative"):
            id_lines([*seqs, bad_form([3])], [*contexts, bad_form([5, -2])], c)


@pytest.mark.parametrize("context", [1, 3, 8])
def test_windows_match_per_row_slices(context):
    # The ffn's windows, each context alone and all of them in one id_lines call.
    model = FeedForwardLM.init(Vocab.placeholder(40), context=context, embed_dim=2, hidden_dim=2)
    seqs = [(), (5,), (1, 2, 3), tuple(range(30))]
    contexts = [(), (7,), (4, 5, 6), tuple(range(10, 35))]
    pairs = [(ids, ctx) for ids in seqs for ctx in contexts]
    for group in [[p] for p in pairs] + [pairs]:
        flat, q = id_lines([ids for ids, _ in group], [ctx for _, ctx in group], context)
        fast = np.where(flat < 0, model.pad_id, flat)[q[:, None] - context + np.arange(context)]
        slow = np.concatenate([np.empty((0, context), dtype=np.int64)] + [naive_windows(model, *p) for p in group])
        assert fast.dtype == slow.dtype and fast.shape == slow.shape == (len(q), context)
        assert fast.flags.c_contiguous and np.array_equal(fast, slow)


def _pairs_from_sets(sets):
    rows = [t for t, cands in enumerate(sets) for _ in sorted(cands)]
    cols = [c for cands in sets for c in sorted(cands)]
    return rows, cols


def _sorted_pairs(rows, cols):
    order = np.lexsort((cols, rows))
    return rows[order].tolist(), cols[order].tolist()


@given(
    ids=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
    n=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_candidate_pairs_match_per_position_sets(ids, n):
    arr = np.array(ids, dtype=np.int64)
    for (rows, cols), want in (
        (losses._previous_token_pairs(arr), naive_previous_token_candidates(ids)),
        (losses._repeat_pairs([ids], n)[0], naive_ul_seq_candidates(ids, n)),
    ):
        assert np.all(np.diff(rows) >= 0)  # the block code slices pairs by row
        assert _sorted_pairs(rows, cols) == _pairs_from_sets(want)


@given(
    seqs=st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=30), max_size=8),
    n=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_repeat_pairs_of_many_sequences_match_each_alone(seqs, n):
    got = losses._repeat_pairs(seqs, n)
    assert len(got) == len(seqs)
    for (rows, cols), ids in zip(got, seqs):
        assert np.all(np.diff(rows) >= 0)
        assert _sorted_pairs(rows, cols) == _pairs_from_sets(naive_ul_seq_candidates(ids, n))


class _CaptureAdam(AdamState):
    """Adam that keeps a copy of the last gradient it applied."""

    def update(self, params, grads):
        self.grads = {name: g.copy() for name, g in grads.items()}
        super().update(params, grads)


_V = 30
_LENS = (9, 40, 7, 130, 64, 3, 200, 25)  # several blocks; two sequences exceed the cap


def _step_data(lens=_LENS):
    vocab = Vocab.placeholder(_V)
    seqs = [np.array([(7 * i + 3 * t + t // 5) % 11 for t in range(n)]) for i, n in enumerate(lens)]
    pairs = [
        (SentencePair(seqs[0], seqs[2]), SentencePair(seqs[0], seqs[5])),
        (SentencePair(seqs[2], seqs[0]), SentencePair(seqs[2], seqs[1])),
    ]
    swaps = [(SentencePair(seqs[a], seqs[b]), SentencePair(seqs[b], seqs[a])) for a, b in ((0, 2), (5, 1), (2, 7))]
    tfidf = [(seqs[i], tuple(0.3 * ((t * i) % 7) for t in range(len(seqs[i])))) for i in (0, 2)]
    pos = [(seqs[i], tuple(None if t % 3 == 0 else t % 4 for t in range(len(seqs[i]))))
           for i in (0, 5)]
    dp = [(seqs[i], tuple(None if t % 4 == 1 else (t * i) % 4 for t in range(len(seqs[i]))))
          for i in (2, 7, 5)]
    return vocab, {"sequences": tuple(seqs), "nsp": tuple(pairs), "sop": tuple(swaps),
                   "tfidf": tuple(tfidf), "pos": tuple(pos), "dp": tuple(dp)}


def _step_model(vocab):
    return FeedForwardLM.init(vocab, context=3, embed_dim=4, hidden_dim=8, seed=5,
                              n_labels=4, regression=True)


# (objectives, seq-UL mix_prob, margin). At margin 0 the first nsp item's
# hinge is off and the second's on (see test_step_cases_cover_both_hinge_states).
STEP_CASES = {
    "mle": ((("mle", 1.0),), 0.5, 1.0),
    "mle+token_ul": ((("mle", 1.0), ("ul", 0.7)), 0.0, 1.0),
    "mle+seq_ul": ((("mle", 1.0), ("ul", 0.7)), 1.0, 1.0),
    "token_ul": ((("ul", 2.0),), 0.0, 1.0),
    "seq_ul": ((("ul", 2.0),), 1.0, 1.0),
    "ul_before_mle": ((("ul", 0.5), ("mle", 1.5)), 0.0, 1.0),
    "every_kind": ((("nsp", 0.3), ("mle", 1.0), ("tfidf", 0.2), ("ul", 0.5), ("pos", 0.4)), 0.0, 1.0),
    "every_kind_seq_ul": ((("mle", 1.0), ("ul", 0.5), ("nsp", 0.3), ("tfidf", 0.2),
                           ("pos", 0.4)), 1.0, 1.0),
    "sop+dp": ((("sop", 0.8), ("mle", 1.0), ("dp", 0.6)), 0.0, 1.0),
    "tfidf": ((("tfidf", 1.5),), 0.0, 1.0),
    "nsp_some_hinges": ((("nsp", 1.0),), 0.0, 0.0),
    "nsp_no_hinge": ((("nsp", 1.0), ("tfidf", 0.5)), 0.0, -1.0),
}
STEP_RTOL = 1e-12


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_blocked_step_matches_per_item_step(case):
    objectives, mix, margin = STEP_CASES[case]
    cfg = TrainConfig(objectives=objectives, margin=margin,
                      mix_prob=mix, ul_prefix_len=3, ul_gen_len=20, ul_ngram=2)
    _assert_step_matches_oracle(cfg)


def _assert_step_matches_oracle(cfg):
    """One multitask_step against naive_multitask_step at STEP_RTOL; returns the step's scalars."""
    vocab, batch = _step_data()

    def run(step):
        model = _step_model(vocab)
        opt, rng = _CaptureAdam(model.params, 1e-2), SplitMix64(9)
        return step(model, batch, cfg, opt, rng), opt.grads, rng.uniform()

    fast, fast_grads, fast_next = run(multitask_step)
    slow, slow_grads, slow_next = run(naive_multitask_step)
    assert fast_next == slow_next  # the same randomness was consumed
    assert list(fast) == list(slow)
    for key, want in slow.items():
        assert fast[key] == pytest.approx(want, rel=STEP_RTOL, abs=0), key
    for name, want in slow_grads.items():
        err = np.max(np.abs(fast_grads[name] - want))
        assert err <= STEP_RTOL * np.max(np.abs(want)), (name, err)
    return fast


def test_step_cases_cover_both_hinge_states():
    vocab, batch = _step_data()
    model = _step_model(vocab)
    hinges = {m: [naive_margin_rank_loss(model, *item, m)[0] for item in batch["nsp"]] for m in (-1.0, 0.0, 1.0)}
    assert hinges[-1.0] == [0.0, 0.0]
    assert hinges[0.0][0] == 0.0 < hinges[0.0][1]
    assert min(hinges[1.0]) > 0.0


@pytest.mark.parametrize("kind", ["tfidf", "pos", "dp"])
def test_head_objective_makes_one_forward_per_step(monkeypatch, kind):
    rows = []
    forward = FeedForwardLM.forward

    def counting(self, ctx):
        rows.append(ctx.shape[0])
        return forward(self, ctx)

    monkeypatch.setattr(FeedForwardLM, "forward", counting)
    vocab, batch = _step_data()
    model = _step_model(vocab)
    cfg = TrainConfig(objectives=((kind, 1.0),))
    multitask_step(model, batch, cfg, AdamState(model.params, 1e-3), SplitMix64(0))
    assert rows == [sum(len(seq) for seq, _ in batch[kind])]


def test_blocked_step_forwards_at_most_block_rows(monkeypatch):
    rows = []
    forward = FeedForwardLM.forward

    def counting(self, ctx):
        rows.append(ctx.shape[0])
        return forward(self, ctx)

    monkeypatch.setattr(FeedForwardLM, "forward", counting)
    vocab, batch = _step_data()
    assert max(_LENS) > BLOCK_ROWS
    for mix in (0.0, 1.0):
        cfg = TrainConfig(objectives=(("mle", 1.0), ("ul", 0.5)),
                          mix_prob=mix, ul_prefix_len=3, ul_gen_len=20, ul_ngram=2)
        model = FeedForwardLM.init(vocab, context=3, embed_dim=4, hidden_dim=8, seed=5)
        rows.clear()
        multitask_step(model, batch, cfg, AdamState(model.params, 1e-3), SplitMix64(0))
        assert max(rows) <= BLOCK_ROWS
        if mix == 0.0:
            # Token-level UL reuses MLE's forward: every token is forwarded once.
            assert sum(rows) == sum(_LENS)


def _seq_ul_forward_rows(monkeypatch, cfg):
    """Rows per forward of one seq-UL step, and its rollouts: they are
    decoded before counting starts, so only the loss pass is counted."""
    vocab, batch = _step_data()
    model = _step_model(vocab)
    rollouts = losses._greedy_rollouts(model, batch["sequences"], cfg)
    monkeypatch.setattr(losses, "_greedy_rollouts", lambda *_: rollouts)
    rows = []
    forward = FeedForwardLM.forward

    def counting(self, ctx):
        rows.append(ctx.shape[0])
        return forward(self, ctx)

    monkeypatch.setattr(FeedForwardLM, "forward", counting)
    scalars = multitask_step(model, batch, cfg, AdamState(model.params, 1e-3), SplitMix64(0))
    assert scalars["ul_branch"] == 1.0
    return rows, rollouts


def test_seq_ul_step_forwards_only_candidate_rows(monkeypatch):
    cfg = TrainConfig(objectives=(("ul", 1.0),),
                      mix_prob=1.0, ul_prefix_len=3, ul_gen_len=20, ul_ngram=2)
    rows, rollouts = _seq_ul_forward_rows(monkeypatch, cfg)
    _, conts = rollouts
    with_cands = sum(bool(c) for cont in conts for c in naive_ul_seq_candidates(cont, 2))
    assert 0 < with_cands < sum(len(cont) for cont in conts)
    assert sum(rows) == with_cands and max(rows) <= BLOCK_ROWS


def test_seq_ul_without_candidates_forwards_nothing(monkeypatch):
    # No rollout is as long as one n-gram, so none can repeat one.
    cfg = TrainConfig(objectives=(("ul", 2.0),),
                      mix_prob=1.0, ul_prefix_len=3, ul_gen_len=20, ul_ngram=21)
    assert _assert_step_matches_oracle(cfg)["ul"] == 0.0
    rows, _ = _seq_ul_forward_rows(monkeypatch, cfg)
    assert rows == []


def test_in_place_adam_matches_whole_array_expressions():
    rng = np.random.default_rng(5)
    # "big" spans more than one in-place chunk; "s" is 0-d, as a regression bias is.
    params = {"w": rng.normal(size=(7, 5)), "b": rng.normal(size=3), "e": rng.normal(size=(2, 3, 4)),
              "big": rng.normal(size=(2 * losses._ADAM_CHUNK // 70 + 3, 70)), "s": rng.normal(size=())}
    ref_params = {n: p.copy() for n, p in params.items()}
    opt, ref = AdamState(params, 0.01), AdamState(ref_params, 0.01)
    for step in range(6):
        grads = {n: rng.normal(size=p.shape) * 10.0 ** (step - 3) for n, p in params.items()}
        grads["b"][step % 3] = 0.0
        opt.update(params, grads)
        naive_adam_update(ref, ref_params, grads)
        for n in params:
            assert params[n].tobytes() == ref_params[n].tobytes()
            assert opt.m[n].tobytes() == ref.m[n].tobytes()
            assert opt.v[n].tobytes() == ref.v[n].tobytes()
    transposed = np.ones((3, 2)).T  # its flat copy would drop the update
    with pytest.raises(ConfigError):
        AdamState({"t": transposed}, 0.01).update({"t": transposed}, {"t": np.ones((2, 3))})


# --- the harness end to end --------------------------------------------------


def test_run_sweep_fast_and_slow_write_identical_files(tmp_path, monkeypatch):
    splits, models = _models()
    cfg = SweepConfig(
        models=("ngram3", "ffn"),
        strategies=(
            ("greedy", (None,)),
            ("beam", (2,)),
            ("topk", (3,)),
            ("topp", (0.8,)),
            ("temperature", (0.9,)),
            ("penalized", (1.5,)),
        ),
        prefix_len=6,
        gen_len=8,
        n_prefixes=5,
        seed=11,
    )
    chosen = {name: models[name] for name in cfg.models}
    run_sweep(cfg, splits, tmp_path / "fast", models=chosen)
    # The slow side decodes each prefix alone, through the full-sort paths.
    monkeypatch.setattr("genteval.harness.sweep.generate_batch", naive_generate_batch)
    slow = {name: SlowLM(m) for name, m in chosen.items()}
    run_sweep(cfg, splits, tmp_path / "slow", models=slow)

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    fast, slow_files = tree(tmp_path / "fast"), tree(tmp_path / "slow")
    assert len(fast) == 2 * len(cfg.cells()) + 1
    assert fast == slow_files
