"""Fast decoding paths against the slow paths they replace (tests/oracles.py).

Every comparison is exact: the fast paths promise bit-identical output,
so distributions are compared with ``tobytes()`` and decodes id for id.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genteval.corpus import TokenSequence, Vocab
from dataclasses import replace

from genteval import decode
from genteval.decode import (
    DecoderConfig,
    generate,
    generate_batch,
    sample,
    top_ids,
    truncate_renormalize,
)
from genteval.errors import ConfigError
from genteval.harness.sweep import SweepConfig, run_sweep
from genteval.lm import FeedForwardLM, NGramLM, load_model, ngram_fit, save_model
from genteval.losses import SeqUlConfig, TrainConfig, TrainData, Trainer
from genteval.rng import SplitMix64, stable_hash

from oracles import (
    SlowLM,
    naive_generate,
    naive_generate_batch,
    naive_next_dist,
    naive_ngrams,
    naive_sample,
    naive_top_ids,
    naive_truncate,
)
from toytext import word_splits

# --- n-gram rows -------------------------------------------------------------


@given(
    v=st.integers(min_value=2, max_value=9),
    order=st.integers(min_value=1, max_value=4),
    k_s=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_next_dist_matches_naive_loop(v, order, k_s, data):
    # The corpus leaves the top id unused, so some contexts are unseen.
    ids = st.integers(min_value=0, max_value=v - 2)
    corpus = data.draw(st.lists(st.lists(ids, min_size=1, max_size=40), min_size=1, max_size=3))
    vocab = Vocab.placeholder(v)
    model = ngram_fit([TokenSequence(tuple(s), vocab) for s in corpus], order, k_s)
    contexts = [(), (0,), (v - 1,), (v - 1,) * order, corpus[0], corpus[0] * 3]
    contexts += data.draw(st.lists(st.lists(st.integers(0, v - 1), max_size=9), max_size=4))
    for ctx in contexts:
        assert model.next_dist(ctx).tobytes() == naive_next_dist(model, ctx).tobytes()
    batch = model.next_dist_batch(contexts)
    for row, ctx in zip(batch, contexts):
        assert row.tobytes() == naive_next_dist(model, ctx).tobytes()


@given(
    corpus=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=30), min_size=1, max_size=4),
    order=st.integers(min_value=1, max_value=4),
)
def test_fit_counts_match_window_scan(corpus, order):
    vocab = Vocab.placeholder(6)
    model = ngram_fit([TokenSequence(tuple(s), vocab) for s in corpus], order)
    for o in range(1, order + 1):
        want = {}  # first-occurrence order, as the table keeps it
        for ids in corpus:
            for gram, c in naive_ngrams(ids, o).items():
                want[gram] = want.get(gram, 0) + c
        assert list(model.counts[o].items()) == list(want.items())


def test_next_dist_ignores_counted_ids_outside_the_vocab():
    # A model file can carry ids the vocab lacks; no entry can hold them.
    counts = {1: {(0,): 3, (1,): 1, (5,): 2}, 2: {(0, 1): 2, (0, 7): 1, (1, 0): 1}}
    for k_s in (0.0, 1.0):
        model = NGramLM(Vocab.placeholder(3), 2, k_s, counts)
        for ctx in ((), (0,), (1,), (2,)):
            assert model.next_dist(ctx).tobytes() == naive_next_dist(model, ctx).tobytes()


def test_rows_are_built_on_first_next_dist_not_at_fit_or_load(tmp_path):
    seq = TokenSequence((0, 1, 2, 1, 0, 2, 2), Vocab.placeholder(3))
    model = ngram_fit(seq, order=3, k_s=0.5)
    save_model(model, tmp_path / "m.lmek")
    loaded = load_model(tmp_path / "m.lmek")
    assert model._rows == {} and loaded._rows == {}
    model.score(seq)
    assert model._rows == {}
    model.next_dist((0, 1))
    assert set(model._rows) == {3}


def test_rows_cache_is_safe_under_concurrent_first_use():
    splits, vocab = word_splits(120, 16)
    contexts = [s.ids[:j] for s in splits.train[:6] for j in range(4)]
    expected = None
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            model = ngram_fit(list(splits.train), order=3, k_s=0.0, vocab=vocab)
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
        assert np.array_equal(top_ids(values, k), naive_top_ids(values, k))


@given(dist=_tie_heavy(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_topk_and_topp_match_full_sort(dist, data):
    k = data.draw(st.integers(1, dist.size))
    assert truncate_renormalize(dist, "topk", k).tobytes() == naive_truncate(dist, "topk", k).tobytes()
    # Exact cumulative sums are the boundary cases of top-p.
    cum = np.cumsum(dist[naive_top_ids(dist, dist.size)])
    for p in {data.draw(st.floats(0.01, 1.0)), float(min(1.0, cum[0])), float(min(1.0, cum[-1])), 1.0}:
        assert truncate_renormalize(dist, "topp", p).tobytes() == naive_truncate(dist, "topp", p).tobytes()


@given(dist=_tie_heavy(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=120, deadline=None)
def test_sample_matches_full_sort(dist, seed):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for _ in range(20):
        assert sample(dist, fast) == naive_sample(dist, slow)
    # Every cumulative boundary, plus the ends of [0, 1).
    cum = np.cumsum(dist[naive_top_ids(dist, dist.size)])
    for u in [0.0, np.nextafter(1.0, 0.0), *cum[:50], *np.nextafter(cum[:50], 0.0)]:
        assert sample(dist, _FixedU(u)) == naive_sample(dist, _FixedU(u))


@pytest.mark.parametrize("case", ["distinct", "one_tie", "levels", "nan", "mostly_nan", "signed_zero"])
def test_large_vocab_rankings_match_full_sort(case):
    # Past the size where the ranking first tries an unstable sort.
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
    assert np.array_equal(top_ids(values, 5000), naive_top_ids(values, 5000))
    assert np.array_equal(top_ids(values, 40), naive_top_ids(values, 40))
    if case in ("nan", "mostly_nan", "signed_zero"):
        return
    dist = values / values.sum()
    for p in (0.3, 0.9, 1.0):
        assert truncate_renormalize(dist, "topp", p).tobytes() == naive_truncate(dist, "topp", p).tobytes()
    assert truncate_renormalize(dist, "topk", 40).tobytes() == naive_truncate(dist, "topk", 40).tobytes()
    fast, slow = SplitMix64(3), SplitMix64(3)
    for _ in range(20):
        assert sample(dist, fast) == naive_sample(dist, slow)


def test_sample_degenerate_all_zero_keeps_old_answer():
    dist = np.zeros(40)
    assert sample(dist, _FixedU(0.3)) == naive_sample(dist, _FixedU(0.3)) == 0


class _FixedU:
    def __init__(self, u):
        self.u = float(u)

    def uniform(self):
        return self.u


class TieLM:
    """Context-hashed distributions over a few levels: ties everywhere."""

    def __init__(self, vocab_size, seed=0):
        self.vocab = Vocab.placeholder(vocab_size)
        self.seed = seed

    def next_dist(self, context):
        rng = SplitMix64(self.seed ^ stable_hash(" ".join(map(str, context))))
        w = np.array([_LEVELS[1 + rng.randint(len(_LEVELS) - 1)] for _ in range(self.vocab.size)])
        return w / w.sum()


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_beam_matches_full_sort_on_ties(width):
    model = TieLM(80, seed=width)
    cfg = DecoderConfig(strategy="beam", b=width, max_len=6)
    for prefix in ([0], [3, 1], [7, 7, 7]):
        assert generate(model, prefix, cfg).ids == naive_generate(model, prefix, cfg).ids


# --- whole decodes: trailing windows and every strategy ----------------------

CONFIGS = [
    DecoderConfig(strategy="greedy", max_len=15),
    DecoderConfig(strategy="beam", b=3, max_len=8),
    DecoderConfig(strategy="temperature", t=0.8, max_len=15, seed=3),
    DecoderConfig(strategy="topk", k=4, max_len=15, seed=4),
    DecoderConfig(strategy="topp", p=0.7, max_len=15, seed=5),
    DecoderConfig(strategy="penalized", theta=1.5, max_len=15),
    DecoderConfig(strategy="penalized", theta=1.5, t=0.9, max_len=15, seed=6),
]


def _models():
    splits, vocab = word_splits(150, 24)
    train = list(splits.train)
    return splits, {
        "ngram3": ngram_fit(train, order=3, k_s=0.0, vocab=vocab),
        "ngram2s": ngram_fit(train, order=2, k_s=0.5, vocab=vocab),
        "unigram": ngram_fit(train, order=1, k_s=1.0, vocab=vocab),
        "ffn": FeedForwardLM.init(vocab, context=3, embed_dim=4, hidden_dim=8, seed=2),
    }


class _NoWindow:
    """The same model without ``context_len``: it sees whole contexts."""

    def __init__(self, model):
        self.vocab = model.vocab
        self.next_dist = model.next_dist


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.strategy}-{c.param}-{c.t}")
def test_generate_with_window_equals_whole_context(cfg):
    splits, models = _models()
    prefixes = [splits.train[i].window(0, 10) for i in range(3)] + [[0]]
    for name, model in models.items():
        for prefix in prefixes:
            fast = generate(model, prefix, cfg).ids
            assert fast == generate(_NoWindow(model), prefix, cfg).ids, name
            assert fast == naive_generate(SlowLM(model), prefix, cfg).ids, name


# --- lockstep batches --------------------------------------------------------


def _batch(cfg, splits, n=9):
    """Prefixes of mixed lengths, each with its own seed."""
    prefixes = [splits.train[i].window(0, 4 + i) for i in range(n - 2)] + [[0], [3, 1]]
    return prefixes, [replace(cfg, seed=cfg.seed * 1000 + 17 * i) for i in range(n)]


@pytest.mark.parametrize("max_rows", [2, decode.MAX_BATCH_ROWS])
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.strategy}-{c.param}-{c.t}")
def test_generate_batch_equals_per_prefix_decodes_on_the_ngram(cfg, max_rows, monkeypatch):
    # A cap of 2 rows splits the batch into several calls (one prefix per
    # call for beam(3)).
    monkeypatch.setattr(decode, "MAX_BATCH_ROWS", max_rows)
    splits, models = _models()
    prefixes, cfgs = _batch(cfg, splits)
    for name in ("ngram3", "ngram2s", "unigram"):
        model = models[name]
        slow = [s.ids for s in naive_generate_batch(SlowLM(model), prefixes, cfgs)]
        assert [s.ids for s in generate_batch(model, prefixes, cfgs)] == slow, name
        # Served by stacking next_dist rows.
        assert [s.ids for s in generate_batch(_NoWindow(model), prefixes, cfgs)] == slow, name


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.strategy}-{c.param}-{c.t}")
def test_generate_batch_equals_per_prefix_decodes_on_the_ffn(cfg):
    splits, models = _models()
    prefixes, cfgs = _batch(cfg, splits)
    fast = [s.ids for s in generate_batch(models["ffn"], prefixes, cfgs)]
    assert fast == [s.ids for s in naive_generate_batch(models["ffn"], prefixes, cfgs)]


def test_ffn_batch_rows_match_single_rows():
    model = FeedForwardLM.init(Vocab.placeholder(3000), context=4, embed_dim=16, hidden_dim=64, seed=3)
    contexts = [[], [5], list(range(7))] + [[(13 * i + j) % 3000 for j in range(4)] for i in range(29)]
    batch = model.next_dist_batch(contexts)
    assert batch.shape == (32, model.vocab.size)
    for row, ctx in zip(batch, contexts):
        np.testing.assert_allclose(row, model.next_dist(ctx), rtol=1e-12, atol=0)


def test_generate_batch_rejects_mixed_configs():
    _, models = _models()
    model = models["ngram3"]
    greedy = DecoderConfig(strategy="greedy", max_len=3)
    assert generate_batch(model, [], []) == []
    with pytest.raises(ConfigError):
        generate_batch(model, [[0], [1]], [greedy])
    with pytest.raises(ConfigError):
        generate_batch(model, [[0], [1]], [greedy, replace(greedy, max_len=4)])
    assert len(generate_batch(model, [[0], [1]], [greedy, replace(greedy, seed=9)])) == 2


def test_batched_seq_ul_trains_like_per_item_decoding(monkeypatch):
    splits, vocab = word_splits(150, 24)
    cfg = TrainConfig(
        epochs=2,
        batch_size=8,
        objectives=(("mle", 1.0), ("ul", 1.0)),
        seq_ul=SeqUlConfig(mix_prob=0.7, prefix_len=8, gen_len=10, ngram=2),
    )

    def train():
        model = FeedForwardLM.init(vocab, context=3, embed_dim=8, hidden_dim=16, seed=4)
        history = Trainer(model, cfg, seed=2).fit(TrainData(sequences=splits.train))
        return history, model.params

    hist, params = train()
    assert any(step["ul_branch"] == 1.0 for step in hist)
    monkeypatch.setattr("genteval.losses.generate_batch", naive_generate_batch)
    slow_hist, slow_params = train()
    assert hist == slow_hist
    assert all(params[n].tobytes() == slow_params[n].tobytes() for n in params)


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
