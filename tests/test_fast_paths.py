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
from genteval.decode import DecoderConfig, generate, sample, top_ids, truncate_renormalize
from genteval.harness.sweep import SweepConfig, run_sweep
from genteval.lm import FeedForwardLM, NGramLM, load_model, ngram_fit, save_model
from genteval.rng import SplitMix64, stable_hash

from oracles import (
    SlowLM,
    naive_generate,
    naive_next_dist,
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


# --- the harness end to end --------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_fast_and_slow_write_identical_files(tmp_path, monkeypatch, workers):
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
    run_sweep(cfg, splits, tmp_path / "fast", models=chosen, workers=workers)
    monkeypatch.setattr("genteval.harness.sweep.generate", naive_generate)
    slow = {name: SlowLM(m) for name, m in chosen.items()}
    run_sweep(cfg, splits, tmp_path / "slow", models=slow, workers=workers)

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    fast, slow_files = tree(tmp_path / "fast"), tree(tmp_path / "slow")
    assert len(fast) == 2 * len(cfg.cells()) + 1
    assert fast == slow_files
