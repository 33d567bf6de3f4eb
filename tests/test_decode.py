import itertools
import math

import numpy as np
import pytest

from genteval.corpus import Vocab
from genteval.decode import DecoderConfig, generate_batch, param_value, token_prob_trace
from genteval.errors import ConfigError
from genteval.lm.ffn import FeedForwardLM
from genteval.lm.ngram import ngram_fit
from genteval.rng import SplitMix64, stable_hash

from oracles import StackedRows, one_generate, one_penalize, one_sample, one_truncate


class TableLM(StackedRows):
    """Deterministic pseudo-random model: dist depends only on context."""

    def __init__(self, vocab_size, seed=0):
        self.vocab = Vocab.placeholder(vocab_size)
        self.seed = seed

    def next_dist(self, context):
        rng = SplitMix64(self.seed ^ stable_hash(" ".join(map(str, context))))
        w = np.array([rng.uniform() + 1e-3 for _ in range(self.vocab.size)])
        return w / w.sum()

    def score(self, seq, context=()):
        ctx = list(context)
        total = 0.0
        for tok in seq:
            total += math.log(self.next_dist(ctx)[tok])
            ctx.append(tok)
        return total


# --- truncation -------------------------------------------------------------


def test_topk_hand_value():
    out = one_truncate(np.array([0.5, 0.3, 0.2]), "topk", 2)
    assert out == pytest.approx([0.625, 0.375, 0.0])


def test_topp_hand_value():
    # cum = [0.5, 0.8, 1.0]; the 0.7 threshold lands inside the second
    # token, so both are kept.
    out = one_truncate(np.array([0.5, 0.3, 0.2]), "topp", 0.7)
    assert out == pytest.approx([0.625, 0.375, 0.0])


def test_topp_boundary_is_inclusive():
    # Exact cumulative hit: topp(0.5) keeps only the first token.
    out = one_truncate(np.array([0.5, 0.3, 0.2]), "topp", 0.5)
    assert out == pytest.approx([1.0, 0.0, 0.0])


def test_temperature_sharpens_and_flattens():
    dist = np.array([0.7, 0.3])
    cold = one_truncate(dist, "temperature", 0.5)
    hot = one_truncate(dist, "temperature", 2.0)
    assert cold[0] > dist[0] > hot[0]
    # T=0.5 squares the probabilities before renormalizing.
    assert cold[0] == pytest.approx(0.49 / (0.49 + 0.09))


def test_noop_transforms_return_copies():
    dist = np.array([0.4, 0.35, 0.25])
    for mode, value in (("topk", 3), ("topp", 1.0), ("temperature", 1.0)):
        out = one_truncate(dist, mode, value)
        assert np.array_equal(out, dist)
        assert out is not dist


def test_truncation_tie_break_prefers_lower_id():
    out = one_truncate(np.array([0.25, 0.25, 0.25, 0.25]), "topk", 2)
    assert out == pytest.approx([0.5, 0.5, 0.0, 0.0])


def test_truncation_param_validation():
    model = TableLM(2)
    for bad in (("topk", 0), ("topk", 3), ("topp", 0.0), ("topp", 1.5), ("entmax", 0.5)):
        with pytest.raises(ConfigError):
            token_prob_trace(model, [0], DecoderConfig(*bad, max_len=1))
    with pytest.raises(ConfigError):
        DecoderConfig(strategy="temperature", param=-1.0)


def test_truncations_sum_to_one():
    rng = SplitMix64(13)
    for _ in range(50):
        n = 2 + rng.randint(10)
        w = np.array([rng.uniform() + 1e-6 for _ in range(n)])
        dist = w / w.sum()
        for mode, value in (
            ("topk", 1 + rng.randint(n)),
            ("topp", 0.05 + 0.95 * rng.uniform()),
            ("temperature", 0.25 + rng.uniform()),
        ):
            out = one_truncate(dist, mode, value)
            assert out.sum() == pytest.approx(1.0)
            assert (out >= 0).all()


# --- penalty ----------------------------------------------------------------


def test_penalize_hand_value():
    # ln 0.6 doubled: exp(2 ln 0.6) = 0.36 against 0.4 -> [0.4737, 0.5263].
    out = one_penalize(np.array([0.6, 0.4]), {0}, theta=2.0)
    assert out == pytest.approx([0.36 / 0.76, 0.40 / 0.76])


def test_penalize_identity_at_one():
    dist = np.array([0.5, 0.3, 0.2])
    assert one_penalize(dist, {0, 2}, 1.0) == pytest.approx(list(dist))


def test_penalize_only_hits_generated():
    dist = np.array([0.25, 0.25, 0.5])
    out = one_penalize(dist, {2}, 3.0)
    assert out[0] == pytest.approx(out[1])
    assert out[2] < 0.5


def test_penalize_rejects_theta_below_one():
    with pytest.raises(ConfigError):
        DecoderConfig(strategy="penalized", param=0.5)


# --- sampling ---------------------------------------------------------------


class _FixedU:
    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def test_sample_u_zero_takes_mode():
    assert one_sample(np.array([0.2, 0.5, 0.3]), _FixedU(0.0)) == 1


def test_sample_cdf_boundaries():
    dist = np.array([0.2, 0.5, 0.3])
    # Ordered (1, 2, 0): cum = [0.5, 0.8, 1.0]; side="right" puts the
    # exact boundary in the next bucket.
    assert one_sample(dist, _FixedU(0.49)) == 1
    assert one_sample(dist, _FixedU(0.5)) == 2
    assert one_sample(dist, _FixedU(0.99)) == 0


def test_sample_never_returns_zero_prob_token():
    dist = np.array([0.0, 1.0, 0.0])
    rng = SplitMix64(3)
    assert all(one_sample(dist, rng) == 1 for _ in range(200))


def test_sample_consumes_one_variate_per_token():
    model = TableLM(6, seed=1)
    cfg = DecoderConfig(strategy="topp", param=0.8, max_len=7)
    out = one_generate(model, [0], cfg, seed=5)
    # Replay the exact draws with a parallel generator.
    rng = SplitMix64(5)
    ctx = [0]
    for tok in out:
        dist = one_truncate(model.next_dist(ctx), "topp", 0.8)
        assert one_sample(dist, rng) == tok
        ctx.append(tok)


# --- DecoderConfig ----------------------------------------------------------


def test_config_requires_matching_param():
    with pytest.raises(ConfigError):
        DecoderConfig(strategy="topk")
    with pytest.raises(ConfigError):
        DecoderConfig(strategy="greedy", param=4)
    with pytest.raises(ConfigError):
        DecoderConfig(strategy="topp", param=0.9, t=0.8)


def test_config_penalized_composes_with_temperature():
    cfg = DecoderConfig(strategy="penalized", param=1.5, t=0.8)
    assert cfg.param == 1.5 and cfg.t == 0.8


def test_config_range_checks():
    for bad in (
        dict(strategy="beam", param=0),
        dict(strategy="temperature", param=0.0),
        dict(strategy="temperature", param=float("inf")),
        dict(strategy="temperature", param=float("nan")),
        dict(strategy="topp", param=1.5),
        dict(strategy="penalized", param=0.9),
        dict(strategy="penalized", param=float("nan")),
        dict(strategy="penalized", param=float("inf")),
        dict(strategy="penalized", param=1.5, t=-1.0),
        dict(strategy="penalized", param=1.5, t=float("inf")),
        dict(strategy="topk", param=0),
        dict(strategy="greedy", max_len=0),
    ):
        with pytest.raises(ConfigError):
            DecoderConfig(**bad)


def test_config_holds_each_parameter_as_its_fields_type():
    # A whole float is its int; a bool, a fraction of any float type, text
    # or a float max_len is a config error, not a traceback once the decode
    # starts.
    cfg = DecoderConfig(strategy="beam", param=2.0, max_len=3)
    assert type(cfg.param) is int and cfg == DecoderConfig(strategy="beam", param=2, max_len=3)
    assert generate_batch(TableLM(6), [[0]], cfg).shape == (1, 3)
    assert type(DecoderConfig(strategy="beam", param=np.int64(2)).param) is int
    assert type(DecoderConfig(strategy="penalized", param=2, t=1).t) is float
    bad_params = (dict(param=True), dict(param=2.5), dict(param=np.float32(2.5)), dict(param=float("inf")),
                  dict(param="2"), dict(param=2, max_len=2.0))
    for bad in bad_params:
        with pytest.raises(ConfigError):
            DecoderConfig(strategy="beam", **bad)


def test_decoder_config_holds_a_cell_parameter_as_its_strategys_type():
    assert DecoderConfig("greedy", None, 7) == DecoderConfig(strategy="greedy", max_len=7)
    for strategy, raw, want in (
        ("beam", "4", 4),
        ("topk", 40.0, 40),
        ("temperature", "0.8", 0.8),
        ("topp", 1, 1.0),
        ("penalized", "1.5", 1.5),
    ):
        value = param_value(strategy, raw)
        assert value == want and type(value) is type(want)
        cfg = DecoderConfig(strategy, value, 5)
        assert cfg.param == want and type(cfg.param) is type(want) and cfg.max_len == 5 and cfg.t is None
    assert param_value("topp", None) is None
    for strategy, param in (("greedy", 0.5), ("beam", None), ("bogus", None), ("topp", 2.0)):
        with pytest.raises(ConfigError):
            DecoderConfig(strategy, param, 5)


def test_topk_larger_than_vocab_rejected_at_generate():
    model = TableLM(4)
    with pytest.raises(ConfigError):
        one_generate(model, [0], DecoderConfig(strategy="topk", param=5, max_len=3))


# --- decoding one prefix ----------------------------------------------------


def test_generate_returns_continuation_only():
    model = TableLM(5, seed=2)
    out = generate_batch(model, [np.array([1, 2])], DecoderConfig(strategy="greedy", max_len=4))
    assert out.dtype == np.int64 and out.shape == (1, 4)


def test_generate_deterministic_under_seed():
    model = TableLM(9, seed=4)
    cfg = DecoderConfig(strategy="temperature", param=1.3, max_len=12)
    assert one_generate(model, [0, 3], cfg, seed=77) == one_generate(model, [0, 3], cfg, seed=77)


def test_generate_seed_changes_stochastic_output():
    model = TableLM(9, seed=4)
    cfg = DecoderConfig(strategy="topp", param=0.9, max_len=20)
    a = one_generate(model, [0], cfg, seed=1)
    b = one_generate(model, [0], cfg, seed=2)
    assert a != b


def test_penalized_greedy_avoids_repeats():
    # A near-one-hot model loops under greedy; theta pushes the repeated
    # token down once its log-prob is scaled.
    class Peaky(StackedRows):
        vocab = Vocab.placeholder(3)

        def next_dist(self, context):
            return np.array([0.90, 0.09, 0.01])

    greedy = one_generate(Peaky(), [0], DecoderConfig(strategy="greedy", max_len=4))
    assert greedy == (0, 0, 0, 0)
    pen = one_generate(Peaky(), [0], DecoderConfig(strategy="penalized", param=30.0, max_len=4))
    assert pen[0] == 0
    assert pen[1] != 0


def _exhaustive_best(model, prefix, width, max_len):
    # Beam(width) equals exhaustive search once width >= |V|^depth along
    # the explored frontier; here we brute-force all sequences.
    best = None
    for ids in itertools.product(range(model.vocab.size), repeat=max_len):
        score = 0.0
        ctx = list(prefix)
        for tok in ids:
            score += math.log(model.next_dist(ctx)[tok])
            ctx.append(tok)
        key = (-score, ids)
        if best is None or key < best:
            best = key
    return best[1]


def test_beam_full_width_matches_exhaustive_search():
    model = TableLM(3, seed=8)
    for seed in (0, 1, 2):
        model.seed = seed
        got = one_generate(model, [0], DecoderConfig(strategy="beam", param=9, max_len=2))
        assert got == _exhaustive_best(model, [0], 9, 2)


def test_beam_width_one_is_greedy():
    model = TableLM(7, seed=3)
    a = one_generate(model, [2, 4], DecoderConfig(strategy="beam", param=1, max_len=10))
    g = one_generate(model, [2, 4], DecoderConfig(strategy="greedy", max_len=10))
    assert a == g


def test_beam_improves_or_matches_greedy_score():
    model = TableLM(5, seed=11)
    prefix = [1]
    greedy = one_generate(model, prefix, DecoderConfig(strategy="greedy", max_len=5))
    wide = one_generate(model, prefix, DecoderConfig(strategy="beam", param=4, max_len=5))
    assert model.score(wide, prefix) >= model.score(greedy, prefix) - 1e-12


def test_negative_ids_are_refused_not_read_as_padding():
    # -1 marks "no token" in a model's window matrix, so a negative id in a
    # prefix or trace context would silently shorten the context.
    vocab = Vocab.placeholder(5)
    for model in (ngram_fit([0, 1, 2, 3, 4, 1, 2], vocab, 3, 0.5),
                  FeedForwardLM.init(vocab, context=2, embed_dim=2, hidden_dim=3)):
        greedy = DecoderConfig(strategy="greedy", max_len=2)
        for cfg in (greedy, DecoderConfig(strategy="beam", param=2, max_len=2)):
            with pytest.raises(ConfigError, match="non-negative"):
                generate_batch(model, [(1, 2), (3, -1, 2)], cfg)
        with pytest.raises(ConfigError, match="non-negative"):
            token_prob_trace(model, (1, 2), context=(-2,))
        with pytest.raises(ConfigError, match="non-negative"):
            token_prob_trace(model, (1, -1))
        with pytest.raises(ConfigError, match="non-negative"):
            model.next_dist([4, -3])
