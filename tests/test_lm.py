import hashlib
import json
import math
import struct

import numpy as np
import pytest

from genteval.corpus import Vocab, tokenize
from genteval.decode import DecoderConfig, generate_batch, token_prob_trace
from genteval.errors import BadOrder, ConfigError, DataError, EmptyInput
from genteval.lm.base import id_lines, left_padded, perplexity
from genteval.lm.ffn import PAD_TOKEN, FeedForwardLM
from genteval.lm.ngram import NGramLM, ngram_fit
from genteval.lm.store import load_model, save_model

from oracles import StackedRows, StackedScores, ngram_tables


def _score(lm, ids, context=()):
    return lm.score_batch([ids], [context])[0]


def _p(lm, token, context):
    """p(token | context) from the model's score of the one token."""
    return math.exp(_score(lm, (token,), context))


def _tokens(text):
    """``text``'s word tokens as one id array, and their vocab."""
    return tokenize(text, "word")


def _abab():
    return _tokens("a b a b")


# --- n-gram counting and probabilities ---------------------------------------


def test_bigram_mle_from_abab():
    seq, vocab = _abab()
    lm = ngram_fit(seq, vocab, order=2, k_s=0.0)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert _p(lm, b, (a,)) == pytest.approx(1.0)
    assert _p(lm, a, (b,)) == pytest.approx(1.0)


def test_bigram_smoothed_hand_value():
    # count(a b) = 1, count(a .) = 1, k_s = 1, |V| = 2:
    # p(b | a) = (1 + 1) / (1 + 1 * 2) = 2/3.
    seq, vocab = _tokens("a b")
    lm = ngram_fit(seq, vocab, order=2, k_s=1.0)
    assert _p(lm, vocab.id_of("b"), (vocab.id_of("a"),)) == pytest.approx(2 / 3)


def test_unseen_context_with_smoothing_is_uniform():
    # The formula stays defined for an unseen context when k_s > 0:
    # (0 + k_s) / (0 + k_s |V|) = 1/|V|, with no backoff.
    seq, vocab = _abab()
    lm3 = ngram_fit(seq, vocab, order=3, k_s=1.0)
    p = _p(lm3, vocab.id_of("a"), (vocab.id_of("b"), vocab.id_of("b")))
    assert p == pytest.approx(1.0 / vocab.size)


def test_unsmoothed_unseen_context_backs_off():
    # k_s = 0 leaves 0/0 for an unseen context; the model falls back to
    # the shorter context instead of dividing by zero.
    seq, vocab = _tokens("a b a b a c")
    lm = ngram_fit(seq, vocab, order=3, k_s=0.0)
    a, b, c = (vocab.id_of(t) for t in "abc")
    p_backed = _p(lm, b, (c, c))
    # Unigram fallback: p(b) = 2/6.
    assert p_backed == pytest.approx(2 / 6)


def test_next_dist_sums_to_one():
    seq, vocab = _abab()
    for k_s in (0.0, 0.5, 1.0):
        lm = ngram_fit(seq, vocab, order=2, k_s=k_s)
        for ctx in ((), (0,), (1,)):
            assert np.asarray(lm.next_dist(ctx)).sum() == pytest.approx(1.0)


def test_score_is_sum_of_token_logs():
    seq, vocab = _abab()
    lm = ngram_fit(seq, vocab, order=2, k_s=1.0)
    expected = 0.0
    for t, tok in enumerate(seq):
        expected += math.log(_p(lm, tok, seq[:t]))
    assert _score(lm, seq) == pytest.approx(expected)


def test_score_context_not_scored():
    seq, vocab = _abab()
    lm = ngram_fit(seq, vocab, order=2, k_s=1.0)
    joint = _score(lm, seq)
    split = _score(lm, seq[:2]) + _score(lm, seq[2:], context=seq[:2])
    assert joint == pytest.approx(split)


def test_score_batch_needs_one_context_per_sequence():
    seq, vocab = _abab()
    lm = ngram_fit(seq, vocab, order=2, k_s=1.0)
    with pytest.raises(ConfigError):
        lm.score_batch([seq, seq], [seq[:1]])


def test_ppl_hand_value_abab():
    # p(a | start) = 1/2 (unigram MLE), p(b | a) = 1 -> ppl = sqrt(2).
    seq, vocab = _abab()
    lm = ngram_fit(seq, vocab, order=2, k_s=0.0)
    two = seq[:2]
    assert perplexity(lm, [two]) == [pytest.approx(math.sqrt(2.0))]


def test_uniform_model_ppl_is_vocab_size():
    class Uniform(StackedScores):
        vocab = Vocab.placeholder(10)

        def score(self, seq, context=()):
            return len(seq) * math.log(1 / 10)

    assert perplexity(Uniform(), [(0, 1, 2)]) == [pytest.approx(10.0)]


def test_zero_prob_gives_infinite_ppl():
    seq, vocab = _abab()
    unseen_vocab = Vocab([*vocab.tokens, "z"])
    lm = ngram_fit(seq, unseen_vocab, order=1, k_s=0.0)
    assert perplexity(lm, [(unseen_vocab.id_of("z"),)]) == [math.inf]


def test_order_validation():
    seq, vocab = _abab()
    with pytest.raises(BadOrder):
        ngram_fit(seq, vocab, order=0)
    with pytest.raises(ConfigError):
        ngram_fit(seq, vocab, order=2, k_s=-1.0)


def test_fit_on_multiple_sequences_skips_boundaries():
    vocab = Vocab.placeholder(3)
    lm = ngram_fit([0, 1, 2, 0], vocab, order=2, k_s=0.0, lengths=[2, 2])
    # The boundary bigram (1, 2) was never counted.
    assert ngram_tables(lm)[2] == {(0, 1): 1, (2, 0): 1}


# --- feed-forward model -------------------------------------------------------


def test_param_count_formula():
    vocab = Vocab.placeholder(7)
    model = FeedForwardLM.init(vocab, context=2, embed_dim=4, hidden_dim=5)
    v = model.vocab.size  # includes the appended pad token
    assert v == 8
    expected = v * 4 + (2 * 4 + 1) * 5 + (5 + 1) * v
    assert model.param_count == expected


def test_param_count_with_heads():
    vocab = Vocab.placeholder(7)
    model = FeedForwardLM.init(
        vocab, context=2, embed_dim=4, hidden_dim=5, n_labels=3, regression=True
    )
    v = model.vocab.size
    expected = v * 4 + (2 * 4 + 1) * 5 + (5 + 1) * v + (5 + 1) * 1 + (5 + 1) * 3
    assert model.param_count == expected


def test_pad_appended_without_moving_ids():
    vocab = Vocab(["x", "y"])
    model = FeedForwardLM.init(vocab, context=2, embed_dim=3, hidden_dim=3)
    assert model.vocab.tokens[:2] == ("x", "y")
    assert model.vocab.tokens[model.pad_id] == PAD_TOKEN


def test_init_is_seed_deterministic():
    vocab = Vocab.placeholder(5)
    a = FeedForwardLM.init(vocab, seed=9)
    b = FeedForwardLM.init(vocab, seed=9)
    c = FeedForwardLM.init(vocab, seed=10)
    assert all(np.array_equal(a.params[n], b.params[n]) for n in a.params)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_weights_in_range_biases_zero():
    model = FeedForwardLM.init(Vocab.placeholder(6), seed=1)
    for name, arr in model.params.items():
        if name.startswith("b"):
            assert not arr.any()
        else:
            assert (arr >= -0.1).all() and (arr < 0.1).all()


def test_ffn_next_dist_is_distribution():
    model = FeedForwardLM.init(Vocab.placeholder(6), context=3, seed=2)
    dist = model.next_dist((0, 1))
    assert dist.shape == (model.vocab.size,)
    assert dist.sum() == pytest.approx(1.0)
    assert (dist > 0).all()


def test_ffn_score_matches_next_dist_chain():
    model = FeedForwardLM.init(Vocab.placeholder(5), context=2, seed=3)
    ids = (1, 3, 0, 2)
    expected = 0.0
    ctx = []
    for tok in ids:
        expected += math.log(model.next_dist(ctx)[tok])
        ctx.append(tok)
    assert _score(model, ids) == pytest.approx(expected)


def test_id_lines_left_pad_each_window():
    flat, q = id_lines([(0, 1), (2,)], [(), (3, 0, 1, 2)], 3)
    assert flat.tolist() == [-1, -1, -1, 0, 1, 0, 1, 2, 2] and q.tolist() == [3, 4, 8]
    windows = flat[q[:, None] - 3 + np.arange(3)]
    model = FeedForwardLM.init(Vocab.placeholder(4), context=3, seed=0)
    pad = model.pad_id
    assert np.where(windows < 0, pad, windows).tolist() == [[pad, pad, pad], [pad, pad, 0], [0, 1, 2]]
    assert left_padded([(), (5,), (1, 2, 3, 4)], 2).tolist() == [[-1, -1], [-1, 5], [3, 4]]


def _both_backends():
    vocab = Vocab.placeholder(4)
    ngram = ngram_fit(np.array([0, 1, 2, 1, 0, 2]), vocab, order=3, k_s=0.5)
    return ngram, FeedForwardLM.init(vocab, context=3, seed=0)


def test_both_backends_refuse_negative_ids():
    for model in _both_backends():
        for seqs, contexts in (([(1, -2)], ()), ([(1, 2)], [(-1,)]), ([(), (0,)], [(0,), (2, -1, 1)])):
            with pytest.raises(ConfigError, match="non-negative"):
                model.score_batch(seqs, contexts)
        with pytest.raises(ConfigError, match="non-negative"):
            model.next_dist((0, -1))


def test_window_matrix_reads_any_negative_id_as_no_token():
    for model in _both_backends():
        windows = left_padded([(), (1,), (2, 0), (1, 2, 3)], model.context_len)
        other = np.where(windows < 0, -7, windows)
        assert model.next_dist_batch(other).tobytes() == model.next_dist_batch(windows).tobytes()


def test_ffn_refuses_ids_past_its_padded_vocab():
    model = FeedForwardLM.init(Vocab.placeholder(5), context=2, embed_dim=2, hidden_dim=3)
    greedy = DecoderConfig("greedy", max_len=2)
    for bad in (9, model.vocab.size):
        with pytest.raises(ConfigError, match="outside the model"):
            generate_batch(model, [(bad,)], greedy)
        with pytest.raises(ConfigError, match="outside the model"):
            model.score_batch([(bad,)])
        with pytest.raises(ConfigError, match="outside the model"):
            model.score_batch([(1,)], [(0, bad)])
    # The pad id is a valid input, as a context and as a scored id.
    assert generate_batch(model, [(model.pad_id,)], greedy).shape == (1, 2)
    assert all(math.isfinite(x) for x in model.score_batch([(model.pad_id, 1)], [(model.pad_id,)]))


# --- probability traces -------------------------------------------------------


def test_trace_hand_value_topk2():
    class Fixed(StackedRows):
        vocab = Vocab.placeholder(3)

        def next_dist(self, context):
            return np.array([0.5, 0.3, 0.2])

    raw, trunc = token_prob_trace(Fixed(), (1,), truncation=DecoderConfig(strategy="topk", param=2))
    assert raw[0] == pytest.approx(0.3)
    assert trunc[0] == pytest.approx(0.375)
    _, dropped = token_prob_trace(Fixed(), (2,), truncation=DecoderConfig(strategy="topk", param=2))
    assert dropped[0] == 0.0


def test_trace_no_truncation_copies_raw():
    seq, vocab = _abab()
    lm = ngram_fit(seq, vocab, order=2, k_s=1.0)
    raw, trunc = token_prob_trace(lm, seq)
    assert len(raw) == len(seq) and np.array_equal(trunc, raw)


# --- persistence --------------------------------------------------------------


def test_ffn_roundtrip_is_exact(tmp_path):
    model = FeedForwardLM.init(
        Vocab(["a", "b", "c"]), context=2, embed_dim=3, hidden_dim=4,
        seed=5, n_labels=2, regression=True,
    )
    path = tmp_path / "m.lmek"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab == model.vocab
    assert loaded.pad_id == model.pad_id
    assert loaded.n_labels == 2 and loaded.regression is True
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
    assert np.array_equal(loaded.next_dist((0,)), model.next_dist((0,)))


def test_ngram_roundtrip_is_exact(tmp_path):
    seq, vocab = _tokens("a b a b a c b")
    lm = ngram_fit(seq, vocab, order=3, k_s=0.5)
    path = tmp_path / "n.lmek"
    save_model(lm, path)
    loaded = load_model(path)
    assert loaded.order == 3 and loaded.k_s == 0.5
    assert ngram_tables(loaded) == ngram_tables(lm)
    assert _score(loaded, seq) == pytest.approx(_score(lm, seq))


def test_save_is_byte_deterministic(tmp_path):
    seq, vocab = _tokens("a b c a b")
    lm = ngram_fit(seq, vocab, order=2, k_s=1.0)
    p1, p2 = tmp_path / "one.lmek", tmp_path / "two.lmek"
    save_model(lm, p1)
    save_model(lm, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOTAMODEL")
    with pytest.raises(DataError):
        load_model(path)


def _split_model_file(path):
    blob = path.read_bytes()
    head_end = 13 + int.from_bytes(blob[5:13], "little")
    return json.loads(blob[13:head_end]), np.frombuffer(blob, dtype="<f8", offset=head_end).copy()


def _write_model_file(path, header, payload):
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(b"LMEK1" + struct.pack("<Q", len(head)) + head + payload.astype("<f8").tobytes())


# sha256 of save_model(FeedForwardLM.init(...)), from files that hold w2 as
# (V, H). The first model is square (3 ids plus the pad, hidden_dim 4), so a
# transpose left out of save passes every shape check but not this one.
_INIT_MODEL_SHA256 = {
    "square": (
        dict(vocab=("a", "b", "c"), context=2, embed_dim=3, hidden_dim=4, seed=5),
        "dbb891ffde82a6449136c83a8e0a97ab8203817c81f8254bfbaa60fcc79f6652",
    ),
    "both-heads": (
        dict(vocab=tuple("abcdef"), context=3, embed_dim=2, hidden_dim=5, seed=11,
             n_labels=3, regression=True),
        "fba74eb8c3676026fc07140e9f07027b783d63d88ebaa368227f23eb5393777d",
    ),
}


@pytest.mark.parametrize("name", sorted(_INIT_MODEL_SHA256))
def test_saved_init_model_bytes_are_pinned(tmp_path, name):
    kwargs, digest = _INIT_MODEL_SHA256[name]
    model = FeedForwardLM.init(Vocab(kwargs.pop("vocab")), **kwargs)
    path = tmp_path / "m.lmek"
    save_model(model, path)
    header, _ = _split_model_file(path)
    assert ["w2", [model.vocab.size, model.hidden_dim]] in header["tensors"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("hidden_dim", [4, 5])
def test_load_transposes_the_filed_v_by_h_output_layer(tmp_path, hidden_dim):
    vocab = ["a", "b", "c", PAD_TOKEN]
    names = ["b1", "b2", "emb", "w1", "w2"]  # the file's sorted tensor order
    shapes = [[hidden_dim], [4], [4, 3], [hidden_dim, 6], [4, hidden_dim]]
    header = {
        "backend": "ffn", "context": 2, "embed_dim": 3, "hidden_dim": hidden_dim,
        "n_labels": 0, "regression": False, "pad_id": 3, "vocab": vocab,
        "tensors": [list(t) for t in zip(names, shapes)],
    }
    payload = np.arange(sum(math.prod(s) for s in shapes), dtype=np.float64) / 64.0
    path = tmp_path / "m.lmek"
    _write_model_file(path, header, payload)
    model = load_model(path)
    filed_w2 = payload[-4 * hidden_dim:].reshape(4, hidden_dim)
    assert model.params["w2"].shape == (hidden_dim, 4)
    assert model.params["w2"].flags.c_contiguous
    assert np.array_equal(model.params["w2"], filed_w2.T)
    again = tmp_path / "again.lmek"
    save_model(model, again)
    assert _split_model_file(again)[1].tobytes() == payload.tobytes()


@pytest.mark.parametrize(
    "case",
    ["fractional-count", "zero-count", "id-outside-vocab", "nan", "negative-entries", "extra-value",
     "unsorted", "duplicate", "orphan-context"],
)
def test_load_rejects_ngram_payload_that_is_not_ids_and_counts(tmp_path, case):
    seq, vocab = _tokens("a b c a b")
    path = tmp_path / "m.lmek"
    save_model(ngram_fit(seq, vocab, order=2, k_s=0.5), path)
    header, payload = _split_model_file(path)
    # payload: [n_unigrams, id, count, id, count, ..., n_bigrams, id, id, count, ...]
    # with unigrams (0, 2) (1, 2) (2, 1) and bigrams (0, 1, 2) (1, 2, 1) (2, 0, 1).
    if case == "unsorted":
        payload[1:5] = payload[[3, 4, 1, 2]]
    elif case == "duplicate":
        payload[3:5] = payload[1:3]
    elif case == "orphan-context":
        header["vocab"] = [*header["vocab"], "d"]
        payload[14] = 3.0  # (2, 0) -> (3, 0): no unigram (3,) precedes it
    elif case == "fractional-count":
        payload[2] = 1.5
    elif case == "zero-count":
        payload[2] = 0.0
    elif case == "id-outside-vocab":
        payload[1] = vocab.size
    elif case == "nan":
        payload[2] = np.nan
    elif case == "negative-entries":
        payload[0] = -1.0
    else:
        payload = np.append(payload, 1.0)
    _write_model_file(path, header, payload)
    with pytest.raises(DataError) as err:
        load_model(path)
    if case in ("unsorted", "duplicate"):
        assert str(err.value) == f"{path}: order-1 n-grams are not strictly increasing"
    elif case == "orphan-context":
        assert str(err.value) == f"{path}: an order-2 n-gram's context is not an order-1 n-gram"


@pytest.mark.parametrize(
    "field, value",
    [("context", 3), ("hidden_dim", 4), ("n_labels", 2), ("pad_id", 9), ("tensors", []), ("payload", np.inf)],
)
def test_load_rejects_ffn_header_or_weights_that_do_not_fit(tmp_path, field, value):
    _, vocab = _tokens("a b c")
    path = tmp_path / "m.lmek"
    save_model(FeedForwardLM.init(vocab, context=2, embed_dim=2, hidden_dim=3, seed=1), path)
    header, payload = _split_model_file(path)
    _write_model_file(path, header, payload)
    assert load_model(path).vocab.size == vocab.size + 1  # the rewrite alone keeps the file valid
    if field == "payload":
        payload[0] = value
    else:
        header[field] = value
    _write_model_file(path, header, payload)
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize("backend", ["ngram", "ffn"])
def test_load_rejects_every_truncation_and_a_bad_header(tmp_path, backend):
    seq, vocab = _tokens("a b c a b b c a a c")
    if backend == "ngram":
        model = ngram_fit(seq, vocab, order=3, k_s=0.5)
    else:
        model = FeedForwardLM.init(vocab, context=2, embed_dim=2, hidden_dim=3, seed=1)
    path = tmp_path / "m.lmek"
    save_model(model, path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_model(path)
    head_end = 13 + int.from_bytes(blob[5:13], "little")
    path.write_bytes(blob[:13] + b"{" * (head_end - 13) + blob[head_end:])
    with pytest.raises(DataError):
        load_model(path)
    path.write_bytes(blob)
    assert load_model(path).vocab == model.vocab
