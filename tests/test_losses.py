"""Training objectives: frozen values, gradient checks, trainer determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genteval
from genteval import losses
from genteval.corpus import SentencePair, Vocab
from genteval.errors import AlignmentError, ConfigError, DataError, EmptyDataset, NoSupervision
from genteval.lm.ffn import FeedForwardLM
from genteval.losses import (
    AdamState,
    TrainConfig,
    _previous_token_pairs,
    _repeat_pairs,
    align_labels,
    hinge_rank,
    label_vocab,
    labels_to_ids,
    load_label_file,
    multitask_step,
    smooth_l1_loss,
    train,
)
from genteval.rng import SplitMix64

from oracles import grad_check, one_ce, one_head, one_rank, one_ul

VOCAB = Vocab(["a", "b", "c", "d", "e"])


def tiny_model(**kw):
    kw.setdefault("context", 2)
    kw.setdefault("embed_dim", 3)
    kw.setdefault("hidden_dim", 4)
    kw.setdefault("seed", 7)
    return FeedForwardLM.init(VOCAB, **kw)


def seq(*ids):
    return np.array(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# Candidate builders
# ---------------------------------------------------------------------------


def _pairs(rows, toks):
    return set(zip(rows.tolist(), toks.tolist()))


def test_previous_token_candidates_filter_gold():
    # Position 2 drops its gold 3.
    assert _pairs(*_previous_token_pairs(np.array([3, 5, 3, 7]))) == {(1, 3), (2, 5), (3, 3), (3, 5)}


def test_ul_seq_candidates_flags_repeated_ngrams():
    # (1, 2) repeats at position 3, (2, 1) at position 4.
    assert _pairs(*_repeat_pairs([[1, 2, 1, 2, 1]], 2)[0]) == {(3, 2), (4, 1)}


def test_ul_seq_candidates_unigram_order():
    assert _pairs(*_repeat_pairs([[4, 4, 2, 4]], 1)[0]) == {(1, 4), (3, 4)}


def test_ul_seq_candidates_rejects_bad_order():
    with pytest.raises(ConfigError):
        _repeat_pairs([[1, 2]], 0)


# ---------------------------------------------------------------------------
# Loss values against an independent probability route
# ---------------------------------------------------------------------------


def test_ce_loss_matches_next_dist_route():
    model = tiny_model()
    ids = [0, 3, 1, 1, 4]
    loss, _ = one_ce(model, ids)
    per_tok = []
    for t, tok in enumerate(ids):
        per_tok.append(-math.log(model.next_dist(ids[:t])[tok]))
    assert loss == pytest.approx(sum(per_tok) / len(ids), abs=1e-12)


def test_ce_loss_respects_context():
    model = tiny_model()
    ids = [2, 0]
    ctx = [1, 4]
    loss, _ = one_ce(model, ids, context=ctx)
    want = -(
        math.log(model.next_dist(ctx)[2]) + math.log(model.next_dist(ctx + [2])[0])
    ) / 2.0
    assert loss == pytest.approx(want, abs=1e-12)


def test_ul_token_loss_matches_next_dist_route():
    model = tiny_model()
    ids = [0, 1, 0, 2]
    rows, toks = _previous_token_pairs(np.array(ids))
    loss, _ = one_ul(model, ids, (rows, toks))
    total = 0.0
    for t, c in zip(rows.tolist(), toks.tolist()):
        total += -math.log1p(-model.next_dist(ids[:t])[c])
    assert loss == pytest.approx(total / len(ids), abs=1e-12)


def test_hinge_rank_values():
    assert hinge_rank(5.0, 3.0, 1.0) == 3.0
    assert hinge_rank(3.0, 5.0, 1.0) == 0.0
    assert hinge_rank(3.0, 3.0, 0.0) == 0.0


def test_smooth_l1_values():
    assert smooth_l1_loss(0.5, 0.0) == (0.125, 0.5)
    assert smooth_l1_loss(3.0, 1.0) == (1.5, 1.0)
    assert smooth_l1_loss(-1.5, 0.5) == (1.5, -1.0)
    # branches agree at the joint
    assert smooth_l1_loss(1.0, 0.0) == (0.5, 1.0)


def test_classification_loss_requires_supervision():
    model = tiny_model(n_labels=3)
    with pytest.raises(NoSupervision):
        one_head(model, "pos", [0, 1], [None, None])


def test_classification_loss_skips_masked_positions():
    model = tiny_model(n_labels=3)
    full, _ = one_head(model, "pos", [0, 1], [2, None])
    # masked position contributes nothing: same loss as supervising only pos 0
    solo, _ = one_head(model, "pos", [0], [2])
    assert full == pytest.approx(solo, abs=1e-12)


def test_regression_loss_length_mismatch():
    model = tiny_model(regression=True)
    with pytest.raises(ConfigError):
        one_head(model, "tfidf", [0, 1, 2], [0.5])


# ---------------------------------------------------------------------------
# Analytic vs finite-difference gradients
# ---------------------------------------------------------------------------

GRAD_TOL = 1e-4


def test_grad_ce():
    model = tiny_model()
    err = grad_check(model, lambda m: one_ce(m, [0, 3, 1, 2]))
    assert err < GRAD_TOL


def test_grad_ul_token():
    model = tiny_model()
    ids = [0, 1, 0, 1]
    cands = _previous_token_pairs(np.array(ids))
    err = grad_check(model, lambda m: one_ul(m, ids, cands))
    assert err < GRAD_TOL


def test_grad_margin_rank_active():
    model = tiny_model()
    pos = SentencePair(seq(0, 1), seq(2, 3))
    neg = SentencePair(seq(0, 1), seq(4, 4))
    # margin large enough that the hinge is active regardless of ppl gap
    err = grad_check(model, lambda m: one_rank(m, pos, neg, margin=5.0))
    assert err < GRAD_TOL


def test_margin_rank_inactive_hinge_gives_zero_grads():
    model = tiny_model()
    pos = SentencePair(seq(0, 1), seq(2, 3))
    neg = SentencePair(seq(0, 1), seq(4, 4))
    loss, grads = one_rank(model, pos, neg, margin=-100.0)
    assert loss == 0.0
    assert all(not g.any() for g in grads.values())


def test_grad_regression_both_branches():
    model = tiny_model(regression=True)
    # one target inside the quadratic region, one deep in the linear one
    err = grad_check(model, lambda m: one_head(m, "tfidf", [0, 1], [0.25, 5.0]))
    assert err < GRAD_TOL


def test_grad_classification_with_mask():
    model = tiny_model(n_labels=3)
    err = grad_check(model, lambda m: one_head(m, "pos", [0, 1, 2], [1, None, 0]))
    assert err < GRAD_TOL


def test_grad_check_flags_wrong_gradients():
    model = tiny_model()

    def broken(m):
        loss, grads = one_ce(m, [0, 1, 2])
        return loss, {n: np.zeros_like(g) for n, g in grads.items()}

    assert grad_check(model, broken) > 0.5


# ---------------------------------------------------------------------------
# Label alignment
# ---------------------------------------------------------------------------


def test_align_labels_direct_match():
    words = [("The", "DET"), ("cat", "NOUN")]
    assert align_labels(words, ["The", "cat"]) == ["DET", "NOUN"]


def test_align_labels_first_subtoken_wins():
    words = [("The", "DET"), ("cats", "NOUN")]
    assert align_labels(words, ["The", "ca", "#ts"]) == ["DET", "NOUN", "X"]


def test_align_labels_boundary_crosser_masked():
    words = [("ab", "A"), ("cd", "B")]
    assert align_labels(words, ["abc", "d"]) == ["X", "X"]


def test_align_labels_whitespace_insensitive():
    words = [("a b", "L"), ("cd", "M")]
    assert align_labels(words, [" ab", "c d "]) == ["L", "M"]


def test_align_labels_mismatch_raises():
    with pytest.raises(AlignmentError):
        align_labels([("abcd", "A")], ["xy"])


def test_align_labels_short_coverage_raises():
    with pytest.raises(AlignmentError):
        align_labels([("abcd", "A")], ["ab"])


def test_load_label_file_shapes(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("The\tDET\ncat\tNOUN\t0\n\nsat\tVERB\n", encoding="utf-8")
    sents = load_label_file(path)
    assert sents == [
        [("The", "DET", None), ("cat", "NOUN", 0)],
        [("sat", "VERB", None)],
    ]


def test_load_label_file_bad_row(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("a\tb\tc\td\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_label_file(path)


def test_load_label_file_empty(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        load_label_file(path)


def test_label_vocab_excludes_mask():
    sents = [[("a", "N", None), ("b", "X", None), ("c", "D", None)]]
    table = label_vocab(sents)
    assert table == {"D": 0, "N": 1}
    assert labels_to_ids(["N", "X", "D"], table) == [1, None, 0]


# ---------------------------------------------------------------------------
# Optimizer and configs
# ---------------------------------------------------------------------------


def test_adam_constant_gradient_steps_by_lr():
    params = {"p": np.array([1.0])}
    opt = AdamState(params, learning_rate=0.1)
    # bias correction makes mhat=g, vhat=g^2, so each step moves ~lr
    opt.update(params, {"p": np.array([2.0])})
    assert params["p"][0] == pytest.approx(0.9, abs=1e-8)
    opt.update(params, {"p": np.array([2.0])})
    assert params["p"][0] == pytest.approx(0.8, abs=1e-7)


@pytest.mark.parametrize(
    "bad",
    [
        {"epochs": 0},
        {"objectives": ()},
        {"objectives": (("bogus", 1.0),)},
        {"objectives": (("mle", -1.0),)},
        {"objectives": (("mle", 0.0), ("ul", 0.0))},
        {"learning_rate": 0.0},
        {"objectives": (("mle", 1.0), ("ul", 0.5), ("mle", 2.0))},
        {"objectives": (("mle", 1.0), ("ul", math.nan))},
        {"objectives": (("mle", math.inf),)},
        {"learning_rate": math.inf},
        {"learning_rate": math.nan},
        {"margin": math.nan},
        {"margin": -math.inf},
        {"objectives": (("pos", 1.0), ("dp", 0.5))},
        {"objectives": (("mle", True),)},
    ],
)
def test_train_config_rejects(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


def test_seq_ul_config_rejects():
    with pytest.raises(ConfigError, match="mix_prob"):
        TrainConfig(mix_prob=1.5)
    for field in ("ul_prefix_len", "ul_gen_len", "ul_ngram"):
        with pytest.raises(ConfigError, match="must be positive"):
            TrainConfig(**{field: 0})


# ---------------------------------------------------------------------------
# Multitask step and trainer
# ---------------------------------------------------------------------------


def test_multitask_step_scalars_and_total():
    model = tiny_model()
    cfg = TrainConfig(objectives=(("mle", 2.0),))
    batch = {"sequences": (seq(0, 1, 2), seq(3, 4))}
    out = multitask_step(model, batch, cfg, AdamState(model.params, 1e-3), SplitMix64(0))
    assert set(out) == {"mle", "total"}
    assert out["total"] == pytest.approx(2.0 * out["mle"], abs=1e-12)


def test_multitask_step_ul_branch_follows_mix_prob():
    for mix, want in ((0.0, 0.0), (1.0, 1.0)):
        model = tiny_model()
        cfg = TrainConfig(
            objectives=(("ul", 1.0),),
            mix_prob=mix, ul_prefix_len=2, ul_gen_len=3, ul_ngram=2,
        )
        batch = {"sequences": (seq(0, 1, 0, 1),)}
        out = multitask_step(
            model, batch, cfg, AdamState(model.params, 1e-3), SplitMix64(1)
        )
        assert out["ul_branch"] == want


def test_multitask_step_missing_data_raises():
    model = tiny_model()
    cfg = TrainConfig(objectives=(("mle", 1.0), ("nsp", 0.5)))
    batch = {"sequences": (seq(0, 1),)}
    with pytest.raises(ConfigError):
        multitask_step(model, batch, cfg, AdamState(model.params, 1e-3), SplitMix64(0))


def test_trainer_empty_pool_raises():
    model = tiny_model()
    cfg = TrainConfig(objectives=(("nsp", 1.0),))
    with pytest.raises(ConfigError):
        train(model, {}, cfg)


def test_trainer_is_deterministic():
    pools = {"sequences": (seq(0, 1, 2, 3, 0, 1), seq(4, 4, 2, 2, 1, 0), seq(2, 3, 2, 3, 2, 3))}
    cfg = TrainConfig(
        epochs=2,
        batch_size=2,
        objectives=(("mle", 1.0), ("ul", 0.5)),
        mix_prob=0.5, ul_prefix_len=3, ul_gen_len=4, ul_ngram=2,
    )

    def run():
        model = tiny_model(seed=11)
        history = train(model, pools, cfg, seed=5)
        return history, {n: p.copy() for n, p in model.params.items()}

    hist_a, params_a = run()
    hist_b, params_b = run()
    assert hist_a == hist_b
    assert all(np.array_equal(params_a[n], params_b[n]) for n in params_a)


def test_train_reads_only_the_active_pools():
    # nsp and tfidf draw nothing from the sequence pool, so passing one
    # changes neither the steps nor the weights.
    seqs = tuple(seq(i, (i + 1) % 5, (i + 2) % 5, i) for i in range(5))
    pools = {
        "nsp": tuple((SentencePair(seqs[i], seqs[i + 1]), SentencePair(seqs[i], seqs[(i + 3) % 5]))
                     for i in range(3)),
        "tfidf": tuple((seqs[i], (0.1 * i,) * 4) for i in range(4)),
    }
    cfg = TrainConfig(epochs=3, batch_size=2, objectives=(("nsp", 1.0), ("tfidf", 0.5)))

    def run(pools):
        model = tiny_model(seed=11, regression=True)
        history = train(model, pools, cfg, seed=5)
        return history, {n: p.tobytes() for n, p in model.params.items()}

    assert run(pools) == run({**pools, "sequences": seqs})


_TRAIN_AND_HASH = """
import hashlib
from genteval.corpus import Vocab
from genteval.lm.ffn import FeedForwardLM
from genteval.losses import TrainConfig, train
from genteval.rng import SplitMix64
vocab, rng = Vocab.placeholder(500), SplitMix64(3)
seqs = tuple(tuple(int(rng.uniform() * 500) for _ in range(64)) for _ in range(16))
model = FeedForwardLM.init(vocab, seed=1)
train(model, {"sequences": seqs}, TrainConfig(epochs=1, batch_size=16))
print(hashlib.sha256(b"".join(a.tobytes() for a in model.params.values())).hexdigest())
"""
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_trained_weights_do_not_depend_on_an_unset_blas_thread_count():
    # A threaded BLAS would change these weights in the last bits on a
    # machine of two or more cores; importing genteval pins one thread.
    src = str(Path(genteval.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, base.get("PYTHONPATH"))))

    def weights_hash(**threads):
        run = subprocess.run([sys.executable, "-c", _TRAIN_AND_HASH], env={**base, **threads},
                             capture_output=True, text=True, check=True)
        return run.stdout

    assert weights_hash() == weights_hash(OPENBLAS_NUM_THREADS="1")


def test_trainer_history_length_is_epochs_times_steps():
    pools = {"sequences": tuple(seq(i % 5, (i + 1) % 5) for i in range(5))}
    cfg = TrainConfig(epochs=3, batch_size=2)
    history = train(tiny_model(), pools, cfg)
    assert len(history) == 3 * math.ceil(5 / 2)


def test_trainer_batch_schedule_is_pinned(monkeypatch):
    # Pools of 5/3/4/2 items at batch size 2: three steps an epoch (from the
    # largest pool), the sequences reshuffled each epoch and the other pools
    # cycling on across epochs. Item indices only, so it holds on every platform.
    seqs = tuple(seq(i, (i + 1) % 5, (i + 2) % 5, i) for i in range(5))
    nsp = tuple((SentencePair(seqs[i], seqs[i + 1]), SentencePair(seqs[i], seqs[(i + 3) % 5])) for i in range(3))
    tfidf = tuple((seqs[i], (0.1 * i,) * 4) for i in range(4))
    pos = tuple((seqs[i], (i % 2, None, 1, 0)) for i in range(2))
    pools = {"sequences": seqs, "nsp": nsp, "tfidf": tfidf, "pos": pos}
    cfg = TrainConfig(
        epochs=3, batch_size=2,
        objectives=(("mle", 1.0), ("ul", 0.5), ("nsp", 0.3), ("tfidf", 0.2), ("pos", 0.4)),
        ul_prefix_len=2, ul_gen_len=3, ul_ngram=2,
    )
    seen, step = [], losses.multitask_step

    def recording(model, batch, *rest):
        seen.append(tuple(
            tuple(next(i for i, x in enumerate(pool) if x is item) for item in batch[name])
            for name, pool in pools.items()
        ))
        return step(model, batch, *rest)

    monkeypatch.setattr(losses, "multitask_step", recording)
    train(tiny_model(n_labels=2, regression=True), pools, cfg, seed=3)
    # (sequences, nsp, tfidf, pos) item indices per step, three steps an epoch
    assert seen == [
        ((2, 4), (0, 1), (0, 1), (0, 1)), ((0, 1), (2, 0), (2, 3), (0, 1)), ((3, 2), (1, 2), (0, 1), (0, 1)),
        ((1, 3), (0, 1), (2, 3), (0, 1)), ((4, 2), (2, 0), (0, 1), (0, 1)), ((0, 1), (1, 2), (2, 3), (0, 1)),
        ((0, 3), (0, 1), (0, 1), (0, 1)), ((1, 4), (2, 0), (2, 3), (0, 1)), ((2, 0), (1, 2), (0, 1), (0, 1)),
    ]
