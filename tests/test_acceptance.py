"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single verdict line; run them with

    pytest tests/test_acceptance.py -v -s

Every case is fully deterministic: fixed seeds feed the corpus
generators, the model initializers, the trainers and the samplers, so
the numbers below reproduce bit-for-bit on a given platform. Thresholds
come from the criteria themselves, never tuned to a particular run.
"""

import json
import math
import time

import numpy as np
import pytest

from genteval.consistency import selection_accuracy
from genteval.corpus import Vocab, encode, ngram_windows, tokenize
from genteval.decode import DecoderConfig
from genteval.harness.cli import main
from genteval.harness.sweep import SweepConfig, run_sweep
from genteval.lm.ffn import FeedForwardLM
from genteval.lm.ngram import ngram_fit
from genteval.losses import (
    TrainConfig,
    _previous_token_pairs,
    smooth_l1_loss,
    train,
)
from genteval.metrics import SampleSet, mean_seq_rep, reverse_ppl, seq_rep_n
from genteval.rng import SplitMix64, stable_hash
from genteval.harness.sweep import fit_log_curve
from genteval.corpus import SentencePair

from oracles import (
    StackedRows, check_ngram_windows, grad_check, naive_bleu, naive_seq_rep, one_bleu, one_ce, one_generate,
    one_head, one_rank, one_sample, one_ul, spearman,
)
from toytext import char_splits, make_rich_text, word_splits


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. Metric oracles on randomized inputs
# ---------------------------------------------------------------------------


def test_criterion_01_metric_oracles():
    rng = SplitMix64(101)
    start = time.monotonic()
    worst_bleu = 0.0
    for _ in range(1000):
        ids = [rng.randint(6) for _ in range(rng.randint(15) + 1)]
        n = rng.randint(4) + 1
        check_ngram_windows([ids], n, ngram_windows(ids, [len(ids)], n))
    for _ in range(1000):
        ids = [rng.randint(6) for _ in range(rng.randint(15) + 1)]
        n = rng.randint(4) + 1
        assert seq_rep_n(ids, n) == naive_seq_rep(ids, n)
    for _ in range(1000):
        cand = [rng.randint(6) for _ in range(rng.randint(12) + 1)]
        refs = [
            [rng.randint(6) for _ in range(rng.randint(12) + 1)]
            for _ in range(rng.randint(3) + 1)
        ]
        worst_bleu = max(worst_bleu, abs(one_bleu(cand, refs) - naive_bleu(cand, refs)))
    elapsed = time.monotonic() - start
    ok = worst_bleu <= 1e-9 and elapsed < 30.0
    _verdict(
        1,
        "metric oracles, 1000 randomized inputs each",
        ok,
        f"max BLEU deviation {worst_bleu:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. BLEU hand case
# ---------------------------------------------------------------------------


def test_criterion_02_bleu_hand_case():
    vocab = Vocab(["the", "cat", "sat", "on", "mat"])
    cand = encode("the cat sat", vocab)
    ref = encode("the cat sat on the mat", vocab)
    got = one_bleu(cand, [ref])
    ok = abs(got - 0.3679) <= 1e-4
    _verdict(2, "BLEU brevity-penalty hand case", ok, f"got {got:.6f}, want 0.3679 +/- 1e-4")


# ---------------------------------------------------------------------------
# 3. Sampler identities
# ---------------------------------------------------------------------------


class _HashLM(StackedRows):
    """Deterministic pseudo-random conditional distributions."""

    def __init__(self, size: int, salt: int, zero_one: bool = False):
        self.vocab = Vocab.placeholder(size)
        self.salt = salt
        self.zero_one = zero_one

    def next_dist(self, context):
        rng = SplitMix64(stable_hash(f"{self.salt}|{tuple(context)}"))
        w = np.array([rng.uniform() + 1e-3 for _ in range(self.vocab.size)])
        if self.zero_one:
            w[rng.randint(self.vocab.size)] = 0.0
        return w / w.sum()


def _ref_greedy(model, prefix, steps):
    ctx = list(prefix)
    out = []
    for _ in range(steps):
        dist = model.next_dist(ctx)
        tok = max(range(len(dist)), key=lambda i: (dist[i], -i))
        out.append(tok)
        ctx.append(tok)
    return tuple(out)


def _ref_draw(dist, u):
    # inverse CDF over (prob desc, id asc); first cumulative strictly
    # above u wins, round-off past the last positive mass walks back
    order = sorted(range(len(dist)), key=lambda i: (-dist[i], i))
    cum = np.cumsum(np.asarray(dist, dtype=np.float64)[order])
    for pos, tok in enumerate(order):
        if u < cum[pos] and dist[tok] > 0:
            return tok
    for tok in reversed(order):
        if dist[tok] > 0:
            return tok
    raise AssertionError("empty distribution")


def _ref_unrestricted(model, prefix, steps, seed):
    rng = SplitMix64(seed)
    ctx = list(prefix)
    out = []
    for _ in range(steps):
        tok = _ref_draw(model.next_dist(ctx), rng.uniform())
        out.append(tok)
        ctx.append(tok)
    return tuple(out)


def test_criterion_03_sampler_identities():
    rng = SplitMix64(303)
    failures = []
    for case in range(100):
        size = 5 + rng.randint(5)
        model = _HashLM(size, salt=rng.randint(1 << 30), zero_one=case % 3 == 0)
        prefix = tuple(rng.randint(size) for _ in range(1 + rng.randint(4)))
        steps = 5 + rng.randint(6)
        seed = rng.randint(1 << 30)
        want_greedy = _ref_greedy(model, prefix, steps)
        want_sampled = _ref_unrestricted(model, prefix, steps, seed)
        pairs = {
            "topk(1)=greedy": (
                one_generate(model, prefix, DecoderConfig("topk", 1, max_len=steps), seed),
                want_greedy,
            ),
            "beam(1)=greedy": (
                one_generate(model, prefix, DecoderConfig("beam", 1, max_len=steps)),
                want_greedy,
            ),
            "topp(1.0)=unrestricted": (
                one_generate(model, prefix, DecoderConfig("topp", 1.0, max_len=steps), seed),
                want_sampled,
            ),
            "temperature(1)=identity": (
                one_generate(model, prefix, DecoderConfig("temperature", 1.0, max_len=steps), seed),
                want_sampled,
            ),
        }
        for name, (got, want) in pairs.items():
            if got != want:
                failures.append(f"case {case}: {name}")
    ok = not failures
    _verdict(
        3,
        "sampler identities, 100 random cases each",
        ok,
        "all exact" if ok else "; ".join(failures[:3]),
    )


# ---------------------------------------------------------------------------
# 4. Sampling statistics
# ---------------------------------------------------------------------------


def test_criterion_04_sampling_statistics():
    dist = np.array([0.7, 0.3])
    rng = SplitMix64(404)
    draws = 10_000
    zeros = sum(1 for _ in range(draws) if one_sample(dist, rng) == 0)
    freq = zeros / draws
    ok = abs(freq - 0.7) <= 0.02
    _verdict(4, "10k draws from [0.7, 0.3]", ok, f"frequency {freq:.4f}, want 0.7 +/- 0.02")


# ---------------------------------------------------------------------------
# 5. Gradient suite
# ---------------------------------------------------------------------------


def test_criterion_05_gradient_suite():
    start = time.monotonic()
    vocab = Vocab.placeholder(7)
    seq = np.array([0, 4, 2])

    def fresh():
        return FeedForwardLM.init(
            vocab, context=2, embed_dim=4, hidden_dim=5, seed=50, n_labels=3, regression=True
        )

    errors = {
        "mle": grad_check(fresh(), lambda m: one_ce(m, [0, 4, 2, 1])),
        "ul token": grad_check(
            fresh(), lambda m: one_ul(m, [0, 4, 0, 4], _previous_token_pairs(np.array([0, 4, 0, 4])))
        ),
        "margin rank": grad_check(
            fresh(),
            lambda m: one_rank(
                m,
                SentencePair(seq, np.array([1, 5])),
                SentencePair(seq, np.array([6, 3])),
                margin=5.0,
            ),
        ),
        "classification": grad_check(fresh(), lambda m: one_head(m, "pos", [0, 4, 2], [1, None, 2])),
    }
    # smooth_l1 is a scalar function; central-difference it directly on
    # points covering both branches
    worst_sl1 = 0.0
    for pred in (-2.2, -0.6, 0.4, 1.7):
        _, analytic = smooth_l1_loss(pred, 0.0)
        h = 1e-5
        numeric = (smooth_l1_loss(pred + h, 0.0)[0] - smooth_l1_loss(pred - h, 0.0)[0]) / (2 * h)
        worst_sl1 = max(worst_sl1, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    errors["smooth_l1_loss"] = worst_sl1
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(
        5,
        "gradient suite on the 7-vocab model",
        ok,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Degeneration: unlikelihood halves greedy repetition
# ---------------------------------------------------------------------------


def _greedy_rep(model, splits, n_prefixes=30):
    greedy = DecoderConfig("greedy", max_len=100)
    conts = [one_generate(model, seq[:50], greedy) for seq in splits.train[:n_prefixes]]
    mean, _nulls = mean_seq_rep(SampleSet(map(str, range(len(conts))), model.vocab, conts), 4)
    return mean


def test_criterion_06_unlikelihood_reduces_repetition():
    start = time.monotonic()
    splits, vocab = char_splits(2000, seq_len=100, seed=0)
    total = sum(len(s) for part in (splits.train, splits.dev, splits.test) for s in part)
    assert total <= 50_000 and vocab.size <= 100

    def trained(objectives):
        model = FeedForwardLM.init(vocab, context=8, embed_dim=24, hidden_dim=48, seed=0)
        cfg = TrainConfig(
            epochs=8,
            batch_size=16,
            learning_rate=2e-3,
            objectives=objectives,
            mix_prob=0.5,
            ul_prefix_len=50,
            ul_gen_len=100,
            ul_ngram=4,
        )
        train(model, {"sequences": splits.train}, cfg, seed=0)
        return model

    mle = trained((("mle", 1.0),))
    ul = trained((("mle", 1.0), ("ul", 8.0)))
    rep_mle = _greedy_rep(mle, splits)
    rep_ul = _greedy_rep(ul, splits)
    elapsed = time.monotonic() - start
    ok = rep_mle > 0.05 and rep_ul < 0.5 * rep_mle and elapsed < 600.0
    _verdict(
        6,
        "MLE+UL greedy seq-rep-4 under half of MLE's",
        ok,
        f"MLE {rep_mle:.4f}, UL {rep_ul:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Trade-off direction under growing randomness
# ---------------------------------------------------------------------------

P_GRID = (0.2, 0.4, 0.6, 0.8, 0.9)
K_GRID = (2, 10, 50)


def test_criterion_07_tradeoff_direction(tmp_path):
    start = time.monotonic()
    splits, vocab = word_splits(3000, seq_len=60, seed=0)
    assert vocab.size >= max(K_GRID)
    model = FeedForwardLM.init(vocab, context=8, embed_dim=24, hidden_dim=48, seed=0)
    train(model, {"sequences": splits.train}, TrainConfig(epochs=20, batch_size=16, learning_rate=1e-3), seed=0)
    cfg = SweepConfig(
        models=("mle",),
        strategies=(("topp", P_GRID), ("topk", K_GRID)),
        prefix_len=10,
        gen_len=12,
        n_prefixes=60,
        seed=0,
        metrics=("corpus_bleu", "self_bleu"),
    )
    records = run_sweep(cfg, splits, tmp_path, models={"mle": model})
    by = {(r.strategy, r.param): r.metrics for r in records}
    details = []
    ok = True
    for metric in ("self_bleu", "corpus_bleu"):
        for strategy, grid in (("topp", P_GRID), ("topk", K_GRID)):
            vals = [by[(strategy, p)][metric] for p in grid]
            inversions = sum(1 for a, b in zip(vals, vals[1:]) if not b < a)
            rho = spearman(list(grid), vals)
            good = inversions <= 1 and rho < 0
            ok = ok and good
            details.append(f"{metric}/{strategy}: inv={inversions} rho={rho:.2f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    _verdict(
        7,
        "Self-BLEU and Corpus-BLEU fall as randomness grows",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Reverse perplexity punishes collapsed sample sets
# ---------------------------------------------------------------------------


def _sentence_ids(seq_and_vocab, how_many, offset=0):
    seq, vocab = seq_and_vocab
    stop = vocab.id_of(".")
    sentences = []
    current = []
    for tok in seq.tolist():
        current.append(tok)
        if tok == stop:
            sentences.append(tuple(current))
            current = []
    assert len(sentences) >= offset + how_many
    return sentences[offset : offset + how_many], vocab


def test_criterion_08_reverse_ppl_direction():
    start = time.monotonic()
    corpus = tokenize(make_rich_text(400, seed=8), "word")
    distinct_ids, vocab = _sentence_ids(corpus, 100)
    human_ids, _ = _sentence_ids(corpus, 100, offset=100)

    def sset(seq_list):
        return SampleSet(map(str, range(len(seq_list))), vocab, seq_list)

    repeated = sset([distinct_ids[0]] * 100)
    distinct = sset(distinct_ids)
    human = sset(human_ids)
    rev_repeated = reverse_ppl(repeated, human)
    rev_distinct = reverse_ppl(distinct, human)
    elapsed = time.monotonic() - start
    ok = rev_repeated > rev_distinct and elapsed < 60.0
    _verdict(
        8,
        "reverse ppl: 100x-repeated above 100-distinct",
        ok,
        f"repeated {rev_repeated:.2f} vs distinct {rev_distinct:.2f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Selection-accuracy oracle on a memorized dataset
# ---------------------------------------------------------------------------


def test_criterion_09_selection_oracle(tmp_path):
    from genteval.consistency import load_triples

    n = 20
    body = " ".join(f"q{i} r{i}. e{i} f{i} g{i}" for i in range(n))
    tail = " ".join(f"x{i} y{i} z{i}" for i in range(n))
    seq, vocab = tokenize(body + " " + tail, "word")
    scorer = ngram_fit(seq, vocab, order=2, k_s=0.0)

    rows = [(f"q{i} r{i}.", f"e{i} f{i} g{i}", f"x{i} y{i} z{i}") for i in range(n)]
    straight = tmp_path / "triples.tsv"
    straight.write_text(
        "".join("\t".join(r) + "\n" for r in rows), encoding="utf-8"
    )
    swapped = tmp_path / "swapped.tsv"
    swapped.write_text(
        "".join("\t".join((c, neg, pos)) + "\n" for c, pos, neg in rows), encoding="utf-8"
    )

    def enc(text):
        return encode(text, vocab, "word")

    res = selection_accuracy(scorer, load_triples(straight).records, enc)
    res_swapped = selection_accuracy(scorer, load_triples(swapped).records, enc)
    ok = (
        res.accuracy == 1.0
        and res.ties == 0
        and res_swapped.accuracy == 0.0
        and res_swapped.ties == 0
    )
    _verdict(
        9,
        "memorized 20-triple selection oracle",
        ok,
        f"accuracy {res.accuracy:.2f}/{res_swapped.accuracy:.2f}, "
        f"ties {res.ties}/{res_swapped.ties}",
    )


# ---------------------------------------------------------------------------
# 10. Log-fit recovery and the 57-cell grid
# ---------------------------------------------------------------------------


def test_criterion_10_log_fit_and_grid_count(tmp_path):
    fit = fit_log_curve([(x, 2.0 * math.log(x) + 1.0) for x in (0.5, 1.0, 3.0, 7.0, 20.0)])
    fit_ok = abs(fit.a - 2.0) <= 1e-9 and abs(fit.b - 1.0) <= 1e-9

    # 3 models x (1 greedy + 8 top-p + 5 top-k + 5 beam) = 57 cells
    cfg = SweepConfig(
        models=("a", "b", "c"),
        strategies=(
            ("greedy", (None,)),
            ("topp", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)),
            ("topk", (1, 2, 3, 4, 5)),
            ("beam", (1, 2, 3, 4, 5)),
        ),
        prefix_len=2,
        gen_len=5,
        n_prefixes=2,
        seed=0,
        metrics=("seq_rep_4",),
    )
    vocab = Vocab.placeholder(6)
    chunks = [[(i + j) % 6 for j in range(8)] for i in range(4)]
    from genteval.corpus import CorpusSplits

    splits = CorpusSplits(vocab, 8, (0.5, 0.0, 0.5), train=chunks, test=chunks)
    models = {name: _HashLM(6, salt=i) for i, name in enumerate(cfg.models)}
    records = run_sweep(cfg, splits, tmp_path, models=models)
    count_ok = len(records) == 57 and all(r.failed is None for r in records)
    ok = fit_ok and count_ok
    _verdict(
        10,
        "log-fit recovery and 57-cell sweep",
        ok,
        f"a={fit.a:.12f} b={fit.b:.12f}, {len(records)} records",
    )


# ---------------------------------------------------------------------------
# 11. End-to-end byte determinism
# ---------------------------------------------------------------------------


def _pipeline(root, corpus_path, cfg_path):
    data = root / "data"
    model_dir = root / "model"
    sweep_dir = root / "sweep"
    eval_dir = root / "eval"
    assert main(["ingest", "--config", str(cfg_path), "--input", str(corpus_path), "--out-dir", str(data)]) == 0
    manifest = data / "manifest.json"
    assert main(
        [
            "train", "--config", str(cfg_path),
            "--manifest", str(manifest),
            "--backend", "ngram",
            "--out-dir", str(model_dir),
        ]
    ) == 0
    assert main(
        [
            "sweep", "--config", str(cfg_path),
            "--manifest", str(manifest),
            "--models", f"toy={model_dir / 'model.lmek'}",
            "--out-dir", str(sweep_dir),
        ]
    ) == 0
    samples = sweep_dir / "samples" / "toy__greedy__None.jsonl"
    for kind in ("quality", "diversity"):
        assert main(
            [
                "eval", kind, "--config", str(cfg_path),
                "--samples", str(samples),
                "--manifest", str(manifest),
                "--out-dir", str(eval_dir),
            ]
        ) == 0


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_11_end_to_end_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text(make_rich_text(500, seed=11), encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "seed": 0,
                "seq_len": 40,
                "strategies": "greedy;topk:2",
                "prefix_len": 8,
                "gen_len": 10,
                "n_prefixes": 6,
            }
        ),
        encoding="utf-8",
    )
    run_a = tmp_path / "run-a"
    run_b = tmp_path / "run-b"
    _pipeline(run_a, corpus_path, cfg_path)
    _pipeline(run_b, corpus_path, cfg_path)
    tree_a = _tree_bytes(run_a)
    tree_b = _tree_bytes(run_b)
    same_names = set(tree_a) == set(tree_b)
    diffs = [name for name in tree_a if same_names and tree_a[name] != tree_b[name]]
    ok = same_names and not diffs
    _verdict(
        11,
        "ingest->train->sweep->eval twice, identical bytes",
        ok,
        f"{len(tree_a)} artifacts compared" if ok else f"mismatch: {diffs[:3]}",
    )
