"""Training objectives for the feed-forward LM, with explicit gradients.

Every loss returns ``(scalar, grads)`` where ``grads`` matches the
model's parameter dict. Gradients are derived by hand through the
softmax/tanh stack (see :meth:`FeedForwardLM.backward`) and are meant to
be validated against central finite differences via :func:`grad_check`;
nothing here relies on an autodiff framework.

Objective kinds understood by :func:`multitask_step`:

* ``mle``: mean token cross-entropy.
* ``ul``: unlikelihood; each step flips a mix_prob-weighted coin between
  the token-level form (candidates = previous tokens, ground truth
  filtered out) and the sequence-level form (candidates = tokens ending
  repeated n-grams inside a fresh greedy continuation).
* ``nsp`` / ``sop``: margin ranking on sentence-pair perplexities.
* ``tfidf``: smooth-L1 regression of per-token scores via the
  regression head.
* ``pos`` / ``dp``: token classification via the classification head;
  both kinds share the head, so a single model trains one or the other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import SentencePair, TokenSequence
from .decode import DecoderConfig, generate_batch
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyDataset,
    NoSupervision,
)
from .lm.base import as_ids
from .lm.ffn import FeedForwardLM, log_softmax, softmax
from .rng import SplitMix64

OBJECTIVE_KINDS = ("mle", "ul", "nsp", "sop", "tfidf", "pos", "dp")

# Probabilities inside ln(1 - p) are clamped to at most 1 - _UL_CLAMP.
_UL_CLAMP = 1e-12

MASK_LABEL = "X"


# ---------------------------------------------------------------------------
# Core losses
# ---------------------------------------------------------------------------


def ce_loss(
    model: FeedForwardLM, seq, context: Sequence[int] = ()
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of each token given its window."""
    ids = as_ids(seq)
    cache = model.forward(model.windows(ids, as_ids(context)))
    logp = log_softmax(model.vocab_logits(cache))
    rows = np.arange(len(ids))
    loss = float(-logp[rows, list(ids)].mean())
    dlogits = softmax(model.vocab_logits(cache)).copy()
    dlogits[rows, list(ids)] -= 1.0
    grads = model.zero_grads()
    model.backward(cache, grads, dlogits=dlogits / len(ids))
    return loss, grads


def previous_token_candidates(seq) -> list[frozenset[int]]:
    """Token-level unlikelihood candidates: all previous tokens.

    The ground-truth token at each position is filtered out, so the loss
    never pushes down the probability of the correct continuation.
    """
    ids = as_ids(seq)
    out: list[frozenset[int]] = []
    seen: set[int] = set()
    for tok in ids:
        out.append(frozenset(seen - {tok}))
        seen.add(tok)
    return out


def ul_seq_candidates(continuation, n: int) -> list[frozenset[int]]:
    """Sequence-level candidates: tokens ending an already-seen n-gram.

    Position t is flagged with candidate {x_t} when the n-gram ending at
    t also ends at some earlier position (overlaps count). Positions
    without a repeat get an empty set.
    """
    if n < 1:
        raise ConfigError("n-gram order must be at least 1")
    ids = as_ids(continuation)
    seen: set[tuple[int, ...]] = set()
    out: list[frozenset[int]] = []
    for t in range(len(ids)):
        if t + 1 < n:
            out.append(frozenset())
            continue
        gram = ids[t + 1 - n : t + 1]
        out.append(frozenset({ids[t]}) if gram in seen else frozenset())
        seen.add(gram)
    return out


def ul_token_loss(
    model: FeedForwardLM,
    seq,
    candidates: Sequence[frozenset[int]],
    context: Sequence[int] = (),
) -> tuple[float, dict[str, np.ndarray]]:
    """Unlikelihood: -ln(1 - p(c)) summed over candidates, per-position mean."""
    ids = as_ids(seq)
    if len(candidates) != len(ids):
        raise ConfigError("need one candidate set per position")
    cache = model.forward(model.windows(ids, as_ids(context)))
    probs = softmax(model.vocab_logits(cache))
    t_count = len(ids)
    loss = 0.0
    # q holds p/(1-p) at candidate slots; the clamp zeroes its gradient.
    q = np.zeros_like(probs)
    for t, cands in enumerate(candidates):
        for c in cands:
            p = probs[t, c]
            clamped = min(p, 1.0 - _UL_CLAMP)
            loss += -math.log1p(-clamped)
            if p < 1.0 - _UL_CLAMP:
                q[t, c] = p / (1.0 - p)
    loss /= t_count
    dlogits = (q - probs * q.sum(axis=1, keepdims=True)) / t_count
    grads = model.zero_grads()
    model.backward(cache, grads, dlogits=dlogits)
    return float(loss), grads


def hinge_rank(ppl_pos: float, ppl_neg: float, margin: float) -> float:
    """max(0, ppl_pos - ppl_neg + margin): positives must rank lower."""
    return max(0.0, ppl_pos - ppl_neg + margin)


def _pair_ppl(model: FeedForwardLM, pair: SentencePair):
    ids = pair.second.ids
    cache = model.forward(model.windows(ids, pair.first.ids))
    logp = log_softmax(model.vocab_logits(cache))
    rows = np.arange(len(ids))
    nll = float(-logp[rows, list(ids)].mean())
    return math.exp(nll), cache, ids


def _add_ppl_grad(model, cache, ids, coef, grads) -> None:
    # d ppl / d logits = ppl * (softmax - onehot) / T; coef folds in ppl
    # and the loss-side sign.
    d = softmax(model.vocab_logits(cache)).copy()
    d[np.arange(len(ids)), list(ids)] -= 1.0
    model.backward(cache, grads, dlogits=d * (coef / len(ids)))


def margin_rank_loss(
    model: FeedForwardLM,
    pos: SentencePair,
    neg: SentencePair,
    margin: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge on the perplexity gap between a true and a corrupted pair.

    Perplexity of the second sentence is computed conditioned on the
    first; the hinge activates when the positive pair fails to beat the
    negative one by ``margin``.
    """
    ppl_pos, cache_pos, ids_pos = _pair_ppl(model, pos)
    ppl_neg, cache_neg, ids_neg = _pair_ppl(model, neg)
    loss = hinge_rank(ppl_pos, ppl_neg, margin)
    grads = model.zero_grads()
    if loss > 0.0:
        _add_ppl_grad(model, cache_pos, ids_pos, ppl_pos, grads)
        _add_ppl_grad(model, cache_neg, ids_neg, -ppl_neg, grads)
    return loss, grads


def smooth_l1_loss(pred: float, target: float) -> tuple[float, float]:
    """Pointwise smooth L1; returns (loss, d loss / d pred)."""
    x = pred - target
    if abs(x) < 1.0:
        return 0.5 * x * x, x
    return abs(x) - 0.5, math.copysign(1.0, x)


def regression_loss(
    model: FeedForwardLM,
    seq,
    targets: Sequence[float],
    context: Sequence[int] = (),
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean smooth-L1 between the regression head and per-token targets."""
    ids = as_ids(seq)
    if len(targets) != len(ids):
        raise ConfigError("need one regression target per position")
    cache = model.forward(model.windows(ids, as_ids(context)))
    preds = model.reg_predictions(cache)
    losses = np.empty(len(ids))
    dreg = np.empty(len(ids))
    for t, (p, y) in enumerate(zip(preds, targets)):
        losses[t], dreg[t] = smooth_l1_loss(float(p), float(y))
    grads = model.zero_grads()
    model.backward(cache, grads, dreg=dreg / len(ids))
    return float(losses.mean()), grads


def classification_loss(
    model: FeedForwardLM,
    seq,
    labels: Sequence[int | None],
    context: Sequence[int] = (),
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean CE of the gold label at each supervised position.

    ``None`` marks an unsupervised position (the X alignment label);
    those positions contribute nothing. All-masked input is an error.
    """
    ids = as_ids(seq)
    if len(labels) != len(ids):
        raise ConfigError("need one label per position")
    supervised = [t for t, lab in enumerate(labels) if lab is not None]
    if not supervised:
        raise NoSupervision("every position is masked")
    cache = model.forward(model.windows(ids, as_ids(context)))
    logits = model.cls_logits(cache)
    logp = log_softmax(logits)
    gold = [labels[t] for t in supervised]
    loss = float(-logp[supervised, gold].mean())
    dcls = np.zeros_like(logits)
    dcls[supervised] = softmax(logits[supervised])
    dcls[supervised, gold] -= 1.0
    grads = model.zero_grads()
    model.backward(cache, grads, dcls=dcls / len(supervised))
    return loss, grads


# ---------------------------------------------------------------------------
# Label alignment
# ---------------------------------------------------------------------------


def align_labels(
    word_tokens: Sequence[tuple[str, str]],
    model_tokens: Sequence[str],
) -> list[str]:
    """Map word-level labels onto model tokens, first-subtoken wins.

    Matching is whitespace-insensitive; a leading ``#`` on a model token
    is treated as a continuation marker when the raw surface does not
    match. A model token starting exactly at a word boundary and fitting
    inside that word carries the word's label; every other token
    (continuation subtokens, boundary crossers, pure whitespace) gets
    the mask label X. Surfaces that cannot be reconciled at all raise
    AlignmentError.
    """
    stream = "".join("".join(w.split()) for w, _ in word_tokens)
    starts = {}
    pos = 0
    for surface, label in word_tokens:
        cleaned = "".join(surface.split())
        starts[pos] = (label, len(cleaned))
        pos += len(cleaned)
    out: list[str] = []
    cursor = 0
    for raw in model_tokens:
        s = "".join(raw.split())
        if s and not stream.startswith(s, cursor):
            stripped = s.lstrip("#")
            if stripped != s and stream.startswith(stripped, cursor):
                s = stripped
            else:
                raise AlignmentError(
                    f"token {raw!r} does not match text at offset {cursor}"
                )
        if not s:
            out.append(MASK_LABEL)
            continue
        here = starts.get(cursor)
        if here is not None and len(s) <= here[1]:
            out.append(here[0])
        else:
            out.append(MASK_LABEL)
        cursor += len(s)
    if cursor != len(stream):
        raise AlignmentError(
            f"model tokens cover {cursor} of {len(stream)} label characters"
        )
    return out


def load_label_file(path: str | Path) -> list[list[tuple[str, str, int | None]]]:
    """Read a label TSV: surface<TAB>label[<TAB>head_offset] per line.

    Blank lines separate sentences. The optional third column is the
    dependency head offset, kept for bookkeeping; prediction happens at
    the dependent's position only.
    """
    sentences: list[list[tuple[str, str, int | None]]] = []
    current: list[tuple[str, str, int | None]] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                if current:
                    sentences.append(current)
                    current = []
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise DataError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
            try:
                head = int(parts[2]) if len(parts) == 3 else None
            except ValueError:
                raise DataError(f"{path}:{lineno}: head {parts[2]!r} is not an integer") from None
            current.append((parts[0], parts[1], head))
    if current:
        sentences.append(current)
    if not sentences:
        raise EmptyDataset(f"{path}: no labeled sentences")
    return sentences


def label_vocab(sentences: Sequence[Sequence[tuple[str, str, int | None]]]) -> dict[str, int]:
    """Sorted label -> id map; the mask label X never gets an id."""
    names = sorted({lab for sent in sentences for _, lab, _ in sent if lab != MASK_LABEL})
    return {lab: i for i, lab in enumerate(names)}


def labels_to_ids(aligned: Sequence[str], table: dict[str, int]) -> list[int | None]:
    return [None if lab == MASK_LABEL else table[lab] for lab in aligned]


# ---------------------------------------------------------------------------
# Optimizer, config, multitask step
# ---------------------------------------------------------------------------


class AdamState:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float) -> None:
        self.lr = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step_count = 0
        self.m = {n: np.zeros_like(a) for n, a in params.items()}
        self.v = {n: np.zeros_like(a) for n, a in params.items()}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for name, p in params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            p -= self.lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)


@dataclass(frozen=True)
class SeqUlConfig:
    """Sequence-level unlikelihood settings."""

    mix_prob: float = 0.5
    prefix_len: int = 50
    gen_len: int = 100
    ngram: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix_prob <= 1.0:
            raise ConfigError("mix_prob must lie in [0, 1]")
        if min(self.prefix_len, self.gen_len, self.ngram) < 1:
            raise ConfigError("prefix_len, gen_len and ngram must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 16
    learning_rate: float = 1e-3
    objectives: tuple[tuple[str, float], ...] = (("mle", 1.0),)
    seq_ul: SeqUlConfig = field(default_factory=SeqUlConfig)
    margin: float = 1.0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if not self.objectives:
            raise ConfigError("at least one objective is required")
        for kind, weight in self.objectives:
            if kind not in OBJECTIVE_KINDS:
                raise ConfigError(f"unknown objective kind {kind!r}")
            if weight < 0:
                raise ConfigError("objective weights must be non-negative")
        if not any(w > 0 for _, w in self.objectives):
            raise ConfigError("at least one objective weight must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        if "seq_ul" in data:
            data["seq_ul"] = SeqUlConfig(**data["seq_ul"])
        if "objectives" in data:
            data["objectives"] = tuple(
                (kind, float(w)) for kind, w in data["objectives"]
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "TrainConfig":
        """Read a config file; bad JSON, an unknown key or a mistyped value is a ConfigError."""
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_dict(json.load(f))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad train config ({type(exc).__name__}: {exc})") from None

    def override(self, **kwargs) -> "TrainConfig":
        """Replace fields with any non-None keyword values (CLI flags win)."""
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **clean) if clean else self


@dataclass(frozen=True)
class TrainData:
    """Items per objective kind: the trainer's pools, and one step's batch."""

    sequences: tuple[TokenSequence, ...] = ()
    nsp: tuple[tuple[SentencePair, SentencePair], ...] = ()
    sop: tuple[tuple[SentencePair, SentencePair], ...] = ()
    tfidf: tuple[tuple[TokenSequence, tuple[float, ...]], ...] = ()
    pos: tuple[tuple[TokenSequence, tuple[int | None, ...]], ...] = ()
    dp: tuple[tuple[TokenSequence, tuple[int | None, ...]], ...] = ()


def _items(data: TrainData, kind: str):
    """The items objective ``kind`` trains on (mle and ul share sequences)."""
    if kind in ("mle", "ul"):
        return data.sequences
    return getattr(data, kind)


def _accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray], scale: float) -> None:
    for name, g in part.items():
        total[name] += scale * g


def multitask_step(
    model: FeedForwardLM,
    batch: TrainData,
    cfg: TrainConfig,
    opt: AdamState,
    rng: SplitMix64,
) -> dict[str, float]:
    """One optimizer step over the weighted sum of active objectives.

    Returns the per-objective mean losses plus their weighted total
    under key "total". The UL coin is the only randomness consumed.
    """
    grads = model.zero_grads()
    scalars: dict[str, float] = {}
    total = 0.0
    for kind, weight in cfg.objectives:
        if weight == 0.0:
            continue
        items = _items(batch, kind)
        if not items:
            raise ConfigError(f"objective {kind!r} is active but the batch has no data for it")
        scale = weight / len(items)
        loss_sum = 0.0
        rollouts = [None] * len(items)
        if kind == "ul":
            seq_level = rng.uniform() < cfg.seq_ul.mix_prob
            scalars["ul_branch"] = 1.0 if seq_level else 0.0
            if seq_level:
                rollouts = _greedy_rollouts(model, items, cfg.seq_ul)
        for j, item in enumerate(items):
            if kind == "mle":
                loss, g = ce_loss(model, item)
            elif kind == "ul":
                loss, g = _ul_item(model, item, cfg.seq_ul, rollouts[j])
            elif kind in ("nsp", "sop"):
                pos_pair, neg_pair = item
                loss, g = margin_rank_loss(model, pos_pair, neg_pair, cfg.margin)
            elif kind == "tfidf":
                seq, targets = item
                loss, g = regression_loss(model, seq, targets)
            else:  # pos | dp
                seq, labels = item
                loss, g = classification_loss(model, seq, labels)
            loss_sum += loss
            _accumulate(grads, g, scale)
        mean_loss = loss_sum / len(items)
        scalars[kind] = mean_loss
        total += weight * mean_loss
    scalars["total"] = total
    opt.update(model.params, grads)
    return scalars


def _greedy_rollouts(model, seqs, cfg: SeqUlConfig) -> list[tuple[TokenSequence, TokenSequence]]:
    """(prefix, greedy continuation) per sequence, decoded in one batch."""
    for seq in seqs:
        if len(seq) < cfg.prefix_len:
            raise ConfigError(
                f"sequence of {len(seq)} tokens is shorter than ul prefix {cfg.prefix_len}"
            )
    prefixes = [seq.window(0, cfg.prefix_len) for seq in seqs]
    greedy = DecoderConfig(strategy="greedy", max_len=cfg.gen_len)
    return list(zip(prefixes, generate_batch(model, prefixes, [greedy] * len(prefixes))))


def _ul_item(model, seq: TokenSequence, cfg: SeqUlConfig, rollout):
    """Token-level UL on ``seq``, or sequence-level UL on its ``rollout``."""
    if rollout is None:
        return ul_token_loss(model, seq, previous_token_candidates(seq))
    prefix, continuation = rollout
    candidates = ul_seq_candidates(continuation, cfg.ngram)
    return ul_token_loss(model, continuation, candidates, context=prefix.ids)


class Trainer:
    """Deterministic epoch loop: shuffle, slice, multitask_step.

    Identical (model seed, data, config, trainer seed) reproduce the
    exact parameter trajectory; all randomness flows from one splitmix
    stream (epoch shuffles and UL coins, in program order).
    """

    def __init__(self, model: FeedForwardLM, cfg: TrainConfig, seed: int = 0) -> None:
        self.model = model
        self.cfg = cfg
        self.opt = AdamState(model.params, cfg.learning_rate)
        self.rng = SplitMix64(seed)
        self.history: list[dict[str, float]] = []

    def fit(self, data: TrainData) -> list[dict[str, float]]:
        active = [k for k, w in self.cfg.objectives if w > 0]
        pools = {k: _items(data, k) for k in active}
        for kind, pool in pools.items():
            if not pool:
                raise ConfigError(f"objective {kind!r} has no training data")
        steps = max(
            math.ceil(len(pool) / self.cfg.batch_size) for pool in pools.values()
        )
        cursors = {k: 0 for k in active}
        for _ in range(self.cfg.epochs):
            seq_order = list(range(len(data.sequences)))
            self.rng.shuffle(seq_order)
            for step in range(steps):
                parts: dict[str, tuple] = {}
                for kind in active:
                    pool = pools[kind]
                    if kind in ("mle", "ul"):
                        lo = (step * self.cfg.batch_size) % len(seq_order)
                        picked = [
                            data.sequences[seq_order[(lo + i) % len(seq_order)]]
                            for i in range(min(self.cfg.batch_size, len(seq_order)))
                        ]
                        parts["sequences"] = tuple(picked)
                    else:
                        taken = []
                        for _ in range(min(self.cfg.batch_size, len(pool))):
                            taken.append(pool[cursors[kind] % len(pool)])
                            cursors[kind] += 1
                        parts[kind] = tuple(taken)
                batch = TrainData(**parts)
                self.history.append(
                    multitask_step(self.model, batch, self.cfg, self.opt, self.rng)
                )
        return self.history


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    model: FeedForwardLM,
    loss_fn: Callable[[FeedForwardLM], tuple[float, dict[str, np.ndarray]]],
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference grads.

    Relative error is |a - n| / max(|a|, |n|, 1e-8), evaluated for every
    parameter scalar; the loss function must be deterministic.
    """
    _, grads = loss_fn(model)
    worst = 0.0
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn(model)[0]
            flat[i] = orig - step
            down = loss_fn(model)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = gflat[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
