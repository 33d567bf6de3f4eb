"""Training objectives for the feed-forward LM, with explicit gradients.

Each loss takes a batch of items and adds its weighted gradient into a
dict matching the model's parameters. Gradients are derived by hand
through the softmax/tanh stack (see :meth:`FeedForwardLM.backward`),
which the test suite checks against central finite differences; nothing
here relies on an autodiff framework.

Objective kinds understood by :func:`multitask_step`, each declared once
in the objective table ``OBJECTIVES`` with the training pool it draws
from, the loss that runs it and the model head it trains. Pools and
batches are plain dicts keyed by those pool names; :func:`train` runs the
epochs over them.

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

A step makes one batched call per active kind, each adding its weighted
gradient into the step's gradient. ``mle`` and ``ul`` stack the context
windows of all the step's sequences into rows and run them through
:meth:`FeedForwardLM.gold_blocks`, blocks of at most ``BLOCK_ROWS`` rows
(a sequence may straddle two blocks). Each block makes one forward, one
exp pass that yields both the gold log-probs and the softmax, one
combined ``dlogits`` and one backward. Token-level UL trains on the same
windows as MLE, so it shares MLE's blocks; its candidates are
``(position, token)`` arrays, gathered and scattered sparsely.
Sequence-level UL has no CE term, so it stacks into blocks of its own
only the rollout rows that end a repeated n-gram: a rollout without
repeats costs only its decode.
``nsp``/``sop`` score all their pairs with one ``score_batch`` call and
run the pairs of active hinges through the same blocks, as CE weighted by
perplexity. ``tfidf``, ``pos`` and ``dp`` make one forward over every
item's windows and use only the heads, never the vocab logits; only
``gold_blocks`` normalizes those. Both it and the label head normalize
through :func:`genteval.lm.base.exp_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import SentencePair, flat_rows, ngram_windows
from .decode import DecoderConfig, generate_batch
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyDataset,
    NoSupervision,
    open_text,
)
from .lm.base import exp_rows, id_lines
from .lm.ffn import FeedForwardLM
from .rng import SplitMix64

# Probabilities inside ln(1 - p) are clamped to at most 1 - _UL_CLAMP.
_UL_CLAMP = 1e-12

MASK_LABEL = "X"


# ---------------------------------------------------------------------------
# Core losses
# ---------------------------------------------------------------------------


def _previous_token_pairs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Token-level UL candidates of ``ids`` as ``(position, token)`` arrays, positions ascending."""
    ids = np.asarray(ids)
    _, first = np.unique(ids, return_index=True)
    first.sort()
    seen = ids[first]  # distinct tokens in order of first use
    earlier = first[None, :] < np.arange(len(ids))[:, None]
    rows, k = np.nonzero(earlier & (seen[None, :] != ids[:, None]))
    return rows, seen[k]


def _repeat_pairs(seqs: Sequence[Sequence[int]], n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sequence-level UL candidates of each sequence as ``(position, token)``
    arrays, positions ascending: the last token of every n-gram window
    whose gram already ended earlier in the same sequence."""
    flat, bounds = flat_rows(seqs)
    _, owner, ids, _ = ngram_windows(flat, np.diff(bounds), n)
    at = np.flatnonzero(ids[n - 1] >= 0)
    base = int(ids[n - 1].max(initial=0)) + 1
    _, first = np.unique(owner[at] * base + ids[n - 1][at], return_index=True)
    repeat = np.ones(len(at), dtype=bool)
    repeat[first] = False
    ends = at[repeat] + (n - 1)
    rows = ends - bounds[owner[ends]]
    cuts = np.searchsorted(owner[ends], np.arange(len(seqs) + 1)).tolist()
    return [(rows[a:b], flat[ends[a:b]]) for a, b in zip(cuts[:-1], cuts[1:])]


def _token_losses(
    model: FeedForwardLM,
    seqs: Sequence[Sequence[int]],
    contexts: Sequence[Sequence[int]],
    candidates: Sequence[tuple[np.ndarray, np.ndarray]] | None,
    ce_weight: float | np.ndarray,
    ul_weight: float,
    grads: dict[str, np.ndarray],
) -> tuple[list[float], list[float]]:
    """Per-sequence CE and UL losses over every token of ``seqs``, in row blocks.

    ``seqs[i]`` is conditioned on ``contexts[i]``; ``candidates[i]`` is
    its UL ``(position, token)`` arrays, positions ascending (None: no
    UL). ``ce_weight`` is one float or one weight per sequence; sequence i
    adds ``ce_weight_i / len_i`` times its CE gradient plus
    ``ul_weight / len_i`` times its UL gradient into ``grads``. The
    returned losses are unweighted.

    A row of CE weight 0 without a candidate has a dlogits row of exact
    zeros, so only the other rows run: a UL-only pass forwards just the
    rows that hold a candidate, and one without candidates runs nothing.
    The CE loss of a sequence with a row left out is NaN. Each block of
    :meth:`FeedForwardLM.gold_blocks` turns its ``z`` into dlogits in
    place and runs one backward, which adds its dW2 into ``grads["w2"]``.
    """
    lens = [len(s) for s in seqs]
    bounds = np.cumsum([0] + lens)
    n_rows = int(bounds[-1])
    row_ce = np.repeat(np.broadcast_to(ce_weight, len(lens)), lens)
    if candidates is None:
        cand_rows = cand_toks = np.empty(0, dtype=np.int64)
    else:
        cand_rows = np.concatenate([t + lo for (t, _), lo in zip(candidates, bounds)])
        cand_toks = np.concatenate([tok for _, tok in candidates])
    needed = row_ce != 0.0
    needed[cand_rows] = True
    run = np.flatnonzero(needed)
    cand_at = np.searchsorted(run, cand_rows)  # each candidate's index among the run rows
    row_scale = np.repeat(1.0 / np.array(lens), lens)[run]
    row_ce = row_ce[run]
    run_logp = np.empty(len(run))
    cand_p = np.empty(len(cand_rows))
    for lo, hi, cache, z, denom, gold in model.gold_blocks(seqs, contexts, run_logp, run):
        a, b = np.searchsorted(cand_at, (lo, hi))
        rows, cr, ct = np.arange(hi - lo), cand_at[a:b] - lo, cand_toks[a:b]
        p = cand_p[a:b] = z[cr, ct] / denom[cr]
        # d/dlogits: ce * (softmax - onehot) + ul * (q - softmax * sum(q)),
        # with q = p / (1 - p) at the candidates; the clamp zeroes q.
        kept = p < 1.0 - _UL_CLAMP
        q = np.where(kept, p / (1.0 - np.where(kept, p, 0.0)), 0.0)
        scale, ce = row_scale[lo:hi], row_ce[lo:hi]
        q_sum = np.bincount(cr, weights=q, minlength=hi - lo)
        z *= ((ce - ul_weight * q_sum) * scale / denom)[:, None]
        z[rows, gold] -= ce * scale
        z[cr, ct] += ul_weight * scale[cr] * q
        model.backward(cache, grads, dlogits=z)
    gold_logp = np.full(n_rows, np.nan)
    gold_logp[run] = run_logp
    penalty = -np.log1p(-np.minimum(cand_p, 1.0 - _UL_CLAMP))
    cuts = np.searchsorted(cand_rows, bounds)
    ce = [float(-gold_logp[lo:hi].mean()) for lo, hi in zip(bounds, bounds[1:])]
    ul = [float(penalty[a:b].sum() / t) for a, b, t in zip(cuts, cuts[1:], lens)]
    return ce, ul


def hinge_rank(ppl_pos: float, ppl_neg: float, margin: float) -> float:
    """max(0, ppl_pos - ppl_neg + margin): positives must rank lower."""
    return max(0.0, ppl_pos - ppl_neg + margin)


def _rank_losses(
    model: FeedForwardLM,
    kind: str,
    items: Sequence[tuple[SentencePair, SentencePair]],
    scale: float,
    grads: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> list[float]:
    """Hinge at ``cfg.margin`` of each ``(positive, negative)`` item on its perplexity gap.

    The second sentence of every pair is scored given its first in one
    ``score_batch`` call. d ppl / d logits is ppl times the mean CE
    gradient, so the pairs of the items whose hinge is active make one
    :func:`_token_losses` pass with CE weights ``scale * ppl`` (positive)
    and ``-scale * ppl`` (negative).
    """
    pairs = [pair for item in items for pair in item]
    seqs = [pair.second for pair in pairs]
    contexts = [pair.first for pair in pairs]
    ppl = np.exp(-np.array(model.score_batch(seqs, contexts)) / [len(s) for s in seqs])
    hinges = [hinge_rank(p, n, cfg.margin) for p, n in zip(ppl[0::2].tolist(), ppl[1::2].tolist())]
    on = np.flatnonzero(np.repeat(np.array(hinges) > 0.0, 2))
    if len(on):
        weights = scale * np.tile([1.0, -1.0], len(items)) * ppl
        _token_losses(
            model, [seqs[i] for i in on], [contexts[i] for i in on], None, weights[on], 0.0, grads
        )
    return hinges


def smooth_l1_loss(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth L1; returns (loss, d loss / d pred)."""
    x = np.subtract(pred, target)
    inner = np.abs(x) < 1.0
    return np.where(inner, 0.5 * x * x, np.abs(x) - 0.5), np.where(inner, x, np.sign(x))


def _head_losses(
    model: FeedForwardLM,
    kind: str,
    items: Sequence[tuple[object, Sequence]],
    scale: float,
    grads: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> list[float]:
    """Per-item losses of ``(seq, targets)`` items on ``kind``'s head, one target per token.

    On the regression head (``tfidf``) the loss is the mean smooth-L1
    between the head and the targets. On the classification head (``pos``,
    ``dp``) it is the mean CE of the gold label at each supervised position;
    ``None`` marks an unsupervised position (the X alignment label), and
    an item with none supervised is an error. One
    forward runs the windows of every item and no vocab logits are formed;
    each item adds ``scale`` times its gradient into ``grads``.
    """
    seqs = [seq for seq, _ in items]
    lens = np.array([len(s) for s in seqs])
    if any(len(targets) != len(s) for s, (_, targets) in zip(seqs, items)):
        raise ConfigError(f"{kind} needs one target per position")
    bounds = np.cumsum([0, *lens])
    flat, q = id_lines(seqs, [()] * len(seqs), model.context)
    cache = model.forward(flat[q[:, None] + np.arange(-model.context, 0)])
    if OBJECTIVES[kind].head == "regression":
        targets = np.concatenate([np.asarray(t, dtype=np.float64) for _, t in items])
        losses, dreg = smooth_l1_loss(model.reg_predictions(cache), targets)
        model.backward(cache, grads, dreg=dreg * np.repeat(scale / lens, lens))
        return [float(losses[lo:hi].mean()) for lo, hi in zip(bounds, bounds[1:])]
    labels = [lab for _, labs in items for lab in labs]
    rows = np.array([t for t, lab in enumerate(labels) if lab is not None], dtype=np.int64)
    cuts = np.searchsorted(rows, bounds)
    counts = np.diff(cuts)
    if not counts.all():
        raise NoSupervision("every position is masked")
    gold = np.array([lab for lab in labels if lab is not None], dtype=np.int64)
    logits = model.cls_logits(cache)
    dsup = logits[rows]
    denom, logp = exp_rows(dsup, gold)
    dsup /= denom[:, None]
    dsup[np.arange(len(rows)), gold] -= 1.0
    dcls = np.zeros_like(logits)
    dcls[rows] = dsup * np.repeat(scale / counts, counts)[:, None]
    model.backward(cache, grads, dcls=dcls)
    return [float(-logp[a:b].mean()) for a, b in zip(cuts, cuts[1:])]


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
    with open_text(path) as f:
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


_ADAM_CHUNK = 1 << 14  # elements per in-place pass: the scratch stays small and cached


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
        self._scratch = np.empty((2, _ADAM_CHUNK))

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """In place, chunk by chunk, in the operation order of
        ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g``,
        ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``. Each tensor must be
        C-contiguous, so that its flat view writes through."""
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for name, p in params.items():
            arrays = (p, grads[name], self.m[name], self.v[name])
            if not all(a.flags.c_contiguous for a in arrays):
                raise ConfigError(f"Adam updates C-contiguous tensors in place; {name!r} is not")
            flat = [a.reshape(-1) for a in arrays]
            for lo in range(0, p.size, _ADAM_CHUNK):
                p_, g, m, v = (a[lo : lo + _ADAM_CHUNK] for a in flat)
                t, u = self._scratch[:, : g.size]
                np.multiply(m, self.beta1, out=m)
                np.add(m, np.multiply(g, 1 - self.beta1, out=t), out=m)
                np.multiply(v, self.beta2, out=v)
                np.multiply(np.multiply(g, 1 - self.beta2, out=t), g, out=t)
                np.add(v, t, out=v)
                np.multiply(np.divide(m, c1, out=t), self.lr, out=t)
                np.add(np.sqrt(np.divide(v, c2, out=u), out=u), self.eps, out=u)
                np.subtract(p_, np.divide(t, u, out=t), out=p_)


class _Objective(NamedTuple):
    pool: str  # the training pool its items come from: a key of the pools and batch dicts
    loss: Callable | None  # called as loss(model, kind, items, scale, grads, cfg)
    head: str | None  # the model head it trains: "regression", "classification" or none


# The objective table, in the order the CLI builds the pools. mle and ul
# have no loss of their own: they share one blocked _token_losses pass.
OBJECTIVES: dict[str, _Objective] = {
    "mle": _Objective("sequences", None, None),
    "ul": _Objective("sequences", None, None),
    "nsp": _Objective("nsp", _rank_losses, None),
    "sop": _Objective("sop", _rank_losses, None),
    "tfidf": _Objective("tfidf", _head_losses, "regression"),
    "pos": _Objective("pos", _head_losses, "classification"),
    "dp": _Objective("dp", _head_losses, "classification"),
}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 16
    learning_rate: float = 1e-3
    objectives: tuple[tuple[str, float], ...] = (("mle", 1.0),)
    margin: float = 1.0
    # Sequence-level unlikelihood: the chance a ul step takes it, and its
    # rollouts' prefix and greedy continuation lengths and repeat n-gram.
    mix_prob: float = 0.5
    ul_prefix_len: int = 50
    ul_gen_len: int = 100
    ul_ngram: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix_prob <= 1.0:
            raise ConfigError("mix_prob must lie in [0, 1]")
        if min(self.ul_prefix_len, self.ul_gen_len, self.ul_ngram) < 1:
            raise ConfigError("ul_prefix_len, ul_gen_len and ul_ngram must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if not math.isfinite(self.margin):
            raise ConfigError("margin must be finite")
        if not self.objectives:
            raise ConfigError("at least one objective is required")
        kinds = [kind for kind, _ in self.objectives]
        for kind, weight in self.objectives:
            if kinds.count(kind) > 1:
                raise ConfigError(f"objective {kind!r} is listed more than once")
            if kind not in OBJECTIVES:
                raise ConfigError(f"unknown objective kind {kind!r}")
            if isinstance(weight, bool):
                raise ConfigError(f"objective weight of {kind!r} must be a number, not {weight!r}")
            if not 0 <= weight < math.inf:
                raise ConfigError("objective weights must be non-negative and finite")
        active = dict(self.active)
        if not active:
            raise ConfigError("at least one objective weight must be positive")
        labelled = [k for k, obj in OBJECTIVES.items() if obj.head == "classification" and k in active]
        if len(labelled) > 1:
            raise ConfigError(f"{' and '.join(labelled)} share the classification head; train one at a time")

    @property
    def active(self) -> tuple[tuple[str, float], ...]:
        """The ``(kind, weight)`` objectives of positive weight, in the given order."""
        return tuple((kind, w) for kind, w in self.objectives if w > 0)

    @property
    def pools(self) -> tuple[str, ...]:
        """The distinct pools of the active kinds, in table order."""
        kinds = dict(self.active)
        return tuple(dict.fromkeys(obj.pool for kind, obj in OBJECTIVES.items() if kind in kinds))


def _require_items(cfg: TrainConfig, pools: dict[str, tuple], problem: str) -> None:
    """Raise ``objective <kind> <problem>`` for the first active kind whose pool is missing or empty."""
    for kind, _ in cfg.active:
        if not len(pools.get(OBJECTIVES[kind].pool, ())):
            raise ConfigError(f"objective {kind!r} {problem}")


def _mean(losses: Sequence[float]) -> float:
    total = 0.0
    for loss in losses:  # left to right, on every Python version
        total += loss
    return total / len(losses)


def multitask_step(
    model: FeedForwardLM,
    batch: dict[str, tuple],
    cfg: TrainConfig,
    opt: AdamState,
    rng: SplitMix64,
) -> dict[str, float]:
    """One optimizer step over the weighted sum of active objectives.

    Returns the per-objective mean losses plus their weighted total
    under key "total". The UL coin is the only randomness consumed.
    mle and token-level ul share one blocked pass over the sequences;
    sequence-level ul makes a blocked pass over the greedy rollouts; every
    other kind makes one batched call over its items.
    """
    _require_items(cfg, batch, "is active but the batch has no data for it")
    weights = dict(cfg.active)
    seq_level = "ul" in weights and rng.uniform() < cfg.mix_prob
    token_ul = "ul" in weights and not seq_level
    grads = model.zero_grads()
    means: dict[str, float] = {}
    seqs = batch.get("sequences", ())
    if "mle" in weights or token_ul:
        cands = [_previous_token_pairs(s) for s in seqs] if token_ul else None
        ce, ul = _token_losses(
            model, seqs, [()] * len(seqs), cands,
            weights.get("mle", 0.0) / len(seqs), weights["ul"] / len(seqs) if token_ul else 0.0, grads,
        )
        if "mle" in weights:
            means["mle"] = _mean(ce)
        if token_ul:
            means["ul"] = _mean(ul)
    if seq_level:
        prefixes, conts = _greedy_rollouts(model, seqs, cfg)
        cands = _repeat_pairs(conts, cfg.ul_ngram)
        _, ul = _token_losses(model, conts, prefixes, cands, 0.0, weights["ul"] / len(seqs), grads)
        means["ul"] = _mean(ul)
    scalars: dict[str, float] = {}
    total = 0.0
    for kind, weight in weights.items():
        pool, loss, _ = OBJECTIVES[kind]
        if loss is not None:
            items = batch[pool]
            means[kind] = _mean(loss(model, kind, items, weight / len(items), grads, cfg))
        if kind == "ul":
            scalars["ul_branch"] = 1.0 if seq_level else 0.0
        scalars[kind] = means[kind]
        total += weight * means[kind]
    scalars["total"] = total
    opt.update(model.params, grads)
    return scalars


def _greedy_rollouts(model, seqs, cfg: TrainConfig) -> tuple[list, np.ndarray]:
    """(prefixes, greedy continuations), one of each per sequence, decoded in one batch:
    the sequences' first ``ul_prefix_len`` ids and the decoder's matrix."""
    for seq in seqs:
        if len(seq) < cfg.ul_prefix_len:
            raise ConfigError(
                f"sequence of {len(seq)} tokens is shorter than ul prefix {cfg.ul_prefix_len}"
            )
    prefixes = [seq[: cfg.ul_prefix_len] for seq in seqs]
    greedy = DecoderConfig("greedy", max_len=cfg.ul_gen_len)
    return prefixes, generate_batch(model, prefixes, greedy)


def train(
    model: FeedForwardLM, pools: dict[str, tuple], cfg: TrainConfig, seed: int = 0
) -> list[dict[str, float]]:
    """Deterministic epoch loop: shuffle, slice, multitask_step; returns each step's scalars.

    ``pools`` maps pool names of the objective table to their items; only
    the active kinds' pools are read. An epoch has as many steps as the
    largest of them has batches. The sequences are reshuffled each epoch
    and wrap within it; every other pool cycles on in order across epochs.

    Identical (model seed, pools, config, seed) reproduce the exact
    parameter trajectory; all randomness flows from one splitmix stream
    (epoch shuffles and UL coins, in program order).
    """
    _require_items(cfg, pools, "has no training data")
    opt, rng, size = AdamState(model.params, cfg.learning_rate), SplitMix64(seed), cfg.batch_size
    pools = {name: pools[name] for name in cfg.pools}
    steps = max(math.ceil(len(items) / size) for items in pools.values())
    cursors = dict.fromkeys(pools, 0)
    history = []
    for _ in range(cfg.epochs):
        seq_order = list(range(len(pools.get("sequences", ()))))
        rng.shuffle(seq_order)
        for step in range(steps):
            batch = {}
            for name, items in pools.items():
                n = min(size, len(items))
                if name == "sequences":
                    picked = [seq_order[(step * size + i) % len(items)] for i in range(n)]
                else:
                    picked = [(cursors[name] + i) % len(items) for i in range(n)]
                    cursors[name] += n
                batch[name] = tuple(items[i] for i in picked)
            history.append(multitask_step(model, batch, cfg, opt, rng))
    return history
