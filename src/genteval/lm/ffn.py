"""Feed-forward neural language model with hand-written gradients.

Architecture: the last ``context`` token ids are embedded (vocab x d
table), concatenated to a single vector, passed through one tanh hidden
layer, and projected to vocab logits. Optional heads share the hidden
layer: a scalar regression head and an n-label classification head.

Contexts shorter than the window are left-padded with -1, which only
``forward`` reads as a reserved pad token, appended to the supplied vocab
(so existing ids are unchanged); its embedding trains like any other row.
An id outside the padded vocab is a config error.

Training support is deliberately transparent: ``forward`` returns a
cache of intermediates and ``backward`` accumulates parameter gradients
from output-side gradients, so every loss in :mod:`genteval.losses` is
an explicit application of the chain rule that finite differences can
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import Vocab
from ..errors import ConfigError
from ..rng import SplitMix64
from .base import exp_rows, id_lines, left_padded, summed_scores

PAD_TOKEN = "<pad>"

# Rows (token positions) per block of gold_blocks: bounds the (rows, |V|)
# logits that scoring and the mle/ul training step hold at once, and with
# them the peak RSS of a V=5001 train (72.8 MB at 128 rows, 64.2 at 64).
BLOCK_ROWS = 64


def _uniform(rng: SplitMix64, shape: tuple[int, ...]) -> np.ndarray:
    # Elementwise the same two roundings as rng.uniform() * 0.2 - 0.1.
    arr = rng.uniforms(int(np.prod(shape)))
    arr *= 0.2
    arr -= 0.1
    return arr.reshape(shape)


def check_sizes(context: int, embed_dim: int, hidden_dim: int) -> None:
    """Refuse a window, embedding or hidden size below 1."""
    if min(context, embed_dim, hidden_dim) < 1:
        raise ConfigError("context, embed_dim and hidden_dim must be positive")


def param_shapes(
    vocab_size: int,
    context: int,
    embed_dim: int,
    hidden_dim: int,
    n_labels: int = 0,
    regression: bool = False,
) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter tensor, in the order init fills them.

    ``vocab_size`` counts the pad token. Weights draw from the seeded
    stream in this order; biases (the ``b*`` tensors) start at zero. The
    output layer ``w2`` is held as ``(H, V)``, so ``h @ w2`` is the logits.
    """
    check_sizes(context, embed_dim, hidden_dim)
    if n_labels < 0:
        raise ConfigError("n_labels must be non-negative")
    shapes = {
        "emb": (vocab_size, embed_dim),
        "w1": (hidden_dim, context * embed_dim),
        "b1": (hidden_dim,),
        "w2": (hidden_dim, vocab_size),
        "b2": (vocab_size,),
    }
    if regression:
        shapes.update(wr=(hidden_dim,), br=())
    if n_labels:
        shapes.update(wc=(n_labels, hidden_dim), bc=(n_labels,))
    return shapes


@dataclass
class FfnCache:
    """Intermediates for one batch of context windows."""

    ctx: np.ndarray  # (T, c) int64
    x: np.ndarray  # (T, c*d) concatenated embeddings
    h: np.ndarray  # (T, hidden) tanh activations


class FeedForwardLM:
    backend = "ffn"

    def __init__(
        self,
        vocab: Vocab,
        context: int,
        embed_dim: int,
        hidden_dim: int,
        params: dict[str, np.ndarray],
        pad_id: int,
        n_labels: int = 0,
        regression: bool = False,
    ) -> None:
        self.vocab = vocab
        self.context = context
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.params = params
        self.pad_id = pad_id
        self.n_labels = n_labels
        self.regression = regression

    @property
    def context_len(self) -> int:
        """Only the last ``context`` ids of a context affect a prediction."""
        return self.context

    @classmethod
    def init(
        cls,
        vocab: Vocab,
        context: int = 8,
        embed_dim: int = 32,
        hidden_dim: int = 64,
        seed: int = 0,
        n_labels: int = 0,
        regression: bool = False,
    ) -> "FeedForwardLM":
        """Fresh model with seeded uniform [-0.1, 0.1) weights, zero biases.

        Weight tensors are filled from a splitmix stream in a fixed
        order (embedding, hidden, output, regression head,
        classification head), so identical seeds give identical models.
        ``w2`` draws its values in ``(V, H)`` order and holds their transpose.
        """
        if PAD_TOKEN in vocab:
            padded, pad_id = vocab, vocab.id_of(PAD_TOKEN)
        else:
            padded = Vocab(vocab.tokens + (PAD_TOKEN,))
            pad_id = padded.size - 1
        shapes = param_shapes(padded.size, context, embed_dim, hidden_dim, n_labels, regression)
        rng = SplitMix64(seed)
        params = {
            name: np.zeros(shape) if name.startswith("b") else _uniform(rng, shape)
            for name, shape in {**shapes, "w2": shapes["w2"][::-1]}.items()
        }
        params["w2"] = np.ascontiguousarray(params["w2"].T)
        return cls(
            padded, context, embed_dim, hidden_dim, params, pad_id,
            n_labels=n_labels, regression=regression,
        )

    @property
    def param_count(self) -> int:
        return sum(arr.size for arr in self.params.values())

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.params.items()}

    # -- forward ----------------------------------------------------------

    def forward(self, ctx: np.ndarray) -> FfnCache:
        """Run a ``(T, c)`` window matrix, -1 read as the pad id."""
        ctx = self._in_vocab(np.where(ctx < 0, self.pad_id, ctx))
        t = ctx.shape[0]
        x = self.params["emb"][ctx].reshape(t, self.context * self.embed_dim)
        h = np.tanh(x @ self.params["w1"].T + self.params["b1"])
        return FfnCache(ctx=ctx, x=x, h=h)

    def vocab_logits(self, cache: FfnCache) -> np.ndarray:
        """A fresh ``(T, V)`` logits array, which the caller owns."""
        logits = cache.h @ self.params["w2"]
        logits += self.params["b2"]  # in place: one (rows, V) array
        return logits

    def reg_predictions(self, cache: FfnCache) -> np.ndarray:
        if not self.regression:
            raise ConfigError("model has no regression head")
        return cache.h @ self.params["wr"] + self.params["br"]

    def cls_logits(self, cache: FfnCache) -> np.ndarray:
        if not self.n_labels:
            raise ConfigError("model has no classification head")
        return cache.h @ self.params["wc"].T + self.params["bc"]

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        return self.next_dist_batch(left_padded([context], self.context))[0]

    def next_dist_batch(self, windows: np.ndarray) -> np.ndarray:
        """The next-token rows of a ``(rows, c)`` window matrix."""
        z = self.vocab_logits(self.forward(windows))
        denom, _ = exp_rows(z)
        z /= denom[:, None]
        return z

    def score_batch(self, seqs, contexts: Sequence[Sequence[int]] = ()) -> list[float]:
        """The summed log-probability of each ``seqs[i]`` after ``contexts[i]``,
        from :meth:`gold_blocks`. A row's value depends on its block in the
        last bits."""
        return summed_scores(self._token_logp, seqs, contexts)

    def _token_logp(self, seqs, contexts) -> np.ndarray:
        logp = np.empty(sum(map(len, seqs)))
        for _ in self.gold_blocks(seqs, contexts, logp):
            pass
        return logp

    def gold_blocks(self, seqs, contexts, gold_logp: np.ndarray, rows: np.ndarray | None = None):
        """Run the windows of ``seqs`` (``seqs[i]`` after ``contexts[i]``) in
        blocks of at most ``BLOCK_ROWS`` rows, one forward and one ``exp_rows``
        each. ``rows`` picks the rows to run, as ascending indices into all
        of ``seqs``' stacked rows (default: every row). Fills ``gold_logp``
        with each run row's log-probability of its own id ``gold`` and yields
        ``(lo, hi, cache, z, denom, gold)`` per block of run rows ``lo:hi``:
        ``z / denom`` is its softmax, and the caller owns ``z``."""
        flat, q = id_lines(seqs, contexts, self.context)
        if rows is not None:
            q = q[rows]
        gold = self._in_vocab(flat[q])
        for lo in range(0, len(q), BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, len(q))
            cache = self.forward(flat[q[lo:hi, None] + np.arange(-self.context, 0)])
            z = self.vocab_logits(cache)
            denom, gold_logp[lo:hi] = exp_rows(z, gold[lo:hi])
            yield lo, hi, cache, z, denom, gold[lo:hi]

    def _in_vocab(self, ids: np.ndarray) -> np.ndarray:
        if ids.max(initial=0) >= self.vocab.size:
            raise ConfigError(f"token id {int(ids.max())} is outside the model's {self.vocab.size}-token vocab")
        return ids

    # -- backward ---------------------------------------------------------

    def backward(
        self,
        cache: FfnCache,
        grads: dict[str, np.ndarray],
        dlogits: np.ndarray | None = None,
        dreg: np.ndarray | None = None,
        dcls: np.ndarray | None = None,
    ) -> None:
        """Accumulate parameter gradients from output-side gradients.

        ``dlogits`` is d(loss)/d(vocab logits), ``dreg`` and ``dcls``
        the analogues for the heads; any may be omitted.
        """
        dh = np.zeros_like(cache.h)
        if dlogits is not None:
            grads["w2"] += cache.h.T @ dlogits
            grads["b2"] += dlogits.sum(axis=0)
            dh += dlogits @ self.params["w2"].T
        if dreg is not None:
            grads["wr"] += cache.h.T @ dreg
            grads["br"] += dreg.sum()
            dh += np.outer(dreg, self.params["wr"])
        if dcls is not None:
            grads["wc"] += dcls.T @ cache.h
            grads["bc"] += dcls.sum(axis=0)
            dh += dcls @ self.params["wc"]
        dz1 = dh * (1.0 - cache.h**2)
        grads["w1"] += dz1.T @ cache.x
        grads["b1"] += dz1.sum(axis=0)
        dx = (dz1 @ self.params["w1"]).reshape(-1, self.context, self.embed_dim)
        np.add.at(grads["emb"], cache.ctx, dx)

