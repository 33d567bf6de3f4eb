"""Decoding strategies over next-token distributions.

Six strategies: greedy, beam(b), temperature(t), top-k(k), top-p(p), and
penalized(theta). The stochastic ones draw exactly one uniform variate
per emitted token from the splitmix generator in :mod:`genteval.rng`, so
a (model, prefix, config, seed) tuple always reproduces the same
continuation. Continuations have fixed length ``max_len``; there is no
end-of-sequence token.

Because every continuation has the same length, the prefixes of a batch
decode in lockstep (:func:`generate_batch`): one ``next_dist_batch``
call per step returns a ``(B, |V|)`` block holding the next-token
distribution of every prefix, or of every live beam hypothesis of every
prefix. The tokens of all rows are then chosen with block operations on
that array, each row by the rules of a one-prefix decode, so a batch of
one prefix is the one-prefix decode. A model's batched rows may differ
from its single rows in the last bits (the ffn's matrix products depend
on the batch), so a continuation is a function of the batch it was
decoded in; callers that must agree, such as ``genteval generate`` and a
sweep cell, batch the same prefixes. :func:`token_prob_trace` reads a
fixed sequence's probabilities through the same truncation code.

Every ranking of tokens is probability (or log-probability) descending
with ties broken toward the lower id, i.e. a stable argsort of the
negated values. A step ranks its block once, and truncation and the
inverse-CDF draw share that ranking: dividing the kept probabilities by
their sum keeps their order, except where it rounds two different
probabilities to one value, and only such rows are ranked again. Each
row's choice is bit-identical to choosing it alone, because every
floating-point operation that decides it sees the same operands in the
same order:

- elementwise operations (log, exp, division) give an element the same
  result wherever it sits, so a log taken only where the probability is
  positive equals one row's log of its positive entries;
- a cumulative sum is sequential, so zero-mass tokens ranked after the
  support leave it unchanged, and along axis 1 of a C-contiguous block
  it equals the one-row call;
- a sum uses numpy's pairwise grouping, which zeros change: a row sum
  along axis 1 equals one row's sum of the same vector, so top-k, top-p
  and penalized (which sum whole zero-filled rows) take block sums,
  while temperature (which sums the positive entries only) takes the
  block sum only for rows without zeros and sums the others alone;
- maxima, comparisons and counts are exact.

One decode step costs O(|V|) numpy work per row plus sorts:

- a model's ``context_len`` hands it only that many trailing ids, so a
  step does not copy the whole context;
- top-k and the beam's per-hypothesis top-``b`` select with
  ``np.partition`` along the rows and resolve ties at the boundary by
  id, falling back to a full sort when the vocab is not much larger
  than k;
- a large full ranking first tries the faster unstable sort on the whole
  block and keeps it for each row without ties, since then that row's
  order is unique; the rows with ties are sorted again stably, and a
  block whose rows visibly tie (a repeated smallest value) sorts stably
  at once;
- top-p keeps only the ranked columns that hold some row's kept mass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import TokenSequence
from .errors import ConfigError
from .rng import SplitMix64

STRATEGIES = ("greedy", "beam", "temperature", "topk", "topp", "penalized")

# Which config field carries the strategy's parameter.
_PARAM_FIELD = {
    "greedy": None,
    "beam": "b",
    "temperature": "t",
    "topk": "k",
    "topp": "p",
    "penalized": "theta",
}

# Rows per model call in generate_batch. Whole prefixes fill it in index
# order (a beam prefix takes b rows), so memory stays flat however many
# prefixes a batch has.
MAX_BATCH_ROWS = 128


@dataclass(frozen=True)
class DecoderConfig:
    """Strategy plus its parameter; mismatched pairings are rejected.

    ``t`` may additionally be set alongside ``penalized`` to sample from
    the penalized distribution at a temperature instead of taking its
    argmax.
    """

    strategy: str
    b: int | None = None
    t: float | None = None
    k: int | None = None
    p: float | None = None
    theta: float | None = None
    max_len: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.max_len < 1:
            raise ConfigError("max_len must be at least 1")
        wanted = _PARAM_FIELD[self.strategy]
        for name in ("b", "t", "k", "p", "theta"):
            value = getattr(self, name)
            if name == wanted:
                if value is None:
                    raise ConfigError(f"strategy {self.strategy} needs parameter {name}")
            elif value is not None:
                # Lone exception: penalized composes with a temperature.
                if not (self.strategy == "penalized" and name == "t"):
                    raise ConfigError(
                        f"parameter {name} not valid for strategy {self.strategy}"
                    )
        if self.b is not None and self.b < 1:
            raise ConfigError("beam width must be at least 1")
        if self.t is not None and not self.t > 0:
            raise ConfigError("temperature must be positive")
        if self.k is not None and self.k < 1:
            raise ConfigError("top-k needs k >= 1")
        if self.p is not None and not 0 < self.p <= 1:
            raise ConfigError("top-p needs 0 < p <= 1")
        if self.theta is not None and self.theta < 1:
            raise ConfigError("penalty exponent must be at least 1")

    @property
    def param(self) -> float | int | None:
        """The strategy's scalar parameter, for records and sweep tables."""
        field = _PARAM_FIELD[self.strategy]
        return None if field is None else getattr(self, field)


def param_value(strategy: str, value) -> float | int | None:
    """``value`` as the type of ``strategy``'s parameter field.

    Beam widths and top-k sizes are ints, every other parameter a float;
    None stays None.
    """
    if value is None:
        return None
    return int(value) if _PARAM_FIELD.get(strategy) in ("b", "k") else float(value)


def cell_config(strategy: str, param, max_len: int, seed: int = 0) -> DecoderConfig:
    """The config that decodes the sweep cell ``strategy(param)``."""
    field = _PARAM_FIELD.get(strategy)
    if field is None and param is not None and strategy in _PARAM_FIELD:
        raise ConfigError(f"{strategy} takes no parameter")
    kwargs = {} if field is None else {field: param_value(strategy, param)}
    return DecoderConfig(strategy=strategy, max_len=max_len, seed=seed, **kwargs)


# Partial selection beats a full sort only when the vocab is well past
# k; at |V| = 100 the argsort was faster.
_PARTITION_FACTOR = 16
# From about this many values on, an unstable sort that turns out to have
# no ties is much cheaper than the stable one (5x on an (8, 5001) block).
_QUICKSORT_MIN = 2048


def _rank_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``order = np.argsort(-values, axis=1, kind="stable")`` and the values
    in that order, faster on large tie-free rows.

    Without ties a row's descending order is unique, so any sort finds it:
    a large block tries the unstable sort and sorts again stably the rows
    whose ranking shows a tie (or NaN). A block where some row's smallest
    value repeats (an add-k n-gram's unseen tokens, or zeros) has ties,
    and sorts stably at once.
    """
    if values.shape[1] < _QUICKSORT_MIN or np.any(
        np.count_nonzero(values == values.min(axis=1)[:, None], axis=1) > 1
    ):
        return _sort_rows(values, "stable")
    order, ranked = _sort_rows(values, "quicksort")
    tied = ~np.all(ranked[:, 1:] < ranked[:, :-1], axis=1)
    if tied.any():
        order[tied], ranked[tied] = _sort_rows(values[tied], "stable")
    return order, ranked


def _sort_rows(values: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-values, axis=1, kind=kind)
    return order, np.take_along_axis(values, order, axis=1)


def _top_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Each row's ids of its ``k`` largest values, value desc then id asc.

    Equal to ``_rank_rows(values)[0][:, :k]``.
    """
    if values.shape[1] < _PARTITION_FACTOR * k:
        return _rank_rows(values)[0][:, :k]
    ids = np.argpartition(-values, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(values, ids, axis=1).min(axis=1)
    # The partition's set is exact unless the k-th value has ties beyond
    # it (or NaN is in play); such a row takes every value above the k-th,
    # then the lowest-id ties up to k in all.
    for i in np.flatnonzero(np.count_nonzero(values >= kth[:, None], axis=1) != k).tolist():
        above = np.flatnonzero(values[i] > kth[i])
        tied = np.flatnonzero(values[i] == kth[i])[: k - above.size]
        if above.size + tied.size < k:  # NaN: only the full sort ranks it
            ids[i] = _rank_rows(values[i : i + 1])[0][0, :k]
        else:
            ids[i] = np.concatenate((above, tied))
    ids.sort(axis=1)
    order = np.argsort(-np.take_along_axis(values, ids, axis=1), axis=1, kind="stable")
    return np.take_along_axis(ids, order, axis=1)


def _log_rows(dists: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf where a probability is zero."""
    return np.log(dists, out=np.full(dists.shape, -np.inf), where=dists > 0)


def _temperature_rows(dists: np.ndarray, t: float) -> np.ndarray:
    """Every row's probabilities raised to ``1 / t`` and renormalized over
    its positive entries; zeros stay zero."""
    if t == 1.0:
        return dists.copy()
    mask = dists > 0
    if not mask.any(axis=1).all():
        raise ValueError("temperature needs a distribution with positive mass")
    logw = _log_rows(dists)
    logw /= t
    logw -= logw.max(axis=1)[:, None]
    w = np.exp(logw)
    # One row sums its positive entries alone. Zeros among them change the
    # grouping of numpy's pairwise sum, so only full rows take the block sum.
    total = w.sum(axis=1)
    for i in np.flatnonzero(~mask.all(axis=1)).tolist():
        total[i] = w[i][mask[i]].sum()
    w /= total[:, None]
    return w


def _truncate_rows(dists: np.ndarray, mode: str, value) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k or top-p of every row of a ``(B, |V|)`` block, in rank order.

    Top-k keeps a row's first k ranked tokens, top-p the fewest whose
    mass reaches p. Returns ``(ids, probs, cut)``: each row's token ids
    ranked as the inverse-CDF draw ranks its truncated distribution, their
    truncated probabilities (zero past the kept tokens), and whether the
    row dropped mass and was renormalized. A row that drops no mass keeps
    its input probabilities exactly. Columns that hold no row's mass are
    cut off. The one ranking of the input serves both: dividing by the kept
    mass keeps the order unless it rounds two different probabilities to
    one value, and only such rows rank again.
    """
    if mode == "topk":
        ids = _top_rows(dists, int(value))
        probs = np.take_along_axis(dists, ids, axis=1)
        kept = np.full(len(dists), int(value))
        cut = np.count_nonzero(dists > 0, axis=1) > kept
    else:
        ids, probs = _rank_rows(dists)
        # Zero-mass tokens rank last and never change the cumsum.
        kept = np.count_nonzero(np.cumsum(probs, axis=1) < value, axis=1) + 1
        support = np.count_nonzero(probs > 0, axis=1)
        cut = support > kept
        width = max(1, int(np.where(cut, kept, support).max()))
        ids, probs = ids[:, :width], probs[:, :width]
    if cut.any():
        raw, ranked, kept = probs[cut], ids[cut], kept[cut][:, None]
        width = int(kept.max())
        kept_probs = np.where(np.arange(raw.shape[1]) < kept, raw, 0.0)
        # One row renormalizes by the sum of its whole zero-filled vector.
        out = np.zeros((len(raw), dists.shape[1]))
        out[np.arange(len(raw))[:, None], ranked[:, :width]] = kept_probs[:, :width]
        total = out.sum(axis=1)[:, None]
        new = kept_probs / total
        merged = ((raw[:, :-1] > raw[:, 1:]) & (new[:, :-1] == new[:, 1:]) & (new[:, 1:] > 0)).any(axis=1)
        if merged.any():
            order, ranked_out = _rank_rows(out[merged] / total[merged])
            ranked[merged], new[merged] = order[:, : raw.shape[1]], ranked_out[:, : raw.shape[1]]
        ids[cut], probs[cut] = ranked, new
    return ids, probs, cut


def _penalize_rows(dists: np.ndarray, seen: np.ndarray, theta: float) -> np.ndarray:
    """Every row with the log-probabilities of its generated tokens (``seen[i]``
    marks those of row i) scaled by ``theta``, softmax-renormalized; theta =
    1 is the identity, larger theta pushes repeated tokens down."""
    logp = _log_rows(dists)
    np.multiply(logp, theta, out=logp, where=seen)  # -inf stays -inf
    w = np.exp(logp - logp.max(axis=1)[:, None])
    return w / w.sum(axis=1)[:, None]


def _draw(ids: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one token per row.

    ``probs`` holds each row's probabilities in rank order (the support
    first, zeros after) and ``ids`` their tokens. Row i takes the first
    token whose cumulative mass exceeds ``u[i]``, the last of the support
    when round-off leaves ``u[i]`` past it, and token 0 when the row has
    no mass at all.
    """
    cum = np.cumsum(probs, axis=1)
    n = np.count_nonzero(probs > 0, axis=1)
    at = np.minimum(np.count_nonzero(cum <= u[:, None], axis=1), n - 1)
    toks = np.take_along_axis(ids, np.maximum(at, 0)[:, None], axis=1)[:, 0]
    return np.where(n > 0, toks, 0)


def _choose(dists: np.ndarray, cfg: DecoderConfig, rngs: list[SplitMix64], seen: np.ndarray) -> np.ndarray:
    """The next token of every row of ``dists`` for every strategy but beam.

    Row i draws one uniform from ``rngs[i]`` when the strategy samples;
    ``seen`` marks the tokens each row has generated.
    """
    if cfg.strategy == "greedy":
        return np.argmax(dists, axis=1)
    mode, value = cfg.strategy, cfg.param
    if cfg.strategy == "penalized":
        dists = _penalize_rows(dists, seen, cfg.theta)
        if cfg.t is None:
            return np.argmax(dists, axis=1)
        mode, value = "temperature", cfg.t
    u = np.array([rng.uniform() for rng in rngs])
    if mode == "temperature":
        ids, probs = _rank_rows(_temperature_rows(dists, value))
    else:
        ids, probs, _ = _truncate_rows(dists, mode, value)
    return _draw(ids, probs, u)


def _context_ids(prefix) -> tuple[int, ...]:
    return tuple(prefix.ids) if isinstance(prefix, TokenSequence) else tuple(prefix)


def _tail(ids, n: int | None):
    """The last ``n`` of ``ids``; all of them when ``n`` is None."""
    return ids if n is None else ids[max(0, len(ids) - n) :]


def generate_batch(model, prefixes, cfgs) -> list[TokenSequence]:
    """Decode one continuation per prefix, all prefixes in lockstep.

    Each continuation holds ``max_len`` tokens after its prefix, which
    conditions it but is not part of the output. Greedy and beam are
    deterministic; beam breaks score ties lexicographically on the
    token-id sequence.

    ``cfgs[i]`` decodes ``prefixes[i]``. The configs may differ only in
    ``seed``; row i draws from its own SplitMix64 stream seeded with
    ``cfgs[i].seed``. Every step asks the model for the next-token
    distributions of all live rows (each prefix, or each beam
    hypothesis) at once, through ``next_dist_batch``. A model call
    takes at most ``MAX_BATCH_ROWS`` rows, filled with whole prefixes in
    index order. The tokens of a step are chosen for the whole block by
    the rules of a single-prefix decode, so the output equals decoding
    each prefix alone whenever the model's batched rows equal its
    single rows.
    """
    prefixes = [_context_ids(p) for p in prefixes]
    cfgs = list(cfgs)
    if len(cfgs) != len(prefixes):
        raise ConfigError("generate_batch needs one config per prefix")
    if not cfgs:
        return []
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ConfigError("configs of one batch may differ only in seed")
    vocab_size = model.vocab.size
    if cfg.k is not None and cfg.k > vocab_size:
        raise ConfigError(f"top-k k={cfg.k} exceeds vocab size {vocab_size}")
    if cfg.strategy == "beam":
        decode, per_call = _beam_rows, max(1, MAX_BATCH_ROWS // cfg.b)
    else:
        decode, per_call = _sample_rows, MAX_BATCH_ROWS
    out: list[TokenSequence] = []
    for lo in range(0, len(prefixes), per_call):
        for ids in decode(model, prefixes[lo : lo + per_call], cfgs[lo : lo + per_call]):
            out.append(TokenSequence(tuple(ids), model.vocab))
    return out


def _next_dists(model, contexts: list) -> np.ndarray:
    """``(len(contexts), |V|)`` next-token distributions, one row per context."""
    return np.asarray(model.next_dist_batch(contexts), dtype=np.float64)


def token_prob_trace(model, seq, truncation: tuple[str, float] | None = None, context=()):
    """Raw and truncated probability of each token of ``seq`` after
    ``context`` and the tokens before it, as two float arrays.

    The distributions of all positions come from ``next_dist_batch``, at
    most ``MAX_BATCH_ROWS`` rows per call. ``truncation`` is None or a
    ("topk"|"topp", value) pair that :func:`_truncate_rows` applies, the
    code the decoder samples from; a token the truncation drops has
    truncated probability 0.
    """
    ids, ctx = _context_ids(seq), _context_ids(context)
    if truncation is not None:
        mode, value = truncation
        if mode not in ("topk", "topp"):
            raise ConfigError(f"unknown truncation mode {mode!r}")
        if mode == "topk" and not 1 <= value <= model.vocab.size:
            raise ConfigError(f"top-k needs 1 <= k <= {model.vocab.size}")
        if mode == "topp" and not 0 < value <= 1:
            raise ConfigError("top-p needs 0 < p <= 1")
    window, start, ctx = model.context_len, len(ctx), ctx + ids
    raw, trunc = np.empty(len(ids)), np.empty(len(ids))
    for lo in range(0, len(ids), MAX_BATCH_ROWS):
        hi = min(lo + MAX_BATCH_ROWS, len(ids))
        ends = range(start + lo, start + hi)
        dists = _next_dists(model, [ctx[0 if window is None else max(0, e - window) : e] for e in ends])
        toks = np.array(ids[lo:hi], dtype=np.int64)
        raw[lo:hi] = dists[np.arange(hi - lo), toks]
        if truncation is None:
            trunc[lo:hi] = raw[lo:hi]
        else:
            kept, probs, _ = _truncate_rows(dists, mode, value)
            trunc[lo:hi] = np.where(kept == toks[:, None], probs, 0.0).sum(axis=1)
    return raw, trunc


def _sample_rows(model, prefixes: list[tuple[int, ...]], cfgs: list[DecoderConfig]) -> list:
    cfg = cfgs[0]
    window = model.context_len
    rngs = [SplitMix64(c.seed) for c in cfgs]
    ctxs = [list(p) for p in prefixes]
    rows = np.arange(len(prefixes))
    seen = None
    for _ in range(cfg.max_len):
        dists = _next_dists(model, [_tail(ctx, window) for ctx in ctxs])
        if seen is None:
            seen = np.zeros(dists.shape, dtype=bool)
        toks = _choose(dists, cfg, rngs, seen)
        seen[rows, toks] = True
        for ctx, tok in zip(ctxs, toks.tolist()):
            ctx.append(tok)
    return [ctx[len(p) :] for ctx, p in zip(ctxs, prefixes)]


def _beam_rows(model, prefixes: list[tuple[int, ...]], cfgs: list[DecoderConfig]) -> list:
    # Hypotheses are (ids, score); score is the summed log-probability of
    # the continuation tokens only.
    width = cfgs[0].b
    window = model.context_len
    heads = [_tail(p, window) for p in prefixes]
    beams: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in prefixes]
    for _ in range(cfgs[0].max_len):
        contexts = [
            _tail(head + _tail(ids, window), window)
            for head, hyps in zip(heads, beams)
            for ids, _ in hyps
        ]
        logp = _log_rows(_next_dists(model, contexts))
        # Keeping only the per-hypothesis top ``width`` tokens is exact:
        # anything dropped is dominated by width better candidates that
        # share its prefix, under the same (score, ids) order.
        top = _top_rows(logp, width)
        tops = iter(zip(top.tolist(), np.take_along_axis(logp, top, axis=1).tolist()))
        for i, hyps in enumerate(beams):
            candidates: list[tuple[tuple[int, ...], float]] = []
            for (ids, score), (toks, logps) in zip(hyps, tops):
                for tok, lp in zip(toks, logps):
                    candidates.append((ids + (tok,), score + lp))
            candidates.sort(key=lambda c: (-c[1], c[0]))
            beams[i] = candidates[:width]
    return [hyps[0][0] for hyps in beams]
