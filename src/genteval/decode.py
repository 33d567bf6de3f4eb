"""Decoding strategies over next-token distributions.

Six strategies: greedy, beam(b), temperature(t), top-k(k), top-p(p), and
penalized(theta). The stochastic ones draw exactly one uniform variate
per emitted token from the splitmix generator in :mod:`genteval.rng`, so
a (model, prefix, config, seed) tuple always reproduces the same
continuation. Continuations have fixed length ``max_len``; there is no
end-of-sequence token.

Because every continuation has the same length, the prefixes of a batch
decode in lockstep (:func:`generate_batch`): one model call per step
returns a ``(B, |V|)`` array holding the next-token distribution of
every prefix, or of every live beam hypothesis of every prefix. Tokens
are then chosen row by row exactly as a one-prefix decode chooses them;
greedy takes a row-wise argmax. :func:`generate` is the one-prefix case.
A model's batched rows may differ from its single rows in the last bits
(the ffn's matrix products depend on the batch), so a continuation is a
function of the batch it was decoded in; callers that must agree, such
as ``genteval generate`` and a sweep cell, batch the same prefixes.

Every ranking of tokens is probability (or log-probability) descending
with ties broken toward the lower id, i.e. a stable argsort of the
negated values. One decode step costs O(|V|) numpy work plus sorts sized
by what is kept, not by the vocab:

- a model that declares ``context_len`` is handed only that many
  trailing ids, so a step does not copy the whole context;
- top-k and the beam's per-hypothesis top-``b`` select with
  ``np.partition`` and resolve ties at the boundary by id, falling back
  to a full sort when the vocab is not much larger than k;
- ``sample`` and top-p sort only the tokens with positive probability.
  Zero-mass tokens sort last and add nothing to a sequential cumsum, so
  the sorted prefix, its cumsum and every outcome are unchanged;
- a large full ranking first tries the faster unstable sort and keeps
  it when the result has no ties, since then the order is unique.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

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


def _check_dist(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 1 or dist.size == 0:
        raise ConfigError("distribution must be a non-empty vector")
    return dist


# Partial selection beats a full sort only when the vocab is well past
# k; at |V| = 100 the argsort was faster.
_PARTITION_FACTOR = 16
# From about this many values on, an unstable sort that turns out to have
# no ties is much cheaper than the stable one (4x at |V| = 5000).
_QUICKSORT_MIN = 2048


def _rank(values: np.ndarray) -> np.ndarray:
    """``np.argsort(-values, kind="stable")``, faster on large tie-free input.

    Without ties the descending order is unique, so any sort finds it;
    the stable sort runs only when ties (or NaN) are present.
    """
    if values.size >= _QUICKSORT_MIN:
        order = np.argsort(-values)
        ranked = values[order]
        if np.all(ranked[1:] < ranked[:-1]):
            return order
    return np.argsort(-values, kind="stable")


def top_ids(values: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` largest values, value descending then id ascending.

    Equal to ``np.argsort(-values, kind="stable")[:k]``.
    """
    n = values.size
    if n < _PARTITION_FACTOR * k:
        return _rank(values)[:k]
    kth = -np.partition(-values, k - 1)[k - 1]
    above = np.flatnonzero(values > kth)
    tied = np.flatnonzero(values == kth)[: k - above.size]
    ids = np.concatenate((above, tied))
    if ids.size < k:  # NaN among the values: only the full sort ranks them
        return _rank(values)[:k]
    return ids[np.argsort(-values[ids], kind="stable")]


def _support_order(dist: np.ndarray) -> np.ndarray:
    """Tokens with positive probability, probability desc then id asc.

    This is the prefix of the full order that carries all the mass; an
    all-zero (degenerate) vector keeps the full order.
    """
    support = np.flatnonzero(dist > 0)
    if support.size == 0:
        support = np.arange(dist.size)
    return support[_rank(dist[support])]


def truncate_renormalize(dist: np.ndarray, mode: str, value: float) -> np.ndarray:
    """Transform a distribution by top-k, top-p, or temperature.

    Ordering for both truncations is probability descending with ties
    broken toward the lower token id. When no probability mass is
    actually dropped the input is returned unchanged (as a copy), which
    keeps topk(|V|), topp(1.0), and temperature(1.0) exact identities.
    """
    dist = _check_dist(dist)
    n = dist.size
    if mode == "temperature":
        if not value > 0:
            raise ConfigError("temperature must be positive")
        if value == 1.0:
            return dist.copy()
        out = np.zeros_like(dist)
        mask = dist > 0
        logw = np.log(dist[mask]) / value
        logw -= logw.max()
        w = np.exp(logw)
        out[mask] = w / w.sum()
        return out
    if mode == "topk":
        k = int(value)
        if not 1 <= k <= n:
            raise ConfigError(f"top-k needs 1 <= k <= {n}")
        if k == n:
            return dist.copy()
        keep = top_ids(dist, k)
    elif mode == "topp":
        p = float(value)
        if not 0 < p <= 1:
            raise ConfigError("top-p needs 0 < p <= 1")
        # Zero-mass tokens never change the cumsum, so keeping or
        # dropping them leaves the result unchanged.
        order = _support_order(dist)
        cum = np.cumsum(dist[order])
        cutoff = int(np.searchsorted(cum, p, side="left"))
        keep = order[: cutoff + 1]
    else:
        raise ConfigError(f"unknown truncation mode {mode!r}")
    dropped = np.ones(n, dtype=bool)
    dropped[keep] = False
    if not np.any(dist[dropped] > 0):
        return dist.copy()
    out = np.zeros_like(dist)
    out[keep] = dist[keep]
    return out / out.sum()


def penalize(dist: np.ndarray, generated: Iterable[int], theta: float) -> np.ndarray:
    """Scale log-probabilities of already-generated tokens by theta.

    Works in the log domain: penalized tokens get theta * ln(p), all
    others keep ln(p), and the result is softmax-renormalized. theta = 1
    is the identity; larger theta pushes repeated tokens down.
    """
    dist = _check_dist(dist)
    if theta < 1:
        raise ConfigError("penalty exponent must be at least 1")
    mask = dist > 0
    logp = np.full(dist.size, -np.inf)
    logp[mask] = np.log(dist[mask])
    for i in set(generated):
        if logp[i] != -np.inf:
            logp[i] *= theta
    top = logp.max()
    w = np.exp(logp - top)
    return w / w.sum()


def sample(dist: np.ndarray, rng: SplitMix64) -> int:
    """Inverse-CDF draw over tokens ordered (prob desc, id asc).

    Consumes exactly one uniform variate; u = 0 selects the
    highest-probability token.
    """
    dist = _check_dist(dist)
    order = _support_order(dist)
    cum = np.cumsum(dist[order])
    u = rng.uniform()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= order.size:
        idx = order.size - 1
    # Guard against float round-off leaving u past the last positive mass.
    while idx > 0 and dist[order[idx]] == 0:
        idx -= 1
    return int(order[idx])


def _context_ids(prefix) -> tuple[int, ...]:
    return tuple(prefix.ids) if isinstance(prefix, TokenSequence) else tuple(prefix)


def _tail(ids, n: int | None):
    """The last ``n`` of ``ids``; all of them when ``n`` is None."""
    return ids if n is None else ids[max(0, len(ids) - n) :]


def generate(model, prefix, cfg: DecoderConfig) -> TokenSequence:
    """Decode a continuation of ``cfg.max_len`` tokens after ``prefix``.

    Returns only the continuation; the prefix conditions it but is not
    part of the output. Greedy and beam are deterministic; beam breaks
    score ties lexicographically on the token-id sequence. This is the
    one-prefix case of :func:`generate_batch`.
    """
    return generate_batch(model, [prefix], [cfg])[0]


def generate_batch(model, prefixes, cfgs) -> list[TokenSequence]:
    """Decode one continuation per prefix, all prefixes in lockstep.

    ``cfgs[i]`` decodes ``prefixes[i]``. The configs may differ only in
    ``seed``; row i draws from its own SplitMix64 stream seeded with
    ``cfgs[i].seed``. Every step asks the model for the next-token
    distributions of all live rows (each prefix, or each beam
    hypothesis) at once, through ``next_dist_batch`` when the model has
    it and by stacking ``next_dist`` rows otherwise. A model call takes
    at most ``MAX_BATCH_ROWS`` rows, filled with whole prefixes in index
    order. Tokens are then chosen row by row by the rules of a
    single-prefix decode, so the output equals decoding each prefix
    alone whenever the model's batched rows equal its single rows.
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
    batch = getattr(model, "next_dist_batch", None)
    if batch is None:
        return np.stack([np.asarray(model.next_dist(c), dtype=np.float64) for c in contexts])
    return np.asarray(batch(contexts), dtype=np.float64)


def _pick(dist: np.ndarray, cfg: DecoderConfig, out: list[int], rng: SplitMix64) -> int:
    """One row's next token for every strategy but greedy and beam."""
    if cfg.strategy != "penalized":  # temperature, topk, topp
        return sample(truncate_renormalize(dist, cfg.strategy, cfg.param), rng)
    pdist = penalize(dist, out, cfg.theta)
    if cfg.t is not None:
        return sample(truncate_renormalize(pdist, "temperature", cfg.t), rng)
    return int(np.argmax(pdist))


def _sample_rows(model, prefixes: list[tuple[int, ...]], cfgs: list[DecoderConfig]) -> list:
    cfg = cfgs[0]
    window = getattr(model, "context_len", None)
    rngs = [SplitMix64(c.seed) for c in cfgs]
    ctxs = [list(p) for p in prefixes]
    outs: list[list[int]] = [[] for _ in prefixes]
    for _ in range(cfg.max_len):
        dists = _next_dists(model, [_tail(ctx, window) for ctx in ctxs])
        if cfg.strategy == "greedy":
            toks = np.argmax(dists, axis=1).tolist()
        else:
            toks = [_pick(dist, cfg, out, rng) for dist, out, rng in zip(dists, outs, rngs)]
        for ctx, out, tok in zip(ctxs, outs, toks):
            ctx.append(tok)
            out.append(tok)
    return outs


def _beam_rows(model, prefixes: list[tuple[int, ...]], cfgs: list[DecoderConfig]) -> list:
    # Hypotheses are (ids, score); score is the summed log-probability of
    # the continuation tokens only.
    width = cfgs[0].b
    window = getattr(model, "context_len", None)
    heads = [_tail(p, window) for p in prefixes]
    beams: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in prefixes]
    for _ in range(cfgs[0].max_len):
        contexts = [
            _tail(head + _tail(ids, window), window)
            for head, hyps in zip(heads, beams)
            for ids, _ in hyps
        ]
        rows = iter(_next_dists(model, contexts))
        for i, hyps in enumerate(beams):
            candidates: list[tuple[tuple[int, ...], float]] = []
            for (ids, score), dist in zip(hyps, rows):
                # The log is taken per row: over the whole (B, |V|) array
                # it costs more on the n-gram's mostly-constant rows.
                logp = np.full(dist.size, -np.inf)
                mask = dist > 0
                logp[mask] = np.log(dist[mask])
                # Keeping only the per-beam top ``width`` tokens is exact:
                # anything dropped is dominated by width better candidates
                # that share its prefix, under the same (score, ids) order.
                for tok in top_ids(logp, width):
                    candidates.append((ids + (int(tok),), score + float(logp[tok])))
            candidates.sort(key=lambda c: (-c[1], c[0]))
            beams[i] = candidates[:width]
    return [hyps[0][0] for hyps in beams]
