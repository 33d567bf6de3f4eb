"""Decoding strategies over next-token distributions.

Six strategies: greedy, beam(b), temperature(t), top-k(k), top-p(p), and
penalized(theta). The stochastic ones draw exactly one uniform variate
per emitted token from the splitmix generator in :mod:`genteval.rng`, so
a (model, prefix, config, seed) tuple always reproduces the same
continuation. Continuations have fixed length ``max_len``; there is no
end-of-sequence token.

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

from dataclasses import dataclass
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
    score ties lexicographically on the token-id sequence. A model with a
    ``context_len`` attribute receives only that many trailing ids.
    """
    vocab_size = model.vocab.size
    if cfg.k is not None and cfg.k > vocab_size:
        raise ConfigError(f"top-k k={cfg.k} exceeds vocab size {vocab_size}")
    if cfg.strategy == "beam":
        ids = _beam_search(model, _context_ids(prefix), cfg.b, cfg.max_len)
        return TokenSequence(ids, model.vocab)
    window = getattr(model, "context_len", None)
    rng = SplitMix64(cfg.seed)
    ctx = list(_context_ids(prefix))
    out: list[int] = []
    for _ in range(cfg.max_len):
        dist = np.asarray(model.next_dist(_tail(ctx, window)), dtype=np.float64)
        if cfg.strategy == "greedy":
            tok = int(np.argmax(dist))
        elif cfg.strategy == "temperature":
            tok = sample(truncate_renormalize(dist, "temperature", cfg.t), rng)
        elif cfg.strategy == "topk":
            tok = sample(truncate_renormalize(dist, "topk", cfg.k), rng)
        elif cfg.strategy == "topp":
            tok = sample(truncate_renormalize(dist, "topp", cfg.p), rng)
        else:  # penalized
            pdist = penalize(dist, out, cfg.theta)
            if cfg.t is not None:
                tok = sample(truncate_renormalize(pdist, "temperature", cfg.t), rng)
            else:
                tok = int(np.argmax(pdist))
        out.append(tok)
        ctx.append(tok)
    return TokenSequence(tuple(out), model.vocab)


def _beam_search(model, prefix: tuple[int, ...], width: int, max_len: int) -> tuple[int, ...]:
    # Hypotheses are (ids, score); score is the summed log-probability of
    # the continuation tokens only.
    window = getattr(model, "context_len", None)
    prefix = _tail(prefix, window)
    beams: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    for _ in range(max_len):
        candidates: list[tuple[tuple[int, ...], float]] = []
        for ids, score in beams:
            context = _tail(prefix + _tail(ids, window), window)
            dist = np.asarray(model.next_dist(context), dtype=np.float64)
            logp = np.full(dist.size, -np.inf)
            mask = dist > 0
            logp[mask] = np.log(dist[mask])
            # Keeping only the per-beam top ``width`` tokens is exact:
            # anything dropped is dominated by width better candidates
            # that share its prefix, under the same (score, ids) order.
            for tok in top_ids(logp, width):
                candidates.append((ids + (int(tok),), score + float(logp[tok])))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        beams = candidates[:width]
    return beams[0][0]
