"""Decoding strategies over next-token distributions.

Six strategies: greedy, beam(b), temperature(t), top-k(k), top-p(p), and
penalized(theta). One table holds each one's parameter flag, type and
valid range; :class:`DecoderConfig`, which carries the parameter in its
one ``param`` field, the sweep grid, the ``generate`` flags and ``trace
--truncate`` all read it. A decode is one config and one seed per
prefix. The stochastic strategies draw exactly one uniform variate per
emitted token from the splitmix generator in :mod:`genteval.rng`,
seeded with the prefix's seed (a decode takes each row's ``max_len``
uniforms at once), so a (model, prefix, config, seed) tuple always
reproduces the same continuation. Continuations have fixed length
``max_len``; there is no end-of-sequence token.

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
negated values, but a sampled token needs no such ranking. Its draw
needs the ranked values, which are the row sorted in descending order,
and the id at the drawn rank: the ``r``-th lowest id among those holding
the drawn value, ``r`` being the rank less the number of larger values.
Truncation and the draw share one ``np.sort``: a truncated row's sorted
values are its first kept ones divided by the kept mass, and the id
lookup runs on the renormalized row itself, so two probabilities that
the division rounds to one value rank by id, as a ranking of that row
would. Each row's choice is bit-identical to choosing it alone, because
every floating-point operation that decides it sees the same operands
in the same order:

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
- maxima, sorts, comparisons and counts are exact.

One decode step costs O(|V|) numpy work per row plus sorts:

- a decode holds its ids in one matrix, prefixes -1-padded on the left,
  and hands the model its last ``context_len`` columns (all if None);
- a beam step picks each hypothesis's top ``b`` from the probabilities,
  which the log does not reorder, and takes the log of the picks only;
  a row ranks its whole log only where a log could merge its ``b``-th
  pick with a different probability: the ``b``-th probability is not
  positive, or the largest below it or a larger pick has the same log;
- a row's top k is every value above its k-th and that value's
  lowest-id ties: top-k and top-p truncation (top-p's k being its kept
  count) and a beam's top b + 1 of more than 8 picks share one routine
  for that kept set, read off one ``np.sort`` of the rows; a top of at
  most 8 picks takes that many passes of ``argmax``, and a row whose
  last pick is -inf or NaN sorts in full;
- a beam step merges the candidates of every prefix with one
  ``np.lexsort`` along the rows, by (-score, parent's rank, token): each
  hypothesis carries the rank of its id tuple within its beam, so that
  order is the (-score, id tuple) order a one-prefix beam sorts by;
- a top-k or top-p draw sums only the sorted columns that hold some
  row's kept mass; the kept set's last tie and a drawn token's id are
  both the r-th lowest id holding a value, found for the whole block
  with one ``np.flatnonzero``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .lm.base import exp_rows, id_lines, left_padded
from .rng import SplitMix64


class _Param(NamedTuple):
    flag: str  # the ``generate`` flag that carries the parameter
    type: type
    valid: Callable[[float], bool]
    error: str


# The strategy table: each strategy's parameter flag, type, valid range
# and range error, in the order of the ``generate`` flags. Greedy takes
# no parameter.
_PARAMS: dict[str, _Param | None] = {
    "greedy": None,
    "beam": _Param("b", int, lambda b: b >= 1, "beam width must be at least 1"),
    "temperature": _Param("t", float, lambda t: 0 < t < math.inf, "temperature must be positive and finite"),
    "topk": _Param("k", int, lambda k: k >= 1, "top-k needs k >= 1"),
    "topp": _Param("p", float, lambda p: 0 < p <= 1, "top-p needs 0 < p <= 1"),
    "penalized": _Param("theta", float, lambda theta: 1 <= theta < math.inf,
                        "penalty exponent must be at least 1 and finite"),
}
# Parameter flag -> (its strategy, its type), for front ends that take one flag per strategy.
PARAM_FLAGS = {spec.flag: (strategy, spec.type) for strategy, spec in _PARAMS.items() if spec is not None}
_ALIASES = {"temp": "temperature"}

# Rows per model call in generate_batch. Whole prefixes fill it in index
# order (a beam prefix takes b rows), so memory stays flat however many
# prefixes a batch has.
MAX_BATCH_ROWS = 128


@dataclass(frozen=True)
class DecoderConfig:
    """Strategy plus its parameter; bad pairings and out-of-range values are rejected.

    ``param`` is the strategy's parameter as the table's type: b, t, k,
    p or theta, and None for greedy. ``t`` may be set alongside
    ``penalized`` only, to sample from the penalized distribution at that
    temperature instead of taking its argmax.
    """

    strategy: str
    param: float | int | None = None
    max_len: int = 100
    t: float | None = None

    def __post_init__(self) -> None:
        if self.strategy not in _PARAMS:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if isinstance(self.max_len, bool) or not isinstance(self.max_len, (int, np.integer)):
            raise ConfigError(f"max_len must be an integer, not {self.max_len!r}")
        if self.max_len < 1:
            raise ConfigError("max_len must be at least 1")
        spec = _PARAMS[self.strategy]
        if spec is None and self.param is not None:
            raise ConfigError(f"{self.strategy} takes no parameter")
        if spec is not None and self.param is None:
            raise ConfigError(f"strategy {self.strategy} needs parameter {spec.flag}")
        if self.t is not None and self.strategy != "penalized":
            raise ConfigError(f"parameter t not valid for strategy {self.strategy}")
        object.__setattr__(self, "param", _checked(self.strategy, self.param))
        object.__setattr__(self, "t", _checked("temperature", self.t))

    def check_vocab(self, vocab_size: int) -> None:
        """Reject a top-k larger than the vocab it is to decode over."""
        if self.strategy == "topk" and self.param > vocab_size:
            raise ConfigError(f"top-k needs k <= {vocab_size}, the vocab size; got k={self.param}")


def _checked(strategy: str, value):
    """``value`` as the type of ``strategy``'s parameter, refused outside its range; None stays None."""
    if value is None:
        return None
    spec = _PARAMS[strategy]
    if isinstance(value, str):
        raise ConfigError(f"parameter {spec.flag} must be a number, not {value!r}")
    value = param_value(strategy, value)
    if not spec.valid(value):
        raise ConfigError(spec.error)
    return value


def strategy_name(name: str) -> str:
    """``name``, or the strategy it is an alias of (``temp``); unknown names are rejected."""
    name = _ALIASES.get(name, name)
    if name not in _PARAMS:
        raise ConfigError(f"unknown strategy {name!r}")
    return name


def param_value(strategy: str, value) -> float | int | None:
    """``value``, a number or its text, as the type of ``strategy``'s
    parameter (a float if it has none); None stays None.

    Text that does not parse as that type raises ValueError. A number that
    is a bool or no real number, or that an int parameter would truncate,
    is a config error.
    """
    if value is None:
        return None
    spec = _PARAMS.get(strategy)
    kind = float if spec is None else spec.type
    if isinstance(value, str):
        return kind(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer())):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"the parameter of {strategy} must be {what}, not {value!r}")
    return kind(value)


def parse_strategies(raw) -> tuple[tuple[str, tuple], ...]:
    """The grid "greedy;topp:0.2,0.9", or its list of (name, params) pairs,
    with aliases resolved and each param as its strategy's type; a name
    without params gets the one param None. :class:`DecoderConfig` checks
    each cell; a param that is not a number raises ValueError.
    """
    if isinstance(raw, str):
        parts = [p.strip().partition(":") for p in raw.split(";") if p.strip()]
        raw = [(name.strip(), params.split(",") if params else [None]) for name, _, params in parts]
    out = []
    for name, params in raw:
        name = strategy_name(name)
        out.append((name, tuple(param_value(name, x) for x in params)))
    return tuple(out)


# Up to this k, k argmax passes over the block beat the sorted kept set:
# on an (80, 100) n-gram beam block at k = 5, 58 us against 152.
_ARGMAX_MAX_K = 8


def _nth_true(hit: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Each row's column of its ``r[i]``-th True (from 0) in ``hit``.

    The flat positions of the Trues run row by row and id by id, so row
    i's start where its offset ``i * width`` sorts in.
    """
    at = np.flatnonzero(hit)
    starts = np.arange(len(hit)) * hit.shape[1]
    return at[np.searchsorted(at, starts) + r] - starts


def _top_mask(x: np.ndarray, kth: np.ndarray, past: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Each row's mask of its ``n[i]`` largest values, ties to the lowest ids.

    ``kth`` (a column) holds each row's ``n``-th largest value and ``past``
    the one after it. A row keeps every value above its ``kth``, and where
    ``past`` ties it, the ``kth`` ties up to its need-th, need being n less
    the larger values.
    """
    keep = x >= kth
    tied = np.flatnonzero(past == kth[:, 0])
    if tied.size:
        xt, kt = x[tied], kth[tied]
        above, hit = xt > kt, xt == kt
        last = _nth_true(hit, n[tied] - np.count_nonzero(above, axis=1) - 1)
        keep[tied] = above | hit & (np.arange(x.shape[1]) <= last[:, None])
    return keep


def _top_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Each row's ids of its ``k`` largest values, value desc then id asc.

    Equal to ``np.argsort(-values, axis=1, kind="stable")[:, :k]``.
    """
    width = values.shape[1]
    if k >= width:
        return np.argsort(-values, axis=1, kind="stable")
    # NaN reads as -inf; a row whose k-th pick is -inf has fewer than k
    # values above it and sorts in full, where NaN ranks after -inf.
    hidden, rows = np.fmax(values, -np.inf), np.arange(len(values))
    if k <= _ARGMAX_MAX_K:
        # An argmax takes a tie's lowest id, as the stable sort does; each
        # pass hides the pick before it.
        ids = np.empty((len(values), k), dtype=np.int64)
        for j in range(k):
            if j:
                hidden[rows, ids[:, j - 1]] = -np.inf
            ids[:, j] = np.argmax(hidden, axis=1)
        last = hidden[rows, ids[:, -1]]
    else:
        # The top-k kept set of truncation, in id order, then ranked. A stable
        # argsort is faster on tie-heavy n-gram rows but 6-14x slower on rows
        # of distinct values: 34 ms against 5 on an (80, 5001) ffn block at k = 9.
        top = np.sort(hidden, axis=1)
        last = top[:, width - k]
        keep = _top_mask(hidden, last[:, None], top[:, width - k - 1], np.full(len(values), k))
        ids = np.flatnonzero(keep).reshape(len(values), k) - rows[:, None] * width
        ids = ids[rows[:, None], np.argsort(-hidden[rows[:, None], ids], axis=1, kind="stable")]
    short = last == -np.inf
    if short.any():
        ids[short] = np.argsort(-values[short], axis=1, kind="stable")[:, :k]
    return ids


def _log_rows(dists: np.ndarray) -> np.ndarray:
    """Elementwise log, -inf where a probability is zero, negative or NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.log(dists)
    return np.fmax(w, -np.inf, out=w)


def _beam_top(dists: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``_top_rows(logp, b)`` and its values, ``logp`` being ``_log_rows(dists)``,
    with the log taken of the picks only except in the rows where a log
    could merge the ``b``-th pick with a different probability."""
    top = _top_rows(dists, b + 1)
    picks = dists[np.arange(len(dists))[:, None], top]
    m = min(b, dists.shape[1])
    if top.shape[1] == m:  # every id is picked
        return top, _log_rows(picks)
    # Column m becomes the largest value below the b-th; where the next pick
    # ties the b-th, that value lies past the picks.
    last = picks[:, m - 1 : m]
    tie = np.flatnonzero(picks[:, m] == last[:, 0])
    if tie.size:
        x = dists[tie]
        picks[tie, m] = np.max(x, axis=1, initial=-np.inf, where=x < last[tie])
    logp = _log_rows(picks)
    merged = (logp == logp[:, m - 1 : m]) & (picks != last)
    redo = np.flatnonzero(~(last[:, 0] > 0) | merged.any(axis=1))
    if redo.size:
        full = _log_rows(dists[redo])
        top[redo, :m] = _top_rows(full, b)
        logp[redo, :m] = full[np.arange(redo.size)[:, None], top[redo, :m]]
    return top[:, :m], logp[:, :m]


def _temperature_rows(dists: np.ndarray, t: float) -> np.ndarray:
    """Every row's probabilities raised to ``1 / t`` and renormalized over
    its positive entries; zeros stay zero."""
    if t == 1.0:
        return dists.copy()
    mask = dists > 0
    if not mask.any(axis=1).all():
        raise ValueError("temperature needs a distribution with positive mass")
    w = _log_rows(dists)
    w /= t
    # One row sums its positive entries alone. Zeros among them change the
    # grouping of numpy's pairwise sum, so only full rows take the block sum.
    total, _ = exp_rows(w)
    for i in np.flatnonzero(~mask.all(axis=1)).tolist():
        total[i] = w[i][mask[i]].sum()
    w /= total[:, None]
    return w


def _truncate_rows(dists: np.ndarray, mode: str, value) -> tuple[np.ndarray, np.ndarray]:
    """Top-k or top-p of every row of a ``(B, |V|)`` block.

    Top-k keeps a row's first k ranked tokens, top-p the fewest whose
    mass reaches p. Returns ``(kept, top)``: the truncated distributions
    in id order, and their values sorted in descending order, in as many
    columns as the most any row keeps. A row that drops no mass keeps its
    input probabilities exactly. A truncated row keeps every value above
    its kept-th value and the lowest-id ties of that value, divided by the
    sum of the zero-filled row.
    """
    v = dists.shape[1]
    top = np.sort(dists, axis=1)[:, ::-1]
    if mode == "topk":
        n = np.full(len(dists), int(value))
    else:
        # Zero-mass tokens sort last and never change the cumsum.
        n = np.minimum(np.count_nonzero(np.cumsum(top, axis=1) < value, axis=1) + 1, v)
    # A row drops mass where the value past its kept ones is positive.
    past = top[np.arange(len(dists)), np.minimum(n, v - 1)]
    cut = np.flatnonzero((n < v) & (past > 0))
    # Comparisons run at half speed on the reversed view of a sort.
    top = np.ascontiguousarray(top[:, : int(n.max())])
    if not cut.size:
        return dists, top
    x, n = dists[cut], n[cut]
    keep = _top_mask(x, top[cut, n - 1][:, None], past[cut], n)
    # A probability row is zero-filled by multiplying with the mask, three
    # times as fast as np.where. One row renormalizes by the sum of its
    # whole zero-filled vector.
    x *= keep
    total = x.sum(axis=1)[:, None]
    x /= total
    top[cut] = top[cut] * (np.arange(top.shape[1]) < n[:, None]) / total
    if cut.size == len(dists):
        return x, top
    kept = dists.copy()
    kept[cut] = x
    return kept, top


def _penalize_rows(dists: np.ndarray, seen: np.ndarray, theta: float) -> np.ndarray:
    """Every row with the log-probabilities of its generated tokens (``seen[i]``
    marks those of row i) scaled by ``theta``, softmax-renormalized; theta =
    1 is the identity, larger theta pushes repeated tokens down."""
    w = _log_rows(dists)
    np.multiply(w, theta, out=w, where=seen)  # -inf stays -inf
    total, _ = exp_rows(w)
    w /= total[:, None]
    return w


def _draw(top: np.ndarray, dists: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one token per row of ``dists``, whose values
    ``top`` holds sorted in descending order. Row i takes the first rank
    whose cumulative mass exceeds ``u[i]``, the last of the support when
    round-off leaves ``u[i]`` past it, and token 0 when it has no mass.
    """
    cum = np.cumsum(top, axis=1)
    n = np.count_nonzero(top > 0, axis=1)
    at = np.minimum(np.count_nonzero(cum <= u[:, None], axis=1), np.maximum(n - 1, 0))
    value = top[np.arange(len(top)), at][:, None]
    # The token is the r-th id of the drawn value.
    hit = dists == value
    hit[n == 0, 0] = True
    return _nth_true(hit, at - np.count_nonzero(top > value, axis=1))


def _choose(dists: np.ndarray, cfg: DecoderConfig, u: np.ndarray | None, seen: np.ndarray) -> np.ndarray:
    """The next token of every row of ``dists`` for every strategy but beam.

    Row i draws with the uniform ``u[i]`` when the strategy samples (u is
    None when it does not); ``seen`` marks the tokens each row has
    generated.
    """
    if cfg.strategy == "greedy":
        return np.argmax(dists, axis=1)
    mode, value = cfg.strategy, cfg.param
    if cfg.strategy == "penalized":
        dists = _penalize_rows(dists, seen, cfg.param)
        if cfg.t is None:
            return np.argmax(dists, axis=1)
        mode, value = "temperature", cfg.t
    if mode == "temperature":
        dists = _temperature_rows(dists, value)
        return _draw(np.ascontiguousarray(np.sort(dists, axis=1)[:, ::-1]), dists, u)
    dists, top = _truncate_rows(dists, mode, value)
    return _draw(top, dists, u)


def generate_batch(model, prefixes, cfg: DecoderConfig, seeds=None) -> np.ndarray:
    """Decode one continuation per prefix, all prefixes in lockstep.

    ``prefixes`` is an id matrix or a list of id arrays, matrix rows or
    int lists. Returns the ``(len(prefixes), max_len)`` int64 matrix
    whose row i is prefix i's continuation: the ``max_len`` tokens after
    the prefix, which conditions it but is not part of the output. Greedy
    and beam are deterministic; beam breaks score ties lexicographically
    on the token-id sequence.

    ``cfg`` decodes every prefix. Row i draws from its own SplitMix64
    stream seeded with ``seeds[i]``, one seed per prefix; None seeds every
    row with 0. Every step asks the model for the next-token
    distributions of all live rows (each prefix, or each beam
    hypothesis) at once, through ``next_dist_batch``. A model call
    takes at most ``MAX_BATCH_ROWS`` rows, filled with whole prefixes in
    index order; a beam of b > ``MAX_BATCH_ROWS`` takes one prefix's b
    rows per call. The tokens of a step are chosen for the whole block by
    the rules of a single-prefix decode, so the output equals decoding
    each prefix alone whenever the model's batched rows equal its
    single rows. A negative id is a config error (-1 pads the windows).
    """
    seeds = [0] * len(prefixes) if seeds is None else list(seeds)
    if len(seeds) != len(prefixes):
        raise ConfigError("generate_batch needs one seed per prefix")
    if not len(prefixes):
        return np.zeros((0, cfg.max_len), dtype=np.int64)
    cfg.check_vocab(model.vocab.size)
    beam = cfg.strategy == "beam"
    per_call = max(1, MAX_BATCH_ROWS // cfg.param) if beam else MAX_BATCH_ROWS
    out = []
    for lo in range(0, len(prefixes), per_call):
        chunk, chunk_seeds = prefixes[lo : lo + per_call], seeds[lo : lo + per_call]
        out.append(_beam_rows(model, chunk, cfg) if beam else _sample_rows(model, chunk, cfg, chunk_seeds))
    return np.concatenate(out)


def token_prob_trace(model, seq, truncation: DecoderConfig | None = None, context=()):
    """Raw and truncated probability of each token of ``seq`` after
    ``context`` and the tokens before it, as two float arrays.

    The distributions of all positions come from ``next_dist_batch``, at
    most ``MAX_BATCH_ROWS`` rows per call. ``truncation`` is None or a
    topk or topp config whose truncation :func:`_truncate_rows` applies,
    the code the decoder samples from; a token the truncation drops has
    truncated probability 0.
    """
    if truncation is not None:
        if truncation.strategy not in ("topk", "topp"):
            raise ConfigError(f"truncation must be topk or topp, not {truncation.strategy}")
        truncation.check_vocab(model.vocab.size)
    lead = len(context) + len(seq) if model.context_len is None else model.context_len
    line, q = id_lines([seq], [context], lead)
    toks = line[q]
    raw, trunc = np.empty(len(toks)), np.empty(len(toks))
    for lo in range(0, len(toks), MAX_BATCH_ROWS):
        hi = min(lo + MAX_BATCH_ROWS, len(toks))
        dists = model.next_dist_batch(line[q[lo:hi, None] + np.arange(-lead, 0)])
        raw[lo:hi] = dists[np.arange(hi - lo), toks[lo:hi]]
        if truncation is None:
            trunc[lo:hi] = raw[lo:hi]
        else:
            kept, _ = _truncate_rows(dists, truncation.strategy, truncation.param)
            trunc[lo:hi] = kept[np.arange(hi - lo), toks[lo:hi]]
    return raw, trunc


def _sample_rows(model, prefixes, cfg: DecoderConfig, seeds: list[int]) -> np.ndarray:
    # Row i of ``buf``: prefix i padded to ``lead`` ids, then its continuation.
    window = model.context_len
    head = left_padded(prefixes, window)
    buf, lead = np.pad(head, ((0, 0), (0, cfg.max_len))), head.shape[1]
    # Step j of row i draws the j-th uniform of row i's stream, if it samples.
    samples = cfg.strategy in ("temperature", "topk", "topp") or cfg.t is not None
    u = np.stack([SplitMix64(seed).uniforms(cfg.max_len) for seed in seeds], axis=1) if samples else None
    rows = np.arange(len(prefixes))
    seen = None
    for t in range(lead, lead + cfg.max_len):
        dists = model.next_dist_batch(buf[:, 0 if window is None else t - window : t])
        if seen is None:
            seen = np.zeros(dists.shape, dtype=bool)
        toks = _choose(dists, cfg, None if u is None else u[t - lead], seen)
        buf[:, t] = toks
        seen[rows, toks] = True
    return buf[:, lead:]


def _beam_rows(model, prefixes, cfg: DecoderConfig) -> np.ndarray:
    # Every prefix holds the same number n of hypotheses. Row j*n + i of
    # ``ids`` is prefix j padded to ``lead`` ids, then its hypothesis i,
    # with ``score`` the summed log-probability of the hypothesis and
    # ``rank`` its place among its beam's, in lexicographic order. The rows
    # of a beam run in (-score, ids) order, so row j*n is prefix j's best.
    width, window = cfg.param, model.context_len
    ids = left_padded(prefixes, window)
    n_beams, lead = ids.shape
    score, rank = np.zeros(n_beams), np.zeros(n_beams, dtype=np.int64)
    for _ in range(cfg.max_len):
        n, t = len(score) // n_beams, ids.shape[1]
        # Keeping only the per-hypothesis top ``width`` tokens is exact:
        # anything dropped is dominated by width better candidates that
        # share its prefix, under the same (score, ids) order.
        top, logp = _beam_top(model.next_dist_batch(ids[:, 0 if window is None else t - window :]), width)
        m = top.shape[1]
        cand = score[:, None] + logp
        # Candidate i of row r sits at flat index r*m + i, and row j of the
        # (n_beams, n*m) views holds beam j's candidates. Two hypotheses of
        # a beam never share ids, so (parent rank, token) orders candidate
        # ids as comparing the whole tuples does, and one lexsort along the
        # rows orders every beam by (-score, ids).
        keys = (top, np.repeat(rank, m), -cand)
        order = np.lexsort([key.reshape(n_beams, n * m) for key in keys], axis=1)
        pick = (order[:, : min(width, n * m)] + n * m * np.arange(n_beams)[:, None]).ravel()
        parent, toks, score = pick // m, top.ravel()[pick], cand.ravel()[pick]
        ids = np.concatenate((ids[parent], toks[:, None]), axis=1)
        # The new ids order by (parent rank, token) too.
        lex = np.lexsort([key.reshape(n_beams, -1) for key in (toks, rank[parent])], axis=1)
        rank = lex.argsort(axis=1).ravel()
    return ids[:: len(score) // n_beams, lead:]
