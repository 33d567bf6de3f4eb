"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favors clarity over speed: plain list scans, no hashing,
no shared state with the package under test.
"""

from __future__ import annotations

import math

import numpy as np


def naive_ngrams(ids, n):
    """All length-n windows as a plain dict of counts."""
    out = {}
    for i in range(len(ids) - n + 1):
        gram = tuple(ids[i : i + n])
        out[gram] = out.get(gram, 0) + 1
    return out


def naive_seq_rep(ids, n):
    grams = [tuple(ids[i : i + n]) for i in range(len(ids) - n + 1)]
    if not grams:
        return None
    unique = []
    for g in grams:
        if g not in unique:
            unique.append(g)
    return 1.0 - len(unique) / len(grams)


def naive_bleu(candidate, references, max_n=4, epsilon=1e-9):
    """Modified n-gram precision BLEU, computed by scanning lists.

    Orders run 1..min(max_n, len(candidate)); a zero clipped count is
    replaced by epsilon; the brevity penalty uses the reference length
    closest to the candidate's, ties resolved toward the shorter.
    """
    cand = list(candidate)
    refs = [list(r) for r in references]
    c_len = len(cand)
    orders = min(max_n, c_len)
    log_sum = 0.0
    for n in range(1, orders + 1):
        counts = naive_ngrams(cand, n)
        matched = 0
        for gram, c in counts.items():
            best = 0
            for ref in refs:
                best = max(best, naive_ngrams(ref, n).get(gram, 0))
            matched += min(c, best)
        total = c_len - n + 1
        p = matched / total if matched > 0 else epsilon
        log_sum += math.log(p)
    geo = math.exp(log_sum / orders)
    r_len = None
    for ref in refs:
        if r_len is None:
            r_len = len(ref)
            continue
        d_new, d_old = abs(len(ref) - c_len), abs(r_len - c_len)
        if d_new < d_old or (d_new == d_old and len(ref) < r_len):
            r_len = len(ref)
    bp = math.exp(min(0.0, 1.0 - r_len / c_len))
    return bp * geo


def naive_self_bleu(seqs, max_n=4, epsilon=1e-9):
    """Mean leave-one-out BLEU over a list of id sequences."""
    total = 0.0
    for i, cand in enumerate(seqs):
        refs = [s for j, s in enumerate(seqs) if j != i]
        total += naive_bleu(cand, refs, max_n=max_n, epsilon=epsilon)
    return total / len(seqs)


def spearman(xs, ys):
    """Spearman rank correlation; average ranks for ties."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            mean_rank = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = mean_rank
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return cov / (vx * vy)


# ---------------------------------------------------------------------------
# Decoding: the O(|V|) and full-sort paths the fast ones replace
# ---------------------------------------------------------------------------


def naive_next_dist(model, context):
    """An n-gram conditional by one dict lookup per vocab entry.

    The backoff level is found by scanning the count tables, not from
    the model's cached totals.
    """
    order, k_s, v = model.order, model.k_s, model.vocab.size
    ctx = tuple(int(i) for i in context)
    ctx = ctx[max(0, len(ctx) - (order - 1)) :] if order > 1 else ()
    for o in range(min(order, len(ctx) + 1), 0, -1):
        c = ctx[len(ctx) - (o - 1) :] if o > 1 else ()
        total = sum(n for gram, n in model.counts[o].items() if gram[:-1] == c)
        if total > 0 or k_s > 0 or o == 1:
            break
    dist = np.zeros(v)
    denom = total + k_s * v
    if denom == 0:
        return dist
    for w in range(v):
        n = model.counts[o].get(c + (w,), 0)
        if n or k_s:
            dist[w] = (n + k_s) / denom
    return dist


class SlowLM:
    """A model seen through the slow paths: no ``context_len``, so the
    decoder hands it the whole context, and for an n-gram the O(|V|)
    ``naive_next_dist``."""

    def __init__(self, model):
        self.model = model
        self.vocab = model.vocab

    def next_dist(self, context):
        if hasattr(self.model, "counts"):
            return naive_next_dist(self.model, context)
        return self.model.next_dist(context)

    def score(self, seq, context=()):
        return self.model.score(seq, context)


def naive_top_ids(values, k):
    return np.argsort(-np.asarray(values), kind="stable")[:k]


def naive_truncate(dist, mode, value):
    """top-k / top-p by a full stable argsort (temperature is unchanged)."""
    from genteval.decode import truncate_renormalize

    dist = np.asarray(dist, dtype=np.float64)
    n = dist.size
    if mode == "temperature":
        return truncate_renormalize(dist, mode, value)
    order = np.argsort(-dist, kind="stable")
    if mode == "topk":
        if int(value) == n:
            return dist.copy()
        keep = order[: int(value)]
    else:
        cum = np.cumsum(dist[order])
        cutoff = int(np.searchsorted(cum, float(value), side="left"))
        keep = order[: min(cutoff + 1, n)]
    dropped = np.delete(np.arange(n), keep)
    if not np.any(dist[dropped] > 0):
        return dist.copy()
    out = np.zeros_like(dist)
    out[keep] = dist[keep]
    return out / out.sum()


def naive_sample(dist, rng):
    """Inverse-CDF draw over the full stable order of the vocab."""
    dist = np.asarray(dist, dtype=np.float64)
    order = np.argsort(-dist, kind="stable")
    cum = np.cumsum(dist[order])
    u = rng.uniform()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= order.size:
        idx = order.size - 1
    while idx > 0 and dist[order[idx]] == 0:
        idx -= 1
    return int(order[idx])


def naive_beam_search(model, prefix, width, max_len):
    beams = [((), 0.0)]
    for _ in range(max_len):
        candidates = []
        for ids, score in beams:
            dist = np.asarray(model.next_dist(tuple(prefix) + ids), dtype=np.float64)
            logp = np.full(dist.size, -np.inf)
            mask = dist > 0
            logp[mask] = np.log(dist[mask])
            for tok in np.argsort(-logp, kind="stable")[:width]:
                candidates.append((ids + (int(tok),), score + float(logp[tok])))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        beams = candidates[:width]
    return beams[0][0]


def naive_generate(model, prefix, cfg):
    """``genteval.decode.generate`` with every step on the slow path."""
    from genteval.corpus import TokenSequence
    from genteval.decode import penalize
    from genteval.rng import SplitMix64

    prefix = tuple(prefix.ids) if isinstance(prefix, TokenSequence) else tuple(prefix)
    if cfg.strategy == "beam":
        return TokenSequence(naive_beam_search(model, prefix, cfg.b, cfg.max_len), model.vocab)
    rng = SplitMix64(cfg.seed)
    ctx = list(prefix)
    out = []
    for _ in range(cfg.max_len):
        dist = np.asarray(model.next_dist(list(ctx)), dtype=np.float64)
        if cfg.strategy == "greedy":
            tok = int(np.argmax(dist))
        elif cfg.strategy == "penalized":
            pdist = penalize(dist, out, cfg.theta)
            if cfg.t is None:
                tok = int(np.argmax(pdist))
            else:
                tok = naive_sample(naive_truncate(pdist, "temperature", cfg.t), rng)
        else:
            value = {"temperature": cfg.t, "topk": cfg.k, "topp": cfg.p}[cfg.strategy]
            tok = naive_sample(naive_truncate(dist, cfg.strategy, value), rng)
        out.append(tok)
        ctx.append(tok)
    return TokenSequence(tuple(out), model.vocab)


def naive_generate_batch(model, prefixes, cfgs):
    """``genteval.decode.generate_batch`` as one ``naive_generate`` per prefix."""
    return [naive_generate(model, prefix, cfg) for prefix, cfg in zip(prefixes, cfgs)]


# ---------------------------------------------------------------------------
# Tokenization: the per-character loop the alphanumeric-chunk fast path skips
# ---------------------------------------------------------------------------


def naive_word_surfaces(text):
    """The word scheme's split of whitespace chunks, one category lookup
    per character."""
    import unicodedata

    out = []
    for chunk in text.split():
        run = []
        for ch in chunk:
            if unicodedata.category(ch).startswith("P"):
                if run:
                    out.append("".join(run))
                    run = []
                out.append(ch)
            else:
                run.append(ch)
        if run:
            out.append("".join(run))
    return out
