"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favors clarity over speed: plain list scans, no hashing,
no shared state with the package under test.
"""

from __future__ import annotations

import math

import numpy as np


def log_softmax(logits):
    """Reference log-softmax along the last axis: shift by the max, subtract the log-sum-exp."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits):
    """Reference softmax along the last axis: shift by the max, exponentiate, divide by the sum."""
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def naive_ngrams(ids, n):
    """All length-n windows as a plain dict of counts."""
    out = {}
    for i in range(len(ids) - n + 1):
        gram = tuple(ids[i : i + n])
        out[gram] = out.get(gram, 0) + 1
    return out


def windows_of(seqs, max_n):
    """``corpus.ngram_windows`` of the id lists ``seqs``, laid end to end."""
    from genteval.corpus import ngram_windows

    return ngram_windows([t for s in seqs for t in s], [len(s) for s in seqs], max_n)


def fit_on(seqs, vocab, order, k_s=1.0):
    """``lm.ngram.ngram_fit`` on the id lists ``seqs``."""
    from genteval.lm.ngram import ngram_fit

    return ngram_fit([t for s in seqs for t in s], vocab, order, k_s, lengths=[len(s) for s in seqs])


def check_ngram_windows(seqs, max_n, windows):
    """Assert that ``windows``, the ``corpus.ngram_windows(seqs, max_n)``
    result, spells every sequence's n-grams as ``naive_ngrams`` counts them.

    Each window is read back through its start position; one id must spell
    one gram, and the ids of an order must number its distinct grams
    0, 1, ... in lexicographic order.
    """
    flat, owner, ids = windows[0].tolist(), windows[1].tolist(), [a.tolist() for a in windows[2]]
    assert flat == [t for s in seqs for t in s]
    assert owner == [k for k, s in enumerate(seqs) for _ in s]
    assert len(ids) == max_n and all(len(row) == len(flat) for row in ids)
    for n in range(1, max_n + 1):
        spelled = {}
        counts = [{} for _ in seqs]
        for i, g in enumerate(ids[n - 1]):
            if g < 0:
                continue
            gram = tuple(flat[i : i + n])
            assert spelled.setdefault(g, gram) == gram
            counts[owner[i]][gram] = counts[owner[i]].get(gram, 0) + 1
        assert counts == [naive_ngrams(s, n) for s in seqs]
        assert sorted(spelled) == list(range(len(spelled)))
        assert [spelled[g] for g in range(len(spelled))] == sorted(set(spelled.values()))


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


def one_bleu(candidate, references, cfg=None):
    """BLEU of one candidate by the package's ``metrics.corpus_bleu``."""
    from genteval.corpus import Vocab
    from genteval.metrics import SampleSet, corpus_bleu

    vocab = Vocab.placeholder(1 + max(max(s) for s in [candidate, *references]))

    def sample_set(seqs):
        return SampleSet(map(str, range(len(seqs))), vocab, seqs)

    return corpus_bleu(sample_set([candidate]), sample_set(references), cfg)


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


class DictNGram:
    """The n-gram model as one dict of counts per order: the slow reference
    for ``NGramLM``'s sorted arrays.

    ``_level``, ``token_prob``, ``score`` and ``to_bytes`` are the dict
    implementation the package used before: context totals summed in a
    Python loop, one lookup per scored token, a model file written one
    gram at a time.
    """

    def __init__(self, vocab, order, k_s, counts):
        self.vocab, self.order, self.k_s = vocab, order, float(k_s)
        self.counts = {o: dict(counts.get(o, {})) for o in range(1, order + 1)}
        self.ctx_totals = {}
        for o, table in self.counts.items():
            totals = {}
            for gram, c in table.items():
                totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
            self.ctx_totals[o] = totals

    @classmethod
    def of(cls, model):
        return cls(model.vocab, model.order, model.k_s, ngram_tables(model))

    @classmethod
    def fit(cls, corpus, vocab, order, k_s):
        """Count every window of every id list with ``naive_ngrams``."""
        counts = {o: {} for o in range(1, order + 1)}
        for ids in corpus:
            for o in counts:
                for gram, c in naive_ngrams(ids, o).items():
                    counts[o][gram] = counts[o].get(gram, 0) + c
        return cls(vocab, order, k_s, counts)

    def _level(self, context):
        ctx = context[max(0, len(context) - (self.order - 1)) :] if self.order > 1 else ()
        for o in range(min(self.order, len(ctx) + 1), 0, -1):
            c = ctx[len(ctx) - (o - 1) :] if o > 1 else ()
            total = self.ctx_totals[o].get(c, 0)
            if total > 0 or self.k_s > 0 or o == 1:
                return o, c, total
        raise AssertionError("unreachable: unigram level always answers")

    def token_prob(self, token, context):
        o, ctx, total = self._level(tuple(context))
        c = self.counts[o].get(ctx + (token,), 0)
        denom = total + self.k_s * self.vocab.size
        return (c + self.k_s) / denom if denom > 0 else 0.0

    def score(self, seq, context=()):
        ctx = [int(i) for i in context]
        total = 0.0
        for tok in seq:
            p = self.token_prob(int(tok), tuple(ctx))
            if p <= 0.0:
                return -np.inf
            total += np.log(p)
            ctx.append(int(tok))
        return float(total)

    def to_bytes(self):
        """The model file ``save_model`` writes, one gram at a time."""
        import json
        import struct

        header = {"backend": "ngram", "order": self.order, "k_s": self.k_s,
                  "vocab": list(self.vocab.tokens)}
        flat = []
        for o in range(1, self.order + 1):
            table = self.counts[o]
            flat.append(float(len(table)))
            for gram in sorted(table):
                flat.extend(float(i) for i in gram)
                flat.append(float(table[gram]))
        head = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
        return b"LMEK1" + struct.pack("<Q", len(head)) + head + np.array(flat).astype("<f8").tobytes()


def ngram_tables(model):
    """An ``NGramLM``'s count arrays as {order: {gram tuple: count}}."""
    return {
        o: dict(zip(map(tuple, model.table.grams(o).tolist()), model.counts[o].tolist()))
        for o in range(1, model.order + 1)
    }


def ngram_from_tables(vocab, order, k_s, counts):
    """An ``NGramLM`` holding the dict tables ``counts`` ({order: {gram: count}})."""
    from genteval.corpus import GramTable
    from genteval.lm.ngram import NGramLM

    rows = {o: sorted(counts.get(o, {}).items()) for o in range(1, order + 1)}
    table = GramTable.of_grams([np.array([g for g, _ in r], dtype=np.int64).reshape(-1, o) for o, r in rows.items()])
    return NGramLM(vocab, order, k_s, table, {o: [c for _, c in r] for o, r in rows.items()})


def naive_next_dist(model, context):
    """An n-gram conditional by one dict lookup per vocab entry.

    ``model`` is an ``NGramLM`` or a ``DictNGram``. The backoff level is
    found by scanning the count tables, not from cached totals.
    """
    counts = model.counts if isinstance(model, DictNGram) else ngram_tables(model)
    order, k_s, v = model.order, model.k_s, model.vocab.size
    ctx = tuple(int(i) for i in context)
    ctx = ctx[max(0, len(ctx) - (order - 1)) :] if order > 1 else ()
    for o in range(min(order, len(ctx) + 1), 0, -1):
        c = ctx[len(ctx) - (o - 1) :] if o > 1 else ()
        total = sum(n for gram, n in counts[o].items() if gram[:-1] == c)
        if total > 0 or k_s > 0 or o == 1:
            break
    dist = np.zeros(v)
    denom = total + k_s * v
    if denom == 0:
        return dist
    for w in range(v):
        n = counts[o].get(c + (w,), 0)
        if n or k_s:
            dist[w] = (n + k_s) / denom
    return dist


class StackedScores:
    """``score_batch`` for a test model that defines only ``score``: one
    ``score`` call per sequence."""

    def score_batch(self, seqs, contexts=()):
        return [self.score(s, c) for s, c in zip(seqs, contexts or [()] * len(seqs))]


class StackedRows(StackedScores):
    """The batched half of the LM contract for a test model that defines
    only ``next_dist`` (and ``score``): its rows and scores stacked, and
    whole contexts. With ``context_len`` None a decoder hands it its whole
    buffer; row i's context is that row with the -1 padding stripped."""

    context_len = None

    def next_dist_batch(self, windows):
        return np.stack([np.asarray(self.next_dist(row[row >= 0].tolist()), dtype=np.float64) for row in windows])


class SlowLM(StackedRows):
    """A model seen through the slow paths: a whole-context
    ``context_len``, one ``next_dist`` per batch row, and for an n-gram
    the O(|V|) ``naive_next_dist`` over its dict tables."""

    def __init__(self, model):
        self.model = model
        self.vocab = model.vocab
        self.tables = DictNGram.of(model) if hasattr(model, "grams") else None

    def next_dist(self, context):
        if self.tables is not None:
            return naive_next_dist(self.tables, context)
        return self.model.next_dist(context)

    def score(self, seq, context=()):
        return self.model.score_batch([seq], [context])[0]


def naive_top_ids(values, k):
    return np.argsort(-np.asarray(values), kind="stable")[:k]


def naive_truncate(dist, mode, value):
    """top-k / top-p by a full stable argsort; temperature as one row did it."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.size
    if mode == "temperature":
        return row_temperature(dist, value)
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


# The per-row selection that block selection replaced, kept as it was:
# one row, one ranking per call, one uniform per sampled token.

_QUICKSORT_MIN = 2048


def row_rank(values):
    if values.size >= _QUICKSORT_MIN:
        order = np.argsort(-values)
        ranked = values[order]
        if np.all(ranked[1:] < ranked[:-1]):
            return order
    return np.argsort(-values, kind="stable")


def row_support_order(dist):
    support = np.flatnonzero(dist > 0)
    if support.size == 0:
        support = np.arange(dist.size)
    return support[row_rank(dist[support])]


def row_temperature(dist, value):
    if value == 1.0:
        return dist.copy()
    out = np.zeros_like(dist)
    mask = dist > 0
    logw = np.log(dist[mask]) / value
    logw -= logw.max()
    w = np.exp(logw)
    out[mask] = w / w.sum()
    return out


def row_penalize(dist, generated, theta):
    mask = dist > 0
    logp = np.full(dist.size, -np.inf)
    logp[mask] = np.log(dist[mask])
    for i in set(generated):
        if logp[i] != -np.inf:
            logp[i] *= theta
    top = logp.max()
    w = np.exp(logp - top)
    return w / w.sum()


def row_sample(dist, rng):
    order = row_support_order(dist)
    cum = np.cumsum(dist[order])
    u = rng.uniform()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= order.size:
        idx = order.size - 1
    # Guard against float round-off leaving u past the last positive mass.
    while idx > 0 and dist[order[idx]] == 0:
        idx -= 1
    return int(order[idx])


def row_pick(dist, cfg, out, rng):
    """One row's next token for every strategy but greedy and beam."""
    if cfg.strategy != "penalized":  # temperature, topk, topp
        return row_sample(naive_truncate(dist, cfg.strategy, cfg.param), rng)
    pdist = row_penalize(dist, out, cfg.param)
    if cfg.t is not None:
        return row_sample(naive_truncate(pdist, "temperature", cfg.t), rng)
    return int(np.argmax(pdist))


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


def ids_of(seq):
    """The ids of an id array, matrix row, list or tuple as a tuple of ints."""
    return tuple(int(i) for i in seq)


def naive_generate(model, prefix, cfg, seed=0):
    """One prefix of ``genteval.decode.generate_batch``, seeded with
    ``seed``, with every step on the slow path, as a tuple of ids."""
    from genteval.rng import SplitMix64

    prefix = ids_of(prefix)
    if cfg.strategy == "beam":
        return naive_beam_search(model, prefix, cfg.param, cfg.max_len)
    rng = SplitMix64(seed)
    ctx = list(prefix)
    out = []
    for _ in range(cfg.max_len):
        dist = np.asarray(model.next_dist(list(ctx)), dtype=np.float64)
        tok = int(np.argmax(dist)) if cfg.strategy == "greedy" else row_pick(dist, cfg, out, rng)
        out.append(tok)
        ctx.append(tok)
    return tuple(out)


def naive_generate_batch(model, prefixes, cfg, seeds=None):
    """``genteval.decode.generate_batch`` as one ``naive_generate`` per prefix,
    stacked into its ``(len(prefixes), max_len)`` matrix."""
    seeds = [0] * len(prefixes) if seeds is None else seeds
    rows = [naive_generate(model, prefix, cfg, seed) for prefix, seed in zip(prefixes, seeds)]
    return np.array(rows, dtype=np.int64).reshape(len(prefixes), cfg.max_len)


# One row or one prefix through the block code, for tests that pin one case.


def one_truncate(dist, mode, value):
    """``dist`` after ``decode._truncate_rows`` (or ``_temperature_rows``)
    as a one-row block."""
    from genteval.decode import _temperature_rows, _truncate_rows

    rows = np.asarray(dist, dtype=np.float64)[None]
    if mode == "temperature":
        return _temperature_rows(rows, value)[0]
    return _truncate_rows(rows, mode, value)[0][0]


def one_penalize(dist, generated, theta):
    from genteval.decode import _penalize_rows

    seen = np.zeros((1, len(dist)), dtype=bool)
    seen[0, list(set(generated))] = True
    return _penalize_rows(np.asarray(dist, dtype=np.float64)[None], seen, theta)[0]


def one_sample(dist, rng):
    """One inverse-CDF draw by ``decode._choose`` (temperature 1 keeps ``dist``)
    with the next uniform of ``rng``."""
    from genteval.decode import DecoderConfig, _choose

    cfg = DecoderConfig("temperature", 1.0)
    return int(_choose(np.asarray(dist, dtype=np.float64)[None], cfg, np.array([rng.uniform()]), None)[0])


def one_generate(model, prefix, cfg, seed=0):
    """One prefix's continuation by ``decode.generate_batch``, as a tuple of ids."""
    from genteval.decode import generate_batch

    return tuple(generate_batch(model, [prefix], cfg, [seed])[0].tolist())


# ---------------------------------------------------------------------------
# File formats: the line-by-line ids reader the one-pass parse replaces
# ---------------------------------------------------------------------------


def naive_read_ids_file(path):
    """``read_ids_file`` as one ``int()`` per id, line by line."""
    from genteval.corpus import IDS_HEADER
    from genteval.errors import DataError, EmptyInput, open_text

    with open_text(path) as f:
        header = f.readline().strip()
        if not header.startswith(IDS_HEADER):
            raise EmptyInput(f"{path}: missing {IDS_HEADER}N header")
        try:
            vocab_size = int(header[len(IDS_HEADER) :])
        except ValueError:
            raise DataError(f"{path}:1: bad vocab size in {header!r}") from None
        if not 0 <= vocab_size < 2**63:
            raise DataError(f"{path}:1: bad vocab size in {header!r}")
        sequences = []
        for lineno, line in enumerate(f, start=2):
            try:
                ids = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not ids:
                continue
            if min(ids) < 0 or max(ids) >= vocab_size:
                raise DataError(f"{path}:{lineno}: token id outside the vocab of {vocab_size}")
            sequences.append(ids)
    return sequences, vocab_size


def naive_write_ids_file(path, rows, vocab_size):
    """``write_ids_file`` as one ``str()`` per id, row by row."""
    from genteval.corpus import IDS_HEADER

    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"{IDS_HEADER}{vocab_size}\n")
        for ids in rows:
            f.write(" ".join(str(i) for i in ids))
            f.write("\n")


def naive_order1_rank(flat):
    """Order 1 of ``ngram_windows``: the distinct ids and each position's
    rank among them, by ``np.unique``."""
    return np.unique(np.asarray(flat, dtype=np.int64), return_inverse=True)


# ---------------------------------------------------------------------------
# Sample files: the per-row range check the one range check replaces
# ---------------------------------------------------------------------------


def naive_load_sample_set(path, vocab):
    """``load_sample_set`` with one range check per row, as the
    rows ``(name, prefix ids, continuation ids)`` and the provenance."""
    import json

    from genteval.errors import DataError, open_text

    def row_ids(row, key, where):
        ids = row.get(key)
        if not isinstance(ids, list) or not all(type(i) is int for i in ids):
            raise DataError(f"{where}: {key} must be a list of integer token ids")
        if ids and (min(ids) < 0 or max(ids) >= vocab.size):
            bad = min(ids) if min(ids) < 0 else max(ids)
            raise DataError(f"{where}: token id {bad} out of range for vocab of {vocab.size}")
        return tuple(ids)

    first, rows, seen = None, [], set()
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: bad JSON ({exc})") from None
            if not isinstance(row, dict) or "id" not in row:
                raise DataError(f"{where}: a sample must be a JSON object with an id")
            prefix = row_ids(row, "prefix_ids", where)
            continuation = row_ids(row, "continuation_ids", where)
            if not continuation:
                raise DataError(f"{where}: empty continuation_ids")
            sid = str(row["id"])
            if sid in seen:
                raise DataError(f"{where}: repeated sample id {sid!r}")
            seen.add(sid)
            first = first or row
            rows.append((sid, prefix, continuation))
    if first is None:
        raise DataError(f"{path}: no samples")
    return rows, {key: first.get(key) for key in ("model", "strategy", "param", "seed")}


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


def naive_tokenize(text, scheme):
    """``tokenize`` as the per-surface dict loop: ``(ids, vocab surfaces)``."""
    from genteval.corpus import surface_tokens

    index, ids = {}, []
    for s in surface_tokens(text, scheme):
        if s not in index:
            index[s] = len(index)
        ids.append(index[s])
    return ids, tuple(index)


# ---------------------------------------------------------------------------
# Training: the per-item losses and step the blocked step replaces
# ---------------------------------------------------------------------------

_UL_CLAMP = 1e-12


def naive_windows(model, ids, context=()):
    """The ffn's context windows, one Python slice per row."""
    c = model.context
    ctx = tuple(context)
    full = (model.pad_id,) * c + ctx + tuple(ids)
    offset = len(ctx)
    return np.array(
        [full[offset + t : offset + t + c] for t in range(len(ids))], dtype=np.int64
    ).reshape(len(ids), c)


def tuple_window_dists(model, contexts):
    """The ffn's ``next_dist_batch`` as it was when it took a list of
    contexts: one tuple per row, the pad id before its last ``c`` ids,
    then one forward and ``exp_rows``."""
    from genteval.lm.base import exp_rows

    c = model.context
    pad = (model.pad_id,) * c
    windows = np.array([(*pad, *ctx[-c:])[-c:] for ctx in contexts], dtype=np.int64).reshape(len(contexts), c)
    z = model.vocab_logits(model.forward(windows))
    denom, _ = exp_rows(z)
    z /= denom[:, None]
    return z


def naive_ffn_score(model, ids, context=()):
    """The ffn's one-sequence score as it was before ``score_batch``: one
    forward over the sequence's windows, a log-softmax over the vocab, the
    gold entries summed by numpy; 0.0 when empty."""
    if not len(ids):
        return 0.0
    logits = model.vocab_logits(model.forward(naive_windows(model, ids, context)))
    return float(log_softmax(logits)[np.arange(len(ids)), list(ids)].sum())


def naive_summed_scores(logp, seqs):
    """``summed_scores`` as it was: one ``np.cumsum`` per sequence over its
    slice of the end-to-end log-probs ``logp``, 0.0 when empty."""
    ends = np.cumsum([len(s) for s in seqs]).tolist()
    return [float(np.cumsum(logp[e - len(s) : e])[-1]) if len(s) else 0.0 for s, e in zip(seqs, ends)]


def naive_previous_token_candidates(ids):
    """Per position, the set of earlier tokens minus the gold one."""
    out, seen = [], set()
    for tok in ids:
        out.append(frozenset(seen - {tok}))
        seen.add(tok)
    return out


def naive_ul_seq_candidates(ids, n):
    """Per position t, {ids[t]} when the n-gram ending at t ended earlier too."""
    ids = tuple(ids)
    out, seen = [], set()
    for t in range(len(ids)):
        if t + 1 < n:
            out.append(frozenset())
            continue
        gram = ids[t + 1 - n : t + 1]
        out.append(frozenset({ids[t]}) if gram in seen else frozenset())
        seen.add(gram)
    return out


def naive_ce_loss(model, ids, context=()):
    """Mean token cross-entropy of one sequence: its own forward and backward."""
    cache = model.forward(naive_windows(model, ids, context))
    logp = log_softmax(model.vocab_logits(cache))
    rows = np.arange(len(ids))
    loss = float(-logp[rows, list(ids)].mean())
    dlogits = softmax(model.vocab_logits(cache)).copy()
    dlogits[rows, list(ids)] -= 1.0
    grads = model.zero_grads()
    model.backward(cache, grads, dlogits=dlogits / len(ids))
    return loss, grads


def naive_ul_token_loss(model, ids, candidates, context=()):
    """Unlikelihood of one sequence, one candidate at a time into a dense q."""
    cache = model.forward(naive_windows(model, ids, context))
    probs = softmax(model.vocab_logits(cache))
    loss = 0.0
    q = np.zeros_like(probs)
    for t, cands in enumerate(candidates):
        for c in cands:
            p = probs[t, c]
            loss += -math.log1p(-min(p, 1.0 - _UL_CLAMP))
            if p < 1.0 - _UL_CLAMP:
                q[t, c] = p / (1.0 - p)
    dlogits = (q - probs * q.sum(axis=1, keepdims=True)) / len(ids)
    grads = model.zero_grads()
    model.backward(cache, grads, dlogits=dlogits)
    return loss / len(ids), grads


def naive_pair_ppl(model, pair):
    """Perplexity of a pair's second sentence given its first, with its forward cache."""
    ids = ids_of(pair.second)
    cache = model.forward(naive_windows(model, ids, ids_of(pair.first)))
    logp = log_softmax(model.vocab_logits(cache))
    nll = float(-logp[np.arange(len(ids)), list(ids)].mean())
    return math.exp(nll), cache, ids


def naive_margin_rank_loss(model, pos, neg, margin):
    """The hinge on one item's perplexity gap, each pair with its own forward
    and a dense softmax gradient scaled by its perplexity."""
    ppl_pos, cache_pos, ids_pos = naive_pair_ppl(model, pos)
    ppl_neg, cache_neg, ids_neg = naive_pair_ppl(model, neg)
    loss = max(0.0, ppl_pos - ppl_neg + margin)
    grads = model.zero_grads()
    if loss > 0.0:
        for cache, ids, coef in ((cache_pos, ids_pos, ppl_pos), (cache_neg, ids_neg, -ppl_neg)):
            d = softmax(model.vocab_logits(cache)).copy()
            d[np.arange(len(ids)), list(ids)] -= 1.0
            model.backward(cache, grads, dlogits=d * (coef / len(ids)))
    return loss, grads


def naive_regression_loss(model, seq, targets):
    """Mean smooth-L1 of one item's regression head, one position at a time."""
    ids = ids_of(seq)
    cache = model.forward(naive_windows(model, ids))
    preds = model.reg_predictions(cache)
    losses, dreg = np.empty(len(ids)), np.empty(len(ids))
    for t, (p, y) in enumerate(zip(preds, targets)):
        x = float(p) - float(y)
        losses[t], dreg[t] = (0.5 * x * x, x) if abs(x) < 1.0 else (abs(x) - 0.5, math.copysign(1.0, x))
    grads = model.zero_grads()
    model.backward(cache, grads, dreg=dreg / len(ids))
    return float(losses.mean()), grads


def naive_classification_loss(model, seq, labels):
    """Mean label CE of one item over its supervised positions."""
    ids = ids_of(seq)
    supervised = [t for t, lab in enumerate(labels) if lab is not None]
    cache = model.forward(naive_windows(model, ids))
    logits = model.cls_logits(cache)
    gold = [labels[t] for t in supervised]
    loss = float(-log_softmax(logits)[supervised, gold].mean())
    dcls = np.zeros_like(logits)
    dcls[supervised] = softmax(logits[supervised])
    dcls[supervised, gold] -= 1.0
    grads = model.zero_grads()
    model.backward(cache, grads, dcls=dcls / len(supervised))
    return loss, grads


# One item through the batched losses: ``(loss, grads)`` with a fresh
# gradient dict, the form ``grad_check`` differentiates.


def one_ce(model, ids, context=()):
    from genteval.losses import _token_losses

    grads = model.zero_grads()
    return _token_losses(model, [tuple(ids)], [tuple(context)], None, 1.0, 0.0, grads)[0][0], grads


def one_ul(model, ids, pairs, context=()):
    """Unlikelihood of ``ids`` on its ``(position, token)`` candidate arrays."""
    from genteval.losses import _token_losses

    grads = model.zero_grads()
    return _token_losses(model, [tuple(ids)], [tuple(context)], [pairs], 0.0, 1.0, grads)[1][0], grads


def one_rank(model, pos, neg, margin):
    from genteval.losses import TrainConfig, _rank_losses

    grads = model.zero_grads()
    return _rank_losses(model, "nsp", [(pos, neg)], 1.0, grads, TrainConfig(margin=margin))[0], grads


def one_head(model, kind, seq, targets):
    from genteval.losses import TrainConfig, _head_losses

    grads = model.zero_grads()
    return _head_losses(model, kind, [(seq, targets)], 1.0, grads, TrainConfig())[0], grads


def grad_check(model, loss_fn, step=1e-5):
    """Max relative error between the analytic gradient of ``loss_fn(model)
    -> (loss, grads)`` and central differences, over every parameter scalar.

    Relative error is |a - n| / max(|a|, |n|, 1e-8); the loss function must
    be deterministic.
    """
    _, grads = loss_fn(model)
    worst = 0.0
    for name, arr in model.params.items():
        flat, gflat = arr.reshape(-1), grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn(model)[0]
            flat[i] = orig - step
            down = loss_fn(model)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def naive_multitask_step(model, batch, cfg, opt, rng):
    """``genteval.losses.multitask_step`` one item at a time: a fresh
    gradient dict per item, scaled and added into the step's total."""
    from genteval.decode import DecoderConfig

    grads = model.zero_grads()
    scalars, total = {}, 0.0
    for kind, weight in cfg.objectives:
        if weight == 0.0:
            continue
        items = batch["sequences"] if kind in ("mle", "ul") else batch[kind]
        rollouts = [None] * len(items)
        if kind == "ul":
            seq_level = rng.uniform() < cfg.mix_prob
            scalars["ul_branch"] = 1.0 if seq_level else 0.0
            if seq_level:
                prefixes = [ids_of(seq)[: cfg.ul_prefix_len] for seq in items]
                greedy = DecoderConfig(strategy="greedy", max_len=cfg.ul_gen_len)
                conts = naive_generate_batch(model, prefixes, greedy).tolist()
                rollouts = list(zip(prefixes, conts))
        loss_sum = 0.0
        for item, rollout in zip(items, rollouts):
            if kind == "mle":
                loss, g = naive_ce_loss(model, ids_of(item))
            elif kind == "ul" and rollout is None:
                ids = ids_of(item)
                loss, g = naive_ul_token_loss(model, ids, naive_previous_token_candidates(ids))
            elif kind == "ul":
                prefix, cont = rollout
                cands = naive_ul_seq_candidates(cont, cfg.ul_ngram)
                loss, g = naive_ul_token_loss(model, cont, cands, prefix)
            elif kind in ("nsp", "sop"):
                loss, g = naive_margin_rank_loss(model, *item, cfg.margin)
            elif kind == "tfidf":
                loss, g = naive_regression_loss(model, *item)
            else:
                loss, g = naive_classification_loss(model, *item)
            loss_sum += loss
            for name, part in g.items():
                grads[name] += (weight / len(items)) * part
        scalars[kind] = loss_sum / len(items)
        total += weight * scalars[kind]
    scalars["total"] = total
    opt.update(model.params, grads)
    return scalars


def naive_adam_update(state, params, grads):
    """``AdamState.update`` as whole-array expressions: fresh ``m`` and
    ``v`` arrays and a fresh step array per tensor."""
    state.step_count += 1
    c1 = 1.0 - state.beta1**state.step_count
    c2 = 1.0 - state.beta2**state.step_count
    for name, p in params.items():
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        p -= state.lr * (state.m[name] / c1) / (np.sqrt(state.v[name] / c2) + state.eps)
