"""Seeded input generators for the benchmark workloads.

Every function here is a pure function of its seed and size arguments:
the same seed gives byte-identical files. Sizes are fixed per workload
and never depend on the seed, so two seeds give inputs that cost the
program the same amount of work and differ only in content. The vocab
size is pinned exactly (every lexicon entry is forced to occur at least
once) because the n-gram ``next_dist`` cost is linear in it.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import string

import numpy as np

# Char-level alphabet: exactly 100 symbols, including the space.
_LATIN_EXTRA = "àáâäçèéêëìíîïñòóôöùúûüýÿßø"
CHAR_ALPHABET = (
    string.ascii_lowercase + string.ascii_uppercase + string.digits + " " + ".,;:!?'-()\"" + _LATIN_EXTRA
)


def _zipf_weights(n: int, exponent: float = 1.1, shift: float = 2.7) -> np.ndarray:
    w = 1.0 / (np.arange(n) + shift) ** exponent
    return w / w.sum()


def _word_lexicon(rng: np.random.Generator, n_words: int) -> list[str]:
    """Distinct lowercase pseudo-words of 2 to 9 letters."""
    letters = np.array(list(string.ascii_lowercase))
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n_words:
        length = int(rng.integers(2, 10))
        word = "".join(rng.choice(letters, size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class MarkovText:
    """Zipfian word stream with local structure.

    Each word owns a short list of preferred successors; the next word
    follows that list with probability ``p_local`` and is otherwise a
    fresh draw from the global Zipf law. Sentences end with a period
    after 6 to 17 words.
    """

    def __init__(self, rng: np.random.Generator, lexicon: list[str], p_local: float = 0.7) -> None:
        self.rng = rng
        self.lexicon = lexicon
        n = len(lexicon)
        self.global_p = _zipf_weights(n)
        self.succ = rng.choice(n, size=(n, 6), p=self.global_p)
        self.succ_p = _zipf_weights(6, exponent=1.0, shift=1.0)
        self.p_local = p_local

    def sentences(self, n_tokens: int) -> list[list[str]]:
        rng = self.rng
        n = len(self.lexicon)
        draws = rng.choice(n, size=n_tokens, p=self.global_p)
        local = rng.random(n_tokens) < self.p_local
        picks = rng.choice(6, size=n_tokens, p=self.succ_p)
        lengths = rng.integers(6, 18, size=n_tokens // 6 + 1)
        out: list[list[str]] = []
        sent: list[str] = []
        prev = int(draws[0])
        produced = 0
        s = 0
        while produced < n_tokens:
            i = produced
            w = int(self.succ[prev, picks[i]]) if local[i] and sent else int(draws[i])
            sent.append(self.lexicon[w])
            prev = w
            produced += 1
            if len(sent) >= lengths[s]:
                sent.append(".")
                produced += 1
                out.append(sent)
                sent = []
                s += 1
        if sent:
            sent.append(".")
            out.append(sent)
        return out


def _cover(rng: np.random.Generator, sentences: list[list[str]], lexicon: list[str]) -> None:
    """Insert sentences using every lexicon entry the stream missed."""
    used = {w for sent in sentences for w in sent}
    missing = [w for w in lexicon if w not in used]
    rng.shuffle(missing)
    for lo in range(0, len(missing), 12):
        extra = missing[lo : lo + 12] + ["."]
        sentences.insert(int(rng.integers(0, len(sentences) + 1)), extra)


def word_corpus(seed: int, n_words: int, n_tokens: int) -> tuple[str, list[str]]:
    """Word-level text with a vocab of exactly ``n_words + 1`` surfaces.

    Returns the text and the lexicon (the ``+ 1`` is the period).
    """
    rng = np.random.default_rng([seed, 1])
    lexicon = _word_lexicon(rng, n_words)
    sentences = MarkovText(rng, lexicon).sentences(n_tokens)
    _cover(rng, sentences, lexicon)
    return "\n".join(" ".join(s) for s in sentences) + "\n", lexicon


def char_corpus(seed: int, n_chars: int) -> str:
    """Char-level text over exactly the 100 symbols of CHAR_ALPHABET.

    Words are mostly lowercase with rarer capitals, digits and accented
    letters; sentences start with a capital and end in terminal
    punctuation, so the order-4 contexts carry real structure.
    """
    rng = np.random.default_rng([seed, 2])
    lower = list(string.ascii_lowercase)
    rare = list(string.ascii_uppercase + string.digits + _LATIN_EXTRA + "'-")
    lexicon = []
    for _ in range(400):
        length = int(rng.integers(1, 8))
        chars = [lower[int(rng.integers(26))] if rng.random() < 0.93 else rare[int(rng.integers(len(rare)))]
                 for _ in range(length)]
        lexicon.append("".join(chars))
    stream = MarkovText(rng, lexicon)
    ends = list(".!?;:,")
    parts: list[str] = []
    total = 0
    while total < n_chars:
        for sent in stream.sentences(200):
            words = sent[:-1]
            text = " ".join(words)
            if text[:1] in string.ascii_lowercase:
                text = text[:1].upper() + text[1:]
            if rng.random() < 0.1:
                text = f"({text})"
            elif rng.random() < 0.1:
                text = f'"{text}"'
            text += ends[int(rng.integers(len(ends)))] if rng.random() < 0.3 else "."
            parts.append(text)
            total += len(text) + 1
            if total >= n_chars:
                break
    missing = [c for c in CHAR_ALPHABET if c != " " and not any(c in p for p in parts)]
    if missing:
        parts.insert(int(rng.integers(0, len(parts) + 1)), "".join(missing) + ".")
    return " ".join(parts) + " "


# Repetitiveness levels for the sample sets: (phrase length, mutation
# probability). A sample repeats its own phrase of that many Zipf words,
# replacing each word with a fresh draw at the given probability.
REPETITION_LEVELS = {
    "loop2": (2, 0.0),
    "loop3": (3, 0.02),
    "loop4": (4, 0.05),
    "phrase6": (6, 0.1),
    "phrase8": (8, 0.2),
    "phrase10": (10, 0.3),
    "phrase13": (13, 0.4),
    "phrase16": (16, 0.5),
    "phrase20": (20, 0.6),
    "phrase24": (24, 0.7),
}


def sample_sets(seed: int, lexicon: list[str], n_samples: int, length: int) -> dict[str, list[list[str]]]:
    """Continuation surface lists of graded repetitiveness.

    From near-degenerate two-word loops through mutated phrase repeats
    (REPETITION_LEVELS) to ``markov`` (the corpus process) and ``zipf``
    (independent Zipf draws, the most diverse).
    """
    rng = np.random.default_rng([seed, 3])
    n = len(lexicon)
    p = _zipf_weights(n)
    markov = MarkovText(rng, lexicon)
    out: dict[str, list[list[str]]] = {}
    for name, (k, mutate) in REPETITION_LEVELS.items():
        out[name] = []
        for _ in range(n_samples):
            phrase = [lexicon[int(i)] for i in rng.choice(n, size=k, p=p)]
            fresh = rng.choice(n, size=length, p=p)
            keep = rng.random(length) >= mutate
            out[name].append([phrase[t % k] if keep[t] else lexicon[int(fresh[t])] for t in range(length)])
    out["markov"] = [[w for s in markov.sentences(length + 20) for w in s][:length] for _ in range(n_samples)]
    out["zipf"] = [[lexicon[int(i)] for i in rng.choice(n, size=length, p=p)] for _ in range(n_samples)]
    return out


def _sentence(stream: MarkovText, n_words: int) -> str:
    words = [w for s in stream.sentences(n_words + 4) for w in s if w != "."][:n_words]
    return " ".join(words) + "."


def nli_triples(seed: int, lexicon: list[str], n_items: int) -> list[str]:
    """TSV lines context<TAB>entailed<TAB>contradicting."""
    rng = np.random.default_rng([seed, 4])
    stream = MarkovText(rng, lexicon)
    lines = []
    for _ in range(n_items):
        ctx = _sentence(stream, 10)
        lines.append("\t".join((ctx, _sentence(stream, 6), _sentence(stream, 6))))
    return lines


def stories(seed: int, lexicon: list[str], n_items: int) -> list[str]:
    """Seven-field TSV lines: four openings, two endings, correct label."""
    rng = np.random.default_rng([seed, 5])
    stream = MarkovText(rng, lexicon)
    lines = []
    for _ in range(n_items):
        fields = [_sentence(stream, 7) for _ in range(6)]
        fields.append("a" if rng.random() < 0.5 else "b")
        lines.append("\t".join(fields))
    return lines


def sentences(seed: int, lexicon: list[str], n_items: int) -> list[str]:
    """One sentence per line for the acceptability scorer."""
    rng = np.random.default_rng([seed, 6])
    stream = MarkovText(rng, lexicon)
    return [_sentence(stream, int(rng.integers(5, 15))) for _ in range(n_items)]


def sweep_csv(seed: int, n_models: int, n_points: int) -> str:
    """A sweep.csv in the v1 schema with log-curved quality/diversity."""
    rng = np.random.default_rng([seed, 7])
    header = ("model,strategy,param,n_samples,corpus_bleu,self_bleu,seq_rep_4,"
              "forward_ppl,reverse_ppl,seed,schema")
    rows = [header]
    for m in range(n_models):
        a, b = 0.05 + 0.05 * rng.random(), 0.2 * rng.random()
        for i in range(n_points):
            p = round(0.05 + 0.9 * i / max(1, n_points - 1), 4)
            x = float(0.05 + 0.9 * rng.random())
            y = float(max(1e-4, a * np.log(x) + b + 0.3 + 0.01 * rng.standard_normal()))
            rows.append(
                f"m{m},topp,{p!r},50,{y!r},{x!r},{float(rng.random())!r},"
                f"{float(20 + 80 * rng.random())!r},{float(50 + 200 * rng.random())!r},0,v1"
            )
    return "\n".join(rows) + "\n"
