import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genteval.corpus import (
    CorpusSplits,
    GramTable,
    Vocab,
    build_pair_datasets,
    encode,
    load_splits,
    ngram_windows,
    read_ids_file,
    row_lists,
    save_splits,
    segment_sentences,
    split_corpus,
    surface_tokens,
    tfidf_scores,
    tokenize,
    write_ids_file,
)
from genteval.errors import (
    BadOrder,
    ConfigError,
    CorpusTooSmall,
    EmptyInput,
    InsufficientData,
)

from oracles import (
    check_ngram_windows,
    naive_order1_rank,
    naive_read_ids_file,
    naive_tokenize,
    naive_word_surfaces,
    naive_write_ids_file,
    windows_of,
)


# --- tokenization -----------------------------------------------------------


# Letters, digits and marks of several scripts, punctuation (ASCII,
# CJK, Arabic, general), symbols, and whitespace.
_MIXED = "aZé9٣½Ⅻ五ßǅ,.!?¿«»、。؟–—‐()·$+€©́̈ \t\n\u3000"


@given(st.text(alphabet=st.sampled_from(_MIXED)) | st.text())
def test_word_surfaces_fast_path_matches_character_loop(text):
    from genteval.corpus import _word_surfaces

    assert _word_surfaces(text) == naive_word_surfaces(text)


def test_alphanumeric_characters_are_never_punctuation():
    # The premise of the fast path, over every code point.
    import sys
    import unicodedata

    assert not [
        c for c in range(sys.maxunicode + 1)
        if chr(c).isalnum() and unicodedata.category(chr(c)).startswith("P")
    ]


def test_word_scheme_detaches_punctuation():
    assert surface_tokens("Hi, there!", "word") == ["Hi", ",", "there", "!"]


def test_char_scheme_keeps_whitespace():
    assert surface_tokens("a b", "char") == ["a", " ", "b"]


def test_tokenize_assigns_first_occurrence_ids():
    ids, vocab = tokenize("a b a c", "word")
    assert ids.dtype == np.int64 and ids.tolist() == [0, 1, 0, 2]
    assert vocab.tokens == ("a", "b", "c")


@given(st.text(alphabet=st.sampled_from(_MIXED), min_size=1) | st.text(min_size=1), st.sampled_from(["word", "char"]))
def test_tokenize_matches_the_per_surface_dict_loop(text, scheme):
    want_ids, want_vocab = naive_tokenize(text, scheme)
    if not want_ids:
        with pytest.raises(EmptyInput):
            tokenize(text, scheme)
        return
    ids, vocab = tokenize(text, scheme)
    assert ids.dtype == np.int64 and ids.tolist() == want_ids
    assert vocab.tokens == want_vocab


def test_tokenize_rejects_empty():
    with pytest.raises(EmptyInput):
        tokenize("   ", "word")


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError):
        surface_tokens("x", "bpe")


def test_detokenize_char_is_exact_inverse():
    text = "The cat sat, twice!"
    ids, vocab = tokenize(text, "char")
    assert "".join(vocab.tokens[i] for i in ids) == text


@given(st.text(alphabet="abc .", min_size=1).filter(lambda s: s.strip()))
def test_word_roundtrip_up_to_whitespace(text):
    ids, vocab = tokenize(text, "word")
    again, _ = tokenize(" ".join(vocab.tokens[i] for i in ids), "word")
    assert again.tolist() == ids.tolist()


def test_encode_skip_drops_oov():
    _, vocab = tokenize("a b c", "word")
    ids = encode("a x b", vocab, "word", on_oov="skip")
    assert ids.dtype == np.int64 and ids.tolist() == [0, 1]
    with pytest.raises(EmptyInput):
        encode("a x b", vocab, "word", on_oov="error")


def test_vocab_rejects_duplicates():
    with pytest.raises(ConfigError):
        Vocab(["a", "a"])


def test_token_sequence_bounds_checked():
    # The ids that ``trace --ids``/``--context-ids`` take from outside: at least one, each in the vocab.
    from genteval.harness.cli import _vocab_ids

    vocab = Vocab(["a", "b"])
    with pytest.raises(ConfigError):
        _vocab_ids("0 2", vocab)
    with pytest.raises(EmptyInput):
        _vocab_ids(" ", vocab)
    with pytest.raises(ConfigError, match="token id -1 out of range"):
        _vocab_ids("1 -1 0 5", vocab)
    with pytest.raises(ConfigError, match="token id 5 out of range"):
        _vocab_ids("1,5,0", vocab)
    assert _vocab_ids("1, 0", vocab) == (1, 0)


# --- splitting --------------------------------------------------------------


def _range_seq(n):
    return np.arange(n), Vocab.placeholder(n)


def test_split_partitions_chunks_in_order():
    splits = split_corpus(*_range_seq(100), 10, (0.8, 0.1, 0.1))
    assert splits.counts == (8, 1, 1)
    parts = (splits.train, splits.dev, splits.test)
    assert all(part.dtype == np.int64 and not part.flags.writeable for part in parts)
    assert np.concatenate(parts).ravel().tolist() == list(range(100))


def test_split_drops_trailing_remainder():
    splits = split_corpus(*_range_seq(35), 10, (0.4, 0.3, 0.3))
    # 3 chunks: floor(3*0.4)=1 train, floor(3*0.3)=0 dev, rest test.
    assert splits.counts == (1, 0, 2)
    assert splits.train.shape == (1, 10) and splits.dev.shape == (0, 10) and splits.test.shape == (2, 10)


def test_split_too_small():
    with pytest.raises(CorpusTooSmall):
        split_corpus(*_range_seq(25), 10)


def test_split_rejects_bad_ratios():
    with pytest.raises(ConfigError):
        split_corpus(*_range_seq(100), 10, (0.5, 0.4, 0.2))


def test_splits_in_memory_are_checked_against_the_vocab():
    with pytest.raises(ConfigError, match="test split has a token id out of range"):
        CorpusSplits(Vocab.placeholder(3), 2, (0.5, 0, 0.5), train=[[0, 1]], test=[[2, 3]])
    splits = CorpusSplits(Vocab.placeholder(3), 2, (1, 0, 0), train=[[0, 1], [2, 2]])
    assert splits.counts == (2, 0, 0)


@given(
    st.integers(min_value=30, max_value=300),
    st.integers(min_value=2, max_value=9),
)
def test_split_counts_sum_to_chunks(n, seq_len):
    splits = split_corpus(*_range_seq(n), seq_len)
    assert sum(splits.counts) == n // seq_len


# --- n-grams ----------------------------------------------------------------


def test_ngram_windows_match_oracle():
    ids = [1, 2, 1, 2, 1, 3]
    check_ngram_windows([ids], 3, ngram_windows(ids, [len(ids)], 3))


def test_ngram_windows_short_input_empty():
    _, _, ids, _ = ngram_windows([1, 2], [2], 3)
    assert [a.tolist() for a in ids] == [[0, 1], [0, -1], [-1, -1]]


@st.composite
def _id_lists(draw):
    top = draw(st.sampled_from([2, 4, 5000]))
    return draw(st.lists(st.lists(st.integers(0, top), max_size=12), max_size=40))


@given(_id_lists(), st.integers(min_value=1, max_value=5))
@example([[1, 2], [3], []], 4)  # order 3 has a window, order 4 none
@example([], 2)
@settings(max_examples=150, deadline=None)
def test_ngram_windows_match_naive_ngrams(seqs, max_n):
    check_ngram_windows(seqs, max_n, windows_of(seqs, max_n))


@given(st.lists(st.integers(0, 7) | st.integers(0, 5000), max_size=60))
def test_order_one_bincount_rank_matches_np_unique(flat):
    keys, rank = naive_order1_rank(flat)
    _, _, ids, table = ngram_windows(flat, [len(flat)], 1)
    assert ids[0].tolist() == rank.tolist()
    assert table.keys[0][:-1].tolist() == keys.tolist()


def test_ngram_windows_reject_order_zero():
    with pytest.raises(BadOrder):
        ngram_windows([1, 2], [2], 0)


def test_ngram_windows_refuse_negative_ids_and_lengths_that_miss_the_ids():
    with pytest.raises(ConfigError, match="non-negative"):
        ngram_windows([1, -1], [2], 2)
    with pytest.raises(ConfigError, match="lengths sum to 3"):
        ngram_windows([1, 2], [1, 2], 2)


def test_ngram_windows_stop_ranking_at_the_longest_sequence():
    with mock.patch.object(np, "unique", wraps=np.unique) as ranked:
        _, _, ids, table = ngram_windows([1, 2], [2], 10**6)
    assert ranked.call_count <= 2
    assert len(ids) == len(table.keys) == 10**6
    assert table.find(10**6, np.array([0, -1]), np.array([1, -1])).tolist() == [-1, -1]


@given(_id_lists(), st.integers(min_value=1, max_value=14), st.data())  # orders past the longest sequence too
@settings(max_examples=150, deadline=None)
def test_gram_table_find_matches_a_dict_lookup(seqs, max_n, data):
    flat, _, ids, table = windows_of(seqs, max_n)
    # Per order, each gram's row, read from the windows; order 0 holds the empty gram.
    rows = [{(): 0}] + [{} for _ in range(max_n)]
    for o in range(1, max_n + 1):
        for i, r in enumerate(ids[o - 1].tolist()):
            if r >= 0:
                rows[o][tuple(flat[i : i + o].tolist())] = r
    base = table.base
    held = sorted({t for s in seqs for t in s})
    # Ids the table holds, ids it lacks, id -1, base - 1 and above (an ffn's
    # pad id, an id of a larger vocab) and ids below -1.
    pick = st.sampled_from(held + [-1, -7, base - 1, base, base + 40, 10**6] + list(range(base - 1)))
    for o in range(1, max_n + 1):
        spelled = {r: g for g, r in rows[o - 1].items()}
        n = data.draw(st.integers(1, 12), label="queries")
        prefix = data.draw(st.lists(st.sampled_from([-1, *spelled]), min_size=n, max_size=n), label="rows")
        query = data.draw(st.lists(pick, min_size=n, max_size=n), label="ids")
        want = [rows[o].get(spelled[r] + (i,), -1) if r >= 0 else -1 for r, i in zip(prefix, query)]
        got = table.find(o, np.array(prefix, dtype=np.int64), table.clip(np.array(query, dtype=np.int64)))
        assert got.tolist() == want
    # The grams spelled back from the keys build the same keys.
    again = GramTable.of_grams([table.grams(o) for o in range(1, max_n + 1)])
    assert [k.tobytes() for k in again.keys] == [k.tobytes() for k in table.keys]
    for o in range(1, max_n + 1):
        assert table.grams(o).tolist() == sorted(map(list, rows[o]))


# --- sentence segmentation --------------------------------------------------


def test_segments_on_terminal_then_uppercase():
    got = segment_sentences("The cat sat. The dog ran! Did it? yes it did. End")
    assert got == ["The cat sat.", "The dog ran!", "Did it? yes it did.", "End"]


def test_segment_requires_uppercase_continuation():
    assert segment_sentences("wait. still going") == ["wait. still going"]


def test_segment_end_of_text_terminates():
    assert segment_sentences("One. Two.") == ["One.", "Two."]


# --- sentence pairs ---------------------------------------------------------


def _sentences():
    text = "A b. C d. E f. G h. I j."
    _, vocab = tokenize(text, "word")
    return [encode(s, vocab, "word") for s in segment_sentences(text)]


def test_nsp_negative_never_true_successor():
    sents = _sentences()
    for pos, neg in build_pair_datasets(sents, "nsp", 4, seed=3):
        assert neg.first.tolist() == pos.first.tolist()
        true_next = pos.second.tolist()
        assert neg.second.tolist() != true_next


def test_nsp_negative_is_never_a_copy_of_the_true_successor():
    # "A b." recurs as separate arrays of equal content: none of them is a
    # negative where it is the true successor, by content, not by object.
    text = "A b. C d. A b. E f. A b. G h. A b."
    _, vocab = tokenize(text, "word")
    sents = [encode(s, vocab, "word") for s in segment_sentences(text)]
    repeat = sents[0].tolist()
    for seed in range(20):
        items = build_pair_datasets(sents, "nsp", len(sents) - 1, seed=seed)
        assert sum(pos.second.tolist() == repeat for pos, _ in items) == 3
        for pos, neg in items:
            assert neg.first is pos.first
            assert neg.second.tolist() != pos.second.tolist()


def test_nsp_with_every_sentence_equal_to_the_successor_is_insufficient():
    _, vocab = tokenize("A b.", "word")
    sents = [encode("A b.", vocab, "word") for _ in range(4)]
    with pytest.raises(InsufficientData, match="every sentence equals the true successor"):
        build_pair_datasets(sents, "nsp", 2, seed=0)
    assert len(build_pair_datasets(sents, "sop", 2, seed=0)) == 2


def test_sop_negative_is_reversed_positive():
    sents = _sentences()
    for pos, neg in build_pair_datasets(sents, "sop", 4, seed=0):
        assert (neg.second.tolist(), neg.first.tolist()) == (pos.first.tolist(), pos.second.tolist())


def test_pairs_deterministic_and_capped():
    sents = _sentences()
    a = build_pair_datasets(sents, "nsp", 3, seed=9)
    b = build_pair_datasets(sents, "nsp", 3, seed=9)
    assert [(p.first.tolist(), n.second.tolist()) for p, n in a] == [
        (p.first.tolist(), n.second.tolist()) for p, n in b
    ]
    with pytest.raises(InsufficientData):
        build_pair_datasets(sents, "nsp", 10, seed=0)


# --- tf-idf -----------------------------------------------------------------


def test_tfidf_hand_value():
    # Two docs of 4 tokens; token 0 occurs twice in doc 0 and nowhere in
    # doc 1: tf = 2/4, idf = ln(2/1). Token 3 likewise in doc 1.
    seq = np.array([0, 0, 1, 2, 1, 2, 3, 3])
    half_ln2 = pytest.approx(0.5 * math.log(2.0))
    assert tfidf_scores(seq, 4) == [half_ln2, half_ln2, 0.0, 0.0, 0.0, 0.0, half_ln2, half_ln2]


def test_tfidf_everywhere_token_scores_zero():
    seq = (0, 1, 0, 2, 0, 1)
    targets = tfidf_scores(seq, 2)
    assert [targets[p] for p in (0, 2, 4)] == [0.0, 0.0, 0.0]


def test_tfidf_invariant_under_id_permutation():
    seq = (0, 1, 2, 0, 3, 4, 1, 1)
    perm = {0: 3, 1: 4, 2: 0, 3: 1, 4: 2}
    seq_p = tuple(perm[i] for i in seq)
    assert tfidf_scores(seq, 4) == pytest.approx(tfidf_scores(seq_p, 4))


def test_position_targets_cover_full_docs_only():
    seq = (0, 1, 2, 0, 1)
    assert len(tfidf_scores(seq, 2)) == 4


# --- persistence ------------------------------------------------------------


def test_ids_file_roundtrip(tmp_path):
    path = tmp_path / "x.ids.txt"
    write_ids_file(path, [[1, 2, 3], [4]], vocab_size=9)
    flat, bounds, vocab_size = read_ids_file(path)
    assert flat.tolist() == [1, 2, 3, 4] and bounds.tolist() == [0, 3, 4, 4]  # then the empty text after the last newline
    assert vocab_size == 9


_ID_ROWS = st.lists(st.lists(st.integers(0, 30) | st.integers(0, 10**6), max_size=9), max_size=8)


@given(rows=_ID_ROWS)
@example(rows=[[10**6, 0], [], [7, 10**6 - 1, 10]])
@settings(max_examples=40, deadline=None)
def test_write_ids_file_matches_the_per_id_writer(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("ids")
    write_ids_file(out / "fast.txt", rows, vocab_size=10**6 + 1)
    naive_write_ids_file(out / "naive.txt", rows, vocab_size=10**6 + 1)
    assert (out / "fast.txt").read_bytes() == (out / "naive.txt").read_bytes()
    if rows and all(len(r) == len(rows[0]) for r in rows):  # a matrix writes as its rows do
        write_ids_file(out / "matrix.txt", np.array(rows, dtype=np.int64).reshape(len(rows), -1), 10**6 + 1)
        assert (out / "matrix.txt").read_bytes() == (out / "naive.txt").read_bytes()


def test_write_ids_file_refuses_a_negative_id(tmp_path):
    with pytest.raises(ConfigError, match="non-negative"):
        write_ids_file(tmp_path / "x.txt", [[1, -2]], vocab_size=3)
    assert not (tmp_path / "x.txt").exists()


def test_ids_file_requires_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(EmptyInput):
        read_ids_file(path)


def _lines(path):
    """``read_ids_file`` as the naive reader returns it: the non-empty lines and the vocab size."""
    flat, bounds, vocab_size = read_ids_file(path)
    return [row for row in row_lists(flat.tolist(), bounds) if row], vocab_size


def _read_outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - the two readers must fail alike
        return type(exc).__name__, str(exc)


# Mostly what write_ids_file writes, plus what only the line reader accepts
# (tabs, signs, underscores, other digits, CR line ends) or rejects.
_IDS_TEXT = st.lists(
    st.sampled_from(list("0123456789") * 3 + [" "] * 8 + ["\n"] * 4 + list("\t\r-+_x\u0663\u00a0")),
    max_size=80,
).map("".join)


@given(body=_IDS_TEXT, vocab_size=st.sampled_from([0, 7, 100, 10**18]))
def test_read_ids_file_matches_the_line_reader(tmp_path_factory, body, vocab_size):
    path = tmp_path_factory.mktemp("ids") / "x.ids.txt"
    path.write_bytes(f"#vocab_size={vocab_size}\n{body}".encode("utf-8"))
    assert _read_outcome(_lines, path) == _read_outcome(naive_read_ids_file, path)


def test_read_ids_file_parses_long_and_padded_ids(tmp_path):
    path = tmp_path / "x.ids.txt"
    for body in ("007  12\n\n\n3 \n", "1" * 18 + "\n" + "2" * 19, "9" * 18):
        path.write_text(f"#vocab_size={2**63 - 1}\n{body}", encoding="utf-8")
        assert _lines(path) == naive_read_ids_file(path)
    # Every id must fit an int64, so no vocab may be larger.
    path.write_text(f"#vocab_size={2**63}\n1\n", encoding="utf-8")
    assert _read_outcome(_lines, path) == _read_outcome(naive_read_ids_file, path)
    assert _read_outcome(_lines, path)[0] == "DataError"


def test_splits_roundtrip(tmp_path):
    ids, vocab = tokenize("a b c d e f g h i j k l m n o p q r s t", "word")
    splits = split_corpus(ids, vocab, 5, (0.5, 0.25, 0.25))
    tokenizer = {"scheme": "word", "vocab": list(vocab.tokens)}
    manifest_path = save_splits(tmp_path, splits, tokenizer, seed=4)
    loaded, manifest = load_splits(manifest_path)
    assert loaded.counts == splits.counts
    assert loaded.seq_len == splits.seq_len
    for name in ("train", "dev", "test"):
        part = getattr(loaded, name)
        assert part.tolist() == getattr(splits, name).tolist()
        assert part.dtype == np.int64 and part.shape[1] == 5 and not part.flags.writeable
    assert manifest["seed"] == 4
    assert manifest["tokenizer"]["scheme"] == "word"


def test_manifest_is_stable_json(tmp_path):
    ids, vocab = tokenize("a b c d e f g h i j k l", "word")
    splits = split_corpus(ids, vocab, 4, (0.4, 0.3, 0.3))
    tok = {"scheme": "word", "vocab": list(vocab.tokens)}
    p1 = save_splits(tmp_path / "one", splits, tok, seed=0)
    p2 = save_splits(tmp_path / "two", splits, tok, seed=0)
    assert p1.read_bytes() == p2.read_bytes()
    json.loads(p1.read_text())
