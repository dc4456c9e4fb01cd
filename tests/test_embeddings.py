import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag import embeddings
from seqtag.embeddings import (
    EmbeddingConfig,
    EmbeddingFormatError,
    embed,
    init_random,
    load_text_vectors,
    ngram_bucket_ids,
)


def small_config(**kw):
    defaults = dict(dim=3, min_n=3, max_n=6, bucket_count=13, seed=7)
    defaults.update(kw)
    return EmbeddingConfig(**defaults)


# ---------------------------------------------------------------------------
# n-gram bucket ids, against an independent enumerator and hash


def brute_force_ngrams(word, min_n, max_n):
    # independent enumerator: all substrings by (start, length), minus the
    # whole wrapped string
    wrapped = "<" + word + ">"
    chars = list(wrapped)
    out = []
    for start in range(len(chars)):
        for length in range(min_n, max_n + 1):
            piece = chars[start : start + length]
            if len(piece) != length:
                continue
            if length == len(chars) and start == 0:
                continue
            out.append("".join(piece))
    return out


def fnv1a_reference(data):
    # independent FNV-1a written from the published constants
    acc = 2166136261
    for b in data:
        acc = ((acc ^ b) * 16777619) % (2**32)
    return acc


def reference_ids(word, min_n, max_n, bucket_count=2**32):
    return [
        fnv1a_reference(g.encode("utf-8")) % bucket_count
        for g in brute_force_ngrams(word, min_n, max_n)
    ]


def stand_in(min_n, max_n, bucket_count=2**32):
    # ngram_bucket_ids reads only these three fields of a table
    return types.SimpleNamespace(bucket_count=bucket_count, min_n=min_n, max_n=max_n)


def test_ngrams_two_letter_word():
    assert ngram_bucket_ids(stand_in(3, 3), "ab") == [
        fnv1a_reference(b"<ab"),
        fnv1a_reference(b"ab>"),
    ]


def test_ngrams_single_letter_word_excludes_full_form():
    assert ngram_bucket_ids(stand_in(3, 3), "a") == []


def test_ngrams_reject_empty_word():
    with pytest.raises(ValueError):
        ngram_bucket_ids(stand_in(3, 6), "")


def test_ngrams_burmese_word_matches_enumerator():
    word = "မန္တလေး"[:4]
    assert len(word) == 4
    assert ngram_bucket_ids(stand_in(3, 4), word) == reference_ids(word, 3, 4)


# characters of 1, 2, 3 and 4 UTF-8 bytes: ASCII, U+0080-U+07FF,
# Myanmar, emoji
WORD_CHARS = st.one_of(
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x1000, max_codepoint=0x109F),
    st.characters(min_codepoint=0x1F300, max_codepoint=0x1FAFF),
)


@settings(max_examples=300, deadline=None)
@given(
    st.text(WORD_CHARS, min_size=1, max_size=8),
    st.integers(1, 8),
    st.integers(0, 7),
    st.sampled_from([1, 7, 50_000, 2**32]),
)
def test_ngrams_match_enumerator(word, min_n, extra, bucket_count):
    # max_n up to 8 also runs past the wrapped length of short words
    max_n = min(min_n + extra, 8)
    table = stand_in(min_n, max_n, bucket_count)
    assert ngram_bucket_ids(table, word) == reference_ids(word, min_n, max_n, bucket_count)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=8, alphabet="abကခ"), st.integers(1, 4), st.integers(0, 3))
def test_ngram_count_formula(word, min_n, extra):
    max_n = min_n + extra
    wrapped_len = len(word) + 2
    expected = sum(max(0, wrapped_len - n + 1) for n in range(min_n, max_n + 1))
    if min_n <= wrapped_len <= max_n:
        expected -= 1
    assert len(ngram_bucket_ids(stand_in(min_n, max_n), word)) == expected


def test_hash_single_bucket_is_zero():
    ids = ngram_bucket_ids(stand_in(1, 4, bucket_count=1), "anything")
    assert ids and set(ids) == {0}


def test_hash_known_value():
    assert fnv1a_reference(b"a") == 0xE40C292C
    table = types.SimpleNamespace(bucket_count=2**32, min_n=1, max_n=1)
    # the 1-grams of "<a>" in order: "<", "a", ">"
    assert ngram_bucket_ids(table, "a")[1] == 0xE40C292C


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=1, max_size=10), st.integers(1, 10_000))
def test_hash_matches_reference(word, buckets):
    table = stand_in(3, 6, buckets)
    assert ngram_bucket_ids(table, word) == reference_ids(word, 3, 6, buckets)


def test_hash_deterministic_across_calls():
    table = stand_in(3, 6, 999)
    assert ngram_bucket_ids(table, "တက္က") == ngram_bucket_ids(table, "တက္က")


# ---------------------------------------------------------------------------
# text vector loading


def test_load_tiny_file():
    table = load_text_vectors("2 3\na 1 0 0\nb 0 1 0\n", small_config())
    assert table.vocab == {"a": 0, "b": 1}
    assert table.dim == 3
    assert not table.subword
    np.testing.assert_array_equal(table.word_vectors[0], [1, 0, 0])
    assert table.ngram_buckets.shape == (0, 3)
    assert table.bucket_count == 0


def test_load_arity_mismatch_reports_line():
    with pytest.raises(EmbeddingFormatError) as exc:
        load_text_vectors("2 3\na 1 0 0\nb 0 1\n", small_config())
    assert exc.value.line_no == 3


def test_load_duplicate_word_rejected():
    with pytest.raises(EmbeddingFormatError, match="duplicate"):
        load_text_vectors("2 3\na 1 0 0\na 0 1 0\n", small_config())


def test_load_dim_mismatch_rejected():
    with pytest.raises(EmbeddingFormatError, match="dimension"):
        load_text_vectors("1 4\na 1 0 0 0\n", small_config())


def test_load_count_mismatch_rejected():
    with pytest.raises(EmbeddingFormatError):
        load_text_vectors("3 3\na 1 0 0\nb 0 1 0\n", small_config())


@pytest.mark.parametrize("count", ["-1", "99999999999999"], ids=["negative", "huge"])
def test_load_count_outside_file_rejected_at_header(count):
    # refused before a (count, dim) block is allocated
    with pytest.raises(EmbeddingFormatError, match="^line 1: count") as exc:
        load_text_vectors(f"{count} 2\na 1 0\n", EmbeddingConfig(dim=2))
    assert exc.value.line_no == 1


@pytest.mark.parametrize("word", ["a\u00a0b", "a\u2028b"], ids=["no-break-space", "line-separator"])
def test_load_word_holding_unicode_space_or_line_break(word):
    # corpus surfaces may hold either character, so vector words may too
    table = load_text_vectors(f"2 3\n{word} 1 0 0\nb 0 1 0\n", small_config())
    assert table.vocab == {word: 0, "b": 1}
    np.testing.assert_array_equal(table.word_vectors[0], [1, 0, 0])


def test_load_zero_vector_survives():
    lines = ["10 3"] + [f"w{i} {i} {i} {i}" for i in range(9)] + ["zed 0 0 0"]
    table = load_text_vectors("\n".join(lines), small_config())
    # manual parse of the fixture: row 9 is all zeros
    np.testing.assert_array_equal(table.word_vectors[table.vocab["zed"]], [0, 0, 0])
    np.testing.assert_array_equal(embed(table, "zed"), [0, 0, 0])


def test_load_unk_is_mean_of_rows():
    table = load_text_vectors("2 3\na 1 0 0\nb 0 1 0\n", small_config())
    np.testing.assert_allclose(table.unk_vector, [0.5, 0.5, 0.0])
    np.testing.assert_allclose(embed(table, "missing"), [0.5, 0.5, 0.0])


def reference_load(text, dim):
    """The per-line reader, transcribed: (vocab, vectors, unk), or the
    EmbeddingFormatError it raises."""
    lines = text.removesuffix("\n").split("\n")
    if not lines[0].strip():
        raise EmbeddingFormatError("missing header line", line_no=1)
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError("header must be 'count dim'", line_no=1)
    try:
        count, file_dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError("header must be 'count dim'", line_no=1) from None
    if not 0 <= count < len(lines):
        raise EmbeddingFormatError(f"count {count} outside 0..{len(lines) - 1}", 1)
    if file_dim != dim:
        raise EmbeddingFormatError(
            f"file dimension {file_dim} does not match configured dim {dim}"
        )
    vocab = {}
    vectors = np.zeros((count, dim))
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip(" \t\r")
        if not line:
            continue
        word, *rest = re.split(r"[ \t]+", line, maxsplit=1)
        values = rest[0].split() if rest else []
        if len(values) != dim:
            raise EmbeddingFormatError(
                f"expected word + {dim} floats, got {len(values) + 1} fields", line_no
            )
        if word in vocab:
            raise EmbeddingFormatError(f"duplicate word {word!r}", line_no)
        if len(vocab) >= count:
            raise EmbeddingFormatError(f"more rows than the declared count {count}", line_no)
        try:
            vectors[len(vocab)] = [float(x) for x in values]
        except ValueError:
            raise EmbeddingFormatError("non-numeric vector component", line_no) from None
        vocab[word] = len(vocab)
    if len(vocab) != count:
        raise EmbeddingFormatError(f"declared {count} rows, found {len(vocab)}")
    return vocab, vectors, vectors.mean(axis=0) if count else np.zeros(dim)


def load_outcome(load, text, dim):
    """What a reader makes of text: the table's vocab and bits, or the
    error's type, message and line number."""
    try:
        vocab, vectors, unk = load(text, dim)
    except EmbeddingFormatError as exc:
        return type(exc), str(exc), exc.line_no
    bits = vectors.view(np.int64).tolist(), unk.view(np.int64).tolist()
    return list(vocab.items()), vectors.shape, bits


def program_load(text, dim):
    table = load_text_vectors(text, EmbeddingConfig(dim=dim))
    return table.vocab, table.word_vectors, table.unk_vector


# the Myanmar block, a no-break space and a line separator: none ends a word
_WORD_CHARS = st.one_of(st.characters(min_codepoint=0x1000, max_codepoint=0x109F),
                        st.sampled_from("\u00a0\u2028"))
_PLAIN_SPELLINGS = st.one_of(
    st.floats().map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.5f}"),
    st.floats(allow_nan=False).map(lambda v: f"{v:e}"),
    st.sampled_from(["inf", "-Infinity", "nan", "-nan", "1e-400", "4.9e-324", "-0.0", "+.5"]),
)
# spellings float() takes and np.loadtxt does not, and ones neither takes
_ODD_SPELLINGS = st.sampled_from(["1_000", "١٢", "၁.၅", "1,5", "x", "0x1p3", ""])


@st.composite
def vector_files(draw):
    """(text, dim): mostly fastText-like files, with odd spellings,
    separators, blank lines, short or long rows, duplicate words and
    wrong counts in the rest."""
    odd = draw(st.booleans())
    dim = draw(st.integers(1, 4))
    words = draw(st.lists(st.text(_WORD_CHARS, min_size=1, max_size=3), max_size=6,
                          unique=True))
    if odd and words and draw(st.booleans()):
        words.append(draw(st.sampled_from(words)))
    spellings = st.one_of(_PLAIN_SPELLINGS, _ODD_SPELLINGS) if odd else _PLAIN_SPELLINGS
    gaps = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"]) if odd else st.just(" ")
    lines = []
    for word in words:
        n_values = dim + (draw(st.sampled_from([0, 0, 0, -1, 1])) if odd else 0)
        values = draw(st.lists(spellings, min_size=n_values, max_size=n_values))
        trailing = draw(st.sampled_from(["", " "]))  # fastText ends rows with a space
        lines.append(word + "".join(draw(gaps) + v for v in values) + trailing)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])))
    count = len(words) + (draw(st.sampled_from([0, 0, -1, 1])) if odd else 0)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([f"{count} {dim}", *lines]) + draw(st.sampled_from([eol, ""])), dim


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the mean of inf and -inf
@settings(max_examples=400, deadline=None)
@given(vector_files())
def test_load_matches_per_line_reference(file):
    text, dim = file
    assert load_outcome(program_load, text, dim) == load_outcome(reference_load, text, dim)


def test_load_single_space_rows_in_one_bulk_parse(monkeypatch):
    # fastText's layout: CRLF line ends, a trailing space, single spaces
    text = "2 3\r\nက 1.5 -0.0 nan \r\nခ 1e-400 inf 2 \r\n"
    expected = load_outcome(reference_load, text, 3)

    def per_line(*args):
        raise AssertionError("per-line reader called")

    monkeypatch.setattr(embeddings, "_parse_rows", per_line)
    assert load_outcome(program_load, text, 3) == expected
    with pytest.raises(AssertionError, match="per-line"):
        load_text_vectors("2 3\nက 1.5\t-0.0 nan\nခ 1e-400 inf 2\n", small_config())


def test_load_peak_memory_holds_one_copy_of_the_rows():
    # 5,000 x 300, 14.3 MB of text. The per-line reader peaks at 28,839,046
    # traced bytes (CPython 3.11, numpy 2.4) while splitting the text into
    # lines; the lines and the 12 MB table stay below that, and a list of
    # the rows' value fields beside them would not
    values = np.random.default_rng(0).uniform(-1, 1, (5000, 300)).tolist()
    text = "5000 300\n" + "".join(
        f"w{i} " + " ".join(f"{v:.6f}" for v in row) + "\n" for i, row in enumerate(values)
    )
    config = EmbeddingConfig(dim=300)
    load_text_vectors("1 300\nw " + "0 " * 300, config)  # first-call allocations
    tracemalloc.start()
    try:
        table = load_text_vectors(text, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.word_vectors.shape == (5000, 300)
    assert peak <= 1.05 * 28_839_046


# ---------------------------------------------------------------------------
# composition


def test_embed_in_vocab_without_subword_is_exact_row():
    table = load_text_vectors("2 3\na 1 0 0\nb 0 1 0\n", small_config())
    np.testing.assert_array_equal(embed(table, "a"), [1, 0, 0])


def test_embed_in_vocab_with_zero_buckets_scales_down():
    table = init_random(["ab", "b"], small_config(min_n=3, max_n=3))
    table.word_vectors[table.vocab["ab"]] = [1, 0, 0]
    table.ngram_buckets[...] = 0.0
    n = len(brute_force_ngrams("ab", 3, 3))
    assert n == 2
    np.testing.assert_allclose(embed(table, "ab"), np.array([1, 0, 0]) / (1 + n))


def test_embed_oov_with_zero_buckets_is_zero():
    table = init_random(["a"], small_config())
    table.ngram_buckets[...] = 0.0
    np.testing.assert_array_equal(embed(table, "xyz"), [0, 0, 0])


def test_embed_oov_matches_bucket_average_oracle():
    cfg = small_config(seed=11)
    table = init_random(["alpha", "beta"], cfg)
    word = "oovword"
    got = embed(table, word)
    # brute-force average over the same bucket rows
    ids = reference_ids(word, cfg.min_n, cfg.max_n, cfg.bucket_count)
    total = np.zeros(cfg.dim)
    for i in ids:
        total = total + table.ngram_buckets[i]
    np.testing.assert_allclose(got, total / len(ids), atol=1e-15)


def test_embed_in_vocab_matches_average_oracle():
    cfg = small_config(seed=3)
    table = init_random(["alpha", "beta"], cfg)
    got = embed(table, "alpha")
    ids = reference_ids("alpha", cfg.min_n, cfg.max_n, cfg.bucket_count)
    total = table.word_vectors[table.vocab["alpha"]].copy()
    for i in ids:
        total += table.ngram_buckets[i]
    np.testing.assert_allclose(got, total / (1 + len(ids)), atol=1e-15)


def test_embed_is_pure():
    table = init_random(["alpha"], small_config())
    first = embed(table, "alpha")
    second = embed(table, "alpha")
    np.testing.assert_array_equal(first, second)
    first[:] = 99.0  # mutating the result must not touch the table
    np.testing.assert_array_equal(embed(table, "alpha"), second)


def test_bucket_ids_empty_when_subword_off():
    table = load_text_vectors("1 3\na 1 0 0\n", small_config())
    assert ngram_bucket_ids(table, "anything") == []


# ---------------------------------------------------------------------------
# random initialization


def test_init_random_same_seed_identical():
    cfg = small_config(seed=42)
    a = init_random(["x", "y", "z"], cfg)
    b = init_random(["x", "y", "z"], cfg)
    np.testing.assert_array_equal(a.word_vectors, b.word_vectors)
    np.testing.assert_array_equal(a.ngram_buckets, b.ngram_buckets)


def test_init_random_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        init_random(["x", "x"], small_config())


def test_init_random_range():
    cfg = EmbeddingConfig(dim=300, bucket_count=10, seed=1)
    table = init_random(["w"], cfg)
    assert table.word_vectors.shape == (1, 300)
    bound = 0.5 / 300
    assert np.all(np.abs(table.word_vectors) <= bound)
    assert np.all(np.abs(table.ngram_buckets) <= bound)


def test_init_random_mean_within_three_sigma():
    cfg = EmbeddingConfig(dim=50, bucket_count=1, seed=123)
    vocab = [f"w{i}" for i in range(1000)]
    table = init_random(vocab, cfg)
    values = table.word_vectors.ravel()
    bound = 0.5 / cfg.dim
    # uniform on [-b, b]: mean 0, variance b^2/3
    sigma_of_mean = bound / np.sqrt(3 * values.size)
    assert abs(values.mean()) <= 3 * sigma_of_mean
