import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
