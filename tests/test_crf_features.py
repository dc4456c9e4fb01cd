import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtag.corpus import NerLabel, Sentence, Token
from seqtag.embeddings import EmbeddingConfig, embed, init_random
from seqtag.features import sentence_features


def test_sample_first_token_features(sample_sentence):
    surface = sample_sentence.tokens[0].surface
    feats = sentence_features(sample_sentence)[0]
    assert feats["first_word"] == 1.0
    assert feats["BOS"] == 1.0
    assert feats["pos_bucket=0"] == 1.0
    assert feats[f"w0={surface}"] == 1.0
    for k in (1, 2, 3):
        assert f"pre{k}={surface[:k]}" in feats
        assert f"suf{k}={surface[-k:]}" in feats
    assert "has_hyphen" not in feats
    assert "has_digit" not in feats
    assert "last_word" not in feats
    assert f"w+1={sample_sentence.tokens[1].surface}" in feats
    assert not any(k.startswith("w-1=") for k in feats)


def test_one_token_sentence_has_both_boundary_flags():
    sent = Sentence((Token("solo", "n", NerLabel(None, None)),))
    feats = sentence_features(sent)[0]
    assert {"first_word", "last_word", "BOS", "EOS"} <= set(feats)


def test_myanmar_digits_set_has_digit():
    def digit_feature(surface):
        sent = Sentence((Token(surface, "num", NerLabel(None, None)),))
        return "has_digit" in sentence_features(sent)[0]

    assert digit_feature("၁၉၉၆")
    assert digit_feature("x3y")
    assert not digit_feature("abc")


def test_hyphen_indicator():
    sent = Sentence((Token("a-b", "n", NerLabel(None, None)),))
    assert "has_hyphen" in sentence_features(sent)[0]


def test_short_word_omits_long_affixes():
    sent = Sentence((Token("ab", "n", NerLabel(None, None)),))
    feats = sentence_features(sent)[0]
    assert "pre2=ab" in feats and "suf2=ab" in feats
    assert not any(k.startswith("pre3") or k.startswith("suf3") for k in feats)


def test_position_buckets_span_deciles():
    tokens = tuple(Token(f"w{i}", "n", NerLabel(None, None)) for i in range(10))
    sent = Sentence(tokens)
    for i in range(10):
        feats = sentence_features(sent)[i]
        assert feats[f"pos_bucket={i}"] == 1.0


def test_dense_embedding_features_match_composed_vector():
    table = init_random(["left", "mid", "right"], EmbeddingConfig(dim=4, bucket_count=7, seed=5))
    sent = Sentence(
        (
            Token("left", "n", NerLabel(None, None)),
            Token("mid", "n", NerLabel(None, None)),
            Token("right", "n", NerLabel(None, None)),
        )
    )
    feats = sentence_features(sent, table)[1]
    vector = embed(table, "mid")
    for k, component in enumerate(vector):
        if component != 0.0:
            assert feats[f"emb{k}"] == pytest.approx(float(component))


def test_sentence_features_covers_every_position(sample_sentence):
    feats = sentence_features(sample_sentence)
    assert len(feats) == len(sample_sentence)


# ---------------------------------------------------------------------------
# the sentence-level builder against a per-position transcription

_REFERENCE_DIGITS = set("0123456789") | {chr(cp) for cp in range(0x1040, 0x104A)}


def reference_features(sentence, i, embeddings=None):
    """One position's map, built key by key as a per-position builder
    would; the order of the keys is part of what is compared."""
    tokens = sentence.tokens
    n = len(tokens)
    surface = tokens[i].surface
    features = {f"w0={surface}": 1.0}
    if i == 0:
        features["BOS"] = 1.0
        features["first_word"] = 1.0
    else:
        features[f"w-1={tokens[i - 1].surface}"] = 1.0
    if i == n - 1:
        features["EOS"] = 1.0
        features["last_word"] = 1.0
    else:
        features[f"w+1={tokens[i + 1].surface}"] = 1.0
    for k in (1, 2, 3):
        if len(surface) >= k:
            features[f"pre{k}={surface[:k]}"] = 1.0
            features[f"suf{k}={surface[-k:]}"] = 1.0
    if "-" in surface:
        features["has_hyphen"] = 1.0
    if any(ch in _REFERENCE_DIGITS for ch in surface):
        features["has_digit"] = 1.0
    features[f"pos_bucket={10 * i // n}"] = 1.0
    if embeddings is not None:
        for k, component in enumerate(embed(embeddings, surface)):
            if component != 0.0:
                features[f"emb{k}"] = float(component)
    return features


_VOCAB = ["ab", "a-1", "\u1000\u1041", "x", "abcd"]


def _tables():
    subword = init_random(_VOCAB, EmbeddingConfig(dim=5, bucket_count=11, seed=3))
    # a component that is zero in every word's vector
    subword.word_vectors[:, 2] = 0.0
    subword.ngram_buckets[:, 2] = 0.0
    # word rows only: unknown words take the all-zero UNK vector
    words_only = init_random(_VOCAB, EmbeddingConfig(dim=3, bucket_count=0, seed=4))
    return {"none": None, "subword": subword, "words": words_only}


_TABLES = _tables()
_WORDS = st.text(alphabet="ab-19\u1000\u1040\u1049", min_size=1, max_size=5)


def _sentence(surfaces):
    return Sentence(tuple(Token(s, "n", NerLabel(None, None)) for s in surfaces))


@settings(max_examples=150, deadline=None)
@given(
    surfaces=st.lists(st.one_of(_WORDS, st.sampled_from(_VOCAB)), min_size=1, max_size=12),
    table=st.sampled_from(sorted(_TABLES)),
)
@example(surfaces=["\u1041\u1049"], table="none")  # one token, Myanmar digits
@example(surfaces=["a", "-b", "ab-", "abc", "\u1000"], table="subword")
@example(surfaces=["zz", "x"], table="words")  # the UNK fallback
def test_sentence_features_match_per_position_reference(surfaces, table):
    sentence = _sentence(surfaces)
    embeddings = _TABLES[table]
    maps = sentence_features(sentence, embeddings)
    assert len(maps) == len(surfaces)
    for i, features in enumerate(maps):
        expected = reference_features(sentence, i, embeddings)
        assert list(features.items()) == list(expected.items())
