"""Handcrafted indicator features (plus optional dense word-vector
features) for the classical linear-chain CRF.

Word context (previous/current/next surface, sentence-initial/final
flags), character affixes of length 1-3 over Unicode scalar values,
hyphen and digit indicators, and a decile position bucket. Feature
vectors are sparse string-keyed maps; indicators carry value 1.0.
A CRF model's embedding table adds its composed word vectors as features.

sentence_features builds every position's map in one pass over the
sentence's surfaces; extract_features returns one entry of it. Within
a map, keys come in a fixed order (the order above, affixes as pre1,
suf1, pre2, ...), which fixes the order in which training assigns
feature rows.
"""

from __future__ import annotations

import numpy as np

from seqtag.embeddings import embed

_ASCII_DIGITS = set("0123456789")
# Myanmar digits occupy U+1040 through U+1049
_MYANMAR_DIGITS = {chr(cp) for cp in range(0x1040, 0x104A)}
_DIGITS = frozenset(_ASCII_DIGITS | _MYANMAR_DIGITS)
# 10 * i // n for a position i < n
_BUCKET_KEYS = tuple(f"pos_bucket={b}" for b in range(10))


def extract_features(sentence, i, embeddings=None):
    """Sparse feature map for position i of a sentence.

    With an embedding table, the nonzero components of the composed word
    vector are added as dense features emb0..emb{dim-1}.
    """
    n = len(sentence)
    if not 0 <= i < n:
        raise IndexError(f"position {i} outside sentence of length {n}")
    return sentence_features(sentence, embeddings)[i]


def sentence_features(sentence, embeddings=None):
    """One sparse feature map per token, as extract_features gives it."""
    surfaces = [token.surface for token in sentence.tokens]
    n = len(surfaces)
    last = n - 1
    if embeddings is not None:
        emb_keys = [f"emb{k}" for k in range(embeddings.dim)]
    maps = []
    for i, surface in enumerate(surfaces):
        features = {"w0=" + surface: 1.0}
        if i == 0:
            features["BOS"] = features["first_word"] = 1.0
        else:
            features["w-1=" + surfaces[i - 1]] = 1.0
        if i == last:
            features["EOS"] = features["last_word"] = 1.0
        else:
            features["w+1=" + surfaces[i + 1]] = 1.0
        length = len(surface)
        if length >= 3:
            features.update({
                "pre1=" + surface[0]: 1.0, "suf1=" + surface[-1]: 1.0,
                "pre2=" + surface[:2]: 1.0, "suf2=" + surface[-2:]: 1.0,
                "pre3=" + surface[:3]: 1.0, "suf3=" + surface[-3:]: 1.0,
            })
        elif length == 2:
            features.update({
                "pre1=" + surface[0]: 1.0, "suf1=" + surface[1]: 1.0,
                "pre2=" + surface: 1.0, "suf2=" + surface: 1.0,
            })
        elif length == 1:
            features["pre1=" + surface] = features["suf1=" + surface] = 1.0
        if "-" in surface:
            features["has_hyphen"] = 1.0
        if not _DIGITS.isdisjoint(surface):
            features["has_digit"] = 1.0
        features[_BUCKET_KEYS[10 * i // n]] = 1.0
        if embeddings is not None:
            vector = embed(embeddings, surface)
            nonzero = np.flatnonzero(vector)
            features.update(zip([emb_keys[k] for k in nonzero], vector[nonzero].tolist()))
        maps.append(features)
    return maps
