"""Model format v1, written on the test side: the layout older builds
wrote and ``load_model`` still reads. v1 differs from v2 only in its
string-list blocks, so every other block is written by ``modelfile``.

Run as a script to write the v1 golden image, with src and tests on
PYTHONPATH: ``python -m modelfile_v1 OUT``.
"""

import io
import struct
import sys

import numpy as np

from seqtag.corpus import NerLabel
from seqtag.crf import CrfModel
from seqtag.embeddings import EmbeddingTable
from seqtag.modelfile import MAGIC, _crf_blocks, _write_block

# feature keys in Myanmar script, one with U+00A0, an empty one, and two
# of equal length ("p=ab", "p=cd") so that one can be turned into the other
GOLDEN_FEATURES = [
    "bias", "w=\u1019\u103c\u1014\u103a\u1019\u102c", "suf=\u102c",
    "w=a\u00a0b", "", "p=ab", "p=cd",
]
GOLDEN_KIND = "crf"
GOLDEN_SNAPSHOT = "model = crf\ntask = joint\n"


def golden_model():
    labels = [
        (NerLabel.parse("O"), "n"),
        (NerLabel.parse("S-PER"), "n"),
        (NerLabel.parse("B-LOC"), "fw"),
    ]
    table = EmbeddingTable(
        vocab={"\u1000\u102d\u102f": 0, "caf\u00e9": 1, "na\u00efve": 2},
        word_vectors=np.arange(6.0).reshape(3, 2) / 2,
        ngram_buckets=np.arange(8.0).reshape(4, 2) / 4 - 1,
        min_n=3,
        max_n=5,
        unk_vector=np.array([0.125, -0.5]),
    )
    return CrfModel(
        labels=labels,
        task="joint",
        feature_index={key: i for i, key in enumerate(GOLDEN_FEATURES)},
        state_weights=np.arange(21.0).reshape(7, 3) / 8 - 1,
        transitions=np.array([[0.5, -1.0, 0.0], [1.5, 0.25, -2.0], [0.0, 3.0, -0.75]]),
        embedding=table,
    )


def length_prefixed(text):
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def strs_block(name, texts):
    """A v1 string-list block: the name, kind 1, a u32 count, then per
    string a u32 length and its UTF-8 bytes."""
    return length_prefixed(name) + struct.pack("<BI", 1, len(texts)) + b"".join(
        map(length_prefixed, texts)
    )


def crf_image(model, kind, snapshot):
    """The bytes of a CRF model's file in format v1."""
    blocks = _crf_blocks(model)
    out = io.BytesIO()
    out.write(MAGIC + struct.pack("<I", 1))
    out.write(length_prefixed(kind) + length_prefixed(snapshot))
    out.write(struct.pack("<I", len(blocks)))
    for name, payload in blocks:
        if isinstance(payload, list):
            out.write(strs_block(name, payload))
        else:
            _write_block(out, name, payload)
    return out.getvalue()


def golden_image():
    return crf_image(golden_model(), GOLDEN_KIND, GOLDEN_SNAPSHOT)


if __name__ == "__main__":
    with open(sys.argv[1], "wb") as fh:
        fh.write(golden_image())
