"""The benchmark looks program functions up by module and name, so a
rename in src/ must show here and not only as an AttributeError in every
benchmark run."""

import ast
import importlib
from pathlib import Path

from seqtag.features import sentence_features

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

# called directly by benchmarks/workloads.py (neural_scores, crf_scores)
CALLED = [
    ("seqtag.neural.lstm", "bilstm_encode"),
    ("seqtag.embeddings", "embed"),
    ("seqtag.features", "sentence_features"),
]


def wrapped_names():
    """(module, attribute) pairs of the WRAPPED table in spans.py, read
    without importing the benchmark."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["WRAPPED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_benchmark_names_resolve():
    names = wrapped_names()
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names + CALLED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_sentence_features_gives_one_dict_per_token(sample_sentence):
    # crf_scores iterates the returned maps' items() token by token
    maps = sentence_features(sample_sentence)
    assert isinstance(maps, list)
    assert len(maps) == len(sample_sentence)
    assert all(type(feats) is dict for feats in maps)
