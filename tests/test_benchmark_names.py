"""The benchmark looks program functions up by module and name, so a
rename in src/ must show here and not only as an AttributeError in every
benchmark run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

# called directly by benchmarks/workloads.py (neural_scores)
CALLED = [("seqtag.neural.lstm", "bilstm_encode"), ("seqtag.embeddings", "embed")]


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
