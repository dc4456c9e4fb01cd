"""Call counts in the trace equal counts derived from the corpus sizes,
the batch size and the number of epochs."""

import math

import pytest

import gen
import workloads
from spans import Tracer

SMALL = {
    "crf-joint-wide": {"train": 12, "valid": 4, "test": 5},
    "bilstm-crf-joint-random": {"train": 40, "valid": 4, "test": 5},
    "bilstm-softmax-single-frozen": {"train": 10, "valid": 3, "test": 4},
}


def traced_round(name, tmp_path, monkeypatch):
    monkeypatch.setitem(gen.WORKLOAD_INPUTS, name,
                        {**gen.WORKLOAD_INPUTS[name], **SMALL[name]})
    workload = workloads.WORKLOADS[name]
    paths = gen.write_inputs(gen.make_inputs(name, 5), tmp_path / "inputs")
    workloads.import_program()
    data = workloads.set_up(workload, paths)
    test = workloads.load_test(paths)
    tracer = Tracer()
    tracer.install()
    try:
        r = workloads.run_round(0, workload, data, test, 5, tmp_path / "m.bin",
                                tracer=tracer, sample_inside=False)
    finally:
        tracer.uninstall()
    calls = {
        unit: {layer: c for layer, (_, c) in tracer.totals((0, unit)).items()}
        for unit in ("train", "tag", "save_load", "check")
    }
    return workload, data, test, tracer, r, calls


def distinct_per_sentence(sentences):
    return sum(len(set(s.surfaces)) for s in sentences)


def test_crf_counts(tmp_path, monkeypatch):
    workload, (train, valid, _), test, _, r, calls = traced_round(
        "crf-joint-wide", tmp_path, monkeypatch)
    n, epochs = len(train), workload.epochs
    labels = {(t.ner, t.pos) for s in train for t in s}
    n_valid = sum(all((t.ner, t.pos) in labels for t in s) for s in valid)
    assert r.sizes["crf.labels"] == len(labels)
    assert calls["train"] == {
        "crf.train_crf": 1,
        "features.sentence_features": n + len(valid),
        "chain.marginals": n * epochs,
        "chain.log_partition": (n + n_valid) * epochs,
        "chain.path_score": (n + n_valid) * epochs,
        "chain.forward_log_alphas": (2 * n + n_valid) * epochs,
    }
    m = len(test)
    assert calls["tag"] == {
        "crf.tag_crf": m, "features.sentence_features": m,
        "crf.emissions": m, "chain.viterbi": m,
    }
    k = workload.save_load_repeats
    assert calls["save_load"] == {"modelfile.save_model": k, "modelfile.load_model": k}
    assert calls["check"] == {"metrics.evaluate": 1}


@pytest.mark.parametrize("name", ["bilstm-crf-joint-random",
                                  "bilstm-softmax-single-frozen"])
def test_neural_counts(name, tmp_path, monkeypatch):
    workload, (train, valid, _), test, tracer, r, calls = traced_round(
        name, tmp_path, monkeypatch)
    n, v, m, epochs = len(train), len(valid), len(test), workload.epochs
    steps = math.ceil(n / workload.batch) * epochs
    heads = 2 if workload.task == "joint" else 1
    head = "crf_head" if workload.model == "bilstm-crf" else "softmax_head"
    want = {
        "neural.tagger.train_neural": 1,
        "neural.tagger.batch_loss_and_gradients": steps,
        "neural.adam.adam_step": steps,
        "neural.tagger.sentence_loss": v * epochs,
        "neural.lstm.lstm_forward": 2 * (n + v) * epochs,
        "neural.lstm.lstm_backward": 2 * n * epochs,
        "neural.heads.dropout_mask": 2 * n * epochs,
        f"neural.heads.{head}_loss": heads * (n + v) * epochs,
        f"neural.heads.{head}_backward": heads * n * epochs,
        # one lookup cache for the whole run, a fresh one per validation sentence
        "embeddings.ngram_bucket_ids": len({w for s in train for w in s.surfaces})
        + distinct_per_sentence(valid) * epochs,
    }
    if workload.model == "bilstm-crf":
        want["chain.log_partition"] = want["chain.path_score"] = heads * (n + v) * epochs
        want["chain.marginals"] = heads * n * epochs
        want["chain.forward_log_alphas"] = heads * (2 * n + v) * epochs
    if workload.embedding == "random":
        # word rows and bucket rows each step; the training vocabulary has no UNK
        want["neural.adam.adam_step_rows"] = 2 * steps
    assert calls["train"] == want
    assert (tracer.rows.get((0, "train"), 0) > 0) == (workload.embedding == "random")

    want_tag = {
        "neural.tagger.tag_neural": m,
        "neural.lstm.lstm_forward": 2 * m,
        # tag_neural builds a new lookup cache for every sentence
        "embeddings.ngram_bucket_ids": distinct_per_sentence(test),
    }
    if workload.model == "bilstm-crf":
        want_tag["chain.viterbi"] = heads * m
    assert calls["tag"] == want_tag
