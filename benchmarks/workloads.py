"""The benchmark's workloads and the timed units they run.

Every unit calls seqtag's public functions through their modules
(``crf.train_crf``, ``tagger.tag_neural``, ...), so a Tracer installed
on those names sees each call. A round is one training unit, one tagging
unit over the held-out set and one save-then-load unit, each timed
beside the reference kernel, followed by the checks. seqtag is imported
inside the functions because run.py puts the checkout's src/ on the path
only once it has checked that the sources are there.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

import checks
import spans
from kernel import Bracket


@dataclass(frozen=True)
class Workload:
    """One cell of the paper's grid; why each was chosen is in
    BENCHMARK.json and README.md."""

    name: str
    model: str          # crf | bilstm-softmax | bilstm-crf
    task: str           # single | joint
    embedding: str      # none | random | frozen
    epochs: int         # fixed; patience = epochs, so early stopping never fires
    hidden: int | None = None
    batch: int | None = None
    dim: int | None = None
    f1_floor: float | None = None   # held-out NER weighted F1 the grammar must reach
    # save-load pairs per timed unit, so that a small model's unit still
    # spans several kernel samples
    save_load_repeats: int = 1

    @property
    def neural(self):
        return self.model != "crf"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crf-joint-wide",
            model="crf", task="joint", embedding="none", epochs=1, f1_floor=0.90,
            save_load_repeats=2,
        ),
        Workload(
            "bilstm-crf-joint-random",
            model="bilstm-crf", task="joint", embedding="random", epochs=1,
            hidden=32, batch=32, dim=24, save_load_repeats=16,
        ),
        Workload(
            "bilstm-softmax-single-frozen",
            model="bilstm-softmax", task="single", embedding="frozen", epochs=1,
            hidden=256, batch=64, dim=300,
        ),
    )
}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def import_program():
    """Import what `seqtag train` imports."""
    importlib.import_module("seqtag.cli")


def set_up(workload, paths):
    """What every `seqtag train` run does before its first epoch: parse the
    training and validation corpora (strictly) and read the vector file."""
    from seqtag import corpus, embeddings

    train = corpus.parse_conll(_read(paths["train"]), strict=True)
    valid = corpus.parse_conll(_read(paths["valid"]), strict=True)
    vectors = None
    if "vectors" in paths:
        vectors = embeddings.load_text_vectors(
            _read(paths["vectors"]), embeddings.EmbeddingConfig(dim=workload.dim)
        )
    return train, valid, vectors


def load_test(paths):
    from seqtag import corpus

    return corpus.parse_conll(_read(paths["test"]), strict=True)


def train(workload, data, seed):
    """One training run; returns the model and the trainer's best
    validation loss."""
    from seqtag import crf, embeddings
    from seqtag.neural import tagger

    train_set, valid_set, vectors = data
    if not workload.neural:
        config = crf.CrfTrainConfig(
            epochs=workload.epochs, patience=workload.epochs, seed=seed
        )
        model = crf.train_crf(train_set, valid_set, config, task=workload.task)
        return model, model.trained_on["best_valid_nll"]
    arch = tagger.Architecture(
        workload.model.split("-")[1], workload.task, workload.embedding
    )
    config = tagger.NeuralTrainConfig(
        max_epochs=workload.epochs, patience=workload.epochs, seed=seed,
        hidden_size=workload.hidden, batch_size=workload.batch,
    )
    emb_config = None
    if workload.embedding == "random":
        emb_config = embeddings.EmbeddingConfig(dim=workload.dim, seed=seed)
    with warnings.catch_warnings():
        # the small random-mode sizes deviate from the paper's defaults on purpose
        warnings.simplefilter("ignore", UserWarning)
        model, _ = tagger.train_neural(
            train_set, valid_set, arch, config,
            embeddings=vectors, embedding_config=emb_config,
        )
    return model, model.trained_on["best_valid_loss"]


def tag(workload, model, sentences):
    """NER label lists (plus POS lists for joint neural models)."""
    from seqtag import crf
    from seqtag.neural import tagger

    if not workload.neural:
        return [(crf.tag_crf(model, s), None) for s in sentences]
    return [(p.ner, p.pos) for p in (tagger.tag_neural(model, s) for s in sentences)]


def save_then_load(workload, model, path, repeats=1):
    """save_model then load_model, `repeats` times; the last file and model."""
    from seqtag import modelfile

    for _ in range(repeats):
        data = modelfile.save_model(model, path, workload.model,
                                    f"model = {workload.model}\n")
        loaded, _, _, _ = modelfile.load_model(path)
    return data, loaded


def evaluate(test, tagged):
    from seqtag import metrics

    gold = [s.ner_labels for s in test]
    pred = [ner for ner, _ in tagged]
    report = metrics.evaluate(gold, pred)
    checks.check_accuracy(report.accuracy, gold, pred)
    return report


# ---------------------------------------------------------------------------
# independent decoding and the closed-form loss bound


def crf_scores(model, sentence):
    """(T, L) emission scores summed here from the model's weight rows."""
    from seqtag import features

    scores = np.zeros((len(sentence), model.n_labels))
    for t, feats in enumerate(features.sentence_features(sentence)):
        for key, value in feats.items():
            row = model.feature_index.get(key)
            if row is not None:
                scores[t] += value * model.state_weights[row]
    return scores


def neural_scores(model, sentence):
    """{head: (T, K) scores}, from embed + bilstm_encode + the head's
    projection, not from tag_neural."""
    from seqtag.embeddings import embed
    from seqtag.neural.lstm import bilstm_encode

    xs = np.stack([embed(model.embedding, w) for w in sentence.surfaces])
    encoded = bilstm_encode(xs, model.forward_lstm, model.backward_lstm)
    return {name: head.scores(encoded) for name, head in model.heads.items()}


def zero_head_loss(workload, model, sentence):
    """Closed-form loss of one sentence under zero-initialised heads:
    T·log L for the feature CRF; per head, log K for softmax (its loss is
    a token mean) and T·log K for CRF, summed over the joint heads."""
    n = len(sentence)
    if not workload.neural:
        return n * math.log(model.n_labels)
    return sum(
        math.log(len(head.labels)) * (1 if head.kind == "softmax" else n)
        for head in model.heads.values()
    )


def knows_labels(workload, model, sentence):
    """False for a sentence with a (NER, POS) pair the joint CRF never saw;
    the trainer leaves such validation sentences out."""
    if workload.neural:
        return True
    labels = set(model.labels)
    return all(_crf_gold(t, model.task) in labels for t in sentence)


def decode_and_loss(workload, model, sentences):
    """Independently decoded (ner, pos) per sentence, and the mean held-out
    loss and mean zero_head_loss over the sentences whose labels the
    model knows."""
    decoded, losses, bounds = [], [], []
    for sentence in sentences:
        known = knows_labels(workload, model, sentence)
        if not workload.neural:
            scores = crf_scores(model, sentence)
            path = checks.viterbi_path(scores, model.transitions)
            decoded.append(([_ner(model.labels[i], model.task) for i in path], None))
            if known:
                gold = [model.label_id(_crf_gold(t, model.task)) for t in sentence]
                losses.append(checks.crf_nll(scores, model.transitions, gold))
                bounds.append(zero_head_loss(workload, model, sentence))
            continue
        labels, loss = {}, 0.0
        for name, scores in neural_scores(model, sentence).items():
            head = model.heads[name]
            gold = [head.labels.index(t.ner if name == "ner" else t.pos) for t in sentence]
            if head.kind == "softmax":
                path = [int(i) for i in np.argmax(scores, axis=1)]
                loss += checks.softmax_nll(scores, gold)
            else:
                path = checks.viterbi_path(scores, head.transitions)
                loss += checks.crf_nll(scores, head.transitions, gold)
            labels[name] = [head.labels[i] for i in path]
        decoded.append((labels["ner"], labels.get("pos")))
        losses.append(loss)
        bounds.append(zero_head_loss(workload, model, sentence))
    return decoded, float(np.mean(losses)), float(np.mean(bounds))


def valid_bound(workload, model, valid):
    """Mean zero_head_loss over the validation sentences the trainer scores."""
    return float(np.mean([
        zero_head_loss(workload, model, s) for s in valid
        if knows_labels(workload, model, s)
    ]))


def _crf_gold(token, task):
    return token.ner if task == "single" else (token.ner, token.pos)


def _ner(label, task):
    return label if task == "single" else label[0]


# ---------------------------------------------------------------------------
# one round


@dataclass
class Round:
    index: int
    train: object       # kernel.Timed of the training unit
    tag: object
    save_load: object
    model_digest: str   # SHA-256 of the saved model file
    tagged: list        # (ner, pos) per held-out sentence
    sizes: dict         # model sizes the traced run reports
    quality: dict       # held-out scores, filled by the full checks


def run_round(index, workload, data, test, seed, model_path, tracer=None,
              sample_inside=True, full_checks=False):
    """Train, tag the held-out set, save and load; then check the outputs.
    With full_checks, also decode independently, bound the loss and check
    the save-load round trip. A tracer files spans under (index, unit).
    sample_inside takes kernel samples inside the units; a traced run
    turns it off, since spans and samples would distort each other."""

    def unit(name):
        if tracer is not None:
            tracer.unit = (index, name)

    bracket = Bracket()
    hooks = spans.Patch(spans.poking(bracket.poke)) if sample_inside else None
    if hooks is not None:
        hooks.install()
    try:
        unit("train")
        train_t = bracket.timed(train, workload, data, seed)
        model, best_valid = train_t.result
        unit("tag")
        tag_t = bracket.timed(tag, workload, model, test.sentences)
        tagged = tag_t.result
        unit("save_load")
        save_t = bracket.timed(save_then_load, workload, model, model_path,
                               workload.save_load_repeats)
        model_bytes, loaded = save_t.result
    finally:
        if hooks is not None:
            hooks.uninstall()
    unit("check")
    report = evaluate(test.sentences, tagged)
    quality = {"ner_accuracy": report.accuracy, "ner_weighted_f1": report.weighted_f1}

    if full_checks:
        decoded, loss, bound = decode_and_loss(workload, model, test.sentences)
        checks.check_paths("tagging", tagged, decoded)
        checks.check_loss_below_bound("held-out loss", loss, bound)
        quality.update(heldout_loss=loss, heldout_loss_bound=bound)
        checks.check_loss_below_bound(
            "trainer's validation loss", best_valid, valid_bound(workload, model, data[1])
        )
        checks.check_paths("tagging after load", tag(workload, loaded, test.sentences), tagged)
        resaved, _ = save_then_load(workload, loaded, model_path)
        checks.check_identical_bytes("save of the loaded model", resaved, model_bytes)
        if workload.f1_floor is not None:
            checks.check_floor("held-out NER weighted F1", report.weighted_f1,
                               workload.f1_floor)
    sizes = {
        "crf.features": len(getattr(model, "feature_index", ())),
        "crf.labels": len(getattr(model, "labels", ())),
        "modelfile.save_model.bytes": len(model_bytes),
    }
    train_t.result = tag_t.result = save_t.result = None
    digest = hashlib.sha256(model_bytes).hexdigest()
    return Round(index, train_t, tag_t, save_t, digest, tagged, sizes, quality)
