import math

import numpy as np
import pytest
from synthgen import make_corpus

from seqtag import NonFiniteLossError
from seqtag.corpus import NER_LABELS, OUTSIDE, NerLabel, Sentence, Token, parse_conll
from seqtag.embeddings import EmbeddingConfig, init_random
from seqtag.neural import (
    Architecture,
    NeuralTrainConfig,
    batch_loss_and_gradients,
    build_tagger,
    format_training_log,
    sentence_loss,
    tag_neural,
    train_neural,
)
from seqtag.neural import tagger

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def small_config(**kw):
    defaults = dict(
        learning_rate=0.02,
        batch_size=8,
        max_epochs=25,
        patience=25,
        dropout=0.0,
        seed=0,
        hidden_size=12,
    )
    defaults.update(kw)
    return NeuralTrainConfig(**defaults)


def small_emb_config(seed=0):
    return EmbeddingConfig(dim=10, bucket_count=64, seed=seed)


def accuracy_on(model, corpus):
    correct = total = 0
    for sentence in corpus:
        pred = tag_neural(model, sentence).ner
        for p, token in zip(pred, sentence):
            correct += p == token.ner
            total += 1
    return correct / total


def test_size_off_the_regime_default_warns_library_callers():
    corpus = make_corpus(6, seed=3)
    with pytest.warns(UserWarning, match="^hidden_size 12 deviates from the 128 default"):
        train_neural(corpus, corpus, Architecture("softmax", "single", "random"),
                     small_config(max_epochs=1, batch_size=None),
                     embedding_config=small_emb_config())


# ---------------------------------------------------------------------------
# initialization invariants


def test_initial_softmax_loss_is_log_25(sample_sentence):
    rng = np.random.default_rng(0)
    table = init_random(["a", "b"], small_emb_config())
    model = build_tagger(Architecture("softmax", "single", "random"), table, 4, rng, 0.0)
    loss = sentence_loss(model, sample_sentence)
    assert loss == pytest.approx(math.log(25), abs=1e-6)


def test_initial_crf_loss_is_t_log_25(sample_sentence):
    rng = np.random.default_rng(0)
    table = init_random(["a", "b"], small_emb_config())
    model = build_tagger(Architecture("crf", "single", "random"), table, 4, rng, 0.0)
    loss = sentence_loss(model, sample_sentence)
    assert loss == pytest.approx(len(sample_sentence) * math.log(25), abs=1e-6)


def test_untrained_zero_model_predicts_label_zero(sample_sentence):
    rng = np.random.default_rng(0)
    table = init_random(["a"], small_emb_config())
    model = build_tagger(Architecture("softmax", "single", "random"), table, 4, rng, 0.0)
    model.forward_lstm.W[...] = 0.0
    model.forward_lstm.U[...] = 0.0
    model.forward_lstm.b[...] = 0.0
    model.backward_lstm.W[...] = 0.0
    model.backward_lstm.U[...] = 0.0
    model.backward_lstm.b[...] = 0.0
    pred = tag_neural(model, sample_sentence)
    assert pred.ner == [NER_LABELS[0]] * len(sample_sentence)
    assert NER_LABELS[0] == OUTSIDE


# ---------------------------------------------------------------------------
# training behaviour


def test_training_is_deterministic():
    train = make_corpus(12, seed=1)
    valid = make_corpus(4, seed=2)
    arch = Architecture("crf", "single", "random")

    def run():
        return train_neural(
            train, valid, arch,
            small_config(max_epochs=3, dropout=0.5),
            embedding_config=small_emb_config(),
        )

    model_a, log_a = run()
    model_b, log_b = run()
    assert log_a == log_b or [
        {k: v for k, v in r.items() if k != "seconds"} for r in log_a
    ] == [{k: v for k, v in r.items() if k != "seconds"} for r in log_b]
    for name, param in model_a.parameters().items():
        np.testing.assert_array_equal(param, model_b.parameters()[name])
    np.testing.assert_array_equal(
        model_a.embedding.word_vectors, model_b.embedding.word_vectors
    )


def test_memorizes_small_corpus_bilstm_crf():
    corpus = make_corpus(20, seed=3)
    model, log = train_neural(
        corpus, corpus,
        Architecture("crf", "single", "random"),
        small_config(max_epochs=40, learning_rate=0.03),
        embedding_config=small_emb_config(),
    )
    assert accuracy_on(model, corpus) >= 0.99
    # train loss mostly decreases (Adam noise tolerance per the contract)
    losses = [r["train_loss"] for r in log]
    drops = sum(b <= a for a, b in zip(losses, losses[1:]))
    assert drops >= 0.9 * (len(losses) - 1)


def test_memorizes_joint_softmax():
    corpus = make_corpus(16, seed=4)
    model, _ = train_neural(
        corpus, corpus,
        Architecture("softmax", "joint", "random"),
        small_config(max_epochs=40, learning_rate=0.05, hidden_size=16),
        embedding_config=small_emb_config(),
    )
    assert accuracy_on(model, corpus) >= 0.95
    pred = tag_neural(model, corpus.sentences[0])
    assert pred.pos is not None
    assert len(pred.pos) == len(corpus.sentences[0])


def test_single_task_has_no_pos_output():
    corpus = make_corpus(6, seed=5)
    model, _ = train_neural(
        corpus, corpus,
        Architecture("softmax", "single", "random"),
        small_config(max_epochs=2),
        embedding_config=small_emb_config(),
    )
    assert tag_neural(model, corpus.sentences[0]).pos is None


def test_early_stopping_triggers_on_contradictory_validation():
    train = parse_conll("x n S-LOC\ny n O\n")
    valid = parse_conll("x n O\ny n S-LOC\n")
    config = small_config(max_epochs=50, patience=3, learning_rate=0.05)
    _, log = train_neural(
        train, valid, Architecture("softmax", "single", "random"), config,
        embedding_config=small_emb_config(),
    )
    assert len(log) < 50
    best = min(r["valid_loss"] for r in log)
    assert all(r["valid_loss"] >= best for r in log[-3:])


def test_best_epoch_parameters_restored():
    train = parse_conll("x n S-LOC\ny n O\n")
    valid = parse_conll("x n O\ny n S-LOC\n")
    config = small_config(max_epochs=50, patience=4, learning_rate=0.05)
    model, log = train_neural(
        train, valid, Architecture("softmax", "single", "random"), config,
        embedding_config=small_emb_config(),
    )
    best = min(r["valid_loss"] for r in log)
    restored = sum(
        sentence_loss(model, s) for s in valid.sentences
    ) / len(valid.sentences)
    assert restored == pytest.approx(best, abs=1e-9)


def test_frozen_embeddings_stay_byte_identical():
    corpus = make_corpus(8, seed=6)
    vocab = sorted({t.surface for s in corpus for t in s})
    table = init_random(vocab, small_emb_config(seed=9))
    table.mode = "frozen"
    before = (
        table.word_vectors.tobytes(),
        table.ngram_buckets.tobytes(),
        table.unk_vector.tobytes(),
    )
    model, _ = train_neural(
        corpus, corpus,
        Architecture("crf", "single", "frozen"),
        small_config(max_epochs=3),
        embeddings=table,
    )
    after = (
        model.embedding.word_vectors.tobytes(),
        model.embedding.ngram_buckets.tobytes(),
        model.embedding.unk_vector.tobytes(),
    )
    assert before == after
    # the caller's table is also untouched
    assert table.word_vectors.tobytes() == before[0]


def test_finetuned_embeddings_change_only_touched_rows():
    corpus = make_corpus(6, seed=7)
    vocab = sorted({t.surface for s in corpus for t in s}) + ["never-in-corpus"]
    table = init_random(vocab, small_emb_config(seed=10))
    model, _ = train_neural(
        corpus, corpus,
        Architecture("softmax", "single", "finetuned"),
        small_config(max_epochs=2),
        embeddings=table,
    )
    untouched = table.vocab["never-in-corpus"]
    np.testing.assert_array_equal(
        model.embedding.word_vectors[untouched], table.word_vectors[untouched]
    )
    changed = table.vocab[corpus.sentences[0].tokens[0].surface]
    assert not np.array_equal(
        model.embedding.word_vectors[changed], table.word_vectors[changed]
    )


def test_empty_training_corpus_rejected():
    corpus = make_corpus(4, seed=8)
    with pytest.raises(ValueError, match="empty"):
        train_neural(
            type(corpus)((), name=""), corpus,
            Architecture("crf", "joint", "random"), small_config(),
        )


def test_crf_head_bioes_legality_report(capsys):
    # empirical property, reported rather than asserted: a converged CRF
    # head rarely (ideally never) decodes an illegal BIOES transition
    from seqtag.corpus import validate_bioes

    corpus = make_corpus(20, seed=11)
    model, _ = train_neural(
        corpus, corpus,
        Architecture("crf", "single", "random"),
        small_config(max_epochs=40, learning_rate=0.03),
        embedding_config=small_emb_config(),
    )
    violations = sum(
        len(validate_bioes(tag_neural(model, s).ner)) for s in corpus
    )
    with capsys.disabled():
        print(f"\n[report] crf-head BIOES violations after convergence: {violations}")


def test_evaluation_mode_is_deterministic():
    corpus = make_corpus(6, seed=9)
    model, _ = train_neural(
        corpus, corpus,
        Architecture("crf", "single", "random"),
        small_config(max_epochs=2, dropout=0.5),
        embedding_config=small_emb_config(),
    )
    sent = corpus.sentences[0]
    assert tag_neural(model, sent).ner == tag_neural(model, sent).ner


def test_log_format():
    corpus = make_corpus(4, seed=10)
    _, log = train_neural(
        corpus, corpus,
        Architecture("softmax", "single", "random"),
        small_config(max_epochs=2),
        embedding_config=small_emb_config(),
    )
    lines = format_training_log(log)
    assert len(lines) == len(log)
    assert lines[0].startswith("epoch=1 train_loss=")
    assert "valid_loss=" in lines[0] and "seconds=" in lines[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("inference", ["softmax", "crf"])
def test_non_finite_loss_raises(inference):
    # Adam moves every weight by about the learning rate. Under the softmax
    # head the validation loss turns NaN after epoch 2; under the CRF head
    # the loss of epoch 2's batch is still finite but its gradient is not,
    # and training stops at that batch
    corpus = make_corpus(6, seed=1)
    log = []
    with pytest.raises(NonFiniteLossError, match="not finite") as caught:
        train_neural(
            corpus, corpus, Architecture(inference, "single", "random"),
            small_config(learning_rate=1e300, max_epochs=3, patience=3, hidden_size=4),
            embedding_config=small_emb_config(), log=log,
        )
    if inference == "softmax":
        assert str(caught.value).startswith("epoch 2: loss is not finite")
        assert not all(math.isfinite(r["valid_loss"]) for r in log)
    else:
        assert str(caught.value) == "epoch 2: gradient is not finite"
        assert [r["epoch"] for r in log] == [1]


def huge_weights(model, rng):
    """Head weights and U near 1e200: the loss stays finite, but BPTT's
    dh = dz U overflows."""
    for head in model.heads.values():
        head.weight[...] = 1e200 * rng.uniform(-1.0, 1.0, size=head.weight.shape)
    for lstm in (model.forward_lstm, model.backward_lstm):
        lstm.U *= 1e200
    return model


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("inference", ["softmax", "crf"])
def test_non_finite_gradient_stops_training(inference, monkeypatch):
    corpus = make_corpus(6, seed=1)
    arch = Architecture(inference, "single", "random")
    rng = np.random.default_rng(0)
    table = init_random(sorted({t.surface for s in corpus for t in s}), small_emb_config())
    model = huge_weights(build_tagger(arch, table, 4, rng, 0.0), rng)
    loss, grads, _ = batch_loss_and_gradients(model, list(corpus))
    assert math.isfinite(loss)
    assert not all(np.isfinite(g).all() for g in grads.values())

    monkeypatch.setattr(
        tagger, "build_tagger", lambda *args, **kw: huge_weights(build_tagger(*args, **kw), rng)
    )
    log = []
    with pytest.raises(NonFiniteLossError, match="^epoch 1: gradient is not finite$"):
        train_neural(
            corpus, corpus, arch, small_config(max_epochs=2, hidden_size=4),
            embedding_config=small_emb_config(), log=log,
        )
    assert log == []
