import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synthgen import make_corpus

from seqtag import NonFiniteLossError, crf
from seqtag.corpus import NER_LABELS, NerLabel, Sentence, Token, parse_conll
from seqtag.crf import (
    CrfModel,
    CrfTrainConfig,
    emissions,
    gold_label,
    joint_task_labels,
    nll_and_gradient,
    single_task_labels,
    tag_crf,
    tag_crf_full,
    train_crf,
)
from seqtag.embeddings import EmbeddingConfig, init_random, load_text_vectors


def dummy_sentence(n):
    return Sentence(tuple(Token(f"w{i}", "n", NerLabel(None, None)) for i in range(n)))


def toy_model(rng, n_labels=3, n_features=20, zero=False):
    labels = [f"L{i}" for i in range(n_labels)]
    feature_index = {f"f{i}": i for i in range(n_features)}
    if zero:
        weights = np.zeros((n_features, n_labels))
        transitions = np.zeros((n_labels, n_labels))
    else:
        weights = rng.uniform(-1, 1, size=(n_features, n_labels))
        transitions = rng.uniform(-1, 1, size=(n_labels, n_labels))
    return CrfModel(
        labels=labels,
        task="single",
        feature_index=feature_index,
        state_weights=weights,
        transitions=transitions,
    )


def toy_features(rng, n_tokens, n_features=20, max_active=6):
    features = []
    for _ in range(n_tokens):
        active = rng.choice(n_features, size=int(rng.integers(1, max_active)), replace=False)
        features.append(
            {f"f{i}": float(rng.uniform(0.2, 2.0)) for i in sorted(active)}
        )
    return features


# ---------------------------------------------------------------------------
# emissions


def test_emissions_zero_weights_gives_zero_matrix(sample_sentence):
    rng = np.random.default_rng(0)
    model = toy_model(rng, zero=True)
    feats = toy_features(rng, len(sample_sentence))
    np.testing.assert_array_equal(
        emissions(model, sample_sentence, feats),
        np.zeros((len(sample_sentence), 3)),
    )


def test_emissions_single_feature_single_label():
    model = CrfModel(
        labels=["A", "B"],
        task="single",
        feature_index={"f": 0},
        state_weights=np.array([[2.0, 0.0]]),
        transitions=np.zeros((2, 2)),
    )
    sent = dummy_sentence(2)
    scores = emissions(model, sent, [{"f": 1.0}, {}])
    np.testing.assert_array_equal(scores, [[2.0, 0.0], [0.0, 0.0]])


def reference_emissions(model, features):
    scores = np.zeros((len(features), model.n_labels))
    for t, feats in enumerate(features):
        for y in range(model.n_labels):
            for key, value in feats.items():
                row = model.feature_index.get(key)
                if row is not None:
                    scores[t, y] += model.state_weights[row, y] * value
    return scores


# f0..f19 have weight rows; "u0" and "u1" do not, so some tokens have no
# known feature at all (an empty CSR segment)
@settings(max_examples=80, deadline=None)
@given(
    token_keys=st.lists(
        st.lists(st.sampled_from(["f0", "f3", "f7", "f19", "u0", "u1"]), unique=True),
        min_size=1,
        max_size=7,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_emissions_match_brute_force_double_loop(token_keys, seed):
    rng = np.random.default_rng(seed)
    model = toy_model(rng)
    features = [{key: float(rng.uniform(-2, 2)) for key in keys} for keys in token_keys]
    scores = emissions(model, dummy_sentence(len(features)), features)
    np.testing.assert_allclose(
        scores, reference_emissions(model, features), rtol=0, atol=1e-12
    )


def test_emissions_ignores_unknown_features():
    rng = np.random.default_rng(2)
    model = toy_model(rng)
    sent = dummy_sentence(1)
    base = emissions(model, sent, [{"f0": 1.0}])
    with_unknown = emissions(model, sent, [{"f0": 1.0, "never-seen": 5.0}])
    np.testing.assert_array_equal(base, with_unknown)


def reference_index_rows(lookup, features):
    """CSR arrays built entry by entry; lookup(key) gives a row, or None
    to drop the key."""
    rows, values, positions = [], [], []
    for t, feats in enumerate(features):
        for key, value in feats.items():
            row = lookup(key)
            if row is not None:
                rows.append(row)
                values.append(value)
                positions.append(t)
    positions = np.array(positions, dtype=np.intp)
    starts = np.flatnonzero(np.diff(positions, prepend=-1))
    return np.array(rows, dtype=np.intp), np.array(values, dtype=float), positions, starts


def assert_same_csr(got, expected):
    assert len(got) == len(expected) == 4
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(
    # k0..k5 have rows, u0..u2 do not
    token_keys=st.lists(
        st.lists(st.sampled_from(["k0", "k1", "k2", "k3", "k4", "k5", "u0", "u1", "u2"]),
                 unique=True),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(token_keys=[["u0", "u1"], ["k2", "u2"], ["u2"]], seed=0)  # all-unknown tokens
@example(token_keys=[["u0"], ["u1", "u2"]], seed=1)  # an all-unknown sentence
@example(token_keys=[[], ["k0"], []], seed=2)  # empty maps
def test_index_rows_match_entry_by_entry_reference(token_keys, seed):
    rng = np.random.default_rng(seed)
    features = [{key: float(rng.uniform(-2, 2)) for key in keys} for keys in token_keys]
    index = {f"k{i}": int(row) for i, row in enumerate(rng.permutation(6))}
    assert_same_csr(crf._index_rows(index, features), reference_index_rows(index.get, features))

    # training registers unseen keys in order of first sight
    registry, expected_index = crf._Registry(index), dict(index)
    expected = reference_index_rows(
        lambda key: expected_index.setdefault(key, len(expected_index)), features
    )
    assert_same_csr(crf._index_rows(registry, features), expected)
    assert list(registry.items()) == list(expected_index.items())


# ---------------------------------------------------------------------------
# nll and gradient


def test_zero_model_nll_is_t_log_l():
    rng = np.random.default_rng(3)
    model = toy_model(rng, zero=True)
    sent = dummy_sentence(4)
    feats = toy_features(rng, 4)
    nll, _ = nll_and_gradient(model, sent, ["L0", "L1", "L2", "L0"], features=feats)
    assert nll == pytest.approx(4 * math.log(3), abs=1e-12)


def test_nll_rejects_foreign_label():
    rng = np.random.default_rng(4)
    model = toy_model(rng)
    sent = dummy_sentence(2)
    with pytest.raises(KeyError):
        nll_and_gradient(model, sent, ["L0", "nope"], features=toy_features(rng, 2))


def test_nll_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = toy_model(rng)
        sent = dummy_sentence(int(rng.integers(1, 5)))
        feats = toy_features(rng, len(sent))
        gold = [model.labels[int(g)] for g in rng.integers(0, 3, size=len(sent))]
        nll, _ = nll_and_gradient(model, sent, gold, features=feats)
        assert nll >= 0.0


def finite_difference_nll(model, sent, gold, feats, l2, setter, step=1e-5):
    def nll_at(delta):
        setter(delta)
        value, _ = nll_and_gradient(model, sent, gold, l2=l2, features=feats)
        return value

    plus = nll_at(step)
    minus = nll_at(-2 * step)  # relative to +step state
    setter(step)  # restore
    return (plus - minus) / (2 * step)


@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_gradient_matches_central_differences(l2):
    rng = np.random.default_rng(6)
    model = toy_model(rng, n_labels=3, n_features=12)
    sent = dummy_sentence(4)
    feats = toy_features(rng, 4, n_features=12)
    gold = [model.labels[int(g)] for g in rng.integers(0, 3, size=4)]
    _, (grad_map, grad_trans) = nll_and_gradient(model, sent, gold, l2=l2, features=feats)

    step = 1e-5
    for key, row in model.feature_index.items():
        for y in range(model.n_labels):
            def bump(delta, row=row, y=y):
                model.state_weights[row, y] += delta

            fd = finite_difference_nll(model, sent, gold, feats, l2, bump, step)
            analytic = grad_map.get(key, np.zeros(model.n_labels))[y]
            assert analytic == pytest.approx(fd, abs=1e-6)

    for a in range(model.n_labels):
        for b in range(model.n_labels):
            def bump(delta, a=a, b=b):
                model.transitions[a, b] += delta

            fd = finite_difference_nll(model, sent, gold, feats, l2, bump, step)
            assert grad_trans[a, b] == pytest.approx(fd, abs=1e-6)


def test_gradient_only_covers_sentence_features():
    rng = np.random.default_rng(7)
    model = toy_model(rng)
    sent = dummy_sentence(2)
    feats = [{"f0": 1.0}, {"f1": 1.0}]
    _, (grad_map, _) = nll_and_gradient(model, sent, ["L0", "L1"], features=feats)
    assert set(grad_map) == {"f0", "f1"}


def test_gradient_has_no_entry_for_keys_without_a_row():
    rng = np.random.default_rng(8)
    model = toy_model(rng)
    sent = dummy_sentence(2)
    feats = [{"f0": 1.0, "never-seen": 2.0}, {"never-seen": 1.0}]
    _, (grad_map, _) = nll_and_gradient(model, sent, ["L0", "L1"], features=feats)
    assert set(grad_map) == {"f0"}


# ---------------------------------------------------------------------------
# label sets


def test_single_task_labels_are_canonical():
    assert single_task_labels() == list(NER_LABELS)


def test_joint_labels_bounded(sample_corpus):
    labels = joint_task_labels(sample_corpus)
    observed = {
        (t.ner, t.pos) for s in sample_corpus for t in s
    }
    assert len(labels) == len(observed)
    assert len(labels) <= 25 * 15


# ---------------------------------------------------------------------------
# training


def small_config(**kw):
    defaults = dict(l2=0.0, learning_rate=0.2, epochs=40, patience=40, seed=0)
    defaults.update(kw)
    return CrfTrainConfig(**defaults)


def token_accuracy_on(model, corpus):
    correct = total = 0
    for sentence in corpus:
        pred = tag_crf(model, sentence)
        for p, t in zip(pred, sentence):
            correct += p == t.ner
            total += 1
    return correct / total


def test_overfit_single_repeated_sentence(sample_corpus):
    config = small_config()
    model = train_crf(sample_corpus, sample_corpus, config, task="single")
    sent = sample_corpus.sentences[0]
    assert tag_crf(model, sent) == sent.ner_labels


def test_training_is_deterministic():
    corpus = make_corpus(20, seed=11)
    valid = make_corpus(5, seed=12)
    config = small_config(epochs=5, l2=0.01)
    a = train_crf(corpus, valid, config)
    b = train_crf(corpus, valid, config)
    np.testing.assert_array_equal(a.state_weights, b.state_weights)
    np.testing.assert_array_equal(a.transitions, b.transitions)
    assert a.feature_index == b.feature_index


def test_memorizes_small_corpus():
    corpus = make_corpus(25, seed=3)
    config = small_config(epochs=60)
    model = train_crf(corpus, corpus, config)
    assert token_accuracy_on(model, corpus) >= 0.99


def test_joint_training_and_projection():
    corpus = make_corpus(25, seed=4)
    config = small_config(epochs=40)
    model = train_crf(corpus, corpus, config, task="joint")
    sent = corpus.sentences[0]
    full = tag_crf_full(model, sent)
    projected = tag_crf(model, sent)
    assert [f[0] for f in full] == projected
    assert all(isinstance(f, tuple) and len(f) == 2 for f in full)
    assert token_accuracy_on(model, corpus) >= 0.95


def test_training_with_embedding_features():
    corpus = make_corpus(15, seed=5)
    vocab = sorted({t.surface for s in corpus for t in s})
    table = init_random(vocab, EmbeddingConfig(dim=8, bucket_count=50, seed=1))
    config = small_config(epochs=30)
    model = train_crf(corpus, corpus, config, embeddings=table)
    assert model.embedding is table  # kept, not copied
    assert token_accuracy_on(model, corpus) >= 0.95


def test_empty_training_corpus_rejected(sample_corpus):
    from seqtag.corpus import Corpus

    with pytest.raises(ValueError):
        train_crf(Corpus(()), sample_corpus, small_config())


def test_single_task_predictions_stay_in_inventory():
    corpus = make_corpus(10, seed=6)
    model = train_crf(corpus, corpus, small_config(epochs=3))
    for sentence in corpus:
        for label in tag_crf(model, sentence):
            assert label in NER_LABELS


def test_early_stopping_respects_patience():
    # validation labels contradict training labels for the same surfaces,
    # so validation NLL worsens as soon as training starts to fit
    train = parse_conll("x n S-LOC\ny n O\n")
    valid = parse_conll("x n O\ny n S-LOC\n")
    log = []
    config = small_config(epochs=50, patience=2, learning_rate=0.5, l2=0.0)
    train_crf(train, valid, config, log=log)
    assert len(log) < 50  # stopped early
    best = min(r["valid_loss"] for r in log)
    after_best = [r["valid_loss"] for r in log[::-1][:2]]
    assert all(v >= best for v in after_best)


@pytest.mark.parametrize("l2", [0.0, 0.5])
def test_train_crf_steps_follow_nll_and_gradient(l2):
    # two mini-batches of one epoch, replayed by hand from nll_and_gradient:
    # the trainer descends exactly the gradient the finite-difference
    # checks cover
    corpus = make_corpus(6, seed=13)
    learning_rate, batch_size = 0.3, 3
    config = CrfTrainConfig(
        l2=l2, learning_rate=learning_rate, epochs=1, patience=1,
        batch_size=batch_size, shuffle=False,
    )
    trained = train_crf(corpus, corpus, config, task="joint")

    hand = CrfModel(
        labels=trained.labels,
        task="joint",
        feature_index=trained.feature_index,
        state_weights=np.zeros_like(trained.state_weights),
        transitions=np.zeros_like(trained.transitions),
    )
    sentences = corpus.sentences
    golds = [[gold_label(t, "joint") for t in s] for s in sentences]
    factor = 1.0 - learning_rate * l2 / len(sentences)
    for start in range(0, len(sentences), batch_size):
        batch = range(start, min(start + batch_size, len(sentences)))
        grads = [nll_and_gradient(hand, sentences[i], golds[i])[1] for i in batch]
        hand.state_weights *= factor
        hand.transitions *= factor
        scale = learning_rate / len(batch)
        for grad_map, grad_trans in grads:
            for key, grad in grad_map.items():
                hand.state_weights[hand.feature_index[key]] -= scale * grad
            hand.transitions -= scale * grad_trans

    np.testing.assert_allclose(trained.state_weights, hand.state_weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trained.transitions, hand.transitions, rtol=0, atol=1e-12)
    valid_nll = np.mean([nll_and_gradient(hand, s, g)[0] for s, g in zip(sentences, golds)])
    assert trained.trained_on["best_valid_nll"] == pytest.approx(valid_nll, abs=1e-12)


@pytest.mark.parametrize("l2", [19.8, 20.0, 40.0])
def test_lazy_decay_matches_dense_decay(l2):
    # learning_rate * l2 / n is 0.99, 1 and 2: the weight scale falls
    # below its floor within an epoch and is folded into the weights, or
    # the factor is 0 or negative and is applied densely. A replay that
    # decays the whole weight block every step gives the same weights.
    corpus = make_corpus(6, seed=13)
    sentences = corpus.sentences
    learning_rate, epochs = 0.3, 2
    factor = 1.0 - learning_rate * l2 / len(sentences)
    assert factor <= 0.0 or factor ** len(sentences) < crf._MIN_W_SCALE
    config = CrfTrainConfig(
        l2=l2, learning_rate=learning_rate, epochs=epochs, patience=epochs,
        batch_size=1, shuffle=False,
    )
    log = []
    trained = train_crf(corpus, corpus, config, task="joint", log=log)

    hand = CrfModel(
        labels=trained.labels,
        task="joint",
        feature_index=trained.feature_index,
        state_weights=np.zeros_like(trained.state_weights),
        transitions=np.zeros_like(trained.transitions),
    )
    golds = [[gold_label(t, "joint") for t in s] for s in sentences]
    snapshots = []
    for _ in range(epochs):
        for sentence, gold in zip(sentences, golds):
            grad_map, grad_trans = nll_and_gradient(hand, sentence, gold)[1]
            hand.state_weights *= factor
            hand.transitions *= factor
            for key, grad in grad_map.items():
                hand.state_weights[hand.feature_index[key]] -= learning_rate * grad
            hand.transitions -= learning_rate * grad_trans
        snapshots.append((hand.state_weights.copy(), hand.transitions.copy()))

    best_weights, best_transitions = snapshots[int(np.argmin([r["valid_loss"] for r in log]))]
    np.testing.assert_allclose(trained.state_weights, best_weights, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(trained.transitions, best_transitions, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises():
    # the weights overflow after the first mini-batch; the next batch's
    # gradient is NaN and training stops there, inside epoch 1
    corpus = make_corpus(10, seed=1)
    config = CrfTrainConfig(learning_rate=1e300, epochs=3, patience=3)
    log = []
    with pytest.raises(NonFiniteLossError, match="^epoch 1: gradient is not finite$"):
        train_crf(corpus, corpus, config, log=log)
    assert log == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_validation_loss_raises():
    # one mini-batch per epoch: its gradient is finite, but the step
    # overflows the weights and the validation loss is NaN
    corpus = make_corpus(10, seed=1)
    config = CrfTrainConfig(learning_rate=1e307, epochs=3, patience=3, batch_size=10)
    log = []
    with pytest.raises(NonFiniteLossError, match="^epoch 1: loss is not finite"):
        train_crf(corpus, corpus, config, log=log)
    assert len(log) == 1 and math.isnan(log[0]["valid_loss"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_row_gradient_stops_training():
    # vector features near 1e307: the loss at zero weights is finite, but
    # summing a batch's entries of one feature row overflows
    corpus = make_corpus(10, seed=1)
    words = sorted({t.surface for s in corpus for t in s})
    table = load_text_vectors(
        f"{len(words)} 2\n" + "".join(f"{w} 1e307 0.5\n" for w in words),
        EmbeddingConfig(dim=2, bucket_count=0),
    )
    config = CrfTrainConfig(epochs=2, patience=2, batch_size=10)
    with pytest.raises(NonFiniteLossError, match="^epoch 1: gradient is not finite$"):
        train_crf(corpus, corpus, config, embeddings=table)
