from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtag import chain
from seqtag.corpus import NER_LABELS, POS_TAGS, NerLabel, Sentence, Token
from seqtag.embeddings import (
    EmbeddingConfig,
    embed,
    init_random,
    load_text_vectors,
    ngram_bucket_ids,
)
from seqtag.neural import (
    AdamState,
    Architecture,
    LstmParams,
    adam_step,
    adam_step_rows,
    batch_loss_and_gradients,
    bilstm_encode,
    build_tagger,
    tag_neural,
)
from seqtag.neural import tagger
from seqtag.neural.heads import (
    crf_head_backward,
    crf_head_loss,
    dropout_mask,
    softmax_head_backward,
    softmax_head_loss,
)
from seqtag.neural.lstm import lstm_backward, lstm_forward


def tiny_sentences():
    a = Sentence(
        (
            Token("alpha", "n", NerLabel("S", "LOC")),
            Token("beta", "v", NerLabel(None, None)),
            Token("queue", "n", NerLabel("S", "PER")),  # OOV for the table
        )
    )
    b = Sentence(
        (
            Token("beta", "n", NerLabel("B", "ORG")),
            Token("alpha", "n", NerLabel("E", "ORG")),
        )
    )
    return [a, b]


def tiny_model(arch, rng, dim=3, hidden=2, bucket_count=11):
    table = init_random(
        ["alpha", "beta"], EmbeddingConfig(dim=dim, bucket_count=bucket_count, seed=3)
    )
    model = build_tagger(arch, table, hidden, rng, dropout_rate=0.0)
    # zero-initialized heads would block gradient flow into the encoder
    for head in model.heads.values():
        head.weight[...] = rng.uniform(-0.5, 0.5, size=head.weight.shape)
        head.bias[...] = rng.uniform(-0.5, 0.5, size=head.bias.shape)
        if head.transitions is not None:
            head.transitions[...] = rng.uniform(-0.5, 0.5, size=head.transitions.shape)
    return model


def loss_of(model, batch, lam=1.0):
    loss, _, _ = batch_loss_and_gradients(model, batch, joint_weight=lam)
    return loss


def central_difference(model, batch, array, index, lam=1.0, step=1e-5):
    original = array[index]
    array[index] = original + step
    plus = loss_of(model, batch, lam)
    array[index] = original - step
    minus = loss_of(model, batch, lam)
    array[index] = original
    return (plus - minus) / (2 * step)


ARCHITECTURES = [
    Architecture("softmax", "single", "random"),
    Architecture("crf", "single", "random"),
    Architecture("softmax", "joint", "random"),
    Architecture("crf", "joint", "random"),
]


@pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: f"{a.inference}-{a.task}")
def test_all_parameter_gradients_match_finite_differences(arch):
    rng = np.random.default_rng(0)
    model = tiny_model(arch, rng)
    batch = tiny_sentences()
    _, grads, emb_grads = batch_loss_and_gradients(model, batch, joint_weight=1.0)

    for name, param in model.parameters().items():
        grad = grads[name]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            index = it.multi_index
            fd = central_difference(model, batch, param, index)
            assert grad[index] == pytest.approx(fd, rel=1e-4, abs=1e-7), (name, index)

    # embedding rows touched by the batch
    table = model.embedding
    for row, grad_vec in zip(*emb_grads["emb.words"]):
        for k in range(table.dim):
            fd = central_difference(model, batch, table.word_vectors, (row, k))
            assert grad_vec[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)
    for row, grad_vec in zip(*emb_grads["emb.buckets"]):
        for k in range(table.dim):
            fd = central_difference(model, batch, table.ngram_buckets, (row, k))
            assert grad_vec[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_unk_vector_gradient_matches_finite_differences():
    # a text-loaded table (subword off) routes OOV words through UNK
    table = load_text_vectors(
        "2 3\nalpha 0.1 -0.2 0.3\nbeta 0.4 0.0 -0.1\n",
        EmbeddingConfig(dim=3, bucket_count=5, seed=0),
    )
    table.mode = "finetuned"
    rng = np.random.default_rng(1)
    arch = Architecture("crf", "single", "finetuned")
    model = build_tagger(arch, table, 2, rng, dropout_rate=0.0)
    for head in model.heads.values():
        head.weight[...] = rng.uniform(-0.5, 0.5, size=head.weight.shape)
    batch = tiny_sentences()
    _, _, emb_grads = batch_loss_and_gradients(model, batch)
    rows, unk_grad = emb_grads["emb.unk"]
    assert rows.tolist() == [0]
    for k in range(table.dim):
        fd = central_difference(model, batch, table.unk_vector, (k,))
        assert unk_grad[0, k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_frozen_mode_produces_no_embedding_gradients():
    rng = np.random.default_rng(2)
    table = init_random(["alpha", "beta"], EmbeddingConfig(dim=3, bucket_count=7, seed=1))
    table.mode = "frozen"
    model = build_tagger(Architecture("softmax", "single", "frozen"), table, 2, rng, 0.0)
    for head in model.heads.values():
        head.weight[...] = rng.uniform(-0.5, 0.5, size=head.weight.shape)
    _, _, emb_grads = batch_loss_and_gradients(model, tiny_sentences())
    assert emb_grads is None


def test_gradient_locality_for_untouched_rows():
    rng = np.random.default_rng(3)
    table = init_random(
        ["alpha", "beta", "orphan"], EmbeddingConfig(dim=3, bucket_count=7, seed=1)
    )
    model = build_tagger(Architecture("softmax", "single", "random"), table, 2, rng, 0.0)
    for head in model.heads.values():
        head.weight[...] = rng.uniform(-0.5, 0.5, size=head.weight.shape)
    _, _, emb_grads = batch_loss_and_gradients(model, tiny_sentences())
    # "orphan" never appears in the batch: its lexical row gets no gradient
    assert table.vocab["orphan"] not in emb_grads["emb.words"][0]


def reference_row_grads(table, batch, dxs_per_sentence):
    """Per-token dict accumulation of embedding row gradients, then the
    batch mean: {slot: {row: gradient}}."""
    slots = {"emb.words": {}, "emb.buckets": {}, "emb.unk": {}}

    def bump(slot, row, value):
        store = slots[slot]
        store[row] = store[row] + value if row in store else value.copy()

    for sentence, dxs in zip(batch, dxs_per_sentence):
        for token, dx in zip(sentence, dxs):
            idx = table.vocab.get(token.surface)
            buckets = ngram_bucket_ids(table, token.surface)
            if idx is not None:
                share = dx / (1 + len(buckets))
                bump("emb.words", idx, share)
                for b in buckets:
                    bump("emb.buckets", b, share)
            elif buckets:
                share = dx / len(buckets)
                for b in buckets:
                    bump("emb.buckets", b, share)
            else:
                bump("emb.unk", 0, dx)
    n = len(batch)
    return {
        slot: {row: grad / n for row, grad in store.items()}
        for slot, store in slots.items()
        if store
    }


# one-letter words have no n-grams: in the vocabulary they use their row
# alone, outside it they fall back to UNK
WORD_POOL = ["a", "b", "x", "y", "alpha", "beta", "gamma", "alphas", "queue", "zeta"]


@settings(max_examples=40, deadline=None)
@given(
    vocab=st.lists(st.sampled_from(WORD_POOL), min_size=1, unique=True),
    batch=st.lists(
        st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=6), min_size=1, max_size=4
    ),
    bucket_count=st.integers(1, 6),
    arch=st.sampled_from(ARCHITECTURES),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_gradient_arrays_match_per_token_dict_reference(vocab, batch, bucket_count,
                                                            arch, seed):
    rng = np.random.default_rng(seed)
    table = init_random(vocab, EmbeddingConfig(dim=3, bucket_count=bucket_count, seed=seed))
    model = build_tagger(arch, table, 2, rng, dropout_rate=0.0)
    for head in model.heads.values():
        head.weight[...] = rng.uniform(-0.5, 0.5, size=head.weight.shape)
    sentences = [
        Sentence(tuple(Token(w, "n", NerLabel("S", "LOC")) for w in words))
        for words in batch
    ]

    # the input gradients of each scan, in call order: forward, backward
    scan_dxs = []

    def recording_backward(cache, params, dhs):
        dz = lstm_backward(cache, params, dhs)
        scan_dxs.append(dz @ params.W)
        return dz

    with mock.patch.object(tagger, "lstm_backward", recording_backward):
        _, _, emb_grads = batch_loss_and_gradients(model, sentences)
    dxs_per_sentence = [
        fwd + bwd[::-1] for fwd, bwd in zip(scan_dxs[::2], scan_dxs[1::2])
    ]
    want = reference_row_grads(table, sentences, dxs_per_sentence)

    assert sorted(emb_grads) == sorted(want)
    for slot, (rows, grads) in emb_grads.items():
        assert rows.tolist() == sorted(want[slot])
        assert grads.shape == (len(rows), table.dim)
        for row, got in zip(rows, grads):
            expected = want[slot][row]
            assert np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: f"{a.inference}-{a.task}")
def test_tag_neural_matches_embed_and_bilstm_encode(arch):
    rng = np.random.default_rng(15)
    model = tiny_model(arch, rng, dim=4, hidden=3)
    # rows and weights large enough that the labels vary along a sentence
    table = model.embedding
    table.word_vectors[...] = rng.normal(0.0, 1.0, size=table.word_vectors.shape)
    table.ngram_buckets[...] = rng.normal(0.0, 1.0, size=table.ngram_buckets.shape)
    table.unk_vector[...] = rng.normal(0.0, 1.0, size=table.dim)
    for head in model.heads.values():
        head.weight *= 10.0
    sentences = tiny_sentences() + [
        Sentence(
            tuple(
                Token(w, "n", NerLabel(None, None))
                for w in ["q", "alpha", "alphas", "beta", "q", "zeta", "alpha"]
            )
        )
    ]
    for sentence in sentences:
        xs = np.stack([embed(table, token.surface) for token in sentence])
        encoded = bilstm_encode(xs, model.forward_lstm, model.backward_lstm)
        want = {}
        for name, head in model.heads.items():
            scores = head.scores(encoded)
            if head.kind == "softmax":
                indices = np.argmax(scores, axis=1)
            else:
                indices, _ = chain.viterbi(scores, head.transitions)
            want[name] = [head.labels[int(i)] for i in indices]
        prediction = tag_neural(model, sentence)
        assert prediction.ner == want["ner"]
        assert prediction.pos == want.get("pos")


def test_joint_gradients_linear_in_task_weight():
    rng = np.random.default_rng(4)
    model = tiny_model(Architecture("crf", "joint", "random"), rng)
    batch = tiny_sentences()
    _, g0, _ = batch_loss_and_gradients(model, batch, joint_weight=0.0)
    _, g1, _ = batch_loss_and_gradients(model, batch, joint_weight=1.0)
    _, g2, _ = batch_loss_and_gradients(model, batch, joint_weight=2.0)
    for name in ("fwd.W", "bwd.U", "fwd.b"):
        np.testing.assert_allclose(g2[name] - g1[name], g1[name] - g0[name], atol=1e-10)


def test_dropout_masks_fixed_between_forward_and_backward():
    # with dropout active, gradients must still match finite differences
    # computed under the same masks; easiest check: two training-mode calls
    # with the same rng state give identical losses and gradients
    rng = np.random.default_rng(5)
    model = tiny_model(Architecture("softmax", "single", "random"), rng)
    model.dropout_rate = 0.5
    batch = tiny_sentences()
    loss_a, grads_a, _ = batch_loss_and_gradients(
        model, batch, training=True, rng=np.random.default_rng(99)
    )
    loss_b, grads_b, _ = batch_loss_and_gradients(
        model, batch, training=True, rng=np.random.default_rng(99)
    )
    assert loss_a == loss_b
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name])


# ---------------------------------------------------------------------------
# LSTM scan and BPTT against the per-step reference


def reference_lstm(xs, params, dhs):
    """Per-step scan, one cell at a time, and BPTT with np.outer per step.

    The sigmoid is the exp form, not the tanh identity the scan uses.
    """

    def sigmoid(z):
        e = np.exp(-np.abs(z))  # no overflow: exp only of -|z|
        return np.where(z >= 0, 1.0, e) / (1.0 + e)

    size = params.hidden_size
    h, c = np.zeros(size), np.zeros(size)
    hs, steps = [], []
    for x in xs:
        z = params.W @ x + params.U @ h + params.b
        i, f, o = (sigmoid(z[k * size : (k + 1) * size]) for k in range(3))
        g = np.tanh(z[3 * size :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        steps.append((x, h, c, i, f, o, g, np.tanh(c_new)))
        h, c = h_new, c_new
        hs.append(h)
    d_w, d_u, d_b = np.zeros_like(params.W), np.zeros_like(params.U), np.zeros_like(params.b)
    dxs = np.zeros_like(xs)
    dh_next, dc_next = np.zeros(size), np.zeros(size)
    for t in range(len(xs) - 1, -1, -1):
        x, h_prev, c_prev, i, f, o, g, tanh_c = steps[t]
        dh = dhs[t] + dh_next
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        dz = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dh * tanh_c * o * (1.0 - o),
                dc * i * (1.0 - g**2),
            ]
        )
        d_w += np.outer(dz, x)
        d_u += np.outer(dz, h_prev)
        d_b += dz
        dxs[t] = params.W.T @ dz
        dh_next = params.U.T @ dz
        dc_next = dc * f
    return np.array(hs), dxs, {"W": d_w, "U": d_u, "b": d_b}


def assert_close_to_reference(got, want):
    # sums run in another order: 1e-12 relative to the array's largest
    # entry (at least 1), since summed gradients may cancel
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    n_steps=st.integers(1, 12),
    input_size=st.integers(1, 6),
    hidden=st.integers(1, 5),
    bias_scale=st.sampled_from([0.0, 1.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lstm_scan_and_bptt_match_per_step_reference(n_steps, input_size, hidden,
                                                     bias_scale, seed):
    rng = np.random.default_rng(seed)
    params = LstmParams.init(input_size, hidden, rng)
    params.b[...] = rng.normal(0.0, bias_scale, size=params.b.shape)
    xs = rng.normal(size=(n_steps, input_size))
    dhs = rng.normal(size=(n_steps, hidden))

    want_hs, want_dxs, want_grads = reference_lstm(xs, params, dhs)
    hs, cache = lstm_forward(xs @ params.W.T + params.b, params)
    dz = lstm_backward(cache, params, dhs)
    assert_close_to_reference(hs, want_hs)
    assert_close_to_reference(dz @ params.W, want_dxs)
    h_prev = np.vstack([np.zeros(hidden), hs[:-1]])
    grads = {"W": dz.T @ xs, "U": dz.T @ h_prev, "b": dz.sum(axis=0)}
    for key, want in want_grads.items():
        assert_close_to_reference(grads[key], want)


@pytest.mark.parametrize("seed", range(4))
def test_lstm_saturated_gates_raise_no_floating_point_error(seed):
    # pre-activations of 50 to 1e3 in size, either sign: |U h| <= sqrt(H)
    # cannot bring them near zero, so every gate saturates exactly
    rng = np.random.default_rng(seed)
    n_steps, hidden = 7, 4
    params = LstmParams.init(3, hidden, rng)
    size = np.exp(rng.uniform(np.log(50.0), np.log(1e3), size=(n_steps, 4 * hidden)))
    zx = rng.choice([-1.0, 1.0], size=size.shape) * size
    zx[0, :4] = [1e3, -1e3, 1e3, -1e3]
    dhs = rng.normal(size=(n_steps, hidden))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        hs, cache = lstm_forward(zx.copy(), params)
        dz = lstm_backward(cache, params, dhs)
    gates = cache[2]
    sigmoid_gates, g = gates[:, : 3 * hidden], gates[:, 3 * hidden :]
    np.testing.assert_array_equal(sigmoid_gates, (zx[:, : 3 * hidden] > 0).astype(float))
    np.testing.assert_array_equal(g, np.sign(zx[:, 3 * hidden :]))
    assert np.isfinite(hs).all() and np.isfinite(dz).all()


# ---------------------------------------------------------------------------
# mini-batch gradients against a per-sentence reference


def reference_batch(model, batch, joint_weight, rate, rng):
    """Per sentence: embed, dropout, both per-step scans, the heads' GEMMs,
    BPTT with its own weight gradients and input gradients, summed over
    the batch and then divided by its size. Returns the mean loss, the
    dense gradients, each sentence's input gradients and the masks drawn."""
    table, h = model.embedding, model.hidden_size
    fwd, bwd = model.forward_lstm, model.backward_lstm
    total, grads, dxs_per_sentence, masks = 0.0, {}, [], []

    def add(name, value):
        grads[name] = grads[name] + value if name in grads else value.copy()

    for sentence in batch:
        xs = np.stack([embed(table, token.surface) for token in sentence])
        mask_e = mask_h = None
        if rate:
            mask_e = dropout_mask(xs.shape, rate, rng)
            mask_h = dropout_mask((len(xs), 2 * h), rate, rng)
            masks += [mask_e, mask_h]
            xs = xs * mask_e
        zeros = np.zeros((len(xs), h))
        hs_f, _, _ = reference_lstm(xs, fwd, zeros)
        hs_b, _, _ = reference_lstm(xs[::-1], bwd, zeros)
        encoded = np.concatenate([hs_f, hs_b[::-1]], axis=1)
        if mask_h is not None:
            encoded = encoded * mask_h
        gold = {
            "ner": [NER_LABELS.index(t.ner) for t in sentence],
            "pos": [POS_TAGS.index(t.pos) for t in sentence],
        }
        losses = {}
        d_encoded = np.zeros_like(encoded)
        for name, head in model.heads.items():
            scale = 1.0 if name == "ner" else joint_weight
            scores = encoded @ head.weight.T + head.bias
            if head.kind == "softmax":
                losses[name], probs = softmax_head_loss(scores, gold[name])
                d_scores = scale * softmax_head_backward(probs, gold[name])
            else:
                losses[name] = crf_head_loss(scores, head.transitions, gold[name])
                d_scores, d_trans = crf_head_backward(scores, head.transitions, gold[name])
                d_scores = scale * d_scores
                add(f"head.{name}.transitions", scale * d_trans)
            add(f"head.{name}.weight", d_scores.T @ encoded)
            add(f"head.{name}.bias", d_scores.sum(axis=0))
            d_encoded += d_scores @ head.weight
        total += losses["ner"] + joint_weight * losses.get("pos", 0.0)
        if mask_h is not None:
            d_encoded = d_encoded * mask_h
        _, dxs_f, grads_f = reference_lstm(xs, fwd, d_encoded[:, :h])
        _, dxs_b, grads_b = reference_lstm(xs[::-1], bwd, d_encoded[::-1, h:])
        for key in ("W", "U", "b"):
            add(f"fwd.{key}", grads_f[key])
            add(f"bwd.{key}", grads_b[key])
        dxs = dxs_f + dxs_b[::-1]
        dxs_per_sentence.append(dxs if mask_e is None else dxs * mask_e)
    n = len(batch)
    return total / n, {k: v / n for k, v in grads.items()}, dxs_per_sentence, masks


def assert_entries_close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    arch=st.sampled_from(ARCHITECTURES),
    trainable=st.booleans(),
    dropout=st.sampled_from([0.0, 0.5]),
    joint_weight=st.sampled_from([0.0, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[1], arch=ARCHITECTURES[1], trainable=True, dropout=0.5, joint_weight=1.0,
         seed=0)
def test_batch_gradients_match_per_sentence_reference(lengths, arch, trainable, dropout,
                                                      joint_weight, seed):
    rng = np.random.default_rng(seed)
    model = tiny_model(arch, rng, dim=3, hidden=2, bucket_count=5)
    model.dropout_rate = dropout
    if not trainable:
        model.embedding.mode = "frozen"
    batch = [
        Sentence(
            tuple(
                Token(
                    WORD_POOL[int(rng.integers(len(WORD_POOL)))],
                    POS_TAGS[int(rng.integers(len(POS_TAGS)))],
                    NER_LABELS[int(rng.integers(len(NER_LABELS)))],
                )
                for _ in range(length)
            )
        )
        for length in lengths
    ]

    drawn = []

    def recording_mask(shape, rate, mask_rng):
        mask = dropout_mask(shape, rate, mask_rng)
        drawn.append(mask)
        return mask

    with mock.patch.object(tagger, "dropout_mask", recording_mask):
        loss, grads, emb_grads = batch_loss_and_gradients(
            model, batch, joint_weight=joint_weight, training=True,
            rng=np.random.default_rng(seed),
        )
    want_loss, want_grads, want_dxs, want_masks = reference_batch(
        model, batch, joint_weight, dropout, np.random.default_rng(seed)
    )

    assert len(drawn) == len(want_masks) == (2 * len(batch) if dropout else 0)
    for got, want in zip(drawn, want_masks):
        assert got.tobytes() == want.tobytes()
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    assert sorted(grads) == sorted(want_grads)
    for name, want in want_grads.items():
        assert_entries_close(grads[name], want)
    if not trainable:
        assert emb_grads is None
        return
    want_rows = reference_row_grads(model.embedding, batch, want_dxs)
    assert sorted(emb_grads) == sorted(want_rows)
    for slot, (rows, got) in emb_grads.items():
        assert rows.tolist() == sorted(want_rows[slot])
        assert_entries_close(got, np.stack([want_rows[slot][r] for r in rows.tolist()]))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_parameters():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = AdamState()
    adam_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
    assert state.t == 1


def test_adam_first_step_is_signed_learning_rate():
    rng = np.random.default_rng(6)
    g = rng.uniform(0.5, 2.0, size=5) * np.sign(rng.uniform(-1, 1, size=5))
    params = {"w": np.zeros(5)}
    state = AdamState()
    adam_step(params, {"w": g.copy()}, state, learning_rate=0.001)
    # at t=1: m_hat = g, v_hat = g^2, update = -lr * g/(|g| + eps)
    np.testing.assert_allclose(params["w"], -0.001 * np.sign(g), atol=1e-9)


def test_adam_matches_hand_computation_two_steps():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g1, g2 = np.array([0.5]), np.array([-0.25])
    params = {"w": np.array([0.1])}
    state = AdamState()
    adam_step(params, {"w": g1.copy()}, state, lr, b1, b2, eps)
    adam_step(params, {"w": g2.copy()}, state, lr, b1, b2, eps)

    # independent two-step recurrence
    m = (1 - b1) * g1
    v = (1 - b2) * g1**2
    w = 0.1 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2**2
    w = w - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    np.testing.assert_allclose(params["w"], w, atol=1e-15)


def test_adam_identical_runs_identical_trajectories():
    rng = np.random.default_rng(7)
    grads = [rng.uniform(-1, 1, size=4) for _ in range(5)]

    def run():
        params = {"w": np.ones(4)}
        state = AdamState()
        for g in grads:
            adam_step(params, {"w": g.copy()}, state)
        return params["w"]

    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, AdamState())


def reference_adam(params, grads, state, learning_rate, beta1, beta2, epsilon):
    """The textbook formula, one temporary per operation: the arithmetic
    adam_step must reproduce bit for bit."""
    state.t += 1
    t = state.t
    for name, grad in grads.items():
        param = params[name]
        m, v = state.slot(name, param)
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1,), (7,), (4, 3), (16, 5)]),
    n_steps=st.integers(1, 4),
    grad_scale=st.sampled_from([1e-9, 1.0, 1e4]),
    hyper=st.sampled_from([(0.001, 0.9, 0.999, 1e-8), (0.02, 0.5, 0.9, 1e-3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_step_matches_textbook_formula_bit_for_bit(shape, n_steps, grad_scale, hyper,
                                                        seed):
    rng = np.random.default_rng(seed)
    start = {"a": rng.normal(size=shape), "b": rng.normal(size=shape[:1])}
    got = {k: v.copy() for k, v in start.items()}
    want = {k: v.copy() for k, v in start.items()}
    got_state, want_state = AdamState(), AdamState()
    for _ in range(n_steps):
        grads = {k: rng.normal(0.0, grad_scale, size=v.shape) for k, v in start.items()}
        grads["b"][0] = 0.0
        adam_step(got, {k: g.copy() for k, g in grads.items()}, got_state, *hyper)
        reference_adam(want, grads, want_state, *hyper)
        for name in start:
            assert got[name].tobytes() == want[name].tobytes()
            assert got_state.m[name].tobytes() == want_state.m[name].tobytes()
            assert got_state.v[name].tobytes() == want_state.v[name].tobytes()
    assert got_state.t == want_state.t == n_steps


def reference_adam_rows(matrix, row_grads, state, name, learning_rate=0.001,
                        beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One row at a time: the loop adam_step_rows must reproduce bit for bit."""
    m, v = state.slot(name, matrix)
    t = state.t
    for row, grad in row_grads.items():
        m[row] *= beta1
        m[row] += (1.0 - beta1) * grad
        v[row] *= beta2
        v[row] += (1.0 - beta2) * grad**2
        m_hat = m[row] / (1.0 - beta1**t)
        v_hat = v[row] / (1.0 - beta2**t)
        matrix[row] -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 30),
    dim=st.integers(1, 6),
    n_steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_step_rows_matches_per_row_loop_bit_for_bit(n_rows, dim, n_steps, seed):
    rng = np.random.default_rng(seed)
    start = rng.normal(size=(n_rows, dim))
    got, want = start.copy(), start.copy()
    got_state, want_state = AdamState(), AdamState()
    touched = set()
    for _ in range(n_steps):
        got_state.t += 1
        want_state.t += 1
        rows = rng.choice(n_rows, size=rng.integers(1, n_rows + 1), replace=False)
        row_grads = {int(r): rng.normal(0.0, 10.0, size=dim) for r in rows}
        touched.update(row_grads)
        adam_step_rows(
            got, np.array(list(row_grads)), np.stack(list(row_grads.values())),
            got_state, "w", learning_rate=0.01,
        )
        reference_adam_rows(want, row_grads, want_state, "w", learning_rate=0.01)
        assert got.tobytes() == want.tobytes()
        assert got_state.m["w"].tobytes() == want_state.m["w"].tobytes()
        assert got_state.v["w"].tobytes() == want_state.v["w"].tobytes()
    for row in set(range(n_rows)) - touched:
        assert got[row].tobytes() == start[row].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 20),
    dim=st.integers(1, 6),
    n_steps=st.integers(1, 4),
    grad_scale=st.sampled_from([1e-9, 1.0, 1e4]),
    hyper=st.sampled_from([(0.001, 0.9, 0.999, 1e-8), (0.02, 0.5, 0.9, 1e-3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_step_rows_over_every_row_is_the_dense_step(n_rows, dim, n_steps, grad_scale,
                                                         hyper, seed):
    # the rows, in a shuffled order, take adam_step's update bit for bit
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, dim))
    sparse = dense.copy()
    dense_state, sparse_state = AdamState(), AdamState()
    for _ in range(n_steps):
        grad = rng.normal(0.0, grad_scale, size=(n_rows, dim))
        rows = rng.permutation(n_rows)
        adam_step({"w": dense}, {"w": grad.copy()}, dense_state, *hyper)
        sparse_state.t += 1
        adam_step_rows(sparse, rows, grad[rows], sparse_state, "w", *hyper)
        for got, want in ((sparse, dense), (sparse_state.m["w"], dense_state.m["w"]),
                          (sparse_state.v["w"], dense_state.v["w"])):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_adam_step_rows_updates_a_row_view_in_place():
    # the trainer passes unk_vector[None, :]: the update must reach the vector
    unk = np.array([0.5, -1.0, 2.0])
    want = unk[None, :].copy()
    grad = np.array([0.25, -0.5, 1.0])
    state, want_state = AdamState(t=1), AdamState(t=1)
    adam_step_rows(unk[None, :], np.array([0]), grad[None, :], state, "emb.unk")
    reference_adam_rows(want, {0: grad}, want_state, "emb.unk")
    assert unk.tobytes() == want[0].tobytes()
    assert not np.array_equal(unk, [0.5, -1.0, 2.0])
