import math

import numpy as np
import pytest

from seqtag.embeddings import EmbeddingConfig, init_random
from seqtag.neural import (
    Architecture,
    LstmParams,
    bilstm_encode,
    build_tagger,
    crf_head_loss,
    joint_loss,
    sentence_loss,
    softmax_head_loss,
)
from seqtag.neural.heads import dropout_mask
from seqtag.neural.lstm import lstm_forward


def zero_params(d, h):
    return LstmParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))


def random_params(rng, d, h):
    return LstmParams(
        rng.uniform(-1, 1, size=(4 * h, d)),
        rng.uniform(-1, 1, size=(4 * h, h)),
        rng.uniform(-1, 1, size=4 * h),
    )


# ---------------------------------------------------------------------------
# lstm cell: single steps of the scan, from precomputed input pre-activations


def test_cell_all_zero():
    p = zero_params(2, 3)
    hs, (_, _, _, tanh_cs) = lstm_forward(np.zeros((1, 12)), p)
    np.testing.assert_array_equal(tanh_cs, np.zeros((1, 3)))
    np.testing.assert_array_equal(hs, np.zeros((1, 3)))


def test_cell_zero_params_carries_half_cell():
    # step 1 writes c = i * g = 0.5 * w; step 2, with zero weights and a
    # zero input, keeps half of it (forget gate 0.5) and adds nothing
    p = zero_params(2, 3)
    w = np.array([0.2, -0.6, 0.9])
    zx = np.zeros((2, 12))
    zx[0, 9:] = np.arctanh(w)
    hs, (_, c_prev, _, tanh_cs) = lstm_forward(zx, p)
    v = c_prev[1]
    np.testing.assert_allclose(v, 0.5 * w, atol=1e-15)
    np.testing.assert_allclose(np.arctanh(tanh_cs[1]), 0.5 * v, atol=1e-15)
    np.testing.assert_allclose(hs[1], 0.5 * np.tanh(0.5 * v), atol=1e-15)


def test_cell_matches_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    d, h_size, n_steps = 2, 3, 3
    p = random_params(rng, d, h_size)
    xs = rng.uniform(-1, 1, size=(n_steps, d))
    hs, _ = lstm_forward(xs @ p.W.T + p.b, p)

    # independent scalar implementation, one hidden unit at a time
    def dot(row, vec):
        return sum(row[k] * vec[k] for k in range(len(vec)))

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    h_prev, c_prev = [0.0] * h_size, [0.0] * h_size
    for t, x in enumerate(xs):
        z = [
            [dot(p.W[k * h_size + j], x) + dot(p.U[k * h_size + j], h_prev)
             + p.b[k * h_size + j] for j in range(h_size)]
            for k in range(4)
        ]
        c = [sig(z[1][j]) * c_prev[j] + sig(z[0][j]) * math.tanh(z[3][j])
             for j in range(h_size)]
        h = [sig(z[2][j]) * math.tanh(c[j]) for j in range(h_size)]
        for j in range(h_size):
            assert hs[t, j] == pytest.approx(h[j], abs=1e-12)
        h_prev, c_prev = h, c


def test_cell_rejects_shape_mismatch():
    p = zero_params(2, 3)
    with pytest.raises(ValueError):
        lstm_forward(np.zeros((2, 5)), p)


# ---------------------------------------------------------------------------
# bilstm encoding


def test_bilstm_zero_params_zero_output():
    p = zero_params(2, 3)
    out = bilstm_encode(np.ones((4, 2)), p, zero_params(2, 3))
    np.testing.assert_array_equal(out, np.zeros((4, 6)))


def test_bilstm_single_step_halves_agree():
    rng = np.random.default_rng(2)
    p = random_params(rng, 2, 3)
    x = rng.uniform(-1, 1, size=(1, 2))
    out = bilstm_encode(x, p, p)
    np.testing.assert_allclose(out[0, :3], out[0, 3:], atol=1e-15)


def test_bilstm_palindrome_symmetry():
    rng = np.random.default_rng(3)
    p = random_params(rng, 2, 3)
    half = rng.uniform(-1, 1, size=(3, 2))
    xs = np.concatenate([half, half[::-1]])  # palindromic sequence
    out = bilstm_encode(xs, p, p)
    n = xs.shape[0]
    for t in range(n):
        np.testing.assert_allclose(out[t, :3], out[n - 1 - t, 3:], atol=1e-12)


def test_bilstm_rejects_empty():
    p = zero_params(2, 3)
    with pytest.raises(ValueError):
        bilstm_encode(np.zeros((0, 2)), p, p)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_identity_in_eval(sample_sentence):
    rng = np.random.default_rng(0)
    table = init_random(
        list(sample_sentence.surfaces), EmbeddingConfig(dim=6, bucket_count=16, seed=0)
    )
    model = build_tagger(Architecture("softmax", "single", "random"), table, 4, rng, 0.5)
    head = model.heads["ner"]
    head.weight[...] = rng.uniform(-1, 1, size=head.weight.shape)
    with_dropout = sentence_loss(model, sample_sentence)
    model.dropout_rate = 0.0
    assert sentence_loss(model, sample_sentence) == with_dropout


def test_dropout_rate_zero_identity():
    mask = dropout_mask((5, 4), 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(mask, np.ones((5, 4)))


def test_dropout_mean_preserved_within_three_sigma():
    n = 1_000_000
    x = np.ones(n)
    out = x * dropout_mask(x.shape, 0.5, np.random.default_rng(42))
    # survivors are Bernoulli(0.5) scaled by 2: mean 1, var 1 -> sigma of
    # the sample mean is 1/sqrt(n)
    assert abs(out.mean() - 1.0) <= 3 / math.sqrt(n)
    values = set(np.unique(out))
    assert values <= {0.0, 2.0}


# ---------------------------------------------------------------------------
# head losses


def test_softmax_uniform_scores_loss_is_log_k():
    scores = np.zeros((4, 7))
    loss, probs = softmax_head_loss(scores, [0, 1, 2, 3])
    assert loss == pytest.approx(math.log(7), abs=1e-12)
    np.testing.assert_allclose(probs, np.full((4, 7), 1 / 7), atol=1e-12)


def test_softmax_huge_gold_score_drives_loss_to_zero():
    scores = np.zeros((1, 5))
    scores[0, 2] = 50.0
    loss, _ = softmax_head_loss(scores, [2])
    assert loss < 1e-6


def test_softmax_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n_steps = int(rng.integers(1, 5))
        k = int(rng.integers(2, 6))
        scores = rng.uniform(-3, 3, size=(n_steps, k))
        gold = rng.integers(0, k, size=n_steps)
        loss, probs = softmax_head_loss(scores, gold)
        # naive exponentiate-normalize
        total = 0.0
        for t in range(n_steps):
            exp_row = [math.exp(s) for s in scores[t]]
            p = exp_row[gold[t]] / sum(exp_row)
            total += -math.log(p)
            for y in range(k):
                assert probs[t, y] == pytest.approx(exp_row[y] / sum(exp_row), abs=1e-10)
        assert loss == pytest.approx(total / n_steps, abs=1e-10)


def test_softmax_rejects_out_of_range_gold():
    with pytest.raises(ValueError):
        softmax_head_loss(np.zeros((2, 3)), [0, 3])


def test_crf_head_zero_scores_loss_t_log_k():
    scores = np.zeros((5, 4))
    loss = crf_head_loss(scores, np.zeros((4, 4)), [0, 1, 2, 3, 0])
    assert loss == pytest.approx(5 * math.log(4), abs=1e-12)


def test_crf_head_single_label_loss_zero():
    scores = np.random.default_rng(5).uniform(-2, 2, size=(4, 1))
    assert crf_head_loss(scores, np.zeros((1, 1)), [0, 0, 0, 0]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_crf_head_matches_brute_force():
    import itertools

    rng = np.random.default_rng(6)
    for _ in range(10):
        n_steps = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        scores = rng.uniform(-2, 2, size=(n_steps, k))
        trans = rng.uniform(-2, 2, size=(k, k))
        gold = list(rng.integers(0, k, size=n_steps))
        loss = crf_head_loss(scores, trans, gold)
        path_scores = []
        for path in itertools.product(range(k), repeat=n_steps):
            s = scores[0][path[0]]
            for t in range(1, n_steps):
                s += trans[path[t - 1]][path[t]] + scores[t][path[t]]
            path_scores.append(s)
        m = max(path_scores)
        log_z = m + math.log(sum(math.exp(s - m) for s in path_scores))
        gold_score = scores[0][gold[0]] + sum(
            trans[gold[t - 1]][gold[t]] + scores[t][gold[t]]
            for t in range(1, n_steps)
        )
        assert loss == pytest.approx(log_z - gold_score, abs=1e-10)


# ---------------------------------------------------------------------------
# joint loss


def test_joint_loss_weight_zero_is_ner_only():
    assert joint_loss(0.5, 99.0, 0.0) == 0.5


def test_joint_loss_arithmetic():
    assert joint_loss(0.5, 0.3, 1.0) == pytest.approx(0.8)


def test_joint_loss_rejects_negative_weight():
    with pytest.raises(ValueError):
        joint_loss(1.0, 1.0, -0.1)
