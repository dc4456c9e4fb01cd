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
    lstm_cell,
    sentence_loss,
    softmax_head_loss,
)
from seqtag.neural.heads import dropout_mask


def zero_params(d, h):
    return LstmParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))


def random_params(rng, d, h):
    return LstmParams(
        rng.uniform(-1, 1, size=(4 * h, d)),
        rng.uniform(-1, 1, size=(4 * h, h)),
        rng.uniform(-1, 1, size=4 * h),
    )


# ---------------------------------------------------------------------------
# lstm cell


def test_cell_all_zero():
    p = zero_params(2, 3)
    h, c = lstm_cell(np.zeros(2), np.zeros(3), np.zeros(3), p)
    np.testing.assert_array_equal(c, np.zeros(3))
    np.testing.assert_array_equal(h, np.zeros(3))


def test_cell_zero_params_carries_half_cell():
    p = zero_params(2, 3)
    v = np.array([0.4, -1.2, 2.0])
    h, c = lstm_cell(np.zeros(2), np.zeros(3), v, p)
    np.testing.assert_allclose(c, 0.5 * v, atol=1e-15)
    np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-15)


def test_cell_matches_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    d, h_size = 2, 3
    p = random_params(rng, d, h_size)
    x = rng.uniform(-1, 1, size=d)
    h_prev = rng.uniform(-1, 1, size=h_size)
    c_prev = rng.uniform(-1, 1, size=h_size)
    h, c = lstm_cell(x, h_prev, c_prev, p)

    # independent scalar implementation, one hidden unit at a time
    def dot(row, vec):
        return sum(row[k] * vec[k] for k in range(len(vec)))

    for j in range(h_size):
        z_i = dot(p.W[j], x) + dot(p.U[j], h_prev) + p.b[j]
        z_f = dot(p.W[h_size + j], x) + dot(p.U[h_size + j], h_prev) + p.b[h_size + j]
        z_o = (
            dot(p.W[2 * h_size + j], x)
            + dot(p.U[2 * h_size + j], h_prev)
            + p.b[2 * h_size + j]
        )
        z_g = (
            dot(p.W[3 * h_size + j], x)
            + dot(p.U[3 * h_size + j], h_prev)
            + p.b[3 * h_size + j]
        )
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        c_j = sig(z_f) * c_prev[j] + sig(z_i) * math.tanh(z_g)
        h_j = sig(z_o) * math.tanh(c_j)
        assert c[j] == pytest.approx(c_j, abs=1e-12)
        assert h[j] == pytest.approx(h_j, abs=1e-12)


def test_cell_rejects_shape_mismatch():
    p = zero_params(2, 3)
    with pytest.raises(ValueError):
        lstm_cell(np.zeros(5), np.zeros(3), np.zeros(3), p)


def test_gate_views():
    rng = np.random.default_rng(1)
    p = random_params(rng, 2, 3)
    np.testing.assert_array_equal(p.gate("i"), p.W[0:3])
    np.testing.assert_array_equal(p.gate("f"), p.W[3:6])
    np.testing.assert_array_equal(p.gate("o"), p.W[6:9])
    np.testing.assert_array_equal(p.gate("g"), p.W[9:12])


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
