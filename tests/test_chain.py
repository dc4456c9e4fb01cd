import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtag.chain import (
    _log_forward,
    _log_marginals,
    _logsumexp,
    forward_log_alphas,
    log_partition,
    marginals,
    nll_gradients,
    path_score,
    sequence_nll,
    viterbi,
)

# ---------------------------------------------------------------------------
# brute-force oracles: explicit enumeration over all L^T paths


def enumerate_path_scores(emissions, transitions):
    n_steps, n_labels = emissions.shape
    for path in itertools.product(range(n_labels), repeat=n_steps):
        score = emissions[0][path[0]]
        for t in range(1, n_steps):
            score += transitions[path[t - 1]][path[t]] + emissions[t][path[t]]
        yield path, score


def brute_log_partition(emissions, transitions):
    scores = [s for _, s in enumerate_path_scores(emissions, transitions)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_viterbi(emissions, transitions):
    best_path, best_score = None, -math.inf
    for path, score in enumerate_path_scores(emissions, transitions):
        if score > best_score:
            best_path, best_score = path, score
    return list(best_path), best_score


def brute_marginals(emissions, transitions):
    n_steps, n_labels = emissions.shape
    log_z = brute_log_partition(emissions, transitions)
    node = np.zeros((n_steps, n_labels))
    edge = np.zeros((max(n_steps - 1, 0), n_labels, n_labels))
    for path, score in enumerate_path_scores(emissions, transitions):
        p = math.exp(score - log_z)
        for t, y in enumerate(path):
            node[t, y] += p
        for t in range(n_steps - 1):
            edge[t, path[t], path[t + 1]] += p
    return node, edge


def brute_expected_counts(emissions, transitions):
    """Expected label counts per position and expected transition counts."""
    n_steps, n_labels = emissions.shape
    log_z = brute_log_partition(emissions, transitions)
    node = np.zeros((n_steps, n_labels))
    trans = np.zeros((n_labels, n_labels))
    for path, score in enumerate_path_scores(emissions, transitions):
        p = math.exp(score - log_z)
        for t, y in enumerate(path):
            node[t, y] += p
        for t in range(1, n_steps):
            trans[path[t - 1], path[t]] += p
    return node, trans


def random_instance(rng, max_steps=5, max_labels=4):
    n_steps = int(rng.integers(1, max_steps + 1))
    n_labels = int(rng.integers(2, max_labels + 1))
    emissions = rng.uniform(-2, 2, size=(n_steps, n_labels))
    transitions = rng.uniform(-2, 2, size=(n_labels, n_labels))
    return emissions, transitions


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("n_steps,n_labels", [(1, 2), (3, 4), (5, 3)])
def test_zero_scores_partition_is_t_log_l(n_steps, n_labels):
    emissions = np.zeros((n_steps, n_labels))
    transitions = np.zeros((n_labels, n_labels))
    assert log_partition(emissions, transitions) == pytest.approx(
        n_steps * math.log(n_labels), abs=1e-12
    )


def test_single_step_partition_is_logsumexp():
    emissions = np.array([[0.3, -1.0, 2.0]])
    transitions = np.zeros((3, 3))
    expected = math.log(sum(math.exp(v) for v in emissions[0]))
    assert log_partition(emissions, transitions) == pytest.approx(expected, abs=1e-12)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        log_partition(np.zeros((0, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        viterbi(np.zeros((0, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        marginals(np.zeros((0, 3)), np.zeros((3, 3)))


def test_viterbi_single_step_argmax_with_tie():
    emissions = np.array([[1.0, 5.0, 5.0]])
    path, score = viterbi(emissions, np.zeros((3, 3)))
    assert path == [1]
    assert score == pytest.approx(5.0)


def test_viterbi_zero_scores_all_label_zero():
    path, score = viterbi(np.zeros((4, 3)), np.zeros((3, 3)))
    assert path == [0, 0, 0, 0]
    assert score == 0.0


def test_marginals_zero_scores_uniform():
    node, edge = marginals(np.zeros((3, 4)), np.zeros((4, 4)))
    np.testing.assert_allclose(node, np.full((3, 4), 0.25), atol=1e-12)
    np.testing.assert_allclose(edge, np.full((2, 4, 4), 1 / 16), atol=1e-12)


def test_marginals_single_step_is_softmax():
    emissions = np.array([[0.0, 1.0, -2.0]])
    node, edge = marginals(emissions, np.zeros((3, 3)))
    exp = np.exp(emissions[0])
    np.testing.assert_allclose(node[0], exp / exp.sum(), atol=1e-12)
    assert edge.shape == (0, 3, 3)


# ---------------------------------------------------------------------------
# brute-force comparisons


def test_partition_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        emissions, transitions = random_instance(rng)
        assert log_partition(emissions, transitions) == pytest.approx(
            brute_log_partition(emissions, transitions), abs=1e-10
        )


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        emissions, transitions = random_instance(rng)
        path, score = viterbi(emissions, transitions)
        brute_path, brute_score = brute_viterbi(emissions, transitions)
        assert score == pytest.approx(brute_score, abs=1e-12)
        # continuous random scores: the max is unique w.p. 1
        assert path == brute_path


def test_marginals_match_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(30):
        emissions, transitions = random_instance(rng, max_steps=4, max_labels=3)
        node, edge = marginals(emissions, transitions)
        brute_node, brute_edge = brute_marginals(emissions, transitions)
        np.testing.assert_allclose(node, brute_node, atol=1e-9)
        np.testing.assert_allclose(edge, brute_edge, atol=1e-9)


def test_marginal_consistency_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        emissions, transitions = random_instance(rng)
        node, edge = marginals(emissions, transitions)
        np.testing.assert_allclose(node.sum(axis=1), 1.0, atol=1e-9)
        for t in range(edge.shape[0]):
            assert edge[t].sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(edge[t].sum(axis=1), node[t], atol=1e-9)
            np.testing.assert_allclose(edge[t].sum(axis=0), node[t + 1], atol=1e-9)


def test_partition_not_less_than_viterbi_score():
    rng = np.random.default_rng(4)
    for _ in range(20):
        emissions, transitions = random_instance(rng)
        _, best = viterbi(emissions, transitions)
        assert log_partition(emissions, transitions) >= best


def test_gold_path_probability_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        emissions, transitions = random_instance(rng)
        n_steps, n_labels = emissions.shape
        gold = rng.integers(0, n_labels, size=n_steps)
        prob = math.exp(
            path_score(emissions, transitions, list(gold))
            - log_partition(emissions, transitions)
        )
        assert 0.0 < prob <= 1.0


# ---------------------------------------------------------------------------
# training objective: expected minus empirical counts


@settings(max_examples=80, deadline=None)
@given(
    n_labels=st.integers(2, 3),
    gold=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_labels=3, gold=[2], seed=0)  # T = 1: no transitions
@example(n_labels=2, gold=[1, 1, 1, 1, 1], seed=1)  # one bigram four times
@example(n_labels=2, gold=[0, 1, 0, 1, 0], seed=2)  # two bigrams twice each
def test_nll_gradients_match_enumerated_counts(n_labels, gold, seed):
    gold = [g % n_labels for g in gold]
    rng = np.random.default_rng(seed)
    emissions = rng.uniform(-2, 2, size=(len(gold), n_labels))
    transitions = rng.uniform(-2, 2, size=(n_labels, n_labels))
    expected_node, expected_trans = brute_expected_counts(emissions, transitions)
    gold_node = np.zeros_like(emissions)
    gold_trans = np.zeros_like(transitions)
    for t, y in enumerate(gold):
        gold_node[t, y] += 1.0
    for a, b in zip(gold, gold[1:]):
        gold_trans[a, b] += 1.0

    d_emissions, d_transitions = nll_gradients(emissions, transitions, gold)
    np.testing.assert_allclose(d_emissions, expected_node - gold_node, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d_transitions, expected_trans - gold_trans, rtol=0, atol=1e-10)
    gold_score = dict(enumerate_path_scores(emissions, transitions))[tuple(gold)]
    assert sequence_nll(emissions, transitions, gold) == pytest.approx(
        brute_log_partition(emissions, transitions) - gold_score, abs=1e-10
    )


def test_nll_gradients_reject_gold_length_mismatch():
    with pytest.raises(ValueError):
        nll_gradients(np.zeros((3, 2)), np.zeros((2, 2)), [0, 1])


# ---------------------------------------------------------------------------
# viterbi against a step-by-step transcription


def reference_viterbi(emissions, transitions):
    """Viterbi over (from, to) candidate columns, one step at a time."""
    n_steps, n_labels = emissions.shape
    score = emissions[0].copy()
    backpointers = np.zeros((n_steps, n_labels), dtype=int)
    for t in range(1, n_steps):
        candidates = score[:, None] + transitions
        best = np.argmax(candidates, axis=0)
        backpointers[t] = best
        score = emissions[t] + candidates[best, np.arange(n_labels)]
    best_last = int(np.argmax(score))
    path = [best_last]
    for t in range(n_steps - 1, 0, -1):
        path.append(int(backpointers[t, path[-1]]))
    return path[::-1], float(score[best_last])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the NaN cases
@settings(max_examples=200, deadline=None)
@given(
    n_steps=st.integers(1, 9),
    n_labels=st.integers(1, 6),
    forbidden=st.sampled_from([0.0, 0.3, 1.0]),
    nan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_steps=1, n_labels=4, forbidden=0.0, nan=False, seed=0)
@example(n_steps=6, n_labels=5, forbidden=1.0, nan=False, seed=1)  # every path -inf
def test_viterbi_matches_step_by_step_reference(n_steps, n_labels, forbidden, nan, seed):
    # integer-valued scores in a small range: many ties
    rng = np.random.default_rng(seed)
    emissions = rng.integers(-2, 3, size=(n_steps, n_labels)).astype(float)
    transitions = rng.integers(-2, 3, size=(n_labels, n_labels)).astype(float)
    transitions[rng.random(transitions.shape) < forbidden] = -np.inf
    if nan:
        emissions[rng.integers(n_steps), rng.integers(n_labels)] = np.nan
    path, score = viterbi(emissions, transitions)
    expected_path, expected_score = reference_viterbi(emissions, transitions)
    assert path == expected_path
    assert score == expected_score or (math.isnan(score) and math.isnan(expected_score))


# ---------------------------------------------------------------------------
# scaled forward-backward against the log-space loops

EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def log_space_reference(emissions, transitions, dtype=float):
    """log Z, node and edge marginals from the private log-space loops."""
    emissions = emissions.astype(dtype)
    transitions = transitions.astype(dtype)
    alphas = _log_forward(emissions, transitions)
    node, edge = _log_marginals(emissions, transitions, alphas)
    return float(_logsumexp(alphas[-1], axis=0)), node.astype(float), edge


def score_spread(scores):
    finite = scores[np.isfinite(scores)]
    return float(finite.max() - finite.min()) if finite.size else 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference at Z = 0
@pytest.mark.skipif(not EXTENDED, reason="the reference needs a long double wider than float64")
@settings(max_examples=120, deadline=None)
@given(
    n_steps=st.integers(1, 60),
    n_labels=st.integers(1, 40),
    scale=st.sampled_from([0.0, 0.1, 1.0, 5.0, 20.0, 40.0, 400.0, 2000.0]),
    forbidden=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_steps=60, n_labels=40, scale=20.0, forbidden=0.0, seed=0)  # scaled, full size
@example(n_steps=40, n_labels=39, scale=2000.0, forbidden=0.0, seed=1)  # spreads above 700
@example(n_steps=30, n_labels=6, scale=1.0, forbidden=0.25, seed=2)  # forbidden bigrams
@example(n_steps=30, n_labels=8, scale=400.0, forbidden=0.25, seed=3)  # both
@example(n_steps=1, n_labels=1, scale=1.0, forbidden=0.0, seed=4)
def test_scaled_recursions_match_log_space_reference(
    n_steps, n_labels, scale, forbidden, seed
):
    rng = np.random.default_rng(seed)
    emissions = rng.normal(size=(n_steps, n_labels)) * scale
    transitions = rng.normal(size=(n_labels, n_labels)) * scale
    transitions[rng.random(transitions.shape) < forbidden] = -np.inf
    log_z = log_partition(emissions, transitions)
    node, edge = marginals(emissions, transitions)

    # what the float64 log-space fallback returns
    fallback_z = log_space_reference(emissions, transitions)[0]
    fallback_node, fallback_edge = _log_marginals(
        emissions, transitions, forward_log_alphas(emissions, transitions)
    )
    # the same loops in extended precision, for the scaled path's accuracy
    exact_z, exact_node, exact_edge = log_space_reference(
        emissions, transitions, np.longdouble
    )
    if exact_z == -np.inf:  # every path has a forbidden bigram
        assert log_z == -np.inf
        return

    z_fell_back = log_z == fallback_z
    marginals_fell_back = np.array_equal(node, fallback_node, equal_nan=True) and (
        np.array_equal(edge, fallback_edge, equal_nan=True)
    )
    spread = max(score_spread(transitions), *(score_spread(row) for row in emissions))
    if spread > 700:
        assert z_fell_back and marginals_fell_back
    if not z_fell_back:
        assert log_z == pytest.approx(exact_z, rel=1e-12, abs=1e-12)
    if not marginals_fell_back:
        np.testing.assert_allclose(node, exact_node, rtol=0, atol=1e-11)
        np.testing.assert_allclose(
            edge.sum(axis=0), exact_edge.sum(axis=0), rtol=0, atol=1e-11
        )
    assert edge.shape == (n_steps - 1, n_labels, n_labels)


@pytest.mark.parametrize("where", ["emission", "transition"])
def test_nan_score_gives_nan_loss(where):
    rng = np.random.default_rng(7)
    emissions = rng.normal(size=(6, 4))
    transitions = rng.normal(size=(4, 4))
    if where == "emission":
        emissions[3, 2] = np.nan
    else:
        transitions[1, 0] = np.nan
    gold = [0, 1, 2, 3, 0, 1]
    assert math.isnan(sequence_nll(emissions, transitions, gold))
    d_emissions, d_transitions = nll_gradients(emissions, transitions, gold)
    assert np.isnan(d_emissions).any() and np.isnan(d_transitions).any()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # log(0) = -inf
def test_unreachable_label_stays_a_zero():
    """A column of -inf transitions makes a label unreachable after t = 0."""
    emissions = np.zeros((4, 3))
    transitions = np.zeros((3, 3))
    transitions[:, 2] = -np.inf
    node, edge = marginals(emissions, transitions)
    np.testing.assert_allclose(node[0], 1 / 3, atol=1e-12)
    np.testing.assert_array_equal(node[1:, 2], 0.0)
    np.testing.assert_array_equal(edge[:, :, 2], 0.0)
    assert log_partition(emissions, transitions) == pytest.approx(
        math.log(3) + 3 * math.log(2), abs=1e-12
    )
    # the log-space loops give the same answer, not NaN
    assert log_space_reference(emissions, transitions)[0] == pytest.approx(
        math.log(3) + 3 * math.log(2), abs=1e-12
    )
