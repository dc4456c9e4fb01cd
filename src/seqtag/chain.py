"""Exact inference for linear-chain models over dense score matrices.

A path y_1..y_T scores sum_t emissions[t, y_t] + sum_{t>=1}
transitions[y_{t-1}, y_t]; there are no separate start or end scores.
All recursions run in log space with max-subtraction for stability.

sequence_nll and nll_gradients are the one training objective of the
feature CRF and the neural CRF head alike.
"""

from __future__ import annotations

import numpy as np


def _check(emissions, transitions):
    emissions = np.asarray(emissions, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError("emissions must be a T x L matrix with T >= 1")
    n_labels = emissions.shape[1]
    if transitions.shape != (n_labels, n_labels):
        raise ValueError("transitions must be L x L matching emissions")
    return emissions, transitions


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def path_score(emissions, transitions, path):
    """Unnormalized score of one label path."""
    emissions, transitions = _check(emissions, transitions)
    score = emissions[0, path[0]]
    for t in range(1, len(path)):
        score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
    return float(score)


def forward_log_alphas(emissions, transitions):
    emissions, transitions = _check(emissions, transitions)
    n_steps = emissions.shape[0]
    alphas = np.empty_like(emissions)
    alphas[0] = emissions[0]
    for t in range(1, n_steps):
        alphas[t] = emissions[t] + _logsumexp(alphas[t - 1][:, None] + transitions, axis=0)
    return alphas


def log_partition(emissions, transitions):
    """log of the summed exponentiated scores over all L^T paths."""
    alphas = forward_log_alphas(emissions, transitions)
    return float(_logsumexp(alphas[-1], axis=0))


def viterbi(emissions, transitions):
    """Best path and its score; ties go to the lower label index."""
    emissions, transitions = _check(emissions, transitions)
    n_steps, n_labels = emissions.shape
    score = emissions[0].copy()
    backpointers = np.zeros((n_steps, n_labels), dtype=int)
    for t in range(1, n_steps):
        candidates = score[:, None] + transitions  # (from, to)
        backpointers[t] = np.argmax(candidates, axis=0)
        score = emissions[t] + np.max(candidates, axis=0)
    best_last = int(np.argmax(score))
    best_score = float(score[best_last])
    path = [best_last]
    for t in range(n_steps - 1, 0, -1):
        path.append(int(backpointers[t, path[-1]]))
    path.reverse()
    return path, best_score


def marginals(emissions, transitions):
    """Node and edge posteriors from the forward-backward recursions.

    Returns (node, edge): node[t, y] = P(y_t = y) with rows summing to 1;
    edge[t, y, y'] = P(y_t = y, y_{t+1} = y'). edge is empty when T = 1.
    """
    emissions, transitions = _check(emissions, transitions)
    n_steps, n_labels = emissions.shape
    alphas = forward_log_alphas(emissions, transitions)
    betas = np.zeros_like(emissions)
    for t in range(n_steps - 2, -1, -1):
        betas[t] = _logsumexp(transitions + (emissions[t + 1] + betas[t + 1])[None, :], axis=1)
    log_z = _logsumexp(alphas[-1], axis=0)
    node = np.exp(alphas + betas - log_z)
    edge = np.empty((max(n_steps - 1, 0), n_labels, n_labels))
    for t in range(n_steps - 1):
        edge[t] = np.exp(
            alphas[t][:, None]
            + transitions
            + (emissions[t + 1] + betas[t + 1])[None, :]
            - log_z
        )
    return node, edge


def sequence_nll(emissions, transitions, gold):
    """Negative log-likelihood of the gold path: log Z minus its score."""
    return log_partition(emissions, transitions) - path_score(emissions, transitions, gold)


def nll_gradients(emissions, transitions, gold):
    """Gradients of sequence_nll on the emissions and the transitions.

    d_emissions is the node marginals minus one-hot(gold); d_transitions
    is the summed edge marginals minus the gold path's transition counts,
    which count a bigram once per occurrence.
    """
    node, edge = marginals(emissions, transitions)
    gold = np.asarray(gold)
    if gold.shape != (node.shape[0],):
        raise ValueError("gold length does not match emissions")
    node[np.arange(len(gold)), gold] -= 1.0
    d_transitions = edge.sum(axis=0)
    np.subtract.at(d_transitions, (gold[:-1], gold[1:]), 1.0)
    return node, d_transitions
