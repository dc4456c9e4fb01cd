"""Exact inference for linear-chain models over dense score matrices.

A path y_1..y_T scores sum_t emissions[t, y_t] + sum_{t>=1}
transitions[y_{t-1}, y_t]; there are no separate start or end scores.

The forward and backward recursions run in scaled probability space
(Rabiner 1989, section V.A). With P = exp(transitions - max) and
Q_t = exp(emissions[t] - max_t), a forward step is one vector-matrix
product times Q_t, renormalised to sum 1, and log alpha is the log of
the scaled vector plus the running sum of the log scales and maxima;
the backward pass is the same scan over P^T in reverse. A sentence
falls back to the log-space recursions (max-subtraction, then exp and
log of an L x L array per step) when a max is not finite (NaN, +inf or
an all -inf row) or when a nonzero entry of P, Q or a scaled vector is
below exp(-170), a score spread above 170. Then no product of three
factors underflows, so the scaled path loses no mass; -inf scores
(forbidden bigrams) stay exact zeros, and NaN scores and extreme spreads
get the log-space result. Viterbi runs in log space over a (to, from)
copy of the transitions, so each step's argmax runs along contiguous
rows and the step's max is read back from it with one take.

sequence_nll and nll_gradients are the one training objective of the
feature CRF and the neural CRF head alike.
"""

from __future__ import annotations

import numpy as np

# a product of three factors of at least exp(_LOG_TINY) is a normal double
_LOG_TINY = -170.0


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
    m[m == -np.inf] = 0.0  # an all -inf slice sums to 0, not NaN
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def _in_range(log_values):
    """True when every entry is -inf or at least _LOG_TINY; NaN is neither."""
    return bool(log_values.min() >= _LOG_TINY) or bool(
        np.all((log_values >= _LOG_TINY) | (log_values == -np.inf))
    )


def _exp_shifted(log_values, axis=None):
    """exp(log_values - max) along axis, or None when it leaves _in_range
    (a NaN, +inf or all -inf max always does), and the max."""
    top = np.max(log_values, axis=axis, keepdims=True)
    shifted = log_values - top
    return (np.exp(shifted) if _in_range(shifted) else None), top


def path_score(emissions, transitions, path):
    """Unnormalized score of one label path."""
    emissions, transitions = _check(emissions, transitions)
    score = emissions[0, path[0]]
    for t in range(1, len(path)):
        score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
    return float(score)


def _log_forward(emissions, transitions):
    n_steps = emissions.shape[0]
    alphas = np.empty_like(emissions)
    alphas[0] = emissions[0]
    for t in range(1, n_steps):
        alphas[t] = emissions[t] + _logsumexp(alphas[t - 1][:, None] + transitions, axis=0)
    return alphas


def _scan(p, q):
    """x_0 = q_0 / s_0 and x_t = (x_{t-1} @ p) * q_t / s_t, each x_t summing
    to 1; (x, log x, s), or None when log x leaves _in_range."""
    x = np.empty_like(q)
    scales = np.empty(q.shape[0])
    scales[0] = q[0].sum()
    np.divide(q[0], scales[0], out=x[0])
    # np.add.reduce is row.sum() without the Python-level method wrapper
    for t, (prev, row, q_t) in enumerate(zip(x, x[1:], q[1:]), start=1):
        np.dot(prev, p, out=row)
        row *= q_t
        scales[t] = s = np.add.reduce(row)
        row /= s
    log_x = np.log(x)
    return (x, log_x, scales) if _in_range(log_x) else None


@np.errstate(divide="ignore", invalid="ignore")
def _scaled_forward(emissions, transitions):
    p, top_transition = _exp_shifted(transitions)
    q, top_emissions = _exp_shifted(emissions, axis=1)
    scan = None if p is None or q is None else _scan(p, q)
    if scan is None:
        return None
    _, log_alpha, scales = scan
    steps = top_emissions[:, 0] + np.log(scales)
    steps[1:] += top_transition.item()
    return log_alpha + np.cumsum(steps)[:, None]


def forward_log_alphas(emissions, transitions):
    emissions, transitions = _check(emissions, transitions)
    alphas = _scaled_forward(emissions, transitions)
    return _log_forward(emissions, transitions) if alphas is None else alphas


def log_partition(emissions, transitions):
    """log of the summed exponentiated scores over all L^T paths."""
    alphas = forward_log_alphas(emissions, transitions)
    return float(_logsumexp(alphas[-1], axis=0))


def viterbi(emissions, transitions):
    """Best path and its score; ties go to the lower label index."""
    emissions, transitions = _check(emissions, transitions)
    n_steps, n_labels = emissions.shape
    into = np.ascontiguousarray(transitions.T)  # (to, from)
    row_starts = np.arange(0, n_labels * n_labels, n_labels)
    candidates = np.empty_like(into)
    score = emissions[0].copy()
    backpointers = np.zeros((n_steps, n_labels), dtype=np.intp)
    for t in range(1, n_steps):
        np.add(into, score, out=candidates)
        best = candidates.argmax(axis=1, out=backpointers[t])
        np.add(emissions[t], candidates.take(best + row_starts), out=score)
    best_last = int(np.argmax(score))
    best_score = float(score[best_last])
    path = [best_last]
    for pointers in backpointers[:0:-1].tolist():
        path.append(pointers[path[-1]])
    path.reverse()
    return path, best_score


def _log_marginals(emissions, transitions, alphas):
    n_steps, n_labels = emissions.shape
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


@np.errstate(divide="ignore", invalid="ignore")
def _scaled_marginals(emissions, transitions, alphas):
    p, _ = _exp_shifted(transitions)
    q, _ = _exp_shifted(emissions, axis=1)
    alpha, _ = _exp_shifted(alphas, axis=1)
    # the backward recursion is the forward scan, reversed, over P^T:
    # weighted[t] is Q_t * beta_t up to a constant
    scan = None if p is None or q is None or alpha is None else _scan(p.T, q[::-1])
    if scan is None:
        return None
    weighted = scan[0][::-1]
    beta = np.ones_like(q)
    beta[:-1] = weighted[1:] @ p.T
    node = alpha * beta
    norms = node.sum(axis=1, keepdims=True)
    node /= norms
    # sum_{i,j} alpha_t(i) P_ij weighted_{t+1}(j) = sum_i alpha_t(i) beta_t(i)
    edge = (alpha[:-1] / norms[:-1])[:, :, None] * weighted[1:, None, :]
    edge *= p
    return node, edge


def marginals(emissions, transitions):
    """Node and edge posteriors from the forward-backward recursions.

    Returns (node, edge): node[t, y] = P(y_t = y) with rows summing to 1;
    edge[t, y, y'] = P(y_t = y, y_{t+1} = y'). edge is empty when T = 1.
    """
    emissions, transitions = _check(emissions, transitions)
    alphas = forward_log_alphas(emissions, transitions)
    scaled = _scaled_marginals(emissions, transitions, alphas)
    return _log_marginals(emissions, transitions, alphas) if scaled is None else scaled


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
