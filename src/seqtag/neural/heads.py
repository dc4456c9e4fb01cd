"""Inference-layer losses (per-token softmax, sequence CRF) and dropout."""

from __future__ import annotations

import numpy as np

from seqtag import chain


def dropout_mask(shape, rate, rng):
    """Pre-scaled mask so forward and backward share the exact factors."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def log_softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_head_loss(scores, gold):
    """Mean per-token cross entropy; also returns the probability rows."""
    n_steps, n_labels = scores.shape
    if len(gold) != n_steps:
        raise ValueError("gold length does not match scores")
    gold = np.asarray(gold)
    if gold.min() < 0 or gold.max() >= n_labels:
        raise ValueError("gold index out of range")
    log_probs = log_softmax(scores)
    loss = -log_probs[np.arange(n_steps), gold].mean()
    return float(loss), np.exp(log_probs)


def softmax_head_backward(probs, gold):
    """d loss / d scores for the mean cross entropy."""
    n_steps = probs.shape[0]
    d_scores = probs.copy()
    d_scores[np.arange(n_steps), gold] -= 1.0
    return d_scores / n_steps


def crf_head_loss(scores, transitions, gold):
    """Sequence negative log-likelihood: log-partition minus gold score."""
    n_steps, n_labels = scores.shape
    if len(gold) != n_steps:
        raise ValueError("gold length does not match scores")
    gold = list(gold)
    if min(gold) < 0 or max(gold) >= n_labels:
        raise ValueError("gold index out of range")
    return chain.sequence_nll(scores, transitions, gold)


def crf_head_backward(scores, transitions, gold):
    """Gradients of crf_head_loss on the score matrix and transitions."""
    return chain.nll_gradients(scores, transitions, gold)


def joint_loss(ner_loss, pos_loss, weight=1.0):
    if weight < 0:
        raise ValueError("joint loss weight must be >= 0")
    return ner_loss + weight * pos_loss
