"""Correctness checks on the program's outputs.

Each check recomputes a result without the code path it checks, or tests
a property the method must have, and raises CheckFailed on a mismatch.
Chain inference here is a plain numpy transcription of the textbook
recursions (Viterbi with ties to the lower label index, the forward
algorithm for log Z), independent of ``seqtag.chain``.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """A program output failed a correctness check."""


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)), axis)


def viterbi_path(scores, transitions):
    """Highest-scoring label path of a (T, L) score matrix."""
    best = scores[0].copy()
    back = []
    for t in range(1, len(scores)):
        cand = best[:, None] + transitions
        back.append(np.argmax(cand, axis=0))
        best = cand.max(axis=0) + scores[t]
    path = [int(np.argmax(best))]
    for pointers in reversed(back):
        path.append(int(pointers[path[-1]]))
    return path[::-1]


def crf_nll(scores, transitions, gold):
    """-log p(gold) under a linear chain: log Z minus the gold score."""
    alpha = scores[0]
    for t in range(1, len(scores)):
        alpha = scores[t] + _logsumexp(alpha[:, None] + transitions, axis=0)
    gold_score = scores[0, gold[0]] + sum(
        transitions[gold[t - 1], gold[t]] + scores[t, gold[t]]
        for t in range(1, len(gold))
    )
    return float(_logsumexp(alpha, axis=0) - gold_score)


def softmax_nll(scores, gold):
    """Mean per-token cross entropy of the gold labels."""
    log_z = _logsumexp(scores, axis=1)
    return float(np.mean(log_z - scores[np.arange(len(gold)), gold]))


def check_paths(name, got, want):
    """Tagged label sequences equal the independently decoded ones."""
    if len(got) != len(want):
        raise CheckFailed(f"{name}: {len(got)} tagged sentences, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if list(g) != list(w):
            raise CheckFailed(f"{name}: sentence {i} tagged {g}, decoding gives {w}")


def check_loss_below_bound(name, loss, bound):
    """A trained model scores held-out data better than zero-initialised
    heads do; `bound` is that closed-form loss."""
    if not (math.isfinite(loss) and loss < bound):
        raise CheckFailed(f"{name}: loss {loss:.6g} is not below the bound {bound:.6g}")


def check_identical_bytes(name, got, want):
    if got != want:
        where = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        raise CheckFailed(
            f"{name}: {len(got)} bytes differ from {len(want)} expected at offset {where}"
        )


def token_accuracy(gold, pred):
    correct = sum(g == p for gs, ps in zip(gold, pred) for g, p in zip(gs, ps))
    return correct / sum(len(gs) for gs in gold)


def check_accuracy(report_accuracy, gold, pred):
    """metrics.evaluate's accuracy equals the fraction recomputed here."""
    mine = token_accuracy(gold, pred)
    if report_accuracy != mine:
        raise CheckFailed(f"accuracy: evaluate says {report_accuracy!r}, recount {mine!r}")


def check_floor(name, value, floor):
    if not value >= floor:
        raise CheckFailed(f"{name}: {value:.4f} is below the floor {floor}")
