"""Feature-based linear-chain CRF: maximum-likelihood training with L2,
exact inference, single-task NER or joint POS+NER via product labels.

Joint operation folds the POS tag into the label, restricting the label
set to (NER, POS) pairs observed in training; predictions project back
to the NER component.

Scoring and the gradient take one path. A sentence's feature maps are
indexed once into CSR arrays (weight row, value and token position per
entry); one scorer turns them into the (T, L) emission matrix, the chain
module's sequence_nll and nll_gradients give the loss and its gradient
on that matrix, and one scatter sums the gradient into weight rows. The
trainer, emissions and nll_and_gradient all run this path. Indexing maps
a sentence's keys with one dict lookup each and no Python call per key:
training registers unseen keys as new rows, other callers drop them.

The trainer decays the state weights lazily (Bottou 2012, section 5.1):
they are w_scale times the weight block, each mini-batch's L2 factor
multiplies the scalar, and scores are scaled by it instead of the F x L
block being multiplied. The scale is folded into the block at every best
epoch, and before it would fall below _MIN_W_SCALE or when the factor is
not positive. The L x L transitions decay densely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from seqtag import TASKS, EarlyStopping, chain, check_finite_gradients, sum_rows
from seqtag.corpus import NER_INDEX, NER_LABELS, POS_INDEX
from seqtag.features import sentence_features

# the trainer folds its weight scale into the weights before it falls below
_MIN_W_SCALE = 1e-9


@dataclass
class CrfTrainConfig:
    l2: float = 0.1
    learning_rate: float = 0.05
    epochs: int = 50
    patience: int = 5
    batch_size: int = 8
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class CrfModel:
    """Sparse per-label feature weights plus a dense transition matrix.

    labels are NerLabel values (single task) or (NerLabel, pos) pairs
    (joint task). state_weights row f aligns with feature_index;
    unseen features score zero. embedding, when not None, is the vector
    table whose composed word vectors are features too (emb0, emb1, ...).
    """

    labels: list
    task: str
    feature_index: dict[str, int]
    state_weights: np.ndarray   # (F, L)
    transitions: np.ndarray     # (L, L)
    embedding: "EmbeddingTable | None" = None
    trained_on: dict = field(default_factory=dict)

    def __post_init__(self):
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        n_labels = len(self.labels)
        if (self.state_weights.shape != (len(self.feature_index), n_labels)
                or self.transitions.shape != (n_labels, n_labels)):
            raise ValueError("weight shapes do not match the features and labels")

    @property
    def n_labels(self):
        return len(self.labels)

    def label_id(self, label):
        idx = self._label_index.get(label)
        if idx is None:
            raise KeyError(f"label {label!r} outside the model's label set")
        return idx


def single_task_labels():
    return list(NER_LABELS)


def joint_task_labels(corpus):
    """(NER, POS) pairs observed in the corpus, in canonical order."""
    observed = {
        (token.ner, token.pos) for sentence in corpus for token in sentence
    }
    return sorted(observed, key=lambda p: (NER_INDEX[p[0]], POS_INDEX[p[1]]))


def gold_label(token, task):
    return token.ner if task == "single" else (token.ner, token.pos)


def project_ner(label, task):
    return label if task == "single" else label[0]


class _Registry(dict):
    """A feature index that gives an unseen key the next row on lookup."""

    def __missing__(self, key):
        row = self[key] = len(self)
        return row


def _index_rows(index, features):
    """A sentence's feature maps in CSR form: (rows, values, positions,
    starts). Entry i adds values[i] times weight row rows[i] to token
    positions[i]; entries run in token order, and starts holds the first
    entry of each token that has one. A _Registry index registers unseen
    keys; any other index drops them."""
    keys = list(itertools.chain.from_iterable(features))
    if isinstance(index, _Registry):
        found = map(index.__getitem__, keys)
    else:
        found = map(index.get, keys, itertools.repeat(-1))
    rows = np.fromiter(found, dtype=np.intp, count=len(keys))
    values = itertools.chain.from_iterable(map(dict.values, features))
    values = np.fromiter(values, dtype=float, count=len(keys))
    positions = np.repeat(np.arange(len(features)), list(map(len, features)))
    known = rows >= 0
    if not known.all():
        rows, values, positions = rows[known], values[known], positions[known]
    starts = np.flatnonzero(np.diff(positions, prepend=-1))
    return rows, values, positions, starts


def _scores(weights, csr, n_tokens):
    """Score matrix (T, L) of a CSR sentence. reduceat sums the tokens
    that have entries only, because it reads an empty segment as the
    entry at its start."""
    rows, values, positions, starts = csr
    entries = weights[rows]
    entries *= values[:, None]
    scores = np.zeros((n_tokens, weights.shape[1]))
    scores[positions[starts]] = np.add.reduceat(entries, starts)
    return scores


def _nll_and_entry_gradients(weights, transitions, csr, gold_ids, w_scale=1.0):
    """Sentence NLL, the gradient on the state weights w_scale * weights
    of each CSR entry and the transition gradient."""
    _, values, positions, _ = csr
    scores = _scores(weights, csr, len(gold_ids))
    scores *= w_scale
    nll = chain.sequence_nll(scores, transitions, gold_ids)
    d_scores, d_transitions = chain.nll_gradients(scores, transitions, gold_ids)
    return nll, values[:, None] * d_scores[positions], d_transitions


def emissions(model, sentence, features):
    """Score matrix (T, L): entry (t, y) sums weight * value over the
    features present at t."""
    if len(features) != len(sentence):
        raise ValueError("need one feature map per token")
    csr = _index_rows(model.feature_index, features)
    return _scores(model.state_weights, csr, len(sentence))


def nll_and_gradient(model, sentence, gold, l2=0.0, features=None):
    """Negative log-likelihood of the gold path and its exact gradient.

    The gradient is (feature-keyed sparse map of per-label vectors,
    dense L x L transition gradient): expected counts under the model
    minus empirical counts, plus the l2 penalty term at the given
    strength. Keys without a weight row get no entry. Trainers pass
    l2=0 here and apply the batch-scaled penalty themselves.
    """
    if features is None:
        features = sentence_features(sentence, model.embedding)
    if not len(features) == len(gold) == len(sentence):
        raise ValueError("need one feature map and one gold label per token")
    gold_ids = [model.label_id(label) for label in gold]
    index = model.feature_index
    csr = _index_rows(index, features)
    nll, entry_gradients, grad_trans = _nll_and_entry_gradients(
        model.state_weights, model.transitions, csr, gold_ids
    )
    keys = {index[key]: key for feats in features for key in feats if key in index}
    grad_map = {keys[row]: grad for row, grad in zip(*sum_rows(csr[0], entry_gradients))}

    if l2 > 0.0:
        nll += 0.5 * l2 * (
            float((model.state_weights**2).sum()) + float((model.transitions**2).sum())
        )
        for key, row in index.items():
            weight_row = model.state_weights[row]
            if key in grad_map or np.any(weight_row):
                grad_map[key] = grad_map.get(key, 0.0) + l2 * weight_row
        grad_trans += l2 * model.transitions
    return nll, (grad_map, grad_trans)


def train_crf(corpus, valid, config, task="single", embeddings=None, log=None):
    """Mini-batch gradient descent on the regularized NLL.

    Stops at config.epochs or when validation NLL has not improved for
    config.patience epochs; the returned model carries the parameters of
    the best validation epoch. Validation sentences with labels outside
    the training label set (possible for joint product labels) are left
    out of the validation score. The model keeps embeddings, not a copy,
    to tag with. Raises NonFiniteLossError when an epoch's training or
    validation loss, or a batch's gradient, is not finite.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if len(corpus) == 0:
        raise ValueError("empty training corpus")

    labels = single_task_labels() if task == "single" else joint_task_labels(corpus)
    label_index = {label: i for i, label in enumerate(labels)}
    n_labels = len(labels)
    registry = _Registry()

    def prepare(sentence, index):
        feats = sentence_features(sentence, embeddings)
        gold = [label_index.get(gold_label(t, task)) for t in sentence]
        return None if None in gold else (_index_rows(index, feats), gold)

    train_items = [prepare(sentence, registry) for sentence in corpus]
    if None in train_items:
        raise ValueError("training sentence with label outside the label set")
    # every weight row belongs to a training feature, so the index is
    # complete here and the weights are allocated once; the plain copy
    # drops unseen keys, and the registry's table is freed before training
    feature_index = dict(registry)
    del registry
    valid_items = [prepare(sentence, feature_index) for sentence in valid]
    valid_items = [item for item in valid_items if item is not None]
    weights = np.zeros((len(feature_index), n_labels))
    w_scale = 1.0
    transitions = np.zeros((n_labels, n_labels))
    rng = np.random.default_rng(config.seed)
    n = len(train_items)
    order = np.arange(n)
    factor = 1.0 - config.learning_rate * config.l2 / n

    stopping = EarlyStopping(config.epochs, config.patience, log)
    for epoch in stopping:
        if config.shuffle:
            rng.shuffle(order)
        epoch_nll = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_rows, batch_gradients = [], []
            grad_trans = np.zeros((n_labels, n_labels))
            for idx in batch:
                csr, gold_ids = train_items[idx]
                nll, entry_gradients, trans = _nll_and_entry_gradients(
                    weights, transitions, csr, gold_ids, w_scale
                )
                epoch_nll += nll
                grad_trans += trans
                batch_rows.append(csr[0])
                batch_gradients.append(entry_gradients)
            rows, grad_rows = sum_rows(
                np.concatenate(batch_rows), np.concatenate(batch_gradients)
            )
            check_finite_gradients(epoch, (grad_rows, grad_trans))
            scale = config.learning_rate / len(batch)
            if factor != 1.0:
                transitions *= factor
                if factor > 0.0 and w_scale * factor >= _MIN_W_SCALE:
                    w_scale *= factor
                else:
                    weights *= w_scale * factor
                    w_scale = 1.0
            weights[rows] -= (scale / w_scale) * grad_rows
            transitions -= scale * grad_trans

        valid_losses = [
            chain.sequence_nll(_scores(weights, csr, len(gold)) * w_scale, transitions, gold)
            for csr, gold in valid_items
        ]
        # epoch 1 is a best: its finite loss is below the initial infinity
        if stopping.improved(epoch, epoch_nll / n, valid_losses):
            weights *= w_scale
            w_scale = 1.0
            best_params = (weights.copy(), transitions.copy())

    weights, transitions = best_params
    return CrfModel(
        labels=labels,
        task=task,
        feature_index=feature_index,
        state_weights=weights,
        transitions=transitions,
        embedding=embeddings,
        trained_on={
            "sentences": len(corpus),
            "task": task,
            "seed": config.seed,
            "best_valid_nll": float(stopping.best_loss),
        },
    )


def tag_crf(model, sentence):
    """Viterbi-decode one sentence; joint models project labels to NER."""
    return [project_ner(label, model.task) for label in tag_crf_full(model, sentence)]


def tag_crf_full(model, sentence):
    """Like tag_crf but keeps the full labels (for joint POS output)."""
    scores = emissions(model, sentence, sentence_features(sentence, model.embedding))
    path, _ = chain.viterbi(scores, model.transitions)
    return [model.labels[i] for i in path]
