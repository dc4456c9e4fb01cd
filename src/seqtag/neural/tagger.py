"""The BiLSTM tagger: architecture wiring, training, and decoding.

One shared encoder feeds one head per task ("ner", plus "pos" for joint
runs); each head is an independent projection ending in softmax or CRF
inference. Per-sentence forward/backward passes are accumulated over a
mini-batch (no padding), optimized with Adam, early-stopped on
validation loss, and the best epoch's parameters are restored.
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from seqtag import chain, check_finite_losses
from seqtag.corpus import NER_LABELS, POS_TAGS
from seqtag.embeddings import EmbeddingConfig, init_random, ngram_bucket_ids
from seqtag.neural.adam import AdamState, adam_step, adam_step_rows
from seqtag.neural.heads import (
    crf_head_backward,
    crf_head_loss,
    dropout_mask,
    joint_loss,
    softmax_head_backward,
    softmax_head_loss,
)
from seqtag.neural.lstm import LstmParams, lstm_backward, lstm_forward

INFERENCE_KINDS = ("softmax", "crf")
TASKS = ("single", "joint")
EMBEDDING_MODES = ("random", "frozen", "finetuned")

_NER_INDEX = {label: i for i, label in enumerate(NER_LABELS)}
_POS_INDEX = {pos: i for i, pos in enumerate(POS_TAGS)}


@dataclass(frozen=True)
class Architecture:
    inference: str       # "softmax" | "crf"
    task: str            # "single" | "joint"
    embedding_mode: str  # "random" | "frozen" | "finetuned"

    def __post_init__(self):
        if self.inference not in INFERENCE_KINDS:
            raise ValueError(f"unknown inference kind {self.inference!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.embedding_mode not in EMBEDDING_MODES:
            raise ValueError(f"unknown embedding mode {self.embedding_mode!r}")


@dataclass
class NeuralTrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int | None = None    # None -> 32 random / 64 pretrained
    max_epochs: int = 50
    patience: int = 5
    joint_loss_weight: float = 1.0
    dropout: float = 0.5
    seed: int = 0
    hidden_size: int | None = None   # None -> 128 random / 256 pretrained

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    def resolved_batch_size(self, embedding_mode):
        default = 32 if embedding_mode == "random" else 64
        if self.batch_size is None:
            return default
        if self.batch_size != default:
            warnings.warn(
                f"batch_size {self.batch_size} deviates from the {default} "
                f"default for {embedding_mode} embeddings",
                stacklevel=2,
            )
        return self.batch_size

    def resolved_hidden_size(self, embedding_mode):
        default = 128 if embedding_mode == "random" else 256
        if self.hidden_size is None:
            return default
        if self.hidden_size != default:
            warnings.warn(
                f"hidden_size {self.hidden_size} deviates from the {default} "
                f"default for {embedding_mode} embeddings",
                stacklevel=2,
            )
        return self.hidden_size


@dataclass
class Head:
    kind: str                 # "softmax" | "crf"
    weight: np.ndarray        # (K, 2H)
    bias: np.ndarray          # (K,)
    transitions: np.ndarray | None
    labels: list

    def scores(self, encoded):
        return encoded @ self.weight.T + self.bias


@dataclass
class Prediction:
    ner: list
    pos: list | None = None


@dataclass
class NeuralTagger:
    embedding: "EmbeddingTable"
    forward_lstm: LstmParams
    backward_lstm: LstmParams
    heads: dict[str, Head]
    hidden_size: int
    dropout_rate: float = 0.5
    trained_on: dict = field(default_factory=dict)

    @property
    def task(self):
        return "joint" if "pos" in self.heads else "single"

    def parameters(self):
        """Named dense parameter arrays (embedding rows are handled
        separately as sparse updates)."""
        params = {
            "fwd.W": self.forward_lstm.W,
            "fwd.U": self.forward_lstm.U,
            "fwd.b": self.forward_lstm.b,
            "bwd.W": self.backward_lstm.W,
            "bwd.U": self.backward_lstm.U,
            "bwd.b": self.backward_lstm.b,
        }
        for name, head in self.heads.items():
            params[f"head.{name}.weight"] = head.weight
            params[f"head.{name}.bias"] = head.bias
            if head.transitions is not None:
                params[f"head.{name}.transitions"] = head.transitions
        return params


def build_tagger(arch, table, hidden_size, rng, dropout_rate=0.5):
    """Zero-initialized heads over a freshly initialized BiLSTM encoder."""
    dim = table.dim
    heads = {"ner": _build_head(arch.inference, list(NER_LABELS), hidden_size)}
    if arch.task == "joint":
        heads["pos"] = _build_head(arch.inference, list(POS_TAGS), hidden_size)
    return NeuralTagger(
        embedding=table,
        forward_lstm=LstmParams.init(dim, hidden_size, rng),
        backward_lstm=LstmParams.init(dim, hidden_size, rng),
        heads=heads,
        hidden_size=hidden_size,
        dropout_rate=dropout_rate,
    )


def _build_head(kind, labels, hidden_size):
    k = len(labels)
    transitions = np.zeros((k, k)) if kind == "crf" else None
    return Head(
        kind=kind,
        weight=np.zeros((k, 2 * hidden_size)),
        bias=np.zeros(k),
        transitions=transitions,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# embedding lookups with backward bookkeeping


def _lookup(table, word, cache):
    info = cache.get(word)
    if info is None:
        info = (table.vocab.get(word), ngram_bucket_ids(table, word))
        cache[word] = info
    return info


def _compose(table, idx, buckets):
    """Vector plus the denominator the gradient must be divided by
    (0 marks the UNK fallback)."""
    if idx is not None:
        if not buckets:
            return table.word_vectors[idx], 1
        denom = 1 + len(buckets)
        return (
            (table.word_vectors[idx] + table.ngram_buckets[buckets].sum(axis=0))
            / denom,
            denom,
        )
    if buckets:
        return table.ngram_buckets[buckets].sum(axis=0) / len(buckets), len(buckets)
    return table.unk_vector, 0


class _EmbeddingGrads:
    def __init__(self):
        self.words = {}
        self.buckets = {}
        self.unk = None

    def add(self, idx, buckets, denom, dx):
        if idx is not None:
            share = dx / denom
            self._bump(self.words, idx, share)
            for b in buckets:
                self._bump(self.buckets, b, share)
        elif buckets:
            share = dx / denom
            for b in buckets:
                self._bump(self.buckets, b, share)
        else:
            self.unk = dx.copy() if self.unk is None else self.unk + dx

    @staticmethod
    def _bump(store, key, value):
        existing = store.get(key)
        if existing is None:
            store[key] = value.copy()
        else:
            existing += value

    def scale(self, factor):
        for store in (self.words, self.buckets):
            for vec in store.values():
                vec *= factor
        if self.unk is not None:
            self.unk *= factor


# ---------------------------------------------------------------------------
# forward / backward over the whole graph


def _gold_ids(sentence, task):
    gold = {"ner": [_NER_INDEX[t.ner] for t in sentence]}
    if task == "joint":
        gold["pos"] = [_POS_INDEX[t.pos] for t in sentence]
    return gold


def _sentence_pass(model, sentence, joint_weight, training, rng, cache,
                   compute_grads, gold=None):
    """Loss (and gradients when asked) for one sentence."""
    table = model.embedding
    rate = model.dropout_rate if training else 0.0
    infos = [_lookup(table, token.surface, cache) for token in sentence]
    composed = [_compose(table, idx, buckets) for idx, buckets in infos]
    xs = np.stack([vec for vec, _ in composed])

    if rate > 0.0:
        mask_e = dropout_mask(xs.shape, rate, rng)
        xs_dropped = xs * mask_e
    else:
        mask_e = None
        xs_dropped = xs

    hs_f, cache_f = lstm_forward(xs_dropped, model.forward_lstm)
    hs_b, cache_b = lstm_forward(xs_dropped[::-1], model.backward_lstm)
    encoded = np.concatenate([hs_f, hs_b[::-1]], axis=1)

    if rate > 0.0:
        mask_h = dropout_mask(encoded.shape, rate, rng)
        encoded_dropped = encoded * mask_h
    else:
        mask_h = None
        encoded_dropped = encoded

    if gold is None:
        gold = _gold_ids(sentence, model.task)
    losses = {}
    head_ctx = {}
    for name, head in model.heads.items():
        scores = head.scores(encoded_dropped)
        if head.kind == "softmax":
            losses[name], probs = softmax_head_loss(scores, gold[name])
            head_ctx[name] = (scores, probs)
        else:
            losses[name] = crf_head_loss(scores, head.transitions, gold[name])
            head_ctx[name] = (scores, None)
    total = (
        losses["ner"]
        if model.task == "single"
        else joint_loss(losses["ner"], losses["pos"], joint_weight)
    )
    if not compute_grads:
        return total, None, None

    grads = {}
    d_encoded = np.zeros_like(encoded_dropped)
    for name, head in model.heads.items():
        scale = 1.0 if name == "ner" else joint_weight
        scores, probs = head_ctx[name]
        if head.kind == "softmax":
            d_scores = softmax_head_backward(probs, gold[name])
        else:
            d_scores, d_trans = crf_head_backward(scores, head.transitions, gold[name])
            grads[f"head.{name}.transitions"] = scale * d_trans
        d_scores = scale * d_scores
        grads[f"head.{name}.weight"] = d_scores.T @ encoded_dropped
        grads[f"head.{name}.bias"] = d_scores.sum(axis=0)
        d_encoded += d_scores @ head.weight

    if mask_h is not None:
        d_encoded = d_encoded * mask_h
    h = model.hidden_size
    dxs_f, lstm_grads_f = lstm_backward(cache_f, model.forward_lstm, d_encoded[:, :h])
    dxs_b_rev, lstm_grads_b = lstm_backward(
        cache_b, model.backward_lstm, d_encoded[::-1, h:]
    )
    for key, value in lstm_grads_f.items():
        grads[f"fwd.{key}"] = value
    for key, value in lstm_grads_b.items():
        grads[f"bwd.{key}"] = value

    dxs = dxs_f + dxs_b_rev[::-1]
    if mask_e is not None:
        dxs = dxs * mask_e
    emb_grads = None
    if table.trainable:
        emb_grads = _EmbeddingGrads()
        for t, (idx, buckets) in enumerate(infos):
            emb_grads.add(idx, buckets, composed[t][1], dxs[t])
    return total, grads, emb_grads


def batch_loss_and_gradients(model, batch, joint_weight=1.0, training=False,
                             rng=None, cache=None, gold=None):
    """Mean loss over the batch and exact gradients for every trainable
    parameter; embedding gradients are sparse over the touched rows and
    absent in frozen mode. Dropout masks are drawn from rng only when
    training. gold (one id dict per sentence) defaults to the tokens' own
    labels."""
    if not batch:
        raise ValueError("empty batch")
    if training and model.dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout needs an rng")
    if cache is None:
        cache = {}
    total_loss = 0.0
    total_grads = {}
    total_emb = _EmbeddingGrads() if model.embedding.trainable else None
    for s_idx, sentence in enumerate(batch):
        loss, grads, emb = _sentence_pass(
            model,
            sentence,
            joint_weight,
            training,
            rng,
            cache,
            compute_grads=True,
            gold=None if gold is None else gold[s_idx],
        )
        total_loss += loss
        for name, grad in grads.items():
            if name in total_grads:
                total_grads[name] += grad
            else:
                total_grads[name] = grad
        if emb is not None:
            for idx, vec in emb.words.items():
                total_emb._bump(total_emb.words, idx, vec)
            for idx, vec in emb.buckets.items():
                total_emb._bump(total_emb.buckets, idx, vec)
            if emb.unk is not None:
                total_emb.unk = (
                    emb.unk if total_emb.unk is None else total_emb.unk + emb.unk
                )
    n = len(batch)
    for grad in total_grads.values():
        grad /= n
    if total_emb is not None:
        total_emb.scale(1.0 / n)
    return total_loss / n, total_grads, total_emb


def sentence_loss(model, sentence, joint_weight=1.0, gold=None):
    """Evaluation-mode loss of one sentence (no dropout)."""
    loss, _, _ = _sentence_pass(
        model, sentence, joint_weight, False, None, {}, compute_grads=False, gold=gold
    )
    return loss


# ---------------------------------------------------------------------------
# training


def _snapshot(model):
    params = {name: arr.copy() for name, arr in model.parameters().items()}
    table = model.embedding
    return params, (
        table.word_vectors.copy(),
        table.ngram_buckets.copy(),
        table.unk_vector.copy(),
    )


def _restore(model, snap):
    params, (words, buckets, unk) = snap
    for name, arr in model.parameters().items():
        arr[...] = params[name]
    model.embedding.word_vectors[...] = words
    model.embedding.ngram_buckets[...] = buckets
    model.embedding.unk_vector[...] = unk


def train_neural(train, valid, arch, config, embeddings=None,
                 embedding_config=None, log=None):
    """Train a tagger; returns (model, per-epoch records).

    Random mode builds the table over the training vocabulary; pretrained
    modes deep-copy the given table so the caller's stays untouched.
    Early stopping watches the validation loss (combined loss for joint
    runs) and the best epoch's parameters are restored before returning.
    Raises NonFiniteLossError when an epoch's training or validation
    loss is not finite.
    """
    if len(train) == 0:
        raise ValueError("empty training corpus")
    if arch.task == "joint":
        for sentence in train:
            for token in sentence:
                if token.pos not in _POS_INDEX:
                    raise ValueError("joint training needs POS tags on every token")

    if arch.embedding_mode == "random":
        if embeddings is not None:
            raise ValueError("random mode builds its own table")
        emb_config = embedding_config or EmbeddingConfig(seed=config.seed)
        vocab = sorted({t.surface for s in train for t in s})
        table = init_random(vocab, emb_config)
    else:
        if embeddings is None:
            raise ValueError(f"{arch.embedding_mode} mode needs a pretrained table")
        table = copy.deepcopy(embeddings)
        table.mode = "frozen" if arch.embedding_mode == "frozen" else "finetuned"

    hidden = config.resolved_hidden_size(arch.embedding_mode)
    batch_size = config.resolved_batch_size(arch.embedding_mode)
    rng = np.random.default_rng(config.seed)
    model = build_tagger(arch, table, hidden, rng, dropout_rate=config.dropout)

    params = model.parameters()
    adam = AdamState()
    lookup_cache = {}
    order = np.arange(len(train))
    sentences = list(train)
    valid_sentences = list(valid)

    records = log if log is not None else []
    best_valid = np.inf
    best_snap = _snapshot(model)
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(sentences), batch_size):
            batch = [sentences[i] for i in order[start : start + batch_size]]
            loss, grads, emb_grads = batch_loss_and_gradients(
                model,
                batch,
                joint_weight=config.joint_loss_weight,
                training=True,
                rng=rng,
                cache=lookup_cache,
            )
            epoch_loss += loss * len(batch)
            adam_step(
                params,
                grads,
                adam,
                learning_rate=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                epsilon=config.epsilon,
            )
            if emb_grads is not None:
                kw = dict(
                    learning_rate=config.learning_rate,
                    beta1=config.beta1,
                    beta2=config.beta2,
                    epsilon=config.epsilon,
                )
                adam_step_rows(table.word_vectors, emb_grads.words, adam, "emb.words", **kw)
                adam_step_rows(table.ngram_buckets, emb_grads.buckets, adam, "emb.buckets", **kw)
                if emb_grads.unk is not None:
                    adam_step_rows(
                        table.unk_vector[None, :], {0: emb_grads.unk}, adam, "emb.unk", **kw
                    )
        train_loss = epoch_loss / len(sentences)
        if valid_sentences:
            valid_loss = sum(
                sentence_loss(model, s, config.joint_loss_weight)
                for s in valid_sentences
            ) / len(valid_sentences)
        else:
            valid_loss = train_loss
        records.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "valid_loss": valid_loss,
                "seconds": time.perf_counter() - started,
            }
        )
        check_finite_losses(epoch, train_loss, valid_loss)
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_snap = _snapshot(model)
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    _restore(model, best_snap)
    model.trained_on = {
        "task": arch.task,
        "inference": arch.inference,
        "embedding_mode": arch.embedding_mode,
        "seed": config.seed,
        "epochs_run": len(records),
        "best_valid_loss": float(best_valid),
    }
    return model, records


def format_training_log(records):
    return [
        "epoch={epoch} train_loss={train_loss:.6f} valid_loss={valid_loss:.6f} "
        "seconds={seconds:.3f}".format(**r)
        for r in records
    ]


# ---------------------------------------------------------------------------
# decoding


def tag_neural(model, sentence):
    """Predict NER labels (and POS for joint models); dropout off."""
    table = model.embedding
    cache = {}
    infos = [_lookup(table, token.surface, cache) for token in sentence]
    xs = np.stack([_compose(table, idx, buckets)[0] for idx, buckets in infos])
    hs_f, _ = lstm_forward(xs, model.forward_lstm)
    hs_b, _ = lstm_forward(xs[::-1], model.backward_lstm)
    encoded = np.concatenate([hs_f, hs_b[::-1]], axis=1)

    outputs = {}
    for name, head in model.heads.items():
        scores = head.scores(encoded)
        if head.kind == "softmax":
            indices = np.argmax(scores, axis=1)
        else:
            indices, _ = chain.viterbi(scores, head.transitions)
        outputs[name] = [head.labels[int(i)] for i in indices]
    return Prediction(ner=outputs["ner"], pos=outputs.get("pos"))
