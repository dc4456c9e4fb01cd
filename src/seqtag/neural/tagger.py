"""The BiLSTM tagger: architecture wiring, training, and decoding.

One shared encoder feeds one head per task ("ner", plus "pos" for joint
runs); each head is an independent projection ending in softmax or CRF
inference. Training, validation and tagging run one path, _encode, over
a list of sentences (a mini-batch, or one sentence): lookup,
embeddings.compose, every sentence's dropout masks drawn before any
scan, one input GEMM per direction over the stacked rows (no padding),
and the per-sentence LSTM scans. Head losses and BPTT run per sentence;
every dense gradient is formed once per batch from the stacked rows,
with no per-sentence accumulation. Embedding gradients are (row,
gradient) entry arrays per use of a row, summed per row once per batch.
Parameters are optimized with Adam, training is early-stopped on
validation loss, and the best epoch's parameters are restored.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from seqtag import TASKS, EarlyStopping, chain, check_finite_gradients, sum_rows
from seqtag.corpus import NER_INDEX, NER_LABELS, POS_INDEX, POS_TAGS
from seqtag.embeddings import MODES, EmbeddingConfig, compose, init_random, ngram_bucket_ids
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
# the paper's hidden and batch sizes for each embedding mode
REGIME_SIZES = {
    "random": {"hidden_size": 128, "batch_size": 32},
    "frozen": {"hidden_size": 256, "batch_size": 64},
    "finetuned": {"hidden_size": 256, "batch_size": 64},
}


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
        if self.embedding_mode not in MODES:
            raise ValueError(f"unknown embedding mode {self.embedding_mode!r}")


@dataclass
class NeuralTrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int | None = None    # None -> REGIME_SIZES
    max_epochs: int = 50
    patience: int = 5
    joint_loss_weight: float = 1.0
    dropout: float = 0.5
    seed: int = 0
    hidden_size: int | None = None   # None -> REGIME_SIZES

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.hidden_size is not None and self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.joint_loss_weight < 0:
            raise ValueError("joint_loss_weight must be >= 0")


@dataclass
class Head:
    kind: str                 # "softmax" | "crf"
    weight: np.ndarray        # (K, 2H)
    bias: np.ndarray          # (K,)
    transitions: np.ndarray | None
    labels: list

    def __post_init__(self):
        k = len(self.labels)
        trans_shape = None if self.transitions is None else self.transitions.shape
        if (self.weight.ndim != 2 or self.weight.shape[0] != k or self.bias.shape != (k,)
                or trans_shape not in (None, (k, k))):
            raise ValueError("head weight, bias or transitions do not match its labels")

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

    def __post_init__(self):
        sizes = (self.embedding.dim, self.hidden_size)
        for lstm in (self.forward_lstm, self.backward_lstm):
            if (lstm.input_size, lstm.hidden_size) != sizes:
                raise ValueError("LSTM sizes do not match the embedding dim and hidden size")
        for head in self.heads.values():
            if head.weight.shape[1] != 2 * self.hidden_size:
                raise ValueError("head weight does not match the hidden size")

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
# the sentence path: lookup, composition, dropout and the two scans


def _lookup(table, word, cache):
    info = cache.get(word)
    if info is None:
        info = (table.vocab.get(word), ngram_bucket_ids(table, word))
        cache[word] = info
    return info


def _encode(model, sentences, cache, rate, rng):
    """Encoded states (N, 2H) of the sentences, stacked in order (N is
    their total length), with dropout at rate on the composed inputs and
    then on the states.

    Each sentence's input mask and state mask are drawn in turn, before
    any scan. The input pre-activations X @ W.T + b are one GEMM per
    direction; the scans run per sentence on row slices of them, the
    backward one on reversed views. Returns the states and the row
    bounds of each sentence, with what BPTT needs: the lookups, the
    stacked inputs X, both stacked masks (None at rate 0) and each
    sentence's two scan caches.
    """
    table = model.embedding
    h = model.hidden_size
    fwd, bwd = model.forward_lstm, model.backward_lstm
    infos = [_lookup(table, token.surface, cache) for sentence in sentences for token in sentence]
    xs = np.stack([compose(table, idx, buckets) for idx, buckets in infos])
    ends = list(accumulate(len(sentence) for sentence in sentences))
    spans = list(zip([0] + ends[:-1], ends))
    mask_e = mask_h = None
    if rate != 0.0:
        mask_e = np.empty_like(xs)
        mask_h = np.empty((len(xs), 2 * h))
        for a, b in spans:
            mask_e[a:b] = dropout_mask((b - a, table.dim), rate, rng)
            mask_h[a:b] = dropout_mask((b - a, 2 * h), rate, rng)
        xs *= mask_e
    zx_f = xs @ fwd.W.T
    zx_f += fwd.b
    zx_b = xs @ bwd.W.T
    zx_b += bwd.b
    encoded = np.empty((len(xs), 2 * h))
    scans = []
    for a, b in spans:
        hs_f, cache_f = lstm_forward(zx_f[a:b], fwd)
        hs_b, cache_b = lstm_forward(zx_b[a:b][::-1], bwd)
        encoded[a:b, :h] = hs_f
        encoded[a:b, h:] = hs_b[::-1]
        scans.append((cache_f, cache_b))
    if mask_h is not None:
        encoded *= mask_h
    return encoded, spans, (infos, xs, mask_e, mask_h, scans)


def _row_entries(infos, dxs):
    """Embedding row gradients of the tokens with lookups infos and input
    gradients dxs, as {slot: (rows, grads)} with one entry per use of a
    row: every row a token's vector averages gets dx / divisor, the UNK
    row gets dx."""
    in_vocab = np.array([idx is not None for idx, _ in infos])
    counts = np.array([len(buckets) for _, buckets in infos], dtype=np.intp)
    divisors = in_vocab + counts
    shares = dxs / np.maximum(divisors, 1)[:, None]
    unk = divisors == 0
    words = [idx for idx, _ in infos if idx is not None]
    buckets = [b for _, token_buckets in infos for b in token_buckets]
    return {
        "emb.words": (np.array(words, dtype=np.intp), shares[in_vocab]),
        "emb.buckets": (np.array(buckets, dtype=np.intp), np.repeat(shares, counts, axis=0)),
        "emb.unk": (np.zeros(np.count_nonzero(unk), dtype=np.intp), shares[unk]),
    }


# ---------------------------------------------------------------------------
# forward / backward over the whole graph


def _gold_ids(sentence, task):
    gold = {"ner": [NER_INDEX[t.ner] for t in sentence]}
    if task == "joint":
        gold["pos"] = [POS_INDEX[t.pos] for t in sentence]
    return gold


def _batch_pass(model, sentences, joint_weight, training, rng, cache,
                compute_grads, gold=None):
    """Summed loss of the sentences, and when asked the summed dense
    gradients and, for a trainable table, (lookups, input gradients).

    Losses and the head and scan backward passes run per sentence; every
    dense gradient is one GEMM or sum over the stacked rows of the batch.
    """
    rate = model.dropout_rate if training else 0.0
    encoded, spans, (infos, xs, mask_e, mask_h, scans) = _encode(
        model, sentences, cache, rate, rng
    )
    if gold is None:
        gold = [_gold_ids(sentence, model.task) for sentence in sentences]
    scores = {name: head.scores(encoded) for name, head in model.heads.items()}
    d_scores = {name: np.empty_like(s) for name, s in scores.items()} if compute_grads else None
    d_trans = {}
    total = 0.0
    for (a, b), sentence_gold in zip(spans, gold):
        losses = {}
        for name, head in model.heads.items():
            sentence_scores, ids = scores[name][a:b], sentence_gold[name]
            scale = 1.0 if name == "ner" else joint_weight
            if head.kind == "softmax":
                losses[name], probs = softmax_head_loss(sentence_scores, ids)
                if compute_grads:
                    d = softmax_head_backward(probs, ids)
            else:
                losses[name] = crf_head_loss(sentence_scores, head.transitions, ids)
                if compute_grads:
                    d, trans = crf_head_backward(sentence_scores, head.transitions, ids)
                    d_trans[name] = d_trans.get(name, 0.0) + scale * trans
            if compute_grads:
                np.multiply(scale, d, out=d_scores[name][a:b])
        total += (
            losses["ner"]
            if model.task == "single"
            else joint_loss(losses["ner"], losses["pos"], joint_weight)
        )
    if not compute_grads:
        return total, None, None

    grads = {f"head.{name}.transitions": d for name, d in d_trans.items()}
    for name, d in d_scores.items():
        grads[f"head.{name}.weight"] = d.T @ encoded
        grads[f"head.{name}.bias"] = d.sum(axis=0)
    d_encoded = sum(d_scores[name] @ head.weight for name, head in model.heads.items())
    if mask_h is not None:
        d_encoded *= mask_h

    h = model.hidden_size
    fwd, bwd = model.forward_lstm, model.backward_lstm
    # gate gradients and previous hidden states of both scans, in token order
    dz_f = np.empty((len(xs), 4 * h))
    dz_b = np.empty((len(xs), 4 * h))
    for (a, b), (cache_f, cache_b) in zip(spans, scans):
        dz_f[a:b] = lstm_backward(cache_f, fwd, d_encoded[a:b, :h])
        dz_b[a:b] = lstm_backward(cache_b, bwd, d_encoded[a:b, h:][::-1])[::-1]
    h_prev_f = np.concatenate([cache_f[0] for cache_f, _ in scans])
    h_prev_b = np.concatenate([cache_b[0][::-1] for _, cache_b in scans])
    for prefix, dz, h_prev in (("fwd", dz_f, h_prev_f), ("bwd", dz_b, h_prev_b)):
        grads[f"{prefix}.W"] = dz.T @ xs
        grads[f"{prefix}.U"] = dz.T @ h_prev
        grads[f"{prefix}.b"] = dz.sum(axis=0)

    if not model.embedding.trainable:
        return total, grads, None
    dxs = dz_f @ fwd.W
    dxs += dz_b @ bwd.W
    if mask_e is not None:
        dxs *= mask_e
    return total, grads, (infos, dxs)


def batch_loss_and_gradients(model, batch, joint_weight=1.0, training=False,
                             rng=None, cache=None, gold=None):
    """Mean loss over the batch and exact gradients for every trainable
    parameter. Embedding gradients are {slot: (distinct rows, gradient
    rows)} for the non-empty slots among "emb.words", "emb.buckets" and
    "emb.unk", and None in frozen mode. Dropout masks are drawn from rng
    only when training. gold (one id dict per sentence) defaults to the
    tokens' own labels."""
    if not batch:
        raise ValueError("empty batch")
    if training and model.dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout needs an rng")
    if cache is None:
        cache = {}
    total_loss, grads, emb = _batch_pass(
        model, batch, joint_weight, training, rng, cache, compute_grads=True, gold=gold
    )
    n = len(batch)
    for grad in grads.values():
        grad /= n
    if emb is None:
        return total_loss / n, grads, None
    emb_grads = {}
    for slot, (rows, entry_grads) in _row_entries(*emb).items():
        if len(rows):
            rows, sums = sum_rows(rows, entry_grads)
            emb_grads[slot] = (rows, sums * (1.0 / n))
    return total_loss / n, grads, emb_grads


def sentence_loss(model, sentence, joint_weight=1.0, gold=None):
    """Evaluation-mode loss of one sentence (no dropout)."""
    loss, _, _ = _batch_pass(
        model, [sentence], joint_weight, False, None, {}, compute_grads=False,
        gold=None if gold is None else [gold],
    )
    return loss


# ---------------------------------------------------------------------------
# training


def _resolved(config, name, embedding_mode):
    """A size field of the config, or its REGIME_SIZES default for the
    embedding mode; warns when a set value deviates from that default."""
    default = REGIME_SIZES[embedding_mode][name]
    value = getattr(config, name)
    if value is None:
        return default
    if value != default:
        warnings.warn(
            f"{name} {value} deviates from the {default} default for "
            f"{embedding_mode} embeddings",
            stacklevel=2,
        )
    return value


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
    loss, or a batch's gradient, is not finite.
    """
    if len(train) == 0:
        raise ValueError("empty training corpus")

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

    hidden = _resolved(config, "hidden_size", arch.embedding_mode)
    batch_size = _resolved(config, "batch_size", arch.embedding_mode)
    rng = np.random.default_rng(config.seed)
    model = build_tagger(arch, table, hidden, rng, dropout_rate=config.dropout)

    params = model.parameters()
    emb_matrices = {
        "emb.words": table.word_vectors,
        "emb.buckets": table.ngram_buckets,
        "emb.unk": table.unk_vector[None, :],
    }
    adam = AdamState()
    adam_settings = dict(
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )
    lookup_cache = {}
    order = np.arange(len(train))
    sentences = list(train)
    valid_sentences = list(valid)

    stopping = EarlyStopping(config.max_epochs, config.patience, log)
    best_snap = _snapshot(model)
    for epoch in stopping:
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
            check_finite_gradients(
                epoch, [*grads.values(), *(grad for _, grad in (emb_grads or {}).values())]
            )
            adam_step(params, grads, adam, **adam_settings)
            for slot, (rows, grad) in (emb_grads or {}).items():
                adam_step_rows(emb_matrices[slot], rows, grad, adam, slot, **adam_settings)
        valid_losses = [
            sentence_loss(model, s, config.joint_loss_weight) for s in valid_sentences
        ]
        if stopping.improved(epoch, epoch_loss / len(sentences), valid_losses):
            best_snap = _snapshot(model)

    _restore(model, best_snap)
    model.trained_on = {
        "task": arch.task,
        "inference": arch.inference,
        "embedding_mode": arch.embedding_mode,
        "seed": config.seed,
        "epochs_run": len(stopping.log),
        "best_valid_loss": float(stopping.best_loss),
    }
    return model, stopping.log


# ---------------------------------------------------------------------------
# decoding


def tag_neural(model, sentence):
    """Predict NER labels (and POS for joint models); dropout off."""
    encoded, _, _ = _encode(model, [sentence], {}, 0.0, None)
    outputs = {}
    for name, head in model.heads.items():
        scores = head.scores(encoded)
        if head.kind == "softmax":
            indices = np.argmax(scores, axis=1)
        else:
            indices, _ = chain.viterbi(scores, head.transitions)
        outputs[name] = [head.labels[int(i)] for i in indices]
    return Prediction(ner=outputs["ner"], pos=outputs.get("pos"))
