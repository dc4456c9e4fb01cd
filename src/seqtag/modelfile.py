"""Binary model persistence.

Layout: magic "SEQL", format version (u32), model kind, a config
snapshot, then named blocks. Block payloads are little-endian 64-bit
float arrays (shape-prefixed), UTF-8 string lists, or UTF-8 text blobs.
Writing is canonical (fixed block order, raw float bits), so
save -> load -> save reproduces identical bytes and reloaded models
predict bit-identically.

Format v2 (written) stores a string list (a CRF's feature keys, a
table's vocabulary, labels) as a u32 count, a u64 byte size and the
strings joined with "\n" as one UTF-8 blob: one encode to write it, one
read, decode and split to read it back. A count of 0 is the empty list,
so no string may hold "\n"; saving one is refused. Format v1 files
(a u32 count, then per string a u32 length and its UTF-8 bytes) are
still read, not written. Golden images in the tests pin both layouts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct

import numpy as np

from seqtag.corpus import CorpusError, NerLabel
from seqtag.crf import CrfModel
from seqtag.embeddings import EmbeddingTable
from seqtag.neural.lstm import LstmParams
from seqtag.neural.tagger import Head, NeuralTagger

MAGIC = b"SEQL"
FORMAT_VERSION = 2

_KIND_F64 = 0
_KIND_STRS = 1
_KIND_TEXT = 2
_U32 = struct.Struct("<I")
_STRS_HEAD = struct.Struct("<IQ")  # v2 string list: count, byte size
# reads up to this many bytes skip the check against the file size
_SMALL_READ = 1 << 16


class ModelFileError(Exception):
    """Base class for model file problems."""


class NotAModelFileError(ModelFileError):
    pass


class VersionMismatchError(ModelFileError):
    pass


class TruncatedModelFileError(ModelFileError):
    pass


# ---------------------------------------------------------------------------
# primitive encoding


def _write_str(out, text):
    data = text.encode("utf-8")
    out.write(_U32.pack(len(data)))
    out.write(data)


def _check_remaining(src, n, what):
    # a read of n bytes allocates them before it finds the end of the
    # file, so a length field past the end is refused first
    if n > _SMALL_READ and n > os.fstat(src.fileno()).st_size - src.tell():
        raise TruncatedModelFileError(f"file ends inside {what}")


def _read_exact(src, n, what):
    _check_remaining(src, n, what)
    data = src.read(n)
    if len(data) != n:
        raise TruncatedModelFileError(f"file ends inside {what}")
    return data


def _read_strs(src, count, what):
    """count strings, each a u32 length and that many UTF-8 bytes (the
    layout of names and text, and of v1 string lists), in one loop: no
    helper call per string."""
    read, unpack = src.read, _U32.unpack
    texts = []
    append = texts.append
    try:
        for _ in range(count):
            (n,) = unpack(read(4))
            if n > _SMALL_READ:
                _check_remaining(src, n, what)
            data = read(n)
            if len(data) != n:
                raise TruncatedModelFileError(f"file ends inside {what}")
            append(data.decode("utf-8"))
    except struct.error:  # a length field cut short
        raise TruncatedModelFileError(f"file ends inside {what}") from None
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{what} is not valid UTF-8") from exc
    return texts


def _read_str(src, what):
    return _read_strs(src, 1, what)[0]


def _read_blob_strs(src, what):
    count, size = _STRS_HEAD.unpack(_read_exact(src, _STRS_HEAD.size, what))
    try:
        text = _read_exact(src, size, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{what} is not valid UTF-8") from exc
    texts = text.split("\n") if count or text else []
    if len(texts) != count:
        raise ModelFileError(f"{what} holds {len(texts)} strings, its header says {count}")
    return texts


def _write_block(out, name, payload):
    _write_str(out, name)
    if isinstance(payload, np.ndarray):
        out.write(struct.pack("<B", _KIND_F64))
        array = np.ascontiguousarray(payload, dtype="<f8")
        out.write(struct.pack("<I", array.ndim))
        for size in array.shape:
            out.write(struct.pack("<Q", size))
        out.write(array)  # its buffer, not a copy
    elif isinstance(payload, list):
        data = "\n".join(payload).encode("utf-8")
        # one "\n" per separator, else a string holds one; numpy counts
        # them several times faster than bytes.count
        breaks = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        if payload and breaks != len(payload) - 1:
            text = next(t for t in payload if "\n" in t)
            raise ModelFileError(f"block {name!r}: string {text!r} holds a line break")
        out.write(struct.pack("<B", _KIND_STRS))
        out.write(_STRS_HEAD.pack(len(payload), len(data)))
        out.write(data)
    elif isinstance(payload, str):
        out.write(struct.pack("<B", _KIND_TEXT))
        _write_str(out, payload)
    else:
        raise TypeError(f"cannot serialize block {name!r} of {type(payload)}")


def _read_block(src, version=FORMAT_VERSION):
    name = _read_str(src, "block name")
    (kind,) = struct.unpack("<B", _read_exact(src, 1, f"block {name!r}"))
    what = f"block {name!r}"
    if kind == _KIND_F64:
        (ndim,) = struct.unpack("<I", _read_exact(src, 4, what))
        shape = tuple(
            struct.unpack("<Q", _read_exact(src, 8, what))[0] for _ in range(ndim)
        )
        size = 8 * math.prod(shape)  # a Python int: no overflow
        _check_remaining(src, size, what)
        try:
            payload = np.empty(shape, dtype="<f8")
        except ValueError as exc:  # no elements, but a dimension too large
            raise ModelFileError(f"{what} has an impossible shape {shape}") from exc
        # read straight into the array: no bytes object to copy from
        if src.readinto(payload.reshape(-1).view(np.uint8)) != size:
            raise TruncatedModelFileError(f"file ends inside {what}")
    elif kind == _KIND_STRS and version == 1:
        (count,) = _U32.unpack(_read_exact(src, 4, what))
        payload = _read_strs(src, count, what)
    elif kind == _KIND_STRS:
        payload = _read_blob_strs(src, what)
    elif kind == _KIND_TEXT:
        payload = _read_str(src, what)
    else:
        raise ModelFileError(f"unknown block kind {kind} in {what}")
    return name, payload


# ---------------------------------------------------------------------------
# label formatting


def _format_label(label):
    if isinstance(label, NerLabel):
        return str(label)
    if isinstance(label, str):  # plain POS tags in the joint neural head
        return label
    ner, pos = label
    return f"{ner}|{pos}"


def _parse_label(text):
    if "|" in text:
        ner, _, pos = text.partition("|")
        return (NerLabel.parse(ner), pos)
    return NerLabel.parse(text)


# ---------------------------------------------------------------------------
# model <-> blocks


def _embedding_blocks(table):
    vocab_words = [None] * len(table.vocab)
    for word, idx in table.vocab.items():
        vocab_words[idx] = word
    meta = {
        "dim": table.dim,
        "min_n": table.min_n,
        "max_n": table.max_n,
        "bucket_count": table.bucket_count,
        "mode": table.mode,
        "subword": table.subword,
    }
    return [
        ("emb.meta", json.dumps(meta, sort_keys=True)),
        ("emb.vocab", vocab_words),
        ("emb.words", table.word_vectors),
        ("emb.buckets", table.ngram_buckets),
        ("emb.unk", table.unk_vector),
    ]


def _embedding_from_blocks(blocks):
    meta = json.loads(blocks["emb.meta"])
    buckets = blocks["emb.buckets"]
    if buckets.shape != (meta["bucket_count"], meta["dim"]):
        raise ValueError("emb.meta dim or bucket_count does not match emb.buckets")
    if not meta["subword"]:  # files of text vectors once stored zero rows here
        buckets = np.zeros((0, meta["dim"]))
    return EmbeddingTable(
        vocab=dict(zip(blocks["emb.vocab"], itertools.count())),
        word_vectors=blocks["emb.words"],
        ngram_buckets=buckets,
        min_n=meta["min_n"],
        max_n=meta["max_n"],
        mode=meta["mode"],
        unk_vector=blocks["emb.unk"],
    )


def _crf_blocks(model):
    features = [None] * len(model.feature_index)
    for key, row in model.feature_index.items():
        features[row] = key
    meta = {
        "kind": "crf",
        "task": model.task,
        "use_embeddings": model.embedding is not None,
    }
    blocks = [
        ("meta", json.dumps(meta, sort_keys=True)),
        ("labels", [_format_label(l) for l in model.labels]),
        ("features", features),
        ("state_weights", model.state_weights),
        ("transitions", model.transitions),
    ]
    if model.embedding is not None:
        blocks.extend(_embedding_blocks(model.embedding))
    return blocks


def _crf_from_blocks(blocks):
    meta = json.loads(blocks["meta"])
    return CrfModel(
        labels=[_parse_label(l) for l in blocks["labels"]],
        task=meta["task"],
        feature_index=dict(zip(blocks["features"], itertools.count())),
        state_weights=blocks["state_weights"],
        transitions=blocks["transitions"],
        embedding=_embedding_from_blocks(blocks) if meta["use_embeddings"] else None,
    )


def _neural_blocks(model):
    meta = {
        "kind": "neural",
        "task": model.task,
        "hidden_size": model.hidden_size,
        "dropout_rate": model.dropout_rate,
        "heads": {
            name: {"kind": head.kind, "labels": [_format_label(l) for l in head.labels]}
            for name, head in model.heads.items()
        },
    }
    blocks = [("meta", json.dumps(meta, sort_keys=True))]
    blocks.extend(_embedding_blocks(model.embedding))
    for name, array in sorted(model.parameters().items()):
        blocks.append((name, array))
    return blocks


def _neural_from_blocks(blocks):
    meta = json.loads(blocks["meta"])
    heads = {}
    for name, spec in meta["heads"].items():
        transitions = blocks.get(f"head.{name}.transitions")
        if name == "pos":  # POS labels are plain strings
            labels = list(spec["labels"])
        else:
            labels = [NerLabel.parse(l) for l in spec["labels"]]
        heads[name] = Head(
            kind=spec["kind"],
            weight=blocks[f"head.{name}.weight"],
            bias=blocks[f"head.{name}.bias"],
            transitions=transitions,
            labels=labels,
        )
    return NeuralTagger(
        embedding=_embedding_from_blocks(blocks),
        forward_lstm=LstmParams(blocks["fwd.W"], blocks["fwd.U"], blocks["fwd.b"]),
        backward_lstm=LstmParams(blocks["bwd.W"], blocks["bwd.U"], blocks["bwd.b"]),
        heads=heads,
        hidden_size=meta["hidden_size"],
        dropout_rate=meta["dropout_rate"],
    )


# ---------------------------------------------------------------------------
# public interface


class _Parts(list):
    """The pieces of a file, joined once at the end, so that a large
    array is copied once, into the file image, and into no growing
    buffer on the way."""

    write = list.append


def save_model(model, path, kind, config_snapshot=""):
    """Write a model file; kind is the run's model name, e.g. "crf" or
    "bilstm-crf". A model's embedding table is written with it. A
    string holding "\n" raises ModelFileError before the file is opened."""
    if isinstance(model, CrfModel):
        blocks = _crf_blocks(model)
    elif isinstance(model, NeuralTagger):
        blocks = _neural_blocks(model)
    else:
        raise TypeError(f"cannot save a {type(model).__name__}")
    out = _Parts()
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))
    _write_str(out, kind)
    _write_str(out, config_snapshot)
    out.write(struct.pack("<I", len(blocks)))
    for name, payload in blocks:
        _write_block(out, name, payload)
    data = b"".join(out)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def load_model(path):
    """Read a model file back; returns (model, kind, config_snapshot,
    model.embedding): the table the model owns, or None."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise NotAModelFileError(f"{path}: not a model file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        # v1 differs from v2 only in its string-list blocks
        if version not in (1, FORMAT_VERSION):
            raise VersionMismatchError(
                f"{path}: format version {version}, this build reads 1 and {FORMAT_VERSION}"
            )
        kind = _read_str(fh, "model kind")
        snapshot = _read_str(fh, "config snapshot")
        (n_blocks,) = struct.unpack("<I", _read_exact(fh, 4, "block count"))
        blocks = {}
        for _ in range(n_blocks):
            name, payload = _read_block(fh, version)
            blocks[name] = payload
        if fh.read(1):
            raise ModelFileError(f"{path}: trailing bytes after the last block")
    if "meta" not in blocks:
        raise ModelFileError(f"{path}: no meta block")
    # a missing block or field, a wrong type or shape, meta that is not
    # JSON or a label that does not parse: malformed
    try:
        if json.loads(blocks["meta"])["kind"] == "crf":
            model = _crf_from_blocks(blocks)
        else:
            model = _neural_from_blocks(blocks)
    except (AttributeError, CorpusError, KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: malformed model blocks ({exc!r})") from exc
    return model, kind, snapshot, model.embedding
