"""Word vectors with hashed character n-gram composition for OOV words.

Three regimes: randomly initialized, pretrained and frozen, or pretrained
and fine-tuned during training. A word's vector is the average of its
lexical vector and its hashed n-gram bucket vectors; words outside the
vocabulary fall back to the bucket average, or to a designated UNK vector
when the table has no bucket rows (plain text vector files carry no
subword table).

An n-gram's bucket is the 32-bit FNV-1a hash of its UTF-8 bytes modulo
the bucket count. FNV-1a is a left fold over bytes, so hashing takes one
pass per start position of '<word>': the state after n characters is the
hash of the n-gram of length n there. No n-gram string is built, and
each byte is folded once per start position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MODES = ("random", "frozen", "finetuned")

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


class EmbeddingFormatError(Exception):
    """Malformed text vector file."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class EmbeddingConfig:
    dim: int = 300
    min_n: int = 3
    max_n: int = 6
    bucket_count: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (1 <= self.min_n <= self.max_n):
            raise ValueError("need 1 <= min_n <= max_n")
        if self.bucket_count < 0:
            raise ValueError("bucket_count must be >= 0")


@dataclass
class EmbeddingTable:
    """Vector store: lexical rows, n-gram bucket rows, and an UNK row.

    ``dim``, ``bucket_count`` and ``subword`` are read from the arrays:
    lookups compose n-grams exactly when there are bucket rows. ``mode``
    decides what training may touch: nothing in frozen mode, the rows
    used by a batch otherwise.
    """

    vocab: dict[str, int]
    word_vectors: np.ndarray           # |V| x dim
    ngram_buckets: np.ndarray          # B x dim, B = 0 without subword table
    min_n: int
    max_n: int
    mode: str = "frozen"
    unk_vector: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (isinstance(self.min_n, int) and isinstance(self.max_n, int)
                and 1 <= self.min_n <= self.max_n):
            raise ValueError("n-gram bounds need integers 1 <= min_n <= max_n")
        if self.word_vectors.ndim != 2 or len(self.word_vectors) != len(self.vocab):
            raise ValueError("word_vectors shape does not match vocab")
        if self.ngram_buckets.ndim != 2 or self.ngram_buckets.shape[1] != self.dim:
            raise ValueError("ngram_buckets shape does not match dim")
        if self.unk_vector is None:
            self.unk_vector = np.zeros(self.dim)

    @property
    def dim(self):
        return self.word_vectors.shape[1]

    @property
    def bucket_count(self):
        return len(self.ngram_buckets)

    @property
    def subword(self):
        return self.bucket_count > 0

    @property
    def trainable(self):
        return self.mode in ("random", "finetuned")


def ngram_bucket_ids(table, word):
    """Bucket row indices of the character n-grams of '<word>' with
    lengths in [min_n, max_n]; none without bucket rows.

    N-grams are taken over Unicode scalar values, ordered by start
    position then length, duplicates kept. The whole wrapped form is the
    word's own lexical entry and is excluded. One FNV-1a fold per start
    position passes through the hash of every n-gram that starts there.
    """
    bucket_count = table.bucket_count
    if not bucket_count:
        return []
    if not word:
        raise ValueError("empty word")
    min_n, max_n = table.min_n, table.max_n
    wrapped = f"<{word}>"
    n_chars = len(wrapped)
    chars = [c.encode() for c in wrapped]
    ids = []
    for start in range(n_chars - min_n + 1):
        first = start + min_n - 1  # the last character of the shortest n-gram
        stop = min(start + max_n, n_chars if start else n_chars - 1)
        h = _FNV_OFFSET
        for k in range(start, stop):
            for byte in chars[k]:
                h = (h ^ byte) * _FNV_PRIME & 0xFFFFFFFF
            if k >= first:
                ids.append(h % bucket_count)
    return ids


def compose(table, idx, buckets):
    """A word's vector from its vocabulary row idx (None when OOV) and its
    bucket rows: in-vocab, the mean of the lexical row and every bucket
    row; OOV, the mean of the bucket rows, or the UNK vector when there
    are none. It may be a view of a table row. Its gradient reaches each
    averaged row divided by (idx is not None) + len(buckets), and the
    UNK vector undivided."""
    if idx is not None:
        if not buckets:
            return table.word_vectors[idx]
        total = table.word_vectors[idx] + table.ngram_buckets[buckets].sum(axis=0)
        return total / (1 + len(buckets))
    if buckets:
        return table.ngram_buckets[buckets].sum(axis=0) / len(buckets)
    return table.unk_vector


def embed(table, word):
    """Compose the vector for a word; always returns a fresh array."""
    return compose(table, table.vocab.get(word), ngram_bucket_ids(table, word)).copy()


def load_text_vectors(text, config):
    """Read a "count dim" header plus one "word v1 .. v_dim" row per line.

    The bucket block is empty (0 x dim), as text vector files carry no
    subword table; config's n-gram fields go unused. The UNK fallback is
    the mean of all loaded vectors. Callers pick the mode afterwards.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EmbeddingFormatError("missing header line", line_no=1)
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError("header must be 'count dim'", line_no=1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError("header must be 'count dim'", line_no=1) from None
    if not 0 <= count < len(lines):  # refused before the rows are allocated
        raise EmbeddingFormatError(f"count {count} outside 0..{len(lines) - 1}", 1)
    if dim != config.dim:
        raise EmbeddingFormatError(
            f"file dimension {dim} does not match configured dim {config.dim}"
        )

    vocab = {}
    vectors = np.zeros((count, dim))
    row = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise EmbeddingFormatError(
                f"expected word + {dim} floats, got {len(parts)} fields", line_no
            )
        word = parts[0]
        if word in vocab:
            raise EmbeddingFormatError(f"duplicate word {word!r}", line_no)
        if row >= count:
            raise EmbeddingFormatError(
                f"more rows than the declared count {count}", line_no
            )
        try:
            vectors[row] = [float(x) for x in parts[1:]]
        except ValueError:
            raise EmbeddingFormatError("non-numeric vector component", line_no) from None
        vocab[word] = row
        row += 1
    if row != count:
        raise EmbeddingFormatError(f"declared {count} rows, found {row}")

    unk = vectors.mean(axis=0) if count else np.zeros(dim)
    return EmbeddingTable(
        vocab=vocab,
        word_vectors=vectors,
        ngram_buckets=np.zeros((0, dim)),
        min_n=config.min_n,
        max_n=config.max_n,
        mode="frozen",
        unk_vector=unk,
    )


def init_random(vocab, config):
    """Fresh table over a vocabulary, uniform in [-0.5/dim, +0.5/dim].

    Word rows are drawn before bucket rows from one generator seeded with
    config.seed, so equal seeds give bitwise-equal tables.
    """
    words = list(vocab)
    if not words:
        raise ValueError("empty vocabulary")
    if len(set(words)) != len(words):
        raise ValueError("duplicate vocabulary entry")
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    word_vectors = rng.uniform(-bound, bound, size=(len(words), config.dim))
    buckets = rng.uniform(-bound, bound, size=(config.bucket_count, config.dim))
    return EmbeddingTable(
        vocab={w: i for i, w in enumerate(words)},
        word_vectors=word_vectors,
        ngram_buckets=buckets,
        min_n=config.min_n,
        max_n=config.max_n,
        mode="random",
    )
