"""CoNLL-style corpus handling for word/POS/NER data in the BIOES scheme.

A corpus file holds one token per line as ``surface<sep>pos<sep>ner`` where
``sep`` is a tab or a run of ASCII spaces; a blank line ends a sentence.
Output always uses tabs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

POS_TAGS = (
    "abb", "adj", "adv", "conj", "fw", "int", "n", "num",
    "part", "ppm", "pron", "punc", "sb", "tn", "v",
)

ENTITY_TYPES = ("LOC", "DATE", "NUM", "PER", "ORG", "TIME")
POSITIONS = ("B", "I", "E", "S")

#: Each POS tag's position in POS_TAGS.
POS_INDEX = {pos: i for i, pos in enumerate(POS_TAGS)}
FIELD_SEP = re.compile(r"[ \t]+")
_WHITESPACE = re.compile(r"[ \t\n\r]")


class CorpusError(Exception):
    """Base class for corpus format and content errors."""


class ParseError(CorpusError):
    """Malformed line (wrong field count) in a CoNLL file."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TagError(CorpusError):
    """Unknown POS or NER tag string."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(CorpusError):
    """A sentence breaks the BIOES well-formedness rules."""

    def __init__(self, sentence_index, violations):
        first = violations[0]
        super().__init__(
            f"sentence {sentence_index}: BIOES violation at position "
            f"{first.position} ({first.rule})"
        )
        self.sentence_index = sentence_index
        self.violations = violations


@dataclass(frozen=True, slots=True)
class NerLabel:
    """A BIOES NER label: the outside marker or a position/entity pair."""

    position: str | None  # "B" | "I" | "E" | "S", None for outside
    entity: str | None    # entity type, None for outside

    def __post_init__(self):
        if self.position is None or self.entity is None:
            if not (self.position is None and self.entity is None):
                raise ValueError("position and entity must both be set or both absent")
        else:
            if self.position not in POSITIONS:
                raise ValueError(f"unknown position marker {self.position!r}")
            if self.entity not in ENTITY_TYPES:
                raise ValueError(f"unknown entity type {self.entity!r}")

    @property
    def is_outside(self):
        return self.position is None

    @classmethod
    def parse(cls, text):
        """The canonical NER_LABELS member spelled text."""
        label = _NER_BY_TEXT.get(text)
        if label is None:
            raise TagError(f"unknown NER tag {text!r}")
        return label

    def __str__(self):
        if self.is_outside:
            return "O"
        return f"{self.position}-{self.entity}"


OUTSIDE = NerLabel(None, None)

#: Canonical inventory: O first, then BIES per entity type (4*6 + 1 = 25).
NER_LABELS = (OUTSIDE,) + tuple(
    NerLabel(p, e) for e in ENTITY_TYPES for p in POSITIONS
)
#: Each NER label's position in NER_LABELS.
NER_INDEX = {label: i for i, label in enumerate(NER_LABELS)}
_NER_BY_TEXT = {str(label): label for label in NER_LABELS}


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    pos: str
    ner: NerLabel

    def __post_init__(self):
        if not self.surface:
            raise ValueError("empty surface form")
        if _WHITESPACE.search(self.surface):
            raise ValueError(f"surface {self.surface!r} contains whitespace")
        if self.pos not in POS_INDEX:
            raise TagError(f"unknown POS tag {self.pos!r}")


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a sentence needs at least one token")

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    @property
    def surfaces(self):
        return [t.surface for t in self.tokens]

    @property
    def ner_labels(self):
        return [t.ner for t in self.tokens]

    @property
    def pos_tags(self):
        return [t.pos for t in self.tokens]


@dataclass(frozen=True, slots=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    name: str = ""

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken BIOES rule, anchored at a token position."""

    position: int
    rule: str
    label: NerLabel


@dataclass
class TagStats:
    """Per (entity, position) label counts plus the outside count."""

    counts: dict = field(default_factory=dict)  # (entity, position) -> int
    o_count: int = 0
    token_total: int = 0
    sentence_total: int = 0

    def count(self, entity, position):
        return self.counts.get((entity, position), 0)


def conll_blocks(text):
    """The sentences of CoNLL text, each a list of (line number, fields).

    A line is stripped of spaces, tabs and carriage returns and split on
    FIELD_SEP; blank lines end a sentence. Field counts are not checked.
    """
    block = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip(" \t\r")
        if stripped:
            block.append((line_no, FIELD_SEP.split(stripped)))
        elif block:
            yield block
            block = []
    if block:
        yield block


def parse_conll(text, strict=False, name=""):
    """Parse CoNLL text into a Corpus.

    In strict mode every sentence must additionally pass validate_bioes;
    lenient mode only checks line shape and tag inventories.
    """
    sentences = []
    for block in conll_blocks(text):
        tokens = []
        for line_no, fields in block:
            if len(fields) != 3:
                raise ParseError(
                    f"expected 3 fields (surface, pos, ner), got {len(fields)}", line_no
                )
            surface, pos, ner_text = fields
            if pos not in POS_INDEX:
                raise TagError(f"unknown POS tag {pos!r}", line_no)
            try:
                ner = NerLabel.parse(ner_text)
            except TagError:
                raise TagError(f"unknown NER tag {ner_text!r}", line_no) from None
            try:
                tokens.append(Token(surface, pos, ner))
            except ValueError as exc:  # a carriage return inside the surface
                raise ParseError(str(exc), line_no) from None
        sentences.append(Sentence(tuple(tokens)))

    if strict:
        for idx, sentence in enumerate(sentences):
            violations = validate_bioes(sentence.ner_labels)
            if violations:
                raise ValidationError(idx, violations)
    return Corpus(tuple(sentences), name=name)


def write_conll(corpus):
    """Render a corpus back to CoNLL text (tab-separated, trailing newline)."""
    blocks = []
    for sentence in corpus:
        lines = [f"{t.surface}\t{t.pos}\t{t.ner}" for t in sentence]
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def _continues(prev, label):
    # prev must be B-X or I-X of the same entity type
    return prev.position in ("B", "I") and prev.entity == label.entity


def _continued_by(label, nxt):
    # nxt must be I-X or E-X of the same entity type
    return nxt is not None and nxt.position in ("I", "E") and nxt.entity == label.entity


def validate_bioes(labels):
    """Check a label sequence against the BIOES adjacency rules.

    Returns at most one Violation per position (the first broken rule in
    check order: the begin-side rule, then the continue-side rule).
    An empty result means the sequence is well-formed.
    """
    violations = []
    n = len(labels)
    for i, label in enumerate(labels):
        prev = labels[i - 1] if i > 0 else None
        nxt = labels[i + 1] if i + 1 < n else None
        rule = None
        if label.position == "B":
            if not _continued_by(label, nxt):
                rule = "b-continue"
        elif label.position == "I":
            if prev is None or not _continues(prev, label):
                rule = "i-begin"
            elif not _continued_by(label, nxt):
                rule = "i-continue"
        elif label.position == "E":
            if prev is None or not _continues(prev, label):
                rule = "e-begin"
        if rule is not None:
            violations.append(Violation(i, rule, label))
    return violations


#: Every rule name validate_bioes can report.
VIOLATION_RULES = ("b-continue", "i-begin", "i-continue", "e-begin")


def extract_entities(labels):
    """Turn a valid BIOES sequence into (entity, start, end_inclusive) spans."""
    violations = validate_bioes(labels)
    if violations:
        raise ValueError(
            "label sequence is not valid BIOES; run validate_bioes and fix "
            f"the input first (first problem: position {violations[0].position}, "
            f"rule {violations[0].rule})"
        )
    spans = []
    start = None
    for i, label in enumerate(labels):
        if label.position == "S":
            spans.append((label.entity, i, i))
        elif label.position == "B":
            start = i
        elif label.position == "E":
            spans.append((label.entity, start, i))
            start = None
    return spans


def encode_entities(spans, length):
    """Inverse of extract_entities: spans back to a BIOES label sequence."""
    labels = [OUTSIDE] * length
    for entity, start, end in spans:
        if not (0 <= start <= end < length):
            raise ValueError(f"span ({entity}, {start}, {end}) out of range")
        if start == end:
            labels[start] = NerLabel("S", entity)
        else:
            labels[start] = NerLabel("B", entity)
            for i in range(start + 1, end):
                labels[i] = NerLabel("I", entity)
            labels[end] = NerLabel("E", entity)
    return labels


def tag_statistics(corpus):
    """Count labels per (entity, position) plus O, token and sentence totals."""
    stats = TagStats()
    for sentence in corpus:
        stats.sentence_total += 1
        for token in sentence:
            stats.token_total += 1
            if token.ner.is_outside:
                stats.o_count += 1
            else:
                key = (token.ner.entity, token.ner.position)
                stats.counts[key] = stats.counts.get(key, 0) + 1
    return stats


def format_stats_table(stats):
    """Aligned text table in entity x position layout, O as its own row."""
    header = ["Tags", "B", "I", "E", "S"]
    rows = [header]
    for entity in ENTITY_TYPES:
        rows.append([entity] + [str(stats.count(entity, p)) for p in POSITIONS])
    rows.append(["O", str(stats.o_count), "-", "-", "-"])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    lines.append(f"tokens: {stats.token_total}  sentences: {stats.sentence_total}")
    return "\n".join(lines)


def stats_to_csv(stats):
    """CSV rendering with header ``entity,B,I,E,S``; O uses the B column."""
    lines = ["entity,B,I,E,S"]
    for entity in ENTITY_TYPES:
        counts = ",".join(str(stats.count(entity, p)) for p in POSITIONS)
        lines.append(f"{entity},{counts}")
    lines.append(f"O,{stats.o_count},,,")
    return "\n".join(lines) + "\n"
