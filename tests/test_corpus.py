import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import (
    ENTITY_TYPES,
    NER_LABELS,
    OUTSIDE,
    POS_TAGS,
    POSITIONS,
    VIOLATION_RULES,
    Corpus,
    NerLabel,
    ParseError,
    Sentence,
    TagError,
    Token,
    ValidationError,
    encode_entities,
    extract_entities,
    format_stats_table,
    parse_conll,
    stats_to_csv,
    tag_statistics,
    validate_bioes,
    write_conll,
)


def L(text):
    return NerLabel.parse(text)


def labels(*texts):
    return [L(t) for t in texts]


# ---------------------------------------------------------------------------
# label inventory


def test_label_inventory_size():
    assert len(NER_LABELS) == 25
    assert len(set(NER_LABELS)) == 25
    assert NER_LABELS[0] == OUTSIDE


def test_pos_inventory_size():
    assert len(POS_TAGS) == 15
    assert len(set(POS_TAGS)) == 15


@pytest.mark.parametrize("text", ["O"] + [f"{p}-{e}" for p in POSITIONS for e in ENTITY_TYPES])
def test_ner_label_round_trip(text):
    assert str(NerLabel.parse(text)) == text


def test_ner_label_parse_returns_inventory_member():
    for label in NER_LABELS:
        assert NerLabel.parse(str(label)) is label


@pytest.mark.parametrize("bad", ["", "B", "B-", "B-XYZ", "X-LOC", "o", "B_LOC", "B-LOC-PER"])
def test_ner_label_rejects_unknown(bad):
    with pytest.raises(TagError):
        NerLabel.parse(bad)


def test_token_rejects_unknown_pos():
    with pytest.raises(TagError):
        Token("x", "noun", OUTSIDE)


def test_token_rejects_whitespace_surface():
    with pytest.raises(ValueError):
        Token("a b", "n", OUTSIDE)


# ---------------------------------------------------------------------------
# parse / write


def test_parse_sample_sentence(sample_corpus):
    assert len(sample_corpus) == 1
    sent = sample_corpus.sentences[0]
    assert len(sent) == 10
    expected = labels(
        "S-LOC", "O", "B-ORG", "E-ORG", "O", "B-ORG", "E-ORG", "O", "O", "O"
    )
    assert sent.ner_labels == expected
    assert sent.pos_tags == ["n", "ppm", "n", "n", "n", "n", "n", "v", "part", "ppm"]


def test_parse_empty_string():
    corpus = parse_conll("")
    assert len(corpus) == 0


def test_parse_accepts_space_runs():
    corpus = parse_conll("a   n    B-LOC\nb n E-LOC\n")
    assert len(corpus) == 1
    assert corpus.sentences[0].surfaces == ["a", "b"]


def test_parse_ignores_trailing_blank_lines(sample_text):
    corpus = parse_conll(sample_text + "\n\n\n")
    assert len(corpus) == 1


def test_parse_field_count_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_conll("a n O\nb n\n")
    assert exc.value.line_no == 2


def test_parse_carriage_return_in_surface_reports_line():
    with pytest.raises(ParseError, match="contains whitespace") as exc:
        parse_conll("a n O\n\na\rb\tn\tO\n")
    assert exc.value.line_no == 3


def test_parse_unknown_pos_reports_line():
    with pytest.raises(TagError) as exc:
        parse_conll("a n O\n\nb xx O\n")
    assert exc.value.line_no == 3


def test_parse_unknown_ner_reports_line():
    with pytest.raises(TagError) as exc:
        parse_conll("a n B-FOO\n")
    assert exc.value.line_no == 1


def test_parse_strict_rejects_unclosed_entity():
    with pytest.raises(ValidationError) as exc:
        parse_conll("x n B-LOC\n\n", strict=True)
    assert exc.value.sentence_index == 0
    assert exc.value.violations[0].position == 0


def test_parse_lenient_accepts_unclosed_entity():
    corpus = parse_conll("x n B-LOC\n\n", strict=False)
    assert len(corpus) == 1


def test_write_empty_corpus():
    assert write_conll(Corpus(())) == ""


def test_write_sample_is_ten_lines_plus_terminator(sample_corpus):
    text = write_conll(sample_corpus)
    assert text.endswith("\n")
    data_lines = [l for l in text.split("\n") if l]
    assert len(data_lines) == 10
    assert all(l.count("\t") == 2 for l in data_lines)


def test_round_trip_sample(sample_corpus):
    assert parse_conll(write_conll(sample_corpus)) == Corpus(sample_corpus.sentences)


# ---------------------------------------------------------------------------
# random well-formed corpora for property tests

_ENTITIES = st.sampled_from(ENTITY_TYPES)


@st.composite
def valid_label_sequences(draw, max_chunks=6):
    """Build a BIOES-valid sequence chunk by chunk."""
    seq = []
    for _ in range(draw(st.integers(1, max_chunks))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            seq.append(OUTSIDE)
        elif kind == 1:
            seq.append(NerLabel("S", draw(_ENTITIES)))
        else:
            ent = draw(_ENTITIES)
            middle = draw(st.integers(0, 3))
            seq.append(NerLabel("B", ent))
            seq.extend(NerLabel("I", ent) for _ in range(middle))
            seq.append(NerLabel("E", ent))
    return seq


_SURFACES = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "N"), include_characters="က-"
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def corpora(draw):
    sentences = []
    for _ in range(draw(st.integers(0, 5))):
        seq = draw(valid_label_sequences(max_chunks=3))
        tokens = tuple(
            Token(draw(_SURFACES), draw(st.sampled_from(POS_TAGS)), lab)
            for lab in seq
        )
        sentences.append(Sentence(tokens))
    return Corpus(tuple(sentences), name=draw(st.text(max_size=5)))


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_round_trip_identity(corpus):
    parsed = parse_conll(write_conll(corpus))
    assert parsed.sentences == corpus.sentences


@settings(max_examples=100, deadline=None)
@given(valid_label_sequences())
def test_generated_sequences_are_valid(seq):
    assert validate_bioes(seq) == []


@settings(max_examples=200, deadline=None)
@given(valid_label_sequences())
def test_extract_encode_identity(seq):
    spans = extract_entities(seq)
    assert encode_entities(spans, len(seq)) == seq


@settings(max_examples=100, deadline=None)
@given(valid_label_sequences())
def test_b_count_equals_e_count_in_valid_sequences(seq):
    tokens = tuple(Token("x", "n", lab) for lab in seq)
    stats = tag_statistics(Corpus((Sentence(tokens),)))
    for ent in ENTITY_TYPES:
        assert stats.count(ent, "B") == stats.count(ent, "E")


# ---------------------------------------------------------------------------
# validate_bioes rule table


def test_validate_sample_prefix():
    assert validate_bioes(labels("S-LOC", "O", "B-ORG", "E-ORG", "O")) == []


def test_validate_all_outside():
    assert validate_bioes(labels("O", "O", "O")) == []


def test_validate_i_at_start_and_unclosed_b():
    violations = validate_bioes(labels("I-PER", "B-LOC"))
    assert [(v.position, v.rule) for v in violations] == [
        (0, "i-begin"),
        (1, "b-continue"),
    ]


# one fixture per rule, including the boundary variants of each
VIOLATION_CATALOGUE = {
    "b-continue": [
        labels("B-LOC"),                    # B at sentence end
        labels("B-LOC", "O"),               # B followed by O
        labels("B-LOC", "B-LOC", "E-LOC"),  # B followed by another B
        labels("B-LOC", "S-LOC"),           # B followed by S
        labels("B-LOC", "E-PER"),           # entity type changes mid-span
    ],
    "i-begin": [
        labels("I-PER", "I-PER", "E-PER"),  # I at sentence start
        labels("O", "I-PER", "E-PER"),      # I after O
        labels("S-PER", "I-PER", "E-PER"),  # I after S
        labels("B-LOC", "I-PER", "E-PER"),  # I after other-entity B
    ],
    "i-continue": [
        labels("B-LOC", "I-LOC"),           # I at sentence end
        labels("B-LOC", "I-LOC", "O"),      # I followed by O
        labels("B-LOC", "I-LOC", "S-NUM"),  # I followed by S
        labels("B-LOC", "I-LOC", "E-ORG"),  # I followed by other-entity E
    ],
    "e-begin": [
        labels("E-ORG",),                   # E at sentence start
        labels("O", "E-ORG"),               # E after O
        labels("S-ORG", "E-ORG"),           # E after S
        labels("B-PER", "E-PER", "E-PER"),  # E after E
    ],
}


def test_catalogue_covers_every_rule():
    assert set(VIOLATION_CATALOGUE) == set(VIOLATION_RULES)


@pytest.mark.parametrize(
    "rule,seq",
    [(rule, seq) for rule, seqs in VIOLATION_CATALOGUE.items() for seq in seqs],
    ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)),
)
def test_violation_catalogue(rule, seq):
    violations = validate_bioes(seq)
    assert any(v.rule == rule for v in violations)


# ---------------------------------------------------------------------------
# extract_entities


def test_extract_sample_entities(sample_sentence):
    spans = extract_entities(sample_sentence.ner_labels)
    assert spans == [("LOC", 0, 0), ("ORG", 2, 3), ("ORG", 5, 6)]


def test_extract_all_outside():
    assert extract_entities(labels("O", "O")) == []


def test_extract_rejects_invalid_sequence():
    with pytest.raises(ValueError, match="validate"):
        extract_entities(labels("I-PER", "B-LOC"))


# ---------------------------------------------------------------------------
# tag statistics


def test_sample_statistics(sample_corpus):
    stats = tag_statistics(sample_corpus)
    assert stats.count("LOC", "S") == 1
    assert stats.count("ORG", "B") == 2
    assert stats.count("ORG", "E") == 2
    assert stats.o_count == 5
    assert stats.token_total == 10
    assert stats.sentence_total == 1
    everything_else = [
        (e, p)
        for e in ENTITY_TYPES
        for p in POSITIONS
        if (e, p) not in {("LOC", "S"), ("ORG", "B"), ("ORG", "E")}
    ]
    assert all(stats.count(e, p) == 0 for e, p in everything_else)


def test_counts_sum_to_token_total(sample_corpus):
    stats = tag_statistics(sample_corpus)
    total = stats.o_count + sum(stats.counts.values())
    assert total == stats.token_total


def test_empty_corpus_statistics():
    stats = tag_statistics(Corpus(()))
    assert stats.token_total == 0
    assert stats.sentence_total == 0
    assert stats.o_count == 0
    assert stats.counts == {}


def test_stats_csv_layout(sample_corpus):
    csv = stats_to_csv(tag_statistics(sample_corpus))
    lines = csv.strip().split("\n")
    assert lines[0] == "entity,B,I,E,S"
    assert lines[1] == "LOC,0,0,0,1"
    assert lines[5] == "ORG,2,0,2,0"
    assert lines[-1] == "O,5,,,"


def test_stats_table_mentions_totals(sample_corpus):
    table = format_stats_table(tag_statistics(sample_corpus))
    assert "tokens: 10" in table
    assert "sentences: 1" in table
