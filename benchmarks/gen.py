"""Seeded input generators for the benchmark workloads.

The corpora follow the cue grammar of ``tests/synthgen.py``: entity types
are cued by affixes ("...ia" locations, "mr..." people, "...co"/"inc"
organisations, digits for numbers, dates and times) and multi-token
entities force B/I/E structure; "de" occurs inside LOC and ORG spans and
as plain filler. Unlike synthgen, the vocabulary is drawn from the seed
and can hold many thousands of words, the filler POS tag is cued by a
suffix, and entity words come in a plain ("n") and a foreign ("fw")
spelling, so the joint task sees tens of (NER, POS) product labels.

Everything is drawn from ``random.Random`` so the inputs depend on the
seed alone, not on the numpy version. Regenerate the files of a run with

    python3 benchmarks/gen.py --workload crf-joint-wide --seed 1 \
        --out benchmarks/out/inputs
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

ONSETS = (
    "b bl br ch d dr f fl fr g gl gr h j k kl kr l m n p pl pr r s sh sk sl "
    "sm sn sp st t th tr v w y z"
).split()
VOWELS = ("a", "e", "i", "o", "u", "ai", "au", "ei", "ou")
CODAS = ("", "", "", "n", "m", "r", "l", "k", "s", "t")

# filler POS tag -> surface suffix that cues it
FILLER_POS = {
    "n": "o", "v": "et", "adj": "ul", "adv": "ly", "part": "u", "ppm": "e",
    "conj": "an", "pron": "im", "int": "ah", "abb": "x", "fw": "q", "sb": "ing",
}
PUNCT = (",", ".", "!", "?", ";")
MONTHS = ("jan", "feb", "mar", "apr", "may", "jun")
TIME_WORDS = ("dawn", "dusk", "noon")
ENTITY_WEIGHTS = (
    ("LOC", 0.30), ("ORG", 0.20), ("PER", 0.15),
    ("NUM", 0.15), ("DATE", 0.12), ("TIME", 0.08),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Make-up of one generated corpus family (train, valid and test
    share the word pools)."""

    filler_words: int     # size of the filler pool
    entity_stems: int     # stems per entity pool (LOC, ORG, PER)
    min_len: int          # sentence length range in tokens
    max_len: int
    entity_rate: float    # chance that a chunk is an entity


def _stem(rng):
    return "".join(
        rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS)
        for _ in range(rng.randint(2, 3))
    )


def _stems(rng, count, taken):
    out = []
    while len(out) < count:
        stem = _stem(rng)
        if stem not in taken:
            taken.add(stem)
            out.append(stem)
    return out


def make_pools(spec, rng):
    """Word pools: fillers as (surface, pos), entity stems per type."""
    taken = set()
    tags = sorted(FILLER_POS)
    fillers = [
        (stem + FILLER_POS[tags[i % len(tags)]], tags[i % len(tags)])
        for i, stem in enumerate(_stems(rng, spec.filler_words, taken))
    ]
    fillers.append(("de", "ppm"))  # also inside LOC/ORG spans
    return {
        "fillers": fillers,
        "loc": _stems(rng, spec.entity_stems, taken),
        "org": _stems(rng, spec.entity_stems, taken),
        "per": _stems(rng, spec.entity_stems, taken),
    }


def _digits(rng, max_len):
    return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, max_len)))


def _entity_word(rng, pools, kind):
    """An entity word and its POS: plain ("n") or foreign ("fw") spelling."""
    stem = rng.choice(pools[kind])
    foreign = rng.random() < 0.3
    if kind == "loc":
        return stem + ("ya" if foreign else "ia"), "fw" if foreign else "n"
    if kind == "org":
        return stem + ("ko" if foreign else "co"), "fw" if foreign else "n"
    return ("ms" if foreign else "mr") + stem, "fw" if foreign else "n"


def _entity_chunk(rng, pools, entity):
    """(surface, pos, ner) triples of one entity chunk."""
    if entity == "LOC":
        if rng.random() < 0.5:
            return [(*_entity_word(rng, pools, "loc"), "S-LOC")]
        chunk = [(*_entity_word(rng, pools, "loc"), "B-LOC")]
        if rng.random() < 0.5:
            chunk.append(("de", "ppm", "I-LOC"))
        chunk.append((*_entity_word(rng, pools, "loc"), "E-LOC"))
        return chunk
    if entity == "ORG":
        if rng.random() < 0.35:
            return [(*_entity_word(rng, pools, "org"), "S-ORG")]
        chunk = [(*_entity_word(rng, pools, "org"), "B-ORG")]
        if rng.random() < 0.5:
            chunk.append(("de", "ppm", "I-ORG"))
        chunk.append(("inc", "abb", "E-ORG"))
        return chunk
    if entity == "PER":
        first = _entity_word(rng, pools, "per")
        if rng.random() < 0.5:
            return [(*first, "S-PER")]
        return [(*first, "B-PER"), (rng.choice(pools["per"]) + "son", "n", "E-PER")]
    if entity == "NUM":
        return [(_digits(rng, 4), "num", "S-NUM")]
    if entity == "DATE":
        chunk = [(_digits(rng, 2), "num", "B-DATE"), (rng.choice(MONTHS), "n", "E-DATE")]
        if rng.random() < 0.5:
            chunk[-1] = (chunk[-1][0], "n", "I-DATE")
            chunk.append((_digits(rng, 4), "num", "E-DATE"))
        return chunk
    if entity == "TIME":
        if rng.random() < 0.4:
            return [(rng.choice(TIME_WORDS), "n", "S-TIME")]
        return [(_digits(rng, 2), "num", "B-TIME"), ("hr", "abb", "E-TIME")]
    raise ValueError(entity)


def _sentence(rng, pools, spec, length):
    names = [e for e, _ in ENTITY_WEIGHTS]
    weights = [w for _, w in ENTITY_WEIGHTS]
    tokens = []
    while len(tokens) < length:
        chunk = None
        if rng.random() < spec.entity_rate:
            chunk = _entity_chunk(rng, pools, rng.choices(names, weights)[0])
            if len(chunk) > length - len(tokens):
                chunk = None
        if chunk is None:
            if rng.random() < 0.08:
                chunk = [(rng.choice(PUNCT), "punc", "O")]
            else:
                chunk = [(*rng.choice(pools["fillers"]), "O")]
        tokens.extend(chunk)
    return tokens


def make_sentences(rng, pools, spec, count):
    """`count` sentences whose lengths spread evenly over [min_len,
    max_len] in a seeded order, so every seed gives the same number of
    tokens and only the words differ."""
    span = spec.max_len - spec.min_len + 1
    lengths = [spec.min_len + i * span // count for i in range(count)]
    rng.shuffle(lengths)
    return [_sentence(rng, pools, spec, n) for n in lengths]


def to_conll(sentences):
    """CoNLL text: surface<TAB>pos<TAB>ner, blank line between sentences."""
    return "\n\n".join(
        "\n".join("\t".join(token) for token in sentence) for sentence in sentences
    ) + "\n"


def vocabulary(pools):
    """Every surface the grammar can emit apart from digit strings."""
    words = {w for w, _ in pools["fillers"]}
    words.update(s + x for s in pools["loc"] for x in ("ia", "ya"))
    words.update(s + x for s in pools["org"] for x in ("co", "ko"))
    words.update(p + s for s in pools["per"] for p in ("mr", "ms"))
    words.update(s + "son" for s in pools["per"])
    words.update(PUNCT + MONTHS + TIME_WORDS + ("inc", "hr"))
    return sorted(words)


def vector_text(words, extra_rows, dim, rng):
    """A "count dim" text vector file over the given words plus extra
    distractor rows. Vectors sit near a centroid chosen by the word's
    last two letters, so suffix cues survive in the frozen vectors."""
    taken = set(words)
    rows = list(words) + _stems(rng, extra_rows, taken)
    centroids = {}
    lines = [f"{len(rows)} {dim}"]
    for word in rows:
        key = word[-2:]
        if key not in centroids:
            centroids[key] = [rng.gauss(0.0, 0.5) for _ in range(dim)]
        centre = centroids[key]
        lines.append(
            word + " " + " ".join(f"{c + rng.gauss(0.0, 0.1):.5f}" for c in centre)
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Inputs:
    train: str        # CoNLL text
    valid: str
    test: str
    vectors: str | None


def make_inputs(workload, seed):
    """The text inputs of one workload, a function of (workload, seed)."""
    shape = WORKLOAD_INPUTS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pools = make_pools(shape["spec"], rng)
    train, valid, test = (
        to_conll(make_sentences(rng, pools, shape["spec"], shape[part]))
        for part in ("train", "valid", "test")
    )
    vectors = None
    if shape.get("vector_dim"):
        vectors = vector_text(
            vocabulary(pools), shape["vector_extra_rows"], shape["vector_dim"], rng
        )
    return Inputs(train, valid, test, vectors)


def write_inputs(inputs, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in ("train", "valid", "test", "vectors"):
        text = getattr(inputs, name)
        if text is None:
            continue
        path = directory / (f"{name}.txt" if name == "vectors" else f"{name}.conll")
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


# Sentence counts per split and corpus make-up for each workload.
WORKLOAD_INPUTS = {
    "crf-joint-wide": {
        "spec": CorpusSpec(filler_words=60_000, entity_stems=3_000,
                           min_len=5, max_len=60, entity_rate=0.3),
        "train": 1_000, "valid": 40, "test": 500,
    },
    "bilstm-crf-joint-random": {
        "spec": CorpusSpec(filler_words=3_000, entity_stems=300,
                           min_len=3, max_len=9, entity_rate=0.4),
        "train": 400, "valid": 40, "test": 600,
    },
    "bilstm-softmax-single-frozen": {
        "spec": CorpusSpec(filler_words=120, entity_stems=12,
                           min_len=3, max_len=9, entity_rate=0.4),
        "train": 96, "valid": 16, "test": 144,
        "vector_dim": 300, "vector_extra_rows": 1_500,
    },
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args(argv)
    out = Path(args.out) / f"{args.workload}-{args.seed}"
    for path in write_inputs(make_inputs(args.workload, args.seed), out).values():
        print(path)


if __name__ == "__main__":
    main()
