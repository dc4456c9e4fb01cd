import copy
import hashlib
import io
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthgen import make_corpus

from seqtag.cli import main
from seqtag.corpus import NerLabel, Sentence, Token, write_conll
from seqtag.crf import CrfModel, CrfTrainConfig, tag_crf, train_crf
from seqtag.embeddings import EmbeddingConfig, EmbeddingTable, init_random, load_text_vectors
from seqtag.modelfile import (
    FORMAT_VERSION,
    MAGIC,
    ModelFileError,
    NotAModelFileError,
    TruncatedModelFileError,
    VersionMismatchError,
    _neural_blocks,
    _read_block,
    _write_block,
    _write_str,
    load_model,
    save_model,
)
from seqtag.neural import Architecture, NeuralTrainConfig, tag_neural, train_neural

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(12, seed=21)


@pytest.fixture(scope="module")
def crf_model(corpus):
    config = CrfTrainConfig(l2=0.0, learning_rate=0.2, epochs=8, patience=8, seed=0)
    return train_crf(corpus, corpus, config)


@pytest.fixture(scope="module")
def crf_emb_model(corpus):
    vocab = sorted({t.surface for s in corpus for t in s})
    table = init_random(vocab, EmbeddingConfig(dim=6, bucket_count=32, seed=2))
    config = CrfTrainConfig(l2=0.0, learning_rate=0.2, epochs=6, patience=6, seed=0)
    return train_crf(corpus, corpus, config, embeddings=table)


def neural_model(corpus, inference, task):
    config = NeuralTrainConfig(
        learning_rate=0.02, batch_size=8, max_epochs=3, patience=3,
        dropout=0.0, seed=0, hidden_size=8,
    )
    model, _ = train_neural(
        corpus, corpus, Architecture(inference, task, "random"), config,
        embedding_config=EmbeddingConfig(dim=6, bucket_count=32, seed=0),
    )
    return model


def test_save_load_save_identical_bytes(tmp_path, crf_model):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    first = save_model(crf_model, p1, "crf", "model = crf\n")
    loaded, kind, snapshot, table = load_model(p1)
    assert kind == "crf"
    assert snapshot == "model = crf\n"
    assert table is None
    second = save_model(loaded, p2, kind, snapshot)
    assert first == second
    assert p1.read_bytes() == p2.read_bytes()


def test_crf_round_trip_preserves_predictions(tmp_path, crf_model, corpus):
    path = tmp_path / "crf.bin"
    save_model(crf_model, path, "crf")
    loaded, _, _, _ = load_model(path)
    for sentence in corpus:
        assert tag_crf(loaded, sentence) == tag_crf(crf_model, sentence)
    np.testing.assert_array_equal(loaded.state_weights, crf_model.state_weights)


def test_crf_with_embeddings_round_trip(tmp_path, crf_emb_model, corpus):
    model = crf_emb_model
    path = tmp_path / "crf-emb.bin"
    save_model(model, path, "crf")
    loaded, _, _, loaded_table = load_model(path)
    assert loaded_table is not None
    np.testing.assert_array_equal(loaded_table.word_vectors, model.embedding.word_vectors)
    for sentence in corpus:
        assert tag_crf(loaded, sentence) == tag_crf(model, sentence)


@pytest.mark.parametrize("name", ["crf_model", "crf_emb_model", "random_model"])
def test_load_model_returns_the_models_own_table(tmp_path, request, name):
    model = request.getfixturevalue(name)
    path = tmp_path / "m.bin"
    save_model(model, path, "crf" if name.startswith("crf") else "bilstm-crf")
    loaded = load_model(path)
    assert loaded[3] is loaded[0].embedding
    assert (loaded[3] is None) == (name == "crf_model")


def test_crf_with_text_vectors_dump_features_prints_emb_values(tmp_path, corpus, capsys):
    vocab = sorted({t.surface for s in corpus for t in s})
    rows = [f"{len(vocab)} 3"] + [f"{w} 0.{i % 7 + 1} -0.25 {i}" for i, w in enumerate(vocab)]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(rows) + "\n", encoding="utf-8")
    table = load_text_vectors(vectors.read_text(encoding="utf-8"), EmbeddingConfig(dim=3))
    config = CrfTrainConfig(l2=0.0, learning_rate=0.2, epochs=2, patience=2, seed=0)
    path = tmp_path / "crf-vec.bin"
    save_model(train_crf(corpus, corpus, config, embeddings=table), path, "crf")
    loaded, _, _, loaded_table = load_model(path)
    assert loaded_table is loaded.embedding
    conll = tmp_path / "corpus.conll"
    conll.write_text(write_conll(corpus), encoding="utf-8")
    argv = ["dump-features", str(conll), "--sentence", "0", "--position", "1",
            "--vectors", str(vectors), "--dim", "3"]
    assert main(argv) == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("emb")]
    surface = corpus.sentences[0].tokens[1].surface
    vector = loaded.embedding.word_vectors[loaded.embedding.vocab[surface]]
    assert printed == [f"emb{k}\t{x:g}" for k, x in enumerate(vector) if x != 0.0]
    assert len(printed) >= 2


@pytest.mark.parametrize(
    "inference,task",
    [("softmax", "single"), ("crf", "single"), ("crf", "joint")],
    ids=["bilstm-softmax", "bilstm-crf", "bilstm-crf-joint"],
)
def test_neural_round_trip_preserves_predictions(tmp_path, corpus, inference, task):
    model = neural_model(corpus, inference, task)
    path = tmp_path / "n.bin"
    kind = f"bilstm-{inference}"
    first = save_model(model, path, kind)
    loaded, loaded_kind, _, _ = load_model(path)
    assert loaded_kind == kind
    for sentence in list(corpus)[:20]:
        a = tag_neural(model, sentence)
        b = tag_neural(loaded, sentence)
        assert a.ner == b.ner
        assert a.pos == b.pos
    second = save_model(loaded, tmp_path / "n2.bin", kind)
    assert first == second


def test_bad_magic_distinct_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(NotAModelFileError, match="not a model file"):
        load_model(path)


def test_version_skew_names_versions(tmp_path, crf_model):
    path = tmp_path / "v.bin"
    save_model(crf_model, path, "crf")
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatchError, match="99"):
        load_model(path)


def test_truncated_file_distinct_error(tmp_path, crf_model):
    path = tmp_path / "t.bin"
    save_model(crf_model, path, "crf")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedModelFileError):
        load_model(path)


def test_string_length_past_the_end_rejected_before_reading(tmp_path):
    # the model kind claims 2**28 bytes in a file of 15
    path = tmp_path / "len.bin"
    path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 2**28) + b"crf")
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedModelFileError, match="model kind"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_large_array_copied_once_by_save_and_once_by_load(tmp_path, random_model):
    # the file image holds the only copy a save makes of an array and the
    # loaded array is read in place: no tobytes() or bytes object beside them
    model = copy.deepcopy(random_model)
    model.embedding.ngram_buckets = np.random.default_rng(0).standard_normal((2**16, 6))
    size = model.embedding.ngram_buckets.nbytes
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        data = save_model(model, path, "bilstm-crf")
        _, save_peak = tracemalloc.get_traced_memory()
        del data
        tracemalloc.reset_peak()
        loaded, _, _, _ = load_model(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.embedding.ngram_buckets, model.embedding.ngram_buckets)
    assert save_peak < 1.1 * size
    assert load_peak < 1.1 * size


def test_trailing_bytes_rejected(tmp_path, crf_model):
    path = tmp_path / "tail.bin"
    save_model(crf_model, path, "crf")
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ModelFileError, match="trailing bytes"):
        load_model(path)


def test_missing_meta_block_rejected(tmp_path, crf_model):
    path = tmp_path / "nometa.bin"
    data = save_model(crf_model, path, "crf")
    named_meta = b"\x04\x00\x00\x00meta"
    assert data.count(named_meta) == 1
    path.write_bytes(data.replace(named_meta, b"\x04\x00\x00\x00mota"))
    with pytest.raises(ModelFileError, match="no meta block"):
        load_model(path)


def test_invalid_utf8_kind_rejected(tmp_path, crf_model):
    path = tmp_path / "kind.bin"
    data = bytearray(save_model(crf_model, path, "crf"))
    assert data[8:15] == b"\x03\x00\x00\x00crf"
    data[12] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFileError, match="model kind is not valid UTF-8"):
        load_model(path)


@pytest.mark.parametrize(
    "original,broken",
    [
        (b'{"kind": "crf"', b'x"kind": "crf"'),  # meta is not JSON
        (b'"kind"', b'"kine"'),  # meta has no kind
        (b"\x0b\x00\x00\x00transitions", b"\x0b\x00\x00\x00transitionz"),  # no weights
    ],
    ids=["meta-not-json", "meta-without-kind", "missing-transitions"],
)
def test_malformed_blocks_rejected(tmp_path, crf_model, capsys, original, broken):
    path = tmp_path / "broken.bin"
    data = save_model(crf_model, path, "crf")
    assert data.count(original) == 1
    path.write_bytes(data.replace(original, broken))
    with pytest.raises(ModelFileError, match="malformed model blocks"):
        load_model(path)
    sentences = tmp_path / "in.txt"
    sentences.write_text("Ada\nruns\n", encoding="utf-8")
    assert main(["tag", str(path), str(sentences)]) == 1
    assert "malformed model blocks" in capsys.readouterr().err


def _crf_weights(make_block):
    def make(crf_model, corpus):
        model = copy.copy(crf_model)
        model.state_weights = make_block(crf_model.state_weights)
        return model, "crf"

    return make


def _cut_head_weight(rows, cols):
    def make(crf_model, corpus):
        model = neural_model(corpus, "crf", "single")
        head = model.heads["ner"]
        head.weight = head.weight[:rows, :cols]
        return model, "bilstm-crf"

    return make


@pytest.mark.parametrize(
    "make",
    [
        _crf_weights(lambda weights: weights[:10]),
        _crf_weights(lambda weights: ["not", "floats"]),  # a string-list block
        _cut_head_weight(-1, None),
        _cut_head_weight(None, -1),
    ],
    ids=[
        "crf-state-weights-10-rows",
        "crf-state-weights-strings",
        "neural-head-weight-rows",
        "neural-head-weight-cols",
    ],
)
def test_inconsistent_block_shapes_rejected(tmp_path, crf_model, corpus, capsys, make):
    model, kind = make(crf_model, corpus)
    path = tmp_path / "shapes.bin"
    save_model(model, path, kind)
    with pytest.raises(ModelFileError, match="malformed model blocks"):
        load_model(path)
    sentences = tmp_path / "in.txt"
    sentences.write_text("Ada\nruns\n", encoding="utf-8")
    assert main(["tag", str(path), str(sentences)]) == 1
    assert "malformed model blocks" in capsys.readouterr().err


@pytest.fixture(scope="module")
def random_model(corpus):
    return neural_model(corpus, "crf", "single")


@pytest.fixture(scope="module")
def vector_model(corpus):
    vocab = sorted({t.surface for s in corpus for t in s})
    rng = np.random.default_rng(4)
    rows = [f"{len(vocab)} 6"] + [
        w + "".join(f" {x:.4f}" for x in rng.normal(size=6)) for w in vocab
    ]
    table = load_text_vectors("\n".join(rows), EmbeddingConfig(dim=6, bucket_count=13))
    config = NeuralTrainConfig(
        learning_rate=0.02, batch_size=8, max_epochs=3, patience=3,
        dropout=0.0, seed=0, hidden_size=8,
    )
    model, _ = train_neural(
        corpus, corpus, Architecture("crf", "single", "frozen"), config, embeddings=table
    )
    return model


def assert_load_and_tag_fail(path, tmp_path, capsys, message):
    with pytest.raises(ModelFileError, match=message):
        load_model(path)
    sentences = tmp_path / "in.txt"
    sentences.write_text("Ada\nruns\n", encoding="utf-8")
    assert main(["tag", str(path), str(sentences)]) == 1
    assert message in capsys.readouterr().err


def test_text_vector_model_with_zero_bucket_block_loads(tmp_path, vector_model, corpus):
    # the layout older builds wrote for text vectors: "subword": false
    # beside a block of zero bucket rows
    blocks = []
    for name, payload in _neural_blocks(vector_model):
        if name == "emb.meta":
            meta = json.loads(payload)
            assert meta["subword"] is False
            payload = json.dumps(dict(meta, bucket_count=13), sort_keys=True)
        elif name == "emb.buckets":
            assert payload.shape == (0, 6)
            payload = np.zeros((13, 6))
        blocks.append((name, payload))
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))
    _write_str(out, "bilstm-crf")
    _write_str(out, "model = bilstm-crf\n")
    out.write(struct.pack("<I", len(blocks)))
    for name, payload in blocks:
        _write_block(out, name, payload)
    old = tmp_path / "old.bin"
    old.write_bytes(out.getvalue())

    loaded, kind, snapshot, table = load_model(old)
    assert table.ngram_buckets.shape == (0, 6)
    first = list(corpus)[0]
    unseen = Sentence(tuple(Token(t.surface + "~", t.pos, t.ner) for t in first))
    for sentence in list(corpus) + [unseen]:
        assert tag_neural(loaded, sentence) == tag_neural(vector_model, sentence)
    resaved = save_model(loaded, tmp_path / "new.bin", kind, snapshot)
    assert resaved == save_model(vector_model, tmp_path / "ref.bin", kind, snapshot)
    assert len(resaved) == len(out.getvalue()) - 13 * 6 * 8 - 1  # "13" -> "0"


@pytest.mark.parametrize(
    "original,broken",
    [(b'"bucket_count": 32', b'"bucket_count": 33'), (b'"dim": 6', b'"dim": 5')],
    ids=["bucket-count", "dim"],
)
def test_embedding_meta_disagreeing_with_blocks_rejected(tmp_path, random_model, capsys,
                                                         original, broken):
    path = tmp_path / "meta.bin"
    data = save_model(random_model, path, "bilstm-crf")
    assert data.count(original) == 1
    path.write_bytes(data.replace(original, broken))
    assert_load_and_tag_fail(path, tmp_path, capsys, "does not match emb.buckets")


@pytest.mark.parametrize(
    "original,broken",
    [(b'"min_n": 3', b'"min_n": 0'), (b'"max_n": 6', b'"max_n": 2')],
    ids=["min_n-0", "max_n-below-min_n"],
)
def test_bad_ngram_bounds_rejected(tmp_path, random_model, capsys, original, broken):
    path = tmp_path / "bounds.bin"
    data = save_model(random_model, path, "bilstm-crf")
    assert data.count(original) == 1
    path.write_bytes(data.replace(original, broken))
    assert_load_and_tag_fail(path, tmp_path, capsys, "min_n <= max_n")


@pytest.mark.parametrize("rows", [2**40, 2**62])
def test_huge_shape_field_rejected(tmp_path, crf_model, capsys, rows):
    path = tmp_path / "huge.bin"
    data = bytearray(save_model(crf_model, path, "crf"))
    name = b"\x0d\x00\x00\x00state_weights"
    assert data.count(name) == 1
    at = data.index(name) + len(name) + 1 + 4  # past the kind byte and ndim
    data[at : at + 8] = struct.pack("<Q", rows)
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert_load_and_tag_fail(path, tmp_path, capsys, "file ends inside block 'state_weights'")


def test_unparsable_label_rejected(tmp_path, random_model, capsys):
    path = tmp_path / "label.bin"
    data = save_model(random_model, path, "bilstm-crf")
    assert data.count(b'"B-LOC"') == 1
    path.write_bytes(data.replace(b'"B-LOC"', b'"Q-LOC"'))
    assert_load_and_tag_fail(path, tmp_path, capsys, "malformed model blocks")


@pytest.fixture(scope="module")
def model_images(tmp_path_factory, crf_model, random_model, vector_model):
    folder = tmp_path_factory.mktemp("images")
    return folder, {
        "crf": save_model(crf_model, folder / "crf.bin", "crf"),
        "random": save_model(random_model, folder / "random.bin", "bilstm-crf"),
        "vectors": save_model(vector_model, folder / "vectors.bin", "bilstm-crf"),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_files_load_or_raise_model_file_error(model_images, data):
    folder, images = model_images
    image = bytearray(images[data.draw(st.sampled_from(sorted(images)))])
    edits = st.tuples(st.integers(0, len(image) - 1), st.integers(0, 255))
    for at, value in data.draw(st.lists(edits, min_size=1, max_size=4)):
        image[at] = value
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(image) - 1)))
    path = folder / "mutated.bin"
    path.write_bytes(bytes(image[:cut]))
    try:
        load_model(path)
    except ModelFileError:
        pass


# ---------------------------------------------------------------------------
# format v1: a golden image and the string-list block

# feature keys in Myanmar script, one with U+00A0, an empty one, and two
# of equal length ("p=ab", "p=cd") so that one can be turned into the other
GOLDEN_FEATURES = [
    "bias", "w=\u1019\u103c\u1014\u103a\u1019\u102c", "suf=\u102c",
    "w=a\u00a0b", "", "p=ab", "p=cd",
]
GOLDEN_SHA256 = "e47bcb81f1070afdf5384822223f9606c82422b75364c67c975084b1b1358ff0"


def golden_model():
    labels = [
        (NerLabel.parse("O"), "n"),
        (NerLabel.parse("S-PER"), "n"),
        (NerLabel.parse("B-LOC"), "fw"),
    ]
    table = EmbeddingTable(
        vocab={"\u1000\u102d\u102f": 0, "caf\u00e9": 1, "na\u00efve": 2},
        word_vectors=np.arange(6.0).reshape(3, 2) / 2,
        ngram_buckets=np.arange(8.0).reshape(4, 2) / 4 - 1,
        min_n=3,
        max_n=5,
        unk_vector=np.array([0.125, -0.5]),
    )
    return CrfModel(
        labels=labels,
        task="joint",
        feature_index={key: i for i, key in enumerate(GOLDEN_FEATURES)},
        state_weights=np.arange(21.0).reshape(7, 3) / 8 - 1,
        transitions=np.array([[0.5, -1.0, 0.0], [1.5, 0.25, -2.0], [0.0, 3.0, -0.75]]),
        embedding=table,
    )


@pytest.fixture
def golden_image(tmp_path):
    return save_model(golden_model(), tmp_path / "golden.bin", "crf", "model = crf\ntask = joint\n")


def test_golden_image_bytes_are_pinned(tmp_path, golden_image):
    assert hashlib.sha256(golden_image).hexdigest() == GOLDEN_SHA256
    path = tmp_path / "reloaded.bin"
    path.write_bytes(golden_image)
    model, kind, snapshot, _ = load_model(path)
    assert model.feature_index == golden_model().feature_index
    assert save_model(model, tmp_path / "resaved.bin", kind, snapshot) == golden_image


def reference_strs_block(name, texts):
    def one(text):
        data = text.encode("utf-8")
        return struct.pack("<I", len(data)) + data

    return one(name) + struct.pack("<BI", 1, len(texts)) + b"".join(map(one, texts))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.characters(exclude_categories=("Cs",))), max_size=50))
def test_string_list_block_round_trips_with_reference_bytes(texts):
    out = io.BytesIO()
    _write_block(out, "features", texts)
    assert out.getvalue() == reference_strs_block("features", texts)
    src = io.BytesIO(out.getvalue())
    assert _read_block(src) == ("features", texts)
    assert src.read() == b""


def golden_key_at(image, key):
    """Offset of the length field of a feature key in the image."""
    data = key.encode("utf-8")
    field = struct.pack("<I", len(data)) + data
    assert image.count(field) == 1
    return image.index(field), len(field)


def test_every_cut_inside_a_feature_key_is_truncation(tmp_path, golden_image):
    at, size = golden_key_at(golden_image, GOLDEN_FEATURES[1])
    path = tmp_path / "cut.bin"
    for cut in range(at, at + size):
        path.write_bytes(golden_image[:cut])
        with pytest.raises(TruncatedModelFileError, match="file ends inside block 'features'"):
            load_model(path)


def test_invalid_utf8_feature_key_rejected(tmp_path, golden_image):
    at, _ = golden_key_at(golden_image, "p=cd")
    data = bytearray(golden_image)
    data[at + 4] = 0xFF
    path = tmp_path / "utf8.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFileError, match="block 'features' is not valid UTF-8"):
        load_model(path)


def test_feature_key_length_past_the_end_rejected_before_reading(tmp_path, golden_image):
    at, _ = golden_key_at(golden_image, GOLDEN_FEATURES[1])
    data = bytearray(golden_image)
    data[at : at + 4] = struct.pack("<I", 2**28)
    path = tmp_path / "len.bin"
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedModelFileError, match="block 'features'"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_duplicated_feature_key_rejected(tmp_path, golden_image):
    at, _ = golden_key_at(golden_image, "p=cd")
    golden_key_at(golden_image, "p=ab")
    data = bytearray(golden_image)
    data[at + 4 : at + 8] = b"p=ab"
    path = tmp_path / "dup.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFileError, match="malformed model blocks"):
        load_model(path)
