import numpy as np
import pytest
from synthgen import make_corpus

from seqtag.cli import main
from seqtag.crf import CrfTrainConfig, tag_crf, train_crf
from seqtag.embeddings import EmbeddingConfig, init_random
from seqtag.modelfile import (
    ModelFileError,
    NotAModelFileError,
    TruncatedModelFileError,
    VersionMismatchError,
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
    return train_crf(corpus, corpus, config, embeddings=table), table


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
    model, table = crf_emb_model
    path = tmp_path / "crf-emb.bin"
    save_model(model, path, "crf", embeddings=table)
    loaded, _, _, loaded_table = load_model(path)
    assert loaded_table is not None
    np.testing.assert_array_equal(loaded_table.word_vectors, table.word_vectors)
    for sentence in corpus:
        assert tag_crf(loaded, sentence, loaded_table) == tag_crf(model, sentence, table)


def test_crf_without_table_refuses_embedding_save(tmp_path, crf_emb_model):
    model, _ = crf_emb_model
    with pytest.raises(ValueError, match="table"):
        save_model(model, tmp_path / "x.bin", "crf")


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
