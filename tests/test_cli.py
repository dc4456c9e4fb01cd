import re
import warnings

import numpy as np
import pytest
from synthgen import make_corpus

from seqtag.cli import main
from seqtag.corpus import ParseError, parse_conll, write_conll
from seqtag.crf import tag_crf_full
from seqtag.embeddings import embed
from seqtag.modelfile import load_model


@pytest.fixture
def sample_file(tmp_path, sample_text):
    path = tmp_path / "sample.conll"
    path.write_text(sample_text, encoding="utf-8")
    return path


def write_corpus(tmp_path, corpus, name):
    path = tmp_path / name
    path.write_text(write_conll(corpus), encoding="utf-8")
    return path


def crf_config(tmp_path, train, model_out, **extra):
    keys = {
        "model": "crf",
        "train": train,
        "model_out": model_out,
        "epochs": 30,
        "patience": 30,
        "learning_rate": 0.2,
        "l2": 0.0,
    }
    keys.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8"
    )
    return path


# ---------------------------------------------------------------------------
# stats / validate / dump-features


def test_stats_sample(sample_file, capsys):
    assert main(["stats", str(sample_file)]) == 0
    out = capsys.readouterr().out
    assert "entity,B,I,E,S" in out
    assert "ORG,2,0,2,0" in out
    assert "tokens: 10" in out


def test_stats_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.conll"
    path.write_text("", encoding="utf-8")
    assert main(["stats", str(path)]) == 0
    assert "tokens: 0" in capsys.readouterr().out


def test_stats_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.conll"
    path.write_text("only-two fields\n", encoding="utf-8")
    assert main(["stats", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_validate_clean(sample_file, capsys):
    assert main(["validate", str(sample_file)]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "broken.conll"
    path.write_text("x n I-PER\n\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.strip() == "sentence=0 pos=0 rule=i-begin"


def test_dump_features_sorted(sample_file, capsys):
    assert main(["dump-features", str(sample_file), "--sentence", "0", "--position", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    keys = [l.split("\t")[0] for l in lines]
    assert keys == sorted(keys)
    assert "BOS\t1" in lines
    assert "first_word\t1" in lines


def test_dump_features_position_out_of_range(sample_file, capsys):
    assert main(["dump-features", str(sample_file), "--sentence", "0", "--position", "99"]) == 1


def test_plain_crf_takes_table_keys_unused(tmp_path, sample_file, capsys):
    plain = crf_config(tmp_path, sample_file, tmp_path / "plain.bin", epochs=2)
    assert main(["train", str(plain)]) == 0
    config = crf_config(tmp_path, sample_file, tmp_path / "model.bin", epochs=2, dim=0)
    assert main(["train", str(config)]) == 0
    assert "error" not in capsys.readouterr().err
    assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()


def test_dump_features_sentence_out_of_range(sample_file, capsys):
    assert main(["dump-features", str(sample_file), "--sentence", "1", "--position", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: corpus has 1 sentences, asked for 1"]
    assert captured.out == ""


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_dump_features_out_of_range_dim_is_usage_error(tmp_path, sample_file, capsys, dim):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1 3\nthe 0.1 0.2 0.3\n", encoding="utf-8")
    argv = ["dump-features", str(sample_file), "--sentence", "0", "--position", "0",
            "--vectors", str(vectors), "--dim", dim]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: dim must be >= 1"]
    assert captured.out == ""


_NOT_UTF8 = [
    ("stats", ["stats", "BAD"], 1),
    ("validate", ["validate", "BAD"], 1),
    ("dump-features", ["dump-features", "BAD", "--sentence", "0", "--position", "0"], 1),
    ("dump-features-vectors", ["dump-features", "GOOD", "--sentence", "0",
                               "--position", "0", "--vectors", "BAD", "--dim", "3"], 1),
    ("train-train", ["train", "CONFIG", "--train", "BAD"], 1),
    ("train-vectors", ["train", "CONFIG", "--vectors", "BAD"], 1),
    ("train-config", ["train", "BAD"], 2),
    ("eval", ["eval", "MODEL", "BAD"], 1),
    ("tag", ["tag", "MODEL", "BAD"], 1),
]


def run_with_bad_input(tmp_path, sample_file, capsys, argv, bad):
    """Exit code and error lines of argv, with BAD standing for bad; the
    other inputs are good."""
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1 3\nthe 0.1 0.2 0.3\n", encoding="utf-8")
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out, epochs=2,
                        embedding="pretrained-frozen", vectors=vectors, dim=3)
    if "MODEL" in argv:
        assert main(["train", str(config)]) == 0
        capsys.readouterr()
    paths = {"BAD": bad, "GOOD": sample_file, "CONFIG": config, "MODEL": model_out}
    code = main([str(paths.get(arg, arg)) for arg in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, [line for line in err.splitlines() if line.startswith("error: ")]


@pytest.mark.parametrize("argv,code", [c[1:] for c in _NOT_UTF8], ids=[c[0] for c in _NOT_UTF8])
def test_input_that_is_not_utf8_is_one_error_line(tmp_path, sample_file, capsys, argv, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"x n O\n\xff n O\n")
    got = run_with_bad_input(tmp_path, sample_file, capsys, argv, bad)
    assert got == (code, [f"error: {bad}: not UTF-8 text (invalid start byte)"])


# every input path of every command; a missing config is a usage error
_MISSING = _NOT_UTF8 + [
    ("tag-model", ["tag", "BAD", "GOOD"], 1),
    ("eval-model", ["eval", "BAD", "GOOD"], 1),
]


@pytest.mark.parametrize("argv,code", [c[1:] for c in _MISSING], ids=[c[0] for c in _MISSING])
def test_missing_input_path_is_one_error_line(tmp_path, sample_file, capsys, argv, code):
    missing = tmp_path / "missing.txt"
    got = run_with_bad_input(tmp_path, sample_file, capsys, argv, missing)
    assert got == (code, [f"error: [Errno 2] No such file or directory: '{missing}'"])


def test_tag_input_splits_fields_like_the_corpus_parser(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    assert main(["train", str(crf_config(tmp_path, sample_file, model_out, epochs=2))]) == 0
    capsys.readouterr()
    text = tmp_path / "in.txt"
    # U+00A0 and U+000B are not field separators: a line of either alone
    # is a token, and "a\u00a0b" is one surface as training reads it
    text.write_text("\u00a0\n\x0b\na\u00a0b\tn\tO\nx y\n", encoding="utf-8")
    assert main(["tag", str(model_out), str(text)]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.rstrip("\n").split("\n")]
    assert [row[0] for row in rows] == ["\u00a0", "\x0b", "a\u00a0b", "x"]


@pytest.mark.parametrize("argv", [["validate", "BAD"], ["tag", "MODEL", "BAD"]],
                         ids=["validate", "tag"])
def test_lone_carriage_return_is_the_corpus_parser_error(tmp_path, sample_file, capsys, argv):
    # a lone "\r" does not end a line: the CLI reads what parse_conll reads
    text = "x n O\na\rb n O\n"
    with pytest.raises(ParseError) as exc:
        parse_conll(text)
    bad = tmp_path / "cr.conll"
    bad.write_bytes(text.encode("utf-8"))
    got = run_with_bad_input(tmp_path, sample_file, capsys, argv, bad)
    assert got == (1, [f"error: {exc.value}"])
    assert exc.value.line_no == 2


def test_crlf_inputs_read_as_their_lf_forms(tmp_path, sample_text, capsys):
    # CRLF corpus, config and vector file: the same outputs and model bytes
    vectors = "2 3\n\u1019\u1014\u1039\u1010\u101c\u1031\u1038 0.1 -0.2 3e-1\n\u104c 1 0 -1\n"
    seen = []
    for eol in ("\n", "\r\n"):
        run = tmp_path / ("crlf" if eol == "\r\n" else "lf")
        run.mkdir()
        corpus, vector_file = run / "train.conll", run / "vectors.txt"
        corpus.write_bytes(sample_text.replace("\n", eol).encode("utf-8"))
        vector_file.write_bytes(vectors.replace("\n", eol).encode("utf-8"))
        model_out = run / "model.bin"
        config = crf_config(tmp_path, corpus, model_out, epochs=2, dim=3, vectors=vector_file,
                            embedding="pretrained-frozen")
        config.write_bytes(config.read_bytes().replace(b"\n", eol.encode()))
        assert main(["train", str(config)]) == 0
        assert main(["stats", str(corpus)]) == 0
        assert main(["dump-features", str(corpus), "--sentence", "0", "--position", "0",
                     "--vectors", str(vector_file), "--dim", "3"]) == 0
        assert main(["tag", str(model_out), str(corpus)]) == 0
        seen.append((capsys.readouterr().out, model_out.read_bytes()))
    assert seen[0] == seen[1]
    assert "emb0\t0.1\n" in seen[0][0]  # the vector file was read


# ---------------------------------------------------------------------------
# train / tag / eval round trips


def test_crf_train_tag_eval_cycle(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out)
    assert main(["train", str(config)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("task = single\nmodel = crf")  # config echo first
    assert model_out.exists()
    assert (tmp_path / "model.bin.log").exists()

    # tagging the training sentence reproduces the memorized labels
    assert main(["tag", str(model_out), str(sample_file)]) == 0
    out = capsys.readouterr().out
    rows = [l.split("\t") for l in out.strip().split("\n")]
    assert [r[1] for r in rows] == [
        "S-LOC", "O", "B-ORG", "E-ORG", "O", "B-ORG", "E-ORG", "O", "O", "O"
    ]
    assert all(len(r) == 2 for r in rows)  # no POS column for single task

    assert main(["eval", str(model_out), str(sample_file)]) == 0
    out = capsys.readouterr().out
    assert "accuracy     1.0000" in out
    assert "macro F1 averages labels with gold support" in out
    assert "accuracy,macro_f1,weighted_f1\n1.000000,1.000000,1.000000" in out


def test_tag_empty_input(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out)
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert main(["tag", str(model_out), str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_eval_empty_gold_is_data_error(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out, epochs=2)
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.conll"
    empty.write_text("", encoding="utf-8")
    assert main(["eval", str(model_out), str(empty)]) == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err and "no tokens to score" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "model",
    [{"model": "crf"}, {"model": "bilstm-crf", "embedding": "random"}],
    ids=["crf", "bilstm-crf"],
)
def test_train_empty_corpus_is_data_error(tmp_path, model, capsys):
    empty = tmp_path / "empty.conll"
    empty.write_text("\n\n", encoding="utf-8")
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, empty, model_out, **model)
    assert main(["train", str(config)]) == 1
    assert "no sentences to train on" in capsys.readouterr().err
    assert not model_out.exists()


def test_joint_neural_tag_emits_pos_column(tmp_path, capsys):
    corpus = make_corpus(10, seed=31)
    train = write_corpus(tmp_path, corpus, "train.conll")
    model_out = tmp_path / "joint.bin"
    config_path = tmp_path / "joint.cfg"
    config_path.write_text(
        "\n".join(
            [
                "model = bilstm-softmax",
                "task = joint",
                "embedding = random",
                f"train = {train}",
                f"model_out = {model_out}",
                "epochs = 2",
                "hidden_size = 6",
                "dim = 6",
                "bucket_count = 16",
                "batch_size = 8",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["train", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["tag", str(model_out), str(train)]) == 0
    out = capsys.readouterr().out
    first = out.strip().split("\n")[0].split("\t")
    assert len(first) == 3  # surface, ner, pos


@pytest.mark.filterwarnings("always::UserWarning")  # past the ini-level ignore
def test_train_prints_each_warning_as_one_line(tmp_path, capsys):
    train = write_corpus(tmp_path, make_corpus(12, seed=31), "train.conll")
    model_out = tmp_path / "warn.bin"
    config_path = tmp_path / "warn.cfg"
    config_path.write_text(
        f"model = bilstm-softmax\nembedding = random\ntrain = {train}\nvalid = {train}\n"
        f"model_out = {model_out}\nepochs = 1\nhidden_size = 6\ndim = 6\n"
        "bucket_count = 16\n",
        encoding="utf-8",
    )
    assert main(["train", str(config_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    warning = "warning: hidden_size 6 deviates from the 128 default for random embeddings"
    assert [line for line in err if line.startswith("warning")] == [warning]
    log = (tmp_path / "warn.bin.log").read_text(encoding="utf-8").splitlines()
    assert [line for line in err if line != warning] == log + [f"model written to {model_out}"]


def test_joint_crf_tag_emits_pos_column(tmp_path, capsys):
    corpus = make_corpus(10, seed=31)
    train = write_corpus(tmp_path, corpus, "train.conll")
    model_out = tmp_path / "joint.bin"
    config = crf_config(tmp_path, train, model_out, task="joint", epochs=5)
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    assert main(["tag", str(model_out), str(train)]) == 0
    rows = [l.split("\t") for l in capsys.readouterr().out.split("\n") if l]
    model, _, _, _ = load_model(model_out)
    expected = [
        [token.surface, str(ner), pos]
        for sentence in corpus
        for (ner, pos), token in zip(tag_crf_full(model, sentence), sentence)
    ]
    assert rows == expected  # surface, ner, pos


def test_finetuned_pretrained_joint_cycle(tmp_path, capsys):
    # the pretrained-fine-tuned + bilstm-crf + joint combination, end to end
    corpus = make_corpus(8, seed=33)
    train = write_corpus(tmp_path, corpus, "train.conll")
    vocab = sorted({t.surface for s in corpus for t in s})
    rows = [f"{len(vocab)} 6"] + [
        f"{w} " + " ".join(f"{0.01 * ((i + j) % 7 - 3):.2f}" for j in range(6))
        for i, w in enumerate(vocab)
    ]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(rows) + "\n", encoding="utf-8")

    model_out = tmp_path / "ft.bin"
    config_path = tmp_path / "ft.cfg"
    config_path.write_text(
        "\n".join(
            [
                "model = bilstm-crf",
                "task = joint",
                "embedding = pretrained-finetuned",
                f"train = {train}",
                f"vectors = {vectors}",
                f"model_out = {model_out}",
                "epochs = 2",
                "hidden_size = 6",
                "dim = 6",
                "bucket_count = 16",
                "batch_size = 8",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["train", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["tag", str(model_out), str(train)]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")[0].split("\t")) == 3
    assert main(["eval", str(model_out), str(train)]) == 0


def test_missing_train_path_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("model = crf\nmodel_out = x.bin\n", encoding="utf-8")
    assert main(["train", str(config_path)]) == 2
    assert "train" in capsys.readouterr().err


def test_pretrained_embedding_without_vectors_is_usage_error(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out, embedding="pretrained-frozen")
    assert main(["train", str(config)]) == 2
    # refused in the config phase: no echo, no corpus read
    assert capsys.readouterr().err.splitlines() == [
        "error: embedding pretrained-frozen needs a vectors path"
    ]
    assert not model_out.exists()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    # no command reads a held-out path, so a test key is refused too
    for text in ("model = crf\nwat = 1\n", "model = crf\ntest = held_out.conll\n"):
        config_path.write_text(text, encoding="utf-8")
        assert main(["train", str(config_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: line 2: unknown key 'test'"


BILSTM = {"model": "bilstm-softmax", "embedding": "random", "dim": 6, "hidden_size": 6}


def test_crf_and_bilstm_logs_share_one_epoch_line(tmp_path):
    train = write_corpus(tmp_path, make_corpus(8, seed=35), "train.conll")
    epoch_line = re.compile(
        r"epoch=(\d+) train_loss=\d+\.\d{6} valid_loss=\d+\.\d{6} seconds=\d+\.\d{3}"
    )
    for name, extra in (("crf", {}), ("bilstm", dict(BILSTM, bucket_count=16))):
        model_out = tmp_path / f"{name}.bin"
        config = crf_config(tmp_path, train, model_out, epochs=3, patience=3, **extra)
        assert main(["train", str(config)]) == 0
        lines = (tmp_path / f"{name}.bin.log").read_text(encoding="utf-8").splitlines()
        epochs = [epoch_line.fullmatch(line) for line in lines if " = " not in line]
        assert [int(match[1]) for match in epochs] == [1, 2, 3], name


@pytest.mark.parametrize(
    "extra, message",
    [
        (dict(BILSTM, dim=0), "dim must be >= 1"),
        (dict(BILSTM, min_n=0), "need 1 <= min_n <= max_n"),
        (dict(BILSTM, min_n=4, max_n=3), "need 1 <= min_n <= max_n"),
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"l2": -1}, "l2 must be >= 0"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        (dict(BILSTM, dropout=1.0), "dropout must be in [0, 1)"),
        (dict(BILSTM, patience=0), "patience must be >= 1"),
        (dict(BILSTM, hidden_size=0), "hidden_size must be >= 1"),
        (dict(BILSTM, batch_size=0), "batch_size must be >= 1"),
        (dict(BILSTM, joint_loss_weight=-1), "joint_loss_weight must be >= 0"),
        (dict(BILSTM, epochs=0), "epochs must be >= 1"),
    ],
    ids=[
        "dim-0", "min_n-0", "min_n-above-max_n", "crf-epochs-0", "crf-l2-negative",
        "crf-batch_size-0", "dropout-1", "patience-0", "hidden_size-0",
        "bilstm-batch_size-0", "joint_loss_weight-negative", "bilstm-epochs-0",
    ],
)
def test_out_of_range_config_is_usage_error(tmp_path, sample_file, capsys, extra, message):
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out, **extra)
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert [l for l in err.splitlines() if l.startswith("error: ")] == [f"error: {message}"]
    assert "Traceback" not in err
    assert not model_out.exists()


def test_random_embeddings_without_buckets_train(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    config = crf_config(
        tmp_path, sample_file, model_out, epochs=2, batch_size=4, bucket_count=0, **BILSTM
    )
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    _, _, _, table = load_model(model_out)
    assert table.bucket_count == 0
    word = next(iter(table.vocab))
    np.testing.assert_array_equal(embed(table, word), table.word_vectors[table.vocab[word]])
    np.testing.assert_array_equal(embed(table, "unseen-word"), table.unk_vector)


def test_corrupt_model_file(tmp_path, sample_file, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    assert main(["tag", str(path), str(sample_file)]) == 1
    assert "not a model file" in capsys.readouterr().err


def test_train_non_finite_loss_is_data_error(tmp_path, capsys):
    train = write_corpus(tmp_path, make_corpus(10, seed=1), "train.conll")
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, train, model_out, learning_rate=1e300, epochs=3)
    # pytest records warnings instead of printing them, so record them here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", str(config)]) == 1
    err = capsys.readouterr().err
    # the weights overflow after the first mini-batch and the next batch's
    # gradient is NaN
    assert "error: epoch 1: gradient is not finite" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not model_out.exists()


def test_train_determinism_byte_identical(tmp_path, capsys):
    corpus = make_corpus(10, seed=32)
    train = write_corpus(tmp_path, corpus, "train.conll")
    out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
    config = crf_config(tmp_path, train, out_a, seed=5, epochs=5)
    assert main(["train", str(config)]) == 0
    assert main(["train", str(config), "--model-out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_echo_closure_via_cli(tmp_path, sample_file, capsys):
    model_out = tmp_path / "model.bin"
    config = crf_config(tmp_path, sample_file, model_out, seed=1, epochs=3)
    assert main(["train", str(config)]) == 0
    capsys.readouterr()
    # the echo stored in the log sidecar is itself a loadable config
    log_text = (tmp_path / "model.bin.log").read_text(encoding="utf-8")
    echo_lines = [l for l in log_text.split("\n") if " = " in l]
    echo_path = tmp_path / "echo.cfg"
    out_c = tmp_path / "c.bin"
    echo_path.write_text("\n".join(echo_lines) + "\n", encoding="utf-8")
    assert main(["train", str(echo_path), "--model-out", str(out_c)]) == 0
    capsys.readouterr()
    assert out_c.read_bytes() == model_out.read_bytes()
