from dataclasses import fields

import pytest

from seqtag.config import ConfigError, echo_config, parse_config
from seqtag.crf import CrfTrainConfig
from seqtag.embeddings import EmbeddingConfig
from seqtag.neural import NeuralTrainConfig
from seqtag.neural.tagger import REGIME_SIZES

CELLS = [("crf", "none"), ("crf", "pretrained-frozen")] + [
    (model, embedding)
    for model in ("bilstm-softmax", "bilstm-crf")
    for embedding in ("random", "pretrained-frozen", "pretrained-finetuned")
]


def test_minimal_crf_config():
    config = parse_config("model = crf\n")
    assert config.model == "crf"
    assert config.task == "single"
    assert config.embedding == "none"


def test_resolution_fills_model_defaults():
    crf = parse_config("model = crf").trainer
    assert crf.learning_rate == 0.05
    assert crf.batch_size == 8
    neural_random = parse_config("model = bilstm-crf\nembedding = random").trainer
    assert neural_random.learning_rate == 0.001
    assert neural_random.batch_size == 32
    assert neural_random.hidden_size == 128
    neural_pre = parse_config(
        "model = bilstm-softmax\nembedding = pretrained-frozen"
    ).trainer
    assert neural_pre.batch_size == 64
    assert neural_pre.hidden_size == 256


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model = crf\nlearningrate = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("model = crf\nseed = 1\nseed = 2\n")


def test_missing_model_rejected():
    with pytest.raises(ConfigError, match="model"):
        parse_config("task = single\n")


def test_comments_and_blank_lines_allowed():
    config = parse_config("# a run\n\nmodel = crf\nseed = 9\n")
    assert config.trainer.seed == config.table.seed == 9


def test_crf_random_embedding_rejected():
    with pytest.raises(ConfigError):
        parse_config("model = crf\nembedding = random\n")


def test_crf_finetuned_embedding_rejected():
    with pytest.raises(ConfigError):
        parse_config("model = crf\nembedding = pretrained-finetuned\n")


def test_bilstm_requires_embedding():
    with pytest.raises(ConfigError):
        parse_config("model = bilstm-crf\n")


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("model = crf\nseed = three\n")


def test_bool_parsing():
    assert parse_config("model = crf\nshuffle = false\n").trainer.shuffle is False
    assert parse_config("model = crf\nshuffle = true\n").trainer.shuffle is True
    with pytest.raises(ConfigError):
        parse_config("model = crf\nshuffle = maybe\n")


def test_echo_closure():
    config = parse_config(
        "model = bilstm-crf\nembedding = random\ntask = joint\nseed = 3\n"
        "train = a.conll\nmodel_out = m.bin\nepochs = 7\n"
    )
    echo = echo_config(config)
    reparsed = parse_config("\n".join(echo))
    assert echo_config(reparsed) == echo
    assert reparsed == config


def test_echo_omits_foreign_sections():
    crf_echo = "\n".join(echo_config(parse_config("model = crf")))
    assert "dropout" not in crf_echo
    assert "l2" in crf_echo
    neural_echo = "\n".join(
        echo_config(parse_config("model = bilstm-crf\nembedding = random"))
    )
    assert "dropout" in neural_echo
    assert "l2 =" not in neural_echo


def test_epochs_sets_the_neural_trainers_max_epochs():
    config = parse_config("model = bilstm-crf\nembedding = random\nepochs = 7\n")
    assert config.trainer.max_epochs == 7
    assert "epochs = 7" in echo_config(config)


@pytest.mark.parametrize("model, embedding", CELLS, ids=["-".join(c) for c in CELLS])
def test_echo_of_minimal_config_is_the_owning_defaults(model, embedding):
    # every echoed setting is the default of the dataclass that owns it
    # (REGIME_SIZES for the BiLSTM sizes), so no default is declared twice
    trainer = CrfTrainConfig if model == "crf" else NeuralTrainConfig
    owned = {f.name: f.default for cls in (EmbeddingConfig, trainer) for f in fields(cls)}
    if model != "crf":
        owned.update(REGIME_SIZES[embedding.removeprefix("pretrained-")],
                     epochs=owned["max_epochs"])
    owned.update(model=model, task="single", embedding=embedding)
    echo = echo_config(parse_config(f"model = {model}\nembedding = {embedding}\n"))
    assert len(echo) == (10 if model == "crf" else 14) + 4 * (embedding != "none")
    for line in echo:
        key, value = line.split(" = ")
        default = owned[key]
        assert value == (str(default).lower() if isinstance(default, bool) else str(default))


@pytest.mark.parametrize("model, embedding", CELLS, ids=["-".join(c) for c in CELLS])
def test_echo_round_trips(model, embedding):
    # a run without embeddings echoes no table keys, so it sets none
    table_keys = "" if embedding == "none" else "dim = 7\nbucket_count = 0\n"
    config = parse_config(
        f"model = {model}\nembedding = {embedding}\ntask = joint\nseed = 5\n"
        "epochs = 3\nlearning_rate = 0.25\nbatch_size = 2\nl2 = 0.5\ndropout = 0.125\n"
        f"hidden_size = 3\ntrain = a b.conll\nmodel_out = m.bin\n{table_keys}"
    )
    assert parse_config("\n".join(echo_config(config))) == config


def test_range_error_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^l2 must be >= 0$"):
        parse_config("model = crf\nl2 = -1\n")
    with pytest.raises(ConfigError, match=r"^dim must be >= 1$"):
        parse_config("model = crf\ndim = 0\n")
    with pytest.raises(ConfigError, match=r"^hidden_size must be >= 1$"):
        parse_config("model = bilstm-crf\nembedding = random\nhidden_size = 0\n")


def test_other_models_keys_are_accepted_and_unused():
    neural = parse_config("model = bilstm-crf\nembedding = random\nl2 = -1\nshuffle = no\n")
    assert neural == parse_config("model = bilstm-crf\nembedding = random\n")
    crf = parse_config("model = crf\ndropout = 1.0\nhidden_size = 0\nbeta1 = 2\n")
    assert crf == parse_config("model = crf\n")
    with pytest.raises(ConfigError, match="l2: expected a number"):
        parse_config("model = bilstm-crf\nembedding = random\nl2 = x\n")


@pytest.mark.parametrize("char", ["\u2028", "\x85", "\x0c", "\r"],
                         ids=["line-separator", "next-line", "form-feed", "lone-cr"])
def test_config_lines_end_at_newline_only(char):
    config = parse_config(f"model = crf\ntrain = a{char}b\n")
    assert config.train == f"a{char}b"
    with pytest.raises(ConfigError, match=r"^line 3: unknown key 'wat'$"):
        parse_config(f"model = crf\ntrain = a{char}b\nwat = 1\n")


def test_crlf_config_parses_as_its_lf_form():
    text = "# a run\nmodel = crf\n\nseed = 4\ntrain = a.conll\n"
    assert parse_config(text.replace("\n", "\r\n")) == parse_config(text)
    with pytest.raises(ConfigError, match=r"^line 2: unknown key 'wat'$"):
        parse_config("model = crf\r\nwat = 1\r\n")
