"""Run configuration: line-oriented ``key = value`` files describing one
training run.

The run's own keys are the model kind, task, embedding regime and the
data and output paths. Every other key sets the field of the same name
of ``CrfTrainConfig``, ``NeuralTrainConfig`` (``epochs`` sets its
``max_epochs``) or ``EmbeddingConfig``, and those classes own each
setting's type, default and range; a BiLSTM run fills its unset sizes
from ``REGIME_SIZES``. The other model's keys are accepted and unused.
Lines end at "\n" or "\r\n". Unknown keys are rejected.

The config echoes back as a loadable config that reproduces the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from seqtag import TASKS
from seqtag.crf import CrfTrainConfig
from seqtag.embeddings import EmbeddingConfig
from seqtag.neural.tagger import REGIME_SIZES, NeuralTrainConfig

MODEL_KINDS = ("crf", "bilstm-softmax", "bilstm-crf")
EMBEDDINGS = ("none", "random", "pretrained-frozen", "pretrained-finetuned")


class ConfigError(Exception):
    """Bad key, bad value, or an invariant violation in a run config."""


@dataclass
class RunConfig:
    model: str
    task: str = "single"
    embedding: str = "none"
    train: str | None = None
    valid: str | None = None
    vectors: str | None = None
    model_out: str | None = None
    # built by parse_config from the other keys
    trainer: CrfTrainConfig | NeuralTrainConfig | None = None
    table: EmbeddingConfig | None = None

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}; pick one of {MODEL_KINDS}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; pick one of {TASKS}")
        if self.embedding not in EMBEDDINGS:
            raise ConfigError(
                f"unknown embedding {self.embedding!r}; pick one of {EMBEDDINGS}"
            )
        if self.model == "crf" and self.embedding == "random":
            raise ConfigError(
                "the classical crf takes no random embeddings; use none or "
                "pretrained-frozen"
            )
        if self.model == "crf" and self.embedding == "pretrained-finetuned":
            raise ConfigError(
                "the classical crf extracts embedding features once and cannot "
                "fine-tune them; use pretrained-frozen"
            )
        if self.model != "crf" and self.embedding == "none":
            raise ConfigError("bilstm models need an embedding choice")

    @property
    def inference(self):
        return "crf" if self.model in ("crf", "bilstm-crf") else "softmax"

    @property
    def embedding_mode(self):
        return {
            "random": "random",
            "pretrained-frozen": "frozen",
            "pretrained-finetuned": "finetuned",
        }.get(self.embedding)


_RUN_KEYS = ("model", "task", "embedding", "train", "valid", "vectors", "model_out")
_PATH_KEYS = _RUN_KEYS[3:]
# each section key's type, from its annotation: "float | None" -> "float"
_TYPES = {f.name: f.type.split(" | ")[0]
          for cls in (CrfTrainConfig, NeuralTrainConfig, EmbeddingConfig)
          for f in fields(cls)}
del _TYPES["max_epochs"]  # the key epochs sets it
_TYPES.update(dict.fromkeys(_RUN_KEYS, "str"))


def _convert(key, raw):
    kind = _TYPES[key]
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_config(text):
    """Parse ``key = value`` lines (blank lines and #-comments allowed)."""
    values = {}
    # lines end at "\n" alone, as in corpora and vector files; strip()
    # takes the "\r" of a CRLF line end
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key = key.strip()
        raw = raw.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _convert(key, raw)
    if "model" not in values:
        raise ConfigError("missing required key 'model'")
    config = RunConfig(**{key: values.pop(key) for key in _RUN_KEYS if key in values})
    config.table = _section(EmbeddingConfig, values)
    if config.model == "crf":
        config.trainer = _section(CrfTrainConfig, values)
    else:
        sizes = REGIME_SIZES[config.embedding_mode]
        config.trainer = _section(NeuralTrainConfig, {**sizes, **values})
    return config


def _section(cls, values):
    """cls from the keys that name its fields; epochs sets max_epochs."""
    names = {f.name for f in fields(cls)}
    if "max_epochs" in names and "epochs" in values:
        values = {**values, "max_epochs": values["epochs"]}
    try:
        return cls(**{key: value for key, value in values.items() if key in names})
    except ValueError as exc:  # a value out of the field's range
        raise ConfigError(str(exc)) from None


_ECHO_COMMON = ("task", "model", "embedding", "seed", "epochs", "patience",
                "learning_rate", "batch_size")
_ECHO_CRF = ("l2", "shuffle")
_ECHO_NEURAL = ("beta1", "beta2", "epsilon", "dropout", "joint_loss_weight",
                "hidden_size")
_ECHO_EMBEDDING = ("dim", "min_n", "max_n", "bucket_count")


def echo_config(config, include_paths=True):
    """The config as loadable ``key = value`` lines, every setting explicit.

    include_paths=False drops the path keys: that variant defines the run
    semantically and is what gets embedded in model files, so files from
    identical runs match byte for byte regardless of where they land.
    """
    # each key's value from the config that owns it
    values = {**vars(config.table), **vars(config.trainer), **vars(config)}
    values.setdefault("epochs", values.get("max_epochs"))
    keys = list(_ECHO_COMMON)
    keys += _ECHO_CRF if config.model == "crf" else _ECHO_NEURAL
    if config.embedding != "none":
        keys += _ECHO_EMBEDDING
    if include_paths:
        keys += [k for k in _PATH_KEYS if values[k] is not None]
    lines = []
    for key in keys:
        value = values[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return lines
