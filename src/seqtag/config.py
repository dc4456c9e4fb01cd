"""Run configuration: line-oriented ``key = value`` files describing one
training run, with defaults resolved per model kind and embedding regime.

The resolved config echoes back as a loadable config that reproduces the
run. Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from seqtag import TASKS
from seqtag.crf import CrfTrainConfig
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
    seed: int = 0
    # shared schedule
    epochs: int = 50
    patience: int = 5
    learning_rate: float | None = None   # None -> the trainer's default
    batch_size: int | None = None        # None -> the trainer's or REGIME_SIZES
    # classical crf
    l2: float = 0.1
    shuffle: bool = True
    # neural
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    dropout: float = 0.5
    joint_loss_weight: float = 1.0
    hidden_size: int | None = None       # None -> REGIME_SIZES (bilstm)
    # embedding table
    dim: int = 300
    min_n: int = 3
    max_n: int = 6
    bucket_count: int = 50_000

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

    def resolved(self):
        """Fill model-dependent defaults so the echo is fully explicit."""
        if self.model == "crf":
            defaults = {"learning_rate": CrfTrainConfig.learning_rate,
                        "batch_size": CrfTrainConfig.batch_size}
        else:
            defaults = {"learning_rate": NeuralTrainConfig.learning_rate,
                        **REGIME_SIZES[self.embedding_mode]}
        return replace(self, **{key: value for key, value in defaults.items()
                                if getattr(self, key) is None})


# each key's type, from its annotation: "float | None" -> "float"
_TYPES = {f.name: f.type.split(" | ")[0] for f in fields(RunConfig)}
_PATH_KEYS = ("train", "valid", "vectors", "model_out")


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
    for line_no, line in enumerate(text.splitlines(), start=1):
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
    return RunConfig(**values)


_ECHO_COMMON = ("task", "model", "embedding", "seed", "epochs", "patience",
                "learning_rate", "batch_size")
_ECHO_CRF = ("l2", "shuffle")
_ECHO_NEURAL = ("beta1", "beta2", "epsilon", "dropout", "joint_loss_weight",
                "hidden_size")
_ECHO_EMBEDDING = ("dim", "min_n", "max_n", "bucket_count")


def echo_config(config, include_paths=True):
    """Resolved config as loadable ``key = value`` lines.

    include_paths=False drops the path keys: that variant defines the run
    semantically and is what gets embedded in model files, so files from
    identical runs match byte for byte regardless of where they land.
    """
    config = config.resolved()
    keys = list(_ECHO_COMMON)
    keys += _ECHO_CRF if config.model == "crf" else _ECHO_NEURAL
    if config.embedding != "none":
        keys += _ECHO_EMBEDDING
    if include_paths:
        keys += [k for k in _PATH_KEYS if getattr(config, k) is not None]
    lines = []
    for key in keys:
        value = getattr(config, key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return lines
