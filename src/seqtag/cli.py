"""Command-line front end: corpus tools, training, tagging, evaluation.

Data goes to stdout, logs to stderr. Exit codes: 0 success, 1 data or
validation failure, 2 usage/config error. Commands raise; only main
turns an error into its one ``error:`` line and exit code, and a
warning into one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields

import numpy as np

from seqtag import NonFiniteLossError, format_training_log, metrics
from seqtag.config import ConfigError, echo_config, parse_config
from seqtag.corpus import (
    OUTSIDE,
    CorpusError,
    ParseError,
    Sentence,
    Token,
    conll_blocks,
    format_stats_table,
    parse_conll,
    stats_to_csv,
    tag_statistics,
    validate_bioes,
)
from seqtag.crf import CrfTrainConfig, tag_crf, tag_crf_full, train_crf
from seqtag.embeddings import (
    EmbeddingConfig,
    EmbeddingFormatError,
    load_text_vectors,
)
from seqtag.features import extract_features
from seqtag.modelfile import ModelFileError, load_model, save_model
from seqtag.neural import (
    Architecture,
    NeuralTagger,
    NeuralTrainConfig,
    tag_neural,
    train_neural,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _log(message):
    print(message, file=sys.stderr)


class UsageError(Exception):
    """A bad command line or run config; exit code 2."""


class InputEncodingError(ValueError):
    """A text input that is not UTF-8; a ValueError, as UnicodeDecodeError is."""


# errors in the data a command reads or writes; exit code 1
_DATA_ERRORS = (
    CorpusError, EmbeddingFormatError, ModelFileError, OSError, InputEncodingError,
    NonFiniteLossError,
)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputEncodingError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_corpus(path, strict):
    return parse_conll(_read_text(path), strict=strict, name=path)


# ---------------------------------------------------------------------------
# corpus tools


def cmd_stats(args):
    corpus = _load_corpus(args.corpus, strict=False)
    stats = tag_statistics(corpus)
    print(format_stats_table(stats))
    print()
    print(stats_to_csv(stats), end="")
    return EXIT_OK


def cmd_validate(args):
    corpus = _load_corpus(args.corpus, strict=False)
    clean = True
    for index, sentence in enumerate(corpus):
        for violation in validate_bioes(sentence.ner_labels):
            clean = False
            print(f"sentence={index} pos={violation.position} rule={violation.rule}")
    return EXIT_OK if clean else EXIT_DATA


def cmd_dump_features(args):
    try:
        embedding_config = EmbeddingConfig(dim=args.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    corpus = _load_corpus(args.corpus, strict=False)
    if not 0 <= args.sentence < len(corpus):
        raise CorpusError(f"corpus has {len(corpus)} sentences, asked for {args.sentence}")
    sentence = corpus.sentences[args.sentence]
    if not 0 <= args.position < len(sentence):
        raise CorpusError(
            f"sentence {args.sentence} has {len(sentence)} tokens, "
            f"asked for position {args.position}"
        )
    table = None
    if args.vectors:
        table = load_text_vectors(_read_text(args.vectors), embedding_config)
    features = extract_features(sentence, args.position, table)
    for key in sorted(features):
        print(f"{key}\t{features[key]:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# training


def _from_run_config(cls, config):
    """A cls dataclass from the RunConfig fields of the same name; a
    trainer's max_epochs is the config's epochs."""
    values = {**vars(config), "max_epochs": config.epochs}
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def cmd_train(args):
    try:
        config = parse_config(_read_text(args.config))
        for key in ("train", "valid", "vectors", "model_out"):
            override = getattr(args, key)
            if override:
                setattr(config, key, override)
        config = config.resolved()
        if not config.train:
            raise ConfigError("missing train path")
        if not config.model_out:
            raise ConfigError("missing model_out path")
        if config.embedding.startswith("pretrained") and not config.vectors:
            raise ConfigError(f"embedding {config.embedding} needs a vectors path")
        # both configs reject out-of-range values
        embedding_config = _from_run_config(EmbeddingConfig, config)
        trainer = CrfTrainConfig if config.model == "crf" else NeuralTrainConfig
        train_config = _from_run_config(trainer, config)
    except (ConfigError, OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

    echo_lines = echo_config(config)
    for line in echo_lines:
        _log(line)

    train = _load_corpus(config.train, strict=True)
    if len(train) == 0:
        raise CorpusError(f"{config.train}: no sentences to train on")
    if config.valid:
        valid = _load_corpus(config.valid, strict=True)
    else:
        _log("no valid path given; validating on the training data")
        valid = train
    embeddings = None
    if config.embedding.startswith("pretrained"):
        embeddings = load_text_vectors(_read_text(config.vectors), embedding_config)

    # overflow on the way to a non-finite loss is reported once, by
    # check_finite_losses, not as numpy warnings before it
    records = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if config.model == "crf":
            model = train_crf(
                train, valid, train_config, task=config.task, embeddings=embeddings,
                log=records,
            )
        else:
            arch = Architecture(config.inference, config.task, config.embedding_mode)
            model, _ = train_neural(
                train, valid, arch, train_config,
                embeddings=embeddings,
                embedding_config=embedding_config,
                log=records,
            )

    log_lines = format_training_log(records)
    for line in log_lines:
        _log(line)
    snapshot = "\n".join(echo_config(config, include_paths=False)) + "\n"
    save_model(model, config.model_out, config.model, snapshot)
    with open(config.model_out + ".log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(echo_lines + log_lines) + "\n")
    _log(f"model written to {config.model_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tagging and evaluation


def _as_placeholder_sentence(block):
    """The block's surfaces under placeholder tags; a surface Token refuses
    is a ParseError at its line, as parse_conll reports it."""
    tokens = []
    for line_no, fields in block:
        try:
            tokens.append(Token(fields[0], "n", OUTSIDE))
        except ValueError as exc:  # a carriage return inside the surface
            raise ParseError(str(exc), line_no) from None
    return Sentence(tuple(tokens))


def _predict(model, sentence):
    """NER labels plus POS labels when the model predicts them."""
    if isinstance(model, NeuralTagger):
        prediction = tag_neural(model, sentence)
        return prediction.ner, prediction.pos
    if model.task == "joint":
        ner, pos = zip(*tag_crf_full(model, sentence))
        return list(ner), list(pos)
    return tag_crf(model, sentence), None


def cmd_tag(args):
    model = load_model(args.model)[0]
    blocks = []
    # POS/NER columns are accepted and ignored
    for block in conll_blocks(_read_text(args.input)):
        surfaces = [fields[0] for _, fields in block]
        sentence = _as_placeholder_sentence(block)
        ner, pos = _predict(model, sentence)
        lines = []
        for i, surface in enumerate(surfaces):
            if pos is not None:
                lines.append(f"{surface}\t{ner[i]}\t{pos[i]}")
            else:
                lines.append(f"{surface}\t{ner[i]}")
        blocks.append("\n".join(lines))
    if blocks:
        print("\n\n".join(blocks))
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)[0]
    gold_corpus = _load_corpus(args.gold, strict=True)
    if len(gold_corpus) == 0:
        raise CorpusError(f"{args.gold}: no tokens to score")
    gold, pred = [], []
    for sentence in gold_corpus:
        gold.append(sentence.ner_labels)
        pred.append(_predict(model, sentence)[0])
    report = metrics.evaluate(gold, pred)
    print(metrics.format_report(report))
    print()
    print(metrics.report_to_csv(report), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqtag",
        description="Word-level sequence labeling: corpus tools, CRF and "
        "BiLSTM taggers, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="tag count table for a corpus")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="report BIOES violations")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.add_argument("--train", help="override the train path")
    p.add_argument("--valid", help="override the valid path")
    p.add_argument("--vectors", help="override the vectors path")
    p.add_argument("--model-out", dest="model_out", help="override the output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a file with a trained model")
    p.add_argument("model")
    p.add_argument("input")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score a model against gold data")
    p.add_argument("model")
    p.add_argument("gold")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dump-features", help="print extracted features")
    p.add_argument("corpus")
    p.add_argument("--sentence", type=int, required=True)
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--vectors", help="embedding vectors for dense features")
    p.add_argument("--dim", type=int, default=300, help="vector dimensionality")
    p.set_defaults(func=cmd_dump_features)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # the shell sees the message alone, not Python's location and source line
    _log(f"warning: {message}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (UsageError, *_DATA_ERRORS) as exc:
            _log(f"error: {exc}")
            return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
