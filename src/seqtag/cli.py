"""Command-line front end: corpus tools, training, tagging, evaluation.

Data goes to stdout, logs to stderr. Exit codes: 0 success, 1 data or
validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from seqtag import NonFiniteLossError, metrics
from seqtag.config import ConfigError, echo_config, parse_config
from seqtag.corpus import (
    Corpus,
    CorpusError,
    NerLabel,
    Sentence,
    Token,
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
    format_training_log,
    tag_neural,
    train_neural,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _log(message):
    print(message, file=sys.stderr)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_corpus(path, strict):
    return parse_conll(_read_text(path), strict=strict, name=path)


# ---------------------------------------------------------------------------
# corpus tools


def cmd_stats(args):
    try:
        corpus = _load_corpus(args.corpus, strict=False)
    except CorpusError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    stats = tag_statistics(corpus)
    print(format_stats_table(stats))
    print()
    print(stats_to_csv(stats), end="")
    return EXIT_OK


def cmd_validate(args):
    try:
        corpus = _load_corpus(args.corpus, strict=False)
    except CorpusError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
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
        _log(f"error: {exc}")
        return EXIT_USAGE
    try:
        corpus = _load_corpus(args.corpus, strict=False)
    except CorpusError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    if not 0 <= args.sentence < len(corpus):
        _log(f"error: corpus has {len(corpus)} sentences, asked for {args.sentence}")
        return EXIT_DATA
    sentence = corpus.sentences[args.sentence]
    if not 0 <= args.position < len(sentence):
        _log(
            f"error: sentence {args.sentence} has {len(sentence)} tokens, "
            f"asked for position {args.position}"
        )
        return EXIT_DATA
    table = None
    if args.vectors:
        try:
            table = load_text_vectors(_read_text(args.vectors), embedding_config)
        except EmbeddingFormatError as exc:
            _log(f"error: {exc}")
            return EXIT_DATA
    features = extract_features(
        sentence, args.position, use_embeddings=table is not None, embeddings=table
    )
    for key in sorted(features):
        print(f"{key}\t{features[key]:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# training


def _trainer_config(config):
    if config.model == "crf":
        return CrfTrainConfig(
            l2=config.l2,
            learning_rate=config.learning_rate,
            epochs=config.epochs,
            patience=config.patience,
            batch_size=config.batch_size,
            seed=config.seed,
            shuffle=config.shuffle,
        )
    return NeuralTrainConfig(
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
        batch_size=config.batch_size,
        max_epochs=config.epochs,
        patience=config.patience,
        joint_loss_weight=config.joint_loss_weight,
        dropout=config.dropout,
        seed=config.seed,
        hidden_size=config.hidden_size,
    )


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
        # both configs reject out-of-range values
        embedding_config = EmbeddingConfig(
            dim=config.dim,
            min_n=config.min_n,
            max_n=config.max_n,
            bucket_count=config.bucket_count,
            seed=config.seed,
        )
        train_config = _trainer_config(config)
    except (ConfigError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE

    echo_lines = echo_config(config)
    for line in echo_lines:
        _log(line)

    try:
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
            if not config.vectors:
                raise ConfigError(f"embedding {config.embedding} needs a vectors path")
            embeddings = load_text_vectors(_read_text(config.vectors), embedding_config)
    except (CorpusError, EmbeddingFormatError, ConfigError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_DATA

    # overflow on the way to a non-finite loss is reported once, by
    # check_finite_losses, not as numpy warnings before it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if config.model == "crf":
            records = []
            model = train_crf(
                train, valid, train_config, task=config.task, embeddings=embeddings,
                log=records,
            )
        else:
            arch = Architecture(config.inference, config.task, config.embedding_mode)
            model, records = train_neural(
                train, valid, arch, train_config,
                embeddings=embeddings,
                embedding_config=embedding_config,
            )

    log_lines = format_training_log(records)
    for line in log_lines:
        _log(line)
    snapshot = "\n".join(echo_config(config, include_paths=False)) + "\n"
    save_model(model, config.model_out, config.model, snapshot, embeddings=embeddings)
    with open(config.model_out + ".log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(echo_lines + log_lines) + "\n")
    _log(f"model written to {config.model_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tagging and evaluation


def _read_tag_input(text):
    """Sentences of surfaces; POS/NER columns are accepted and ignored."""
    sentences = []
    current = []
    for line in text.split("\n"):
        stripped = line.strip(" \t\r")
        if not stripped:
            if current:
                sentences.append(current)
                current = []
            continue
        current.append(stripped.split()[0])
    if current:
        sentences.append(current)
    return sentences


def _as_placeholder_sentence(surfaces):
    outside = NerLabel(None, None)
    return Sentence(tuple(Token(s, "n", outside) for s in surfaces))


def _predict(model, kind, table, sentence):
    """NER labels plus POS labels when the model predicts them."""
    if isinstance(model, NeuralTagger):
        prediction = tag_neural(model, sentence)
        return prediction.ner, prediction.pos
    if model.task == "joint":
        ner, pos = zip(*tag_crf_full(model, sentence, table))
        return list(ner), list(pos)
    return tag_crf(model, sentence, table), None


def cmd_tag(args):
    try:
        model, kind, _, table = load_model(args.model)
    except ModelFileError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    try:
        sentences = _read_tag_input(_read_text(args.input))
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    blocks = []
    for surfaces in sentences:
        sentence = _as_placeholder_sentence(surfaces)
        ner, pos = _predict(model, kind, table, sentence)
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
    try:
        model, kind, _, table = load_model(args.model)
    except ModelFileError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    try:
        gold_corpus = _load_corpus(args.gold, strict=True)
        if len(gold_corpus) == 0:
            raise CorpusError(f"{args.gold}: no tokens to score")
    except CorpusError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    gold, pred = [], []
    for sentence in gold_corpus:
        gold.append(sentence.ner_labels)
        pred.append(_predict(model, kind, table, sentence)[0])
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, NonFiniteLossError) as exc:
        _log(f"error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
