"""Acceptance suite: one test per criterion, cheap ones first.

Each criterion prints one PASS/FAIL line on the real stdout so the
gate's outcome is visible regardless of capture settings.
"""

import contextlib
import math
import os
import re
import sys
import time

import numpy as np
import pytest
from synthgen import make_corpus
from test_chain import (
    brute_log_partition,
    brute_marginals,
    brute_viterbi,
    random_instance,
)
from test_corpus import VIOLATION_CATALOGUE
from test_metrics import naive_accuracy, naive_macro, naive_prf, naive_weighted

from seqtag import chain, metrics
from seqtag.cli import main as cli_main
from seqtag.corpus import (
    ENTITY_TYPES,
    NER_LABELS,
    VIOLATION_RULES,
    NerLabel,
    encode_entities,
    extract_entities,
    parse_conll,
    tag_statistics,
    validate_bioes,
    write_conll,
)
from seqtag.crf import CrfModel, CrfTrainConfig, nll_and_gradient, tag_crf, train_crf
from seqtag.embeddings import EmbeddingConfig, init_random
from seqtag.features import sentence_features
from seqtag.modelfile import load_model
from seqtag.neural import (
    Architecture,
    Head,
    NeuralTagger,
    NeuralTrainConfig,
    batch_loss_and_gradients,
    build_tagger,
    sentence_loss,
    tag_neural,
    train_neural,
)
from seqtag.neural.lstm import LstmParams

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@contextlib.contextmanager
def criterion(ident):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {ident}: PASS", file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# 1. exact-inference oracle


def test_criterion_1_exact_inference_oracle():
    with criterion("1 exact-inference oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(200):
            emissions, transitions = random_instance(rng, max_steps=5, max_labels=4)
            assert chain.log_partition(emissions, transitions) == pytest.approx(
                brute_log_partition(emissions, transitions), abs=1e-10
            )
            path, score = chain.viterbi(emissions, transitions)
            brute_path, brute_score = brute_viterbi(emissions, transitions)
            assert score == pytest.approx(brute_score, abs=1e-12)
            assert path == brute_path
            node, edge = chain.marginals(emissions, transitions)
            brute_node, brute_edge = brute_marginals(emissions, transitions)
            np.testing.assert_allclose(node, brute_node, atol=1e-9)
            np.testing.assert_allclose(edge, brute_edge, atol=1e-9)
        assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# 2. gradient checks


def _fd(loss_fn, array, index, step=1e-5):
    original = array[index]
    array[index] = original + step
    plus = loss_fn()
    array[index] = original - step
    minus = loss_fn()
    array[index] = original
    return (plus - minus) / (2 * step)


def _crf_gradient_check():
    rng = np.random.default_rng(1002)
    labels = ["L0", "L1", "L2"]
    n_features = 18
    model = CrfModel(
        labels=labels,
        task="single",
        feature_index={f"f{i}": i for i in range(n_features)},
        state_weights=rng.uniform(-1, 1, size=(n_features, 3)),
        transitions=rng.uniform(-1, 1, size=(3, 3)),
    )
    from seqtag.corpus import Sentence, Token

    sentence = Sentence(
        tuple(Token(f"w{i}", "n", NerLabel(None, None)) for i in range(4))
    )
    features = []
    for _ in range(4):
        active = rng.choice(n_features, size=5, replace=False)
        features.append({f"f{i}": float(rng.uniform(0.2, 2.0)) for i in sorted(active)})
    gold = [labels[int(g)] for g in rng.integers(0, 3, size=4)]

    def nll():
        value, _ = nll_and_gradient(model, sentence, gold, l2=0.1, features=features)
        return value

    _, (grad_map, grad_trans) = nll_and_gradient(
        model, sentence, gold, l2=0.1, features=features
    )
    worst = 0.0
    for key, row in model.feature_index.items():
        analytic_row = grad_map.get(key, np.zeros(3))
        for y in range(3):
            fd = _fd(nll, model.state_weights, (row, y))
            worst = max(worst, abs(analytic_row[y] - fd))
    for a in range(3):
        for b in range(3):
            fd = _fd(nll, model.transitions, (a, b))
            worst = max(worst, abs(grad_trans[a, b] - fd))
    assert worst <= 1e-6


def _tiny_neural_model(joint, rng):
    # D=3, H=2, K=3 with random heads so gradients reach the encoder
    table = init_random(
        ["alpha", "beta"], EmbeddingConfig(dim=3, bucket_count=7, seed=5)
    )
    heads = {
        "ner": Head(
            kind="crf",
            weight=rng.uniform(-0.5, 0.5, size=(3, 4)),
            bias=rng.uniform(-0.5, 0.5, size=3),
            transitions=rng.uniform(-0.5, 0.5, size=(3, 3)),
            labels=["A", "B", "C"],
        )
    }
    if joint:
        heads["pos"] = Head(
            kind="softmax",
            weight=rng.uniform(-0.5, 0.5, size=(3, 4)),
            bias=rng.uniform(-0.5, 0.5, size=3),
            transitions=None,
            labels=["x", "y", "z"],
        )
    return NeuralTagger(
        embedding=table,
        forward_lstm=LstmParams.init(3, 2, rng),
        backward_lstm=LstmParams.init(3, 2, rng),
        heads=heads,
        hidden_size=2,
        dropout_rate=0.0,
    )


def _neural_gradient_check(joint):
    from seqtag.corpus import Sentence, Token

    rng = np.random.default_rng(1003 + joint)
    model = _tiny_neural_model(joint, rng)
    sentence = Sentence(
        (
            Token("alpha", "n", NerLabel(None, None)),
            Token("offlist", "n", NerLabel(None, None)),  # OOV word
            Token("beta", "n", NerLabel(None, None)),
        )
    )
    gold = [{"ner": [0, 2, 1]}]
    if joint:
        gold[0]["pos"] = [1, 0, 2]
    batch = [sentence]

    def loss():
        value, _, _ = batch_loss_and_gradients(
            model, batch, joint_weight=1.0, gold=gold
        )
        return value

    _, grads, emb_grads = batch_loss_and_gradients(
        model, batch, joint_weight=1.0, gold=gold
    )
    for name, param in model.parameters().items():
        analytic = grads[name]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            fd = _fd(loss, param, it.multi_index)
            assert analytic[it.multi_index] == pytest.approx(fd, rel=1e-4, abs=1e-8), (
                name,
                it.multi_index,
            )
    table = model.embedding
    for row, vec in zip(*emb_grads["emb.words"]):
        for k in range(table.dim):
            fd = _fd(loss, table.word_vectors, (row, k))
            assert vec[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)
    for row, vec in zip(*emb_grads["emb.buckets"]):
        for k in range(table.dim):
            fd = _fd(loss, table.ngram_buckets, (row, k))
            assert vec[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_criterion_2_gradient_checks():
    with criterion("2 gradient checks"):
        started = time.perf_counter()
        _crf_gradient_check()
        _neural_gradient_check(joint=False)
        _neural_gradient_check(joint=True)
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 3. closed-form initialization losses


def test_criterion_3_initialization_losses():
    with criterion("3 closed-form initialization losses"):
        corpus = make_corpus(3, seed=300)
        sentence = corpus.sentences[0]
        n_tokens = len(sentence)
        table = init_random(
            sorted({t.surface for s in corpus for t in s}),
            EmbeddingConfig(dim=8, bucket_count=64, seed=0),
        )
        rng = np.random.default_rng(0)
        softmax_model = build_tagger(
            Architecture("softmax", "single", "random"), table, 6, rng, 0.0
        )
        assert sentence_loss(softmax_model, sentence) == pytest.approx(
            math.log(25), abs=1e-6
        )
        crf_model = build_tagger(
            Architecture("crf", "single", "random"), table, 6, rng, 0.0
        )
        assert sentence_loss(crf_model, sentence) == pytest.approx(
            n_tokens * math.log(25), abs=1e-6
        )
        # zero-weight classical CRF over the 25-label space
        classical = CrfModel(
            labels=list(NER_LABELS),
            task="single",
            feature_index={},
            state_weights=np.zeros((0, 25)),
            transitions=np.zeros((25, 25)),
        )
        features = sentence_features(sentence)
        nll, _ = nll_and_gradient(
            classical, sentence, sentence.ner_labels, features=features
        )
        assert nll == pytest.approx(n_tokens * math.log(25), abs=1e-9)


# ---------------------------------------------------------------------------
# 6. metrics oracles (cheap; runs before the heavy training criteria)


def test_criterion_6_metrics_oracles():
    with criterion("6 metrics oracles"):
        rng = np.random.default_rng(1006)
        labels = list(NER_LABELS)
        for _ in range(100):
            gold, pred = [], []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 9))
                gold.append([labels[i] for i in rng.integers(0, len(labels), n)])
                pred.append([labels[i] for i in rng.integers(0, len(labels), n)])
            scores = metrics.per_label_prf(gold, pred)
            reference = naive_prf(gold, pred)
            assert metrics.token_accuracy(gold, pred) == pytest.approx(
                naive_accuracy(gold, pred), abs=1e-12
            )
            for label, (p, r, f1, support) in reference.items():
                s = scores[label]
                assert s.precision == pytest.approx(p, abs=1e-12)
                assert s.recall == pytest.approx(r, abs=1e-12)
                assert s.f1 == pytest.approx(f1, abs=1e-12)
                assert s.support == support
            assert metrics.macro_f1(scores) == pytest.approx(
                naive_macro(reference), abs=1e-12
            )
            assert metrics.weighted_f1(scores) == pytest.approx(
                naive_weighted(reference), abs=1e-12
            )
        hand = metrics.per_label_prf([["A", "A", "B"]], [["A", "B", "B"]])
        assert metrics.macro_f1(hand) == 2 / 3  # exact


# ---------------------------------------------------------------------------
# 7. corpus properties


def _random_valid_labels(rng):
    seq = []
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(0, 3))
        entity = ENTITY_TYPES[int(rng.integers(0, len(ENTITY_TYPES)))]
        if kind == 0:
            seq.append(NerLabel(None, None))
        elif kind == 1:
            seq.append(NerLabel("S", entity))
        else:
            seq.append(NerLabel("B", entity))
            seq.extend(NerLabel("I", entity) for _ in range(int(rng.integers(0, 3))))
            seq.append(NerLabel("E", entity))
    return seq


def test_criterion_7_corpus_properties(sample_sentence):
    with criterion("7 corpus properties"):
        for seed in range(100):
            corpus = make_corpus(5, seed=seed)
            assert parse_conll(write_conll(corpus)).sentences == corpus.sentences

        assert set(VIOLATION_CATALOGUE) == set(VIOLATION_RULES)
        for rule, fixtures in VIOLATION_CATALOGUE.items():
            for seq in fixtures:
                violations = validate_bioes(seq)
                assert any(v.rule == rule for v in violations), (rule, seq)

        rng = np.random.default_rng(1007)
        for _ in range(1000):
            seq = _random_valid_labels(rng)
            assert validate_bioes(seq) == []
            assert encode_entities(extract_entities(seq), len(seq)) == seq

        assert extract_entities(sample_sentence.ner_labels) == [
            ("LOC", 0, 0),
            ("ORG", 2, 3),
            ("ORG", 5, 6),
        ]


# ---------------------------------------------------------------------------
# 8. determinism and persistence


def _write_corpus(tmp_path, corpus, name):
    path = tmp_path / name
    path.write_text(write_conll(corpus), encoding="utf-8")
    return path


_MASK_SECONDS = re.compile(r"seconds=[0-9.]+")


def test_criterion_8_determinism_and_persistence(tmp_path):
    with criterion("8 determinism and persistence"):
        train = _write_corpus(tmp_path, make_corpus(25, seed=800), "train.conll")
        valid = _write_corpus(tmp_path, make_corpus(8, seed=801), "valid.conll")
        fixtures = list(make_corpus(20, seed=802))

        runs = {
            "crf": [
                "model = crf",
                "epochs = 6",
                "learning_rate = 0.2",
                "l2 = 0.01",
            ],
            "bilstm-crf": [
                "model = bilstm-crf",
                "embedding = random",
                "epochs = 3",
                "hidden_size = 8",
                "dim = 6",
                "bucket_count = 64",
                "batch_size = 8",
            ],
            "bilstm-softmax": [
                "model = bilstm-softmax",
                "embedding = random",
                "epochs = 3",
                "hidden_size = 8",
                "dim = 6",
                "bucket_count = 64",
                "batch_size = 8",
            ],
        }
        for name, lines in runs.items():
            config_path = tmp_path / f"{name}.cfg"
            config_path.write_text(
                "\n".join(
                    lines + [f"train = {train}", f"valid = {valid}", "seed = 7"]
                )
                + "\n",
                encoding="utf-8",
            )
            out_a = tmp_path / f"{name}-a.bin"
            out_b = tmp_path / f"{name}-b.bin"
            assert cli_main(["train", str(config_path), "--model-out", str(out_a)]) == 0
            assert cli_main(["train", str(config_path), "--model-out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes(), name

            # logs match byte for byte once wall time is masked (wall time
            # is reported informally, never a gate)
            log_a = _MASK_SECONDS.sub(
                "seconds=*", (tmp_path / f"{name}-a.bin.log").read_text()
            )
            log_b = _MASK_SECONDS.sub(
                "seconds=*", (tmp_path / f"{name}-b.bin.log").read_text()
            )
            # the configured model_out path differs between the two runs;
            # mask that echo line as well
            log_a = log_a.replace(str(out_a), "OUT")
            log_b = log_b.replace(str(out_b), "OUT")
            assert log_a == log_b, name

        # save/load fidelity: the in-memory model and its reloaded copy
        # predict identically on 20 fixtures
        train_corpus = make_corpus(25, seed=800)
        crf_model = train_crf(
            train_corpus, train_corpus,
            CrfTrainConfig(l2=0.01, learning_rate=0.2, epochs=6, patience=6, seed=7),
        )
        from seqtag.modelfile import save_model

        crf_path = tmp_path / "fidelity-crf.bin"
        save_model(crf_model, crf_path, "crf")
        crf_loaded, _, _, _ = load_model(crf_path)

        neural_model, _ = train_neural(
            train_corpus, train_corpus,
            Architecture("crf", "single", "random"),
            NeuralTrainConfig(
                max_epochs=2, patience=2, batch_size=8, dropout=0.0, seed=7,
                hidden_size=8,
            ),
            embedding_config=EmbeddingConfig(dim=6, bucket_count=64, seed=7),
        )
        neural_path = tmp_path / "fidelity-neural.bin"
        save_model(neural_model, neural_path, "bilstm-crf")
        neural_loaded, _, _, _ = load_model(neural_path)

        for sentence in fixtures:
            assert tag_crf(crf_loaded, sentence) == tag_crf(crf_model, sentence)
            assert (
                tag_neural(neural_loaded, sentence).ner
                == tag_neural(neural_model, sentence).ner
            )


# ---------------------------------------------------------------------------
# 9. conditional real-corpus reproduction


def _find_split(base, name):
    for candidate in (f"{name}.conll", name, f"{name}.txt"):
        path = os.path.join(base, candidate)
        if os.path.exists(path):
            return path
    return None


def test_criterion_9_real_corpus_statistics():
    base = os.environ.get("MYNER_DIR")
    if not base:
        pytest.skip("MYNER_DIR not set; the real corpus is not distributed")
    with criterion("9 real-corpus statistics"):
        paths = {name: _find_split(base, name) for name in ("train", "valid", "test")}
        assert all(paths.values()), f"missing split files under {base}"
        stats = {}
        for name, path in paths.items():
            with open(path, "r", encoding="utf-8") as fh:
                stats[name] = tag_statistics(parse_conll(fh.read(), strict=False))
        assert stats["train"].count("LOC", "B") == 9395
        assert stats["train"].o_count == 167547
        assert stats["valid"].count("LOC", "B") == 1182
        assert stats["valid"].count("NUM", "S") == 475
        assert stats["test"].count("NUM", "S") == 456


# ---------------------------------------------------------------------------
# 4. memorization (slow)


def _token_accuracy_crf(model, corpus):
    correct = total = 0
    for sentence in corpus:
        for p, token in zip(tag_crf(model, sentence), sentence):
            correct += p == token.ner
            total += 1
    return correct / total


def _token_accuracy_neural(model, corpus):
    correct = total = 0
    for sentence in corpus:
        for p, token in zip(tag_neural(model, sentence).ner, sentence):
            correct += p == token.ner
            total += 1
    return correct / total


def test_criterion_4_memorization():
    with criterion("4 memorization, 6 variants"):
        started = time.perf_counter()
        corpus = make_corpus(50, seed=200)
        results = {}
        for task in ("single", "joint"):
            config = CrfTrainConfig(
                l2=0.0, learning_rate=0.2, epochs=50, patience=50, seed=0
            )
            model = train_crf(corpus, corpus, config, task=task)
            results[f"crf-{task}"] = _token_accuracy_crf(model, corpus)
        for inference in ("softmax", "crf"):
            for task in ("single", "joint"):
                config = NeuralTrainConfig(
                    learning_rate=0.05,
                    max_epochs=50,
                    patience=50,
                    batch_size=8,
                    dropout=0.0,
                    seed=0,
                    hidden_size=16,
                )
                model, _ = train_neural(
                    corpus, corpus,
                    Architecture(inference, task, "random"),
                    config,
                    embedding_config=EmbeddingConfig(dim=12, bucket_count=256, seed=0),
                )
                results[f"bilstm-{inference}-{task}"] = _token_accuracy_neural(
                    model, corpus
                )
        elapsed = time.perf_counter() - started
        print(f"  memorization accuracies: {results}", file=sys.__stdout__)
        assert all(acc >= 0.99 for acc in results.values()), results
        assert len(results) == 6
        assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 5. synthetic-language experiment (slow)


def test_criterion_5_synthetic_experiment():
    with criterion("5 synthetic-language experiment"):
        started = time.perf_counter()
        train = make_corpus(2000, seed=100)
        valid = make_corpus(250, seed=101)
        test = make_corpus(250, seed=102)
        gold = [s.ner_labels for s in test]

        # (a) handcrafted-feature CRF, spec-default training settings
        crf_model = train_crf(train, valid, CrfTrainConfig(seed=0))
        crf_report = metrics.evaluate(gold, [tag_crf(crf_model, s) for s in test])
        print(
            f"  feature CRF: weighted_f1={crf_report.weighted_f1:.4f} "
            f"macro_f1={crf_report.macro_f1:.4f}",
            file=sys.__stdout__,
        )
        assert crf_report.weighted_f1 >= 0.95

        # (b), (c) neural grid over 3 seeds with identical embeddings per seed
        def run(inference, task, seed):
            config = NeuralTrainConfig(
                learning_rate=0.005,
                max_epochs=12,
                patience=3,
                batch_size=32,
                dropout=0.5,
                seed=seed,
                hidden_size=32,
            )
            model, _ = train_neural(
                train, valid, Architecture(inference, task, "random"), config,
                embedding_config=EmbeddingConfig(dim=24, bucket_count=4096, seed=seed),
            )
            pred = [tag_neural(model, s).ner for s in test]
            return metrics.evaluate(gold, pred).macro_f1

        seeds = (0, 1, 2)
        softmax_macro = [run("softmax", "single", s) for s in seeds]
        crf_macro = [run("crf", "single", s) for s in seeds]
        joint_macro = [run("crf", "joint", s) for s in seeds]
        mean = lambda xs: sum(xs) / len(xs)
        print(
            f"  macro F1 over seeds {seeds}: softmax={mean(softmax_macro):.4f} "
            f"bilstm-crf={mean(crf_macro):.4f} joint-crf={mean(joint_macro):.4f}",
            file=sys.__stdout__,
        )
        assert mean(crf_macro) >= mean(softmax_macro)
        assert mean(joint_macro) >= mean(crf_macro) - 0.02
        assert time.perf_counter() - started < 1200.0
