"""Every cell of the paper's grid through the CLI, on a tiny generated
corpus and a generated vector file: the feature CRF without and with
vector features, and BiLSTM-softmax and BiLSTM-CRF over random, frozen
and fine-tuned embeddings, each single-task and joint. Each cell trains
twice (identical model bytes and masked logs), then reloads the model,
saves it again, tags and evaluates."""

import re

import numpy as np
import pytest
from synthgen import make_corpus

from seqtag.cli import main
from seqtag.corpus import NER_LABELS, POS_TAGS, write_conll
from seqtag.modelfile import load_model, save_model

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

_MASK_SECONDS = re.compile(r"seconds=[0-9.]+")

CELLS = [("crf", embedding, task) for embedding in ("none", "pretrained-frozen")
         for task in ("single", "joint")] + [
    (model, embedding, task)
    for model in ("bilstm-softmax", "bilstm-crf")
    for embedding in ("random", "pretrained-frozen", "pretrained-finetuned")
    for task in ("single", "joint")
]


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    paths = {}
    for name, size, seed in (("train", 12, 61), ("valid", 4, 62), ("test", 4, 63)):
        paths[name] = root / f"{name}.conll"
        paths[name].write_text(write_conll(make_corpus(size, seed=seed)), encoding="utf-8")
    # every third training word is left out, so the vector table has OOV words
    vocab = sorted({t.surface for s in make_corpus(12, seed=61) for t in s})[::3]
    rng = np.random.default_rng(64)
    rows = [f"{len(vocab)} 6"] + [
        f"{word} " + " ".join(f"{v:.4f}" for v in rng.normal(0.0, 0.5, size=6))
        for word in vocab
    ]
    paths["vectors"] = root / "vectors.txt"
    paths["vectors"].write_text("\n".join(rows) + "\n", encoding="utf-8")
    return paths


def write_config(path, model, embedding, task, files):
    lines = [
        f"model = {model}", f"task = {task}", f"embedding = {embedding}",
        f"train = {files['train']}", f"valid = {files['valid']}",
        "epochs = 2", "patience = 2", "seed = 3", "dim = 6",
    ]
    if embedding.startswith("pretrained"):
        lines.append(f"vectors = {files['vectors']}")
    if model == "crf":
        lines += ["learning_rate = 0.2", "l2 = 0.01"]
    else:
        lines += ["hidden_size = 4", "batch_size = 4", "bucket_count = 32"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("model, embedding, task", CELLS,
                         ids=["-".join(cell) for cell in CELLS])
def test_grid_cell_through_cli(model, embedding, task, grid_files, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    write_config(config, model, embedding, task, grid_files)
    out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert main(["train", str(config), "--model-out", str(out_a)]) == 0
    assert main(["train", str(config), "--model-out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    # wall time and the model_out echo are the only lines that may differ
    logs = [
        _MASK_SECONDS.sub("seconds=*", (tmp_path / f"{out.name}.log").read_text())
        .replace(str(out), "OUT")
        for out in (out_a, out_b)
    ]
    assert logs[0] == logs[1]
    assert "epoch=1 train_loss=" in logs[0]

    loaded, kind, snapshot, _ = load_model(out_a)
    assert kind == model
    resaved = tmp_path / "resaved.bin"
    save_model(loaded, resaved, kind, snapshot)
    assert resaved.read_bytes() == out_a.read_bytes()

    assert main(["tag", str(out_a), str(grid_files["test"])]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.split("\n") if line]
    n_tokens = sum(len(s) for s in make_corpus(4, seed=63))
    assert len(rows) == n_tokens
    ner_names = {str(label) for label in NER_LABELS}
    assert all(row[1] in ner_names for row in rows)
    if task == "joint":
        assert all(len(row) == 3 and row[2] in POS_TAGS for row in rows)
    else:
        assert all(len(row) == 2 for row in rows)

    assert main(["eval", str(out_a), str(grid_files["test"])]) == 0
    assert "accuracy" in capsys.readouterr().out.lower()
