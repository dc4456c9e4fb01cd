"""Each correctness check accepts the program's real output and rejects a
deliberately wrong one; the kernel and the generators keep their
contracts."""

import ast
import subprocess
import sys

import numpy as np
import pytest

import checks
import gen
import workloads
from conftest import BENCH


@pytest.fixture(scope="module")
def crf_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("crf")
    name = "crf-joint-wide"
    saved = gen.WORKLOAD_INPUTS[name]
    gen.WORKLOAD_INPUTS[name] = {**saved, "train": 30, "valid": 5, "test": 8}
    try:
        paths = gen.write_inputs(gen.make_inputs(name, 9), tmp / "inputs")
    finally:
        gen.WORKLOAD_INPUTS[name] = saved
    workload = workloads.WORKLOADS[name]
    data = workloads.set_up(workload, paths)
    test = workloads.load_test(paths)
    model, _ = workloads.train(workload, data, 9)
    return workload, model, test, tmp


def test_mutated_tag_path_is_rejected(crf_run):
    workload, model, test, _ = crf_run
    tagged = workloads.tag(workload, model, test.sentences)
    decoded, _, _ = workloads.decode_and_loss(workload, model, test.sentences)
    checks.check_paths("tagging", tagged, decoded)
    from seqtag.corpus import NER_LABELS

    ner, pos = tagged[0]
    other = next(label for label in NER_LABELS if label != ner[0])
    mutated = [([other] + list(ner[1:]), pos)] + tagged[1:]
    with pytest.raises(checks.CheckFailed):
        checks.check_paths("tagging", mutated, decoded)


def test_independent_viterbi_matches_brute_force():
    rng = np.random.default_rng(3)
    scores, trans = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
    paths = np.array(np.meshgrid(*[range(3)] * 4, indexing="ij")).reshape(4, -1).T
    totals = [scores[np.arange(4), p].sum() + trans[p[:-1], p[1:]].sum() for p in paths]
    assert checks.viterbi_path(scores, trans) == list(paths[int(np.argmax(totals))])
    log_z = np.log(np.exp(totals).sum())
    gold = [0, 2, 1, 1]
    gold_score = totals[int(np.flatnonzero((paths == gold).all(axis=1))[0])]
    assert checks.crf_nll(scores, trans, gold) == pytest.approx(log_z - gold_score)


def test_loss_above_bound_is_rejected(crf_run):
    workload, model, test, _ = crf_run
    _, loss, bound = workloads.decode_and_loss(workload, model, test.sentences)
    checks.check_loss_below_bound("held-out loss", loss, bound)
    for bad in (bound, bound * 1.01, float("nan")):
        with pytest.raises(checks.CheckFailed):
            checks.check_loss_below_bound("held-out loss", bad, bound)


def test_flipped_byte_in_model_file_is_rejected(crf_run):
    workload, model, _, tmp = crf_run
    path = tmp / "model.bin"
    original, _ = workloads.save_then_load(workload, model, path)
    corrupt = bytearray(original)
    corrupt[-1] ^= 0x01  # last byte of the last float block
    path.write_bytes(bytes(corrupt))
    from seqtag import modelfile

    loaded, _, _, _ = modelfile.load_model(path)
    resaved, _ = workloads.save_then_load(workload, loaded, tmp / "again.bin")
    with pytest.raises(checks.CheckFailed):
        checks.check_identical_bytes("save of the loaded model", resaved, original)


def test_wrong_accuracy_and_low_f1_are_rejected():
    gold = [["a", "b", "c"], ["a"]]
    pred = [["a", "x", "c"], ["a"]]
    checks.check_accuracy(0.75, gold, pred)
    with pytest.raises(checks.CheckFailed):
        checks.check_accuracy(0.5, gold, pred)
    with pytest.raises(checks.CheckFailed):
        checks.check_floor("f1", 0.79, 0.80)


def test_kernel_imports_nothing_from_seqtag():
    tree = ast.parse((BENCH / "kernel.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] in ("seqtag", "workloads", "spans")]
    code = ("import sys; sys.path[:] = [p for p in sys.path if 'src' not in p]; "
            "import kernel; kernel.reference_kernel(); "
            "assert not [m for m in sys.modules if m.startswith('seqtag')]")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True)


@pytest.mark.parametrize("name", sorted(gen.WORKLOAD_INPUTS))
def test_generators_are_deterministic(name):
    first = gen.make_inputs(name, 3)
    assert gen.make_inputs(name, 3) == first
    other = gen.make_inputs(name, 4)
    assert other.train != first.train and other.test != first.test
    assert (first.vectors is None) == (name != "bilstm-softmax-single-frozen")


def test_kernel_samples_inside_a_unit_are_left_out_of_its_time():
    import kernel

    bracket = kernel.Bracket()

    def busy(seconds):
        end = kernel.clock() + seconds
        while kernel.clock() < end:
            bracket.poke()

    t = bracket.timed(busy, 0.35)
    # three or so samples of about NOMINAL_S ran inside the 0.35 s
    assert 0.2 < t.raw_s < 0.35 - kernel.NOMINAL_S
