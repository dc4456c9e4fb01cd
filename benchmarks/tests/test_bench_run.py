"""The command prints exactly the metrics BENCHMARK.json names, and
refuses to run without the program's sources."""

import json
import subprocess
import sys

import pytest

from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_of_the_spec(trace, key):
    done = run(BENCH.parent, "bilstm-crf-joint-random", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = run(tmp_path, "crf-joint-wide", 0)
    assert done.returncode != 0 and done.stdout == ""
