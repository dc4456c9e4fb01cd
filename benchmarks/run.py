"""Benchmark of seqtag's experiment grid: one command per workload.

    python3 benchmarks/run.py --workload crf-joint-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's inputs from
the seed under benchmarks/out/, times one cold set-up, then repeats
rounds (train, tag the held-out set, save and load the model) until
--seconds have passed, checks every output, and prints one JSON object
as the last line. With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run, whose spans it writes
to benchmarks/out/trace-<workload>-<seed>.json. Every time is corrected
for host speed against the reference kernel (see kernel.py).
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that timings do not depend
# on how many cores the host lends the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import kernel  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# rounds every run makes whatever --seconds says: the determinism check
# compares the model files of two training units
MIN_ROUNDS = 2


def _program_path():
    src = ROOT / "src"
    if not (src / "seqtag" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqtag sources under {src}; run from a checkout")
    return src


def end_to_end(workload, setup_t, rounds, train_tokens, test_tokens, peak_rss_mib):
    train_s = statistics.median([r.train.value for r in rounds])
    return {
        "train_tok_per_s": (train_tokens * workload.epochs / train_s, "tok/s"),
        "tag_tok_per_s": (test_tokens / statistics.median([r.tag.value for r in rounds]), "tok/s"),
        "save_load_s": (statistics.median([r.save_load.value for r in rounds])
                        / workload.save_load_repeats, "s"),
        "setup_s": (setup_t.value, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(tracer, setup_t, traced, untraced, test_tokens):
    """Median over traced rounds of each layer's corrected self time, its
    calls per round and the named counts."""
    per_round = []
    for r in traced:
        totals = {}
        # the checks run right after the save-load unit and share its factor
        for unit, t in (("train", r.train), ("tag", r.tag), ("save_load", r.save_load),
                        ("check", r.save_load)):
            for layer, (seconds, calls) in tracer.totals((r.index, unit)).items():
                s, c = totals.get(layer, (0.0, 0))
                totals[layer] = (s + seconds * t.factor, c + calls)
        per_round.append(totals)
    for layer, (seconds, calls) in tracer.totals((-1, "setup")).items():
        for totals in per_round:
            totals[layer] = (seconds * setup_t.factor, calls)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median([t.get(layer, (0.0, 0))[0] for t in per_round]), "s")
        metrics[f"{layer}.calls"] = (per_round[0].get(layer, (0.0, 0))[1], "count")
    first = traced[0]
    metrics["neural.adam.adam_step_rows.rows"] = (
        tracer.rows.get((first.index, "train"), 0), "count")
    tag_calls = tracer.totals((first.index, "tag")).get("embeddings.ngram_bucket_ids",
                                                         (0.0, 0))[1]
    metrics["embeddings.ngram_bucket_ids.calls_per_token"] = (
        tag_calls / test_tokens, "calls/tok")
    for name, value in first.sizes.items():
        metrics[name] = (value, "B" if name.endswith(".bytes") else "count")

    def total(r):
        return r.train.value + r.tag.value + r.save_load.value

    metrics["trace.overhead_s"] = (
        statistics.median([total(a) - total(b) for a, b in zip(traced, untraced)]), "s")
    return metrics


def _report(r):
    """One human-readable line per round on stderr."""
    parts = [
        f"{name} {t.raw_s:.4f}s raw {t.value:.4f}s corrected (kernel {t.kernel_s * 1e3:.2f}ms)"
        for name, t in (("train", r.train), ("tag", r.tag), ("save_load", r.save_load))
    ]
    print(f"round {r.index}: " + "; ".join(parts), file=sys.stderr)
    print(f"round {r.index}: " + " ".join(f"{k}={v:.4f}" for k, v in r.quality.items()),
          file=sys.stderr)


def run(workload_name, seed, seconds, trace):
    src = _program_path()
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    paths = gen.write_inputs(gen.make_inputs(workload_name, seed),
                             OUT / "inputs" / f"{workload_name}-{seed}")
    work = OUT / f"work-{workload_name}-{seed}-{os.getpid()}"
    work.mkdir()
    kernel.warm_up()

    tracer = Tracer() if trace else None
    try:
        if tracer is None:
            def cold_set_up():
                workloads.import_program()
                return workloads.set_up(workload, paths)
            setup_t = kernel.timed(cold_set_up)
        else:
            workloads.import_program()
            tracer.install()
            tracer.unit = (-1, "setup")
            setup_t = kernel.timed(workloads.set_up, workload, paths)
            tracer.uninstall()
        data = setup_t.result
        test = workloads.load_test(paths)
        train_tokens = sum(len(s) for s in data[0])
        test_tokens = sum(len(s) for s in test)

        rounds = []
        deadline = time.perf_counter() + seconds
        while True:
            traced_round = trace and len(rounds) % 2 == 1
            if traced_round:
                tracer.install()
            try:
                r = workloads.run_round(
                    len(rounds), workload, data, test, seed, work / "model.bin",
                    tracer=tracer if traced_round else None, sample_inside=not trace,
                    full_checks=not rounds,
                )
            finally:
                if traced_round:
                    tracer.uninstall()
            if rounds:
                checks.check_identical_bytes("model file of a repeated training unit",
                                             r.model_digest, rounds[0].model_digest)
                checks.check_paths("tagging in a repeated round", r.tagged,
                                   rounds[0].tagged)
            rounds.append(r)
            if len(rounds) == 1:
                # later rounds repeat the first one's work; where the allocator
                # leaves their garbage depends on timing, not on the program
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            _report(r)
            if (len(rounds) >= MIN_ROUNDS and len(rounds) % (2 if trace else 1) == 0
                    and time.perf_counter() >= deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        tracer.write(OUT / f"trace-{workload_name}-{seed}.json")
        metrics = per_layer(tracer, setup_t, rounds[1::2], rounds[0::2], test_tokens)
    else:
        metrics = end_to_end(workload, setup_t, rounds, train_tokens, test_tokens,
                             peak_rss_mib)
    return {
        "correct": True,
        "attempted": 1 + 3 * len(rounds),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
