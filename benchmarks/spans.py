"""Spans around the program's public functions, kept in memory.

A Tracer replaces a function at the name its caller looks it up through
(``seqtag.neural.tagger.lstm_forward`` for the LSTM scan the tagger runs,
``seqtag.chain.marginals`` for every caller of the chain module) with a
wrapper that records one span per call: name, start, end and the span
that was open when it started, on the benchmark's clock (process CPU
time). A span's self time is its duration minus the durations of its
direct children. Spans are grouped by the timed unit they ran in, so
each unit's host-speed correction applies to them.
"""

from __future__ import annotations

import functools
import importlib
import json

from kernel import clock

# (module the caller looks the name up in, attribute, metric name). The
# metric name is the module that defines the function, without "seqtag.".
WRAPPED = (
    ("seqtag.corpus", "parse_conll", "corpus.parse_conll"),
    ("seqtag.embeddings", "load_text_vectors", "embeddings.load_text_vectors"),
    ("seqtag.crf", "train_crf", "crf.train_crf"),
    ("seqtag.crf", "tag_crf", "crf.tag_crf"),
    ("seqtag.crf", "emissions", "crf.emissions"),
    ("seqtag.crf", "sentence_features", "features.sentence_features"),
    ("seqtag.chain", "forward_log_alphas", "chain.forward_log_alphas"),
    ("seqtag.chain", "log_partition", "chain.log_partition"),
    ("seqtag.chain", "path_score", "chain.path_score"),
    ("seqtag.chain", "marginals", "chain.marginals"),
    ("seqtag.chain", "viterbi", "chain.viterbi"),
    ("seqtag.neural.tagger", "train_neural", "neural.tagger.train_neural"),
    ("seqtag.neural.tagger", "tag_neural", "neural.tagger.tag_neural"),
    ("seqtag.neural.tagger", "batch_loss_and_gradients",
     "neural.tagger.batch_loss_and_gradients"),
    ("seqtag.neural.tagger", "sentence_loss", "neural.tagger.sentence_loss"),
    ("seqtag.neural.tagger", "lstm_forward", "neural.lstm.lstm_forward"),
    ("seqtag.neural.tagger", "lstm_backward", "neural.lstm.lstm_backward"),
    ("seqtag.neural.tagger", "softmax_head_loss", "neural.heads.softmax_head_loss"),
    ("seqtag.neural.tagger", "softmax_head_backward",
     "neural.heads.softmax_head_backward"),
    ("seqtag.neural.tagger", "crf_head_loss", "neural.heads.crf_head_loss"),
    ("seqtag.neural.tagger", "crf_head_backward", "neural.heads.crf_head_backward"),
    ("seqtag.neural.tagger", "dropout_mask", "neural.heads.dropout_mask"),
    ("seqtag.neural.tagger", "adam_step", "neural.adam.adam_step"),
    ("seqtag.neural.tagger", "adam_step_rows", "neural.adam.adam_step_rows"),
    ("seqtag.neural.tagger", "ngram_bucket_ids", "embeddings.ngram_bucket_ids"),
    ("seqtag.modelfile", "save_model", "modelfile.save_model"),
    ("seqtag.modelfile", "load_model", "modelfile.load_model"),
    ("seqtag.metrics", "evaluate", "metrics.evaluate"),
)

LAYERS = tuple(name for _, _, name in WRAPPED)


class Patch:
    """Replaces every WRAPPED name with make(function, layer) between
    install() and uninstall()."""

    def __init__(self, make):
        self._make = make
        self._saved = []

    def install(self):
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._make(original, layer))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def poking(poke):
    """A Patch maker whose wrappers call poke() before the function: the
    hooks through which kernel.Bracket samples the kernel inside a unit."""

    def make(fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            poke()
            return fn(*args, **kwargs)

        return wrapper

    return make


class Tracer:
    """Records spans while installed; `unit` names the timed unit that
    new spans belong to."""

    def __init__(self):
        self.spans = []        # (layer, start, end, parent index, unit, self_s)
        self.rows = {}         # unit -> rows passed to adam_step_rows
        self.unit = None
        self._stack = []       # open span indices
        self._child = []       # seconds covered by children, per open span
        self._patch = Patch(self._wrap)
        self.install = self._patch.install
        self.uninstall = self._patch.uninstall

    def _wrap(self, fn, layer):
        spans, stack, child = self.spans, self._stack, self._child
        counts_rows = layer == "neural.adam.adam_step_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                covered = child.pop()
                parent = stack[-1] if stack else -1
                if child:
                    child[-1] += ended - started
                spans[index] = (layer, started, ended, parent, self.unit,
                                ended - started - covered)
                if counts_rows:
                    self.rows[self.unit] = self.rows.get(self.unit, 0) + len(args[1])

        return wrapper

    def totals(self, unit):
        """{layer: (self seconds, calls)} over the spans of one unit."""
        out = {}
        for layer, _, _, _, span_unit, self_s in self.spans:
            if span_unit == unit:
                seconds, calls = out.get(layer, (0.0, 0))
                out[layer] = (seconds + self_s, calls + 1)
        return out

    def write(self, path):
        """Every span as [layer, start, end, parent, unit, self_s]; times
        are seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [layer, round(start - origin, 9), round(end - origin, 9), parent,
             unit, round(self_s, 9)]
            for layer, start, end, parent, unit, self_s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent", "unit",
                                  "self_s"], "spans": rows}, fh)
