"""Token-level evaluation: accuracy, per-label precision/recall/F1,
macro and weighted F1, and the entity-by-position tag-wise table.

Conventions: any 0/0 ratio is defined as 0; macro F1 averages only over
labels with gold support > 0 (zero-support labels show as absent cells
in the tag-wise table rather than dragging the average down).
"""

from __future__ import annotations

from dataclasses import dataclass

from seqtag.corpus import ENTITY_TYPES, OUTSIDE, POSITIONS, NerLabel

MACRO_CONVENTION = "macro F1 averages labels with gold support > 0"


@dataclass(frozen=True)
class LabelScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    weighted_f1: float
    per_label: dict
    tagwise: dict  # entity -> {position -> f1}, populated cells only


def _check_shapes(gold, pred):
    if len(gold) != len(pred):
        raise ValueError(
            f"gold has {len(gold)} sentences but predictions have {len(pred)}"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise ValueError(
                f"sentence {i}: gold length {len(g)} != prediction length {len(p)}"
            )


def _accuracy(scores, correct):
    total = sum(s.support for s in scores.values())
    if total == 0:
        raise ValueError("no tokens to score")
    return correct / total


def token_accuracy(gold, pred):
    """Fraction of positions where prediction equals gold."""
    return _accuracy(*_score_labels(gold, pred))


def per_label_prf(gold, pred):
    """precision/recall/F1/support per label over gold or predicted labels."""
    return _score_labels(gold, pred)[0]


def _score_labels(gold, pred):
    """per_label_prf's scores and the number of correct positions."""
    _check_shapes(gold, pred)
    tp, fp, fn, support = {}, {}, {}, {}
    for g_seq, p_seq in zip(gold, pred):
        for g, p in zip(g_seq, p_seq):
            support[g] = support.get(g, 0) + 1
            if g == p:
                tp[g] = tp.get(g, 0) + 1
            else:
                fn[g] = fn.get(g, 0) + 1
                fp[p] = fp.get(p, 0) + 1
    scores = {}
    for label in set(support) | set(fp):
        t = tp.get(label, 0)
        p_den = t + fp.get(label, 0)
        r_den = t + fn.get(label, 0)
        precision = t / p_den if p_den else 0.0
        recall = t / r_den if r_den else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores[label] = LabelScore(precision, recall, f1, support.get(label, 0))
    return scores, sum(tp.values())


def macro_f1(per_label):
    """Unweighted mean F1 over labels with gold support."""
    supported = [s.f1 for s in per_label.values() if s.support > 0]
    if not supported:
        raise ValueError("no label with gold support")
    return sum(supported) / len(supported)


def weighted_f1(per_label):
    """Support-weighted mean F1."""
    total = sum(s.support for s in per_label.values())
    if total == 0:
        raise ValueError("no label with gold support")
    return sum(s.support * s.f1 for s in per_label.values()) / total


def tagwise_report(gold, pred):
    """F1 per (entity, position); cells with zero gold support are absent.

    The outside label is reported under entity "O" position "B" to give
    it a single cell in the table.
    """
    return _tagwise(per_label_prf(gold, pred))


def _tagwise(scores):
    table = {}
    for label, score in scores.items():
        if score.support == 0 or not isinstance(label, NerLabel):
            continue
        if label == OUTSIDE:
            table.setdefault("O", {})["B"] = score.f1
        else:
            table.setdefault(label.entity, {})[label.position] = score.f1
    return table


def evaluate(gold, pred):
    scores, correct = _score_labels(gold, pred)
    return EvalReport(
        accuracy=_accuracy(scores, correct),
        macro_f1=macro_f1(scores),
        weighted_f1=weighted_f1(scores),
        per_label=scores,
        tagwise=_tagwise(scores),
    )


def _label_sort_key(label):
    if isinstance(label, NerLabel):
        if label.is_outside:
            return (1, 0, 0)
        return (0, ENTITY_TYPES.index(label.entity), POSITIONS.index(label.position))
    return (2, 0, str(label))


def format_report(report):
    """Aligned text: summary, per-label block, then the tag-wise table."""
    lines = [
        f"# {MACRO_CONVENTION}",
        f"accuracy     {report.accuracy:.4f}",
        f"weighted_f1  {report.weighted_f1:.4f}",
        f"macro_f1     {report.macro_f1:.4f}",
        "",
        f"{'label':<12} {'prec':>8} {'recall':>8} {'f1':>8} {'support':>8}",
    ]
    for label in sorted(report.per_label, key=_label_sort_key):
        s = report.per_label[label]
        lines.append(
            f"{str(label):<12} {s.precision:>8.4f} {s.recall:>8.4f} "
            f"{s.f1:>8.4f} {s.support:>8}"
        )
    lines.append("")
    lines.append(f"{'Tags':<6} " + " ".join(f"{p:>8}" for p in POSITIONS))
    for entity in ENTITY_TYPES + ("O",):
        row = report.tagwise.get(entity, {})
        cells = []
        for position in POSITIONS:
            if entity == "O" and position != "B":
                cells.append(f"{'-':>8}")
            elif position in row:
                cells.append(f"{row[position]:>8.4f}")
            else:
                cells.append(f"{'-':>8}")
        lines.append(f"{entity:<6} " + " ".join(cells))
    return "\n".join(lines)


def report_to_csv(report):
    """CSV rows label,precision,recall,f1,support plus a summary line."""
    lines = ["label,precision,recall,f1,support"]
    for label in sorted(report.per_label, key=_label_sort_key):
        s = report.per_label[label]
        lines.append(f"{label},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f},{s.support}")
    lines.append("accuracy,macro_f1,weighted_f1")
    lines.append(f"{report.accuracy:.6f},{report.macro_f1:.6f},{report.weighted_f1:.6f}")
    return "\n".join(lines) + "\n"
