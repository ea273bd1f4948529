"""Span-overlap evaluation for both tasks.

A predicted target counts as a positive extraction when it covers at
least half of a gold target's tokens (overlap measured against the gold
span length). Matching is one-to-one, greedy by descending overlap with
leftmost-prediction tie-breaks. A span is a maximal run of one label, so
its polarity is the polarity of that label. The compatibility score
macro-averages F1 over the three polarity classes; the extraction-only F1
ignores polarity; polarity accuracy is measured over positive extractions.

For satisfiability, an extraction additionally needs a function-word hit:
some predicted function-word position that is a gold function-word
position (any polarity), unless the gold example has no function words at
all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .labels import (KIND_FUNCWORD, KIND_OTHER, KIND_TARGET, LabelSpace,
                     label_runs)

POLARITY_CLASSES = (1, 2, 3)


@dataclass(frozen=True)
class SpanPred:
    start: int
    end: int
    polarity: int
    kind: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ContractError(f"bad span [{self.start}, {self.end})")

    def positions(self):
        return range(self.start, self.end)


def spans_from_labels(labels, space: LabelSpace):
    """Maximal same-label runs of a label sequence as typed spans.

    ``labels`` holds label strings or indices; one outside ``space``
    raises ``ContractError``.
    """
    spans = []
    for s, e, lab in label_runs(space.indices(labels)):
        kind = space.kind(lab)
        if kind != KIND_OTHER:
            spans.append(SpanPred(s, e, space.polarity(lab), kind))
    return spans


def overlap_ratio(pred: SpanPred, gold: SpanPred) -> float:
    inter = min(pred.end, gold.end) - max(pred.start, gold.start)
    return max(0, inter) / (gold.end - gold.start)


def match_targets(preds, golds):
    """One-to-one greedy matching of predicted to gold target spans.

    Returns (matches, unmatched_pred_indices, unmatched_gold_indices)
    where matches are (pred_idx, gold_idx, overlap_ratio) triples and a
    candidate pair needs overlap of at least half the gold span.
    """
    candidates = []
    for pi, p in enumerate(preds):
        for gi, g in enumerate(golds):
            r = overlap_ratio(p, g)
            if r >= 0.5:
                candidates.append((-r, p.start, g.start, pi, gi))
    candidates.sort()
    matches = []
    used_p, used_g = set(), set()
    for negr, _, _, pi, gi in candidates:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        matches.append((pi, gi, -negr))
    unmatched_p = [i for i in range(len(preds)) if i not in used_p]
    unmatched_g = [i for i in range(len(golds)) if i not in used_g]
    return matches, unmatched_p, unmatched_g


@dataclass
class MetricsReport:
    per_class: dict
    avg_f1: float
    extraction_f1: float
    polarity_acc: float
    counts: dict

    def to_json(self) -> dict:
        return {
            "avg_f1": self.avg_f1,
            "extraction_f1": self.extraction_f1,
            "polarity_acc": self.polarity_acc,
            "per_class": {str(c): dict(v) for c, v in self.per_class.items()},
            "counts": dict(self.counts),
        }


def _prf(tp: int, fp: int, fn: int):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1


def score_for_task(task: str, preds_per_ex, golds_per_ex) -> MetricsReport:
    """Score per-example span lists; see the module docstring.

    Compatibility counts entity spans with polarity; satisfiability adds
    the function-word hit condition.
    """
    require_funcword = task == "satisf"
    if len(preds_per_ex) != len(golds_per_ex):
        raise ContractError(
            f"prediction/gold example counts differ: {len(preds_per_ex)} vs "
            f"{len(golds_per_ex)}"
        )
    tp = {c: 0 for c in POLARITY_CLASSES}
    fp = {c: 0 for c in POLARITY_CLASSES}
    gold_n = {c: 0 for c in POLARITY_CLASSES}
    ex_tp = ex_fp = ex_gold = 0
    n_scored = n_pol_correct = 0

    for preds, golds in zip(preds_per_ex, golds_per_ex):
        p_targets = [s for s in preds if s.kind == KIND_TARGET]
        g_targets = [s for s in golds if s.kind == KIND_TARGET]
        for s in g_targets:
            gold_n[s.polarity] += 1
        ex_gold += len(g_targets)

        if require_funcword:
            p_func = {i for s in preds if s.kind == KIND_FUNCWORD
                      for i in s.positions()}
            g_func = {i for s in golds if s.kind == KIND_FUNCWORD
                      for i in s.positions()}
            funcword_ok = (not g_func) or bool(p_func & g_func)
        else:
            funcword_ok = True

        matches, unmatched_p, _ = match_targets(p_targets, g_targets)
        for pi, gi, _ in matches:
            if not funcword_ok:
                continue
            ex_tp += 1
            n_scored += 1
            if p_targets[pi].polarity == g_targets[gi].polarity:
                n_pol_correct += 1
                tp[g_targets[gi].polarity] += 1
        for pi in unmatched_p:
            ex_fp += 1
            fp[p_targets[pi].polarity] += 1

    per_class = {}
    f1s = []
    for c in POLARITY_CLASSES:
        fn_c = gold_n[c] - tp[c]
        precision, recall, f1 = _prf(tp[c], fp[c], fn_c)
        per_class[c] = {
            "precision": precision, "recall": recall, "f1": f1,
            "tp": tp[c], "fp": fp[c], "fn": fn_c,
        }
        # average only over classes with counted events; score(g, g) must
        # stay 1.0 when a class never occurs
        if tp[c] + fp[c] + fn_c > 0:
            f1s.append(f1)
    avg_f1 = sum(f1s) / len(f1s) if f1s else 1.0

    ex_fn = ex_gold - ex_tp
    if ex_tp + ex_fp + ex_fn == 0:
        extraction_f1 = 1.0
    else:
        extraction_f1 = _prf(ex_tp, ex_fp, ex_fn)[2]
    polarity_acc = n_pol_correct / n_scored if n_scored > 0 else 1.0

    return MetricsReport(
        per_class=per_class,
        avg_f1=avg_f1,
        extraction_f1=extraction_f1,
        polarity_acc=polarity_acc,
        counts={
            "extraction_tp": ex_tp, "extraction_fp": ex_fp,
            "extraction_fn": ex_fn, "scored_extractions": n_scored,
            "polarity_correct": n_pol_correct,
        },
    )


TABLE_HEADERS = {
    "compat": ("PCA F1", "CER F1", "Polar. Acc."),
    "satisf": ("FSA F1", "FNR F1", "Polar. Acc."),
}


def render_table(task: str, rows) -> str:
    """Rows of (method, report) as a fixed-width percentage table."""
    avg_h, ext_h, pol_h = TABLE_HEADERS[task]
    name_w = max([len("Method")] + [len(m) for m, _ in rows])
    lines = [f"{'Method':<{name_w}}  {avg_h:>8}  {ext_h:>8}  {pol_h:>11}"]
    lines.append("-" * len(lines[0]))
    for method, rep in rows:
        data = rep.to_json() if isinstance(rep, MetricsReport) else rep
        lines.append(
            f"{method:<{name_w}}  "
            f"{100 * data['avg_f1']:>8.1f}  "
            f"{100 * data['extraction_f1']:>8.1f}  "
            f"{100 * data['polarity_acc']:>11.1f}"
        )
    return "\n".join(lines)
