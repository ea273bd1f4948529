"""Output checks for the benchmark, written apart from danqa.

Nothing here imports danqa: the label tables, span runs, tuple pairing and
span-overlap scoring are re-derived from the documented protocol, so a
fault in danqa.metrics or danqa.model.decode_tuples cannot hide itself.

- ``expected_tuples`` turns gold labels into the tuples a perfect model
  would emit from ``danqa predict``.
- ``check_predictions`` validates a ``danqa predict`` output file against
  its input pairs (order, ids, spans, texts, polarities).
- ``score`` recomputes the task F1 from predicted tuples and gold labels.
"""

from __future__ import annotations

import json

TARGET = "target"
FUNCWORD = "funcword"

# label -> (kind, polarity); polarity 1 = yes, 2 = no, 3 = uncertain
LABELS = {
    "compat": {"C": (TARGET, 1), "I": (TARGET, 2), "U": (TARGET, 3)},
    "satisf": {"S": (TARGET, 1), "UN": (TARGET, 2), "U": (TARGET, 3),
               "F-S": (FUNCWORD, 1), "F-UN": (FUNCWORD, 2),
               "F-U": (FUNCWORD, 3)},
}
POLARITIES = (1, 2, 3)
FUNCWORD_WINDOW = 3  # largest token gap at which a function word joins a target
TUPLE_KEYS = {"product_id", "target", "target_span", "function_words",
              "function_spans", "polarity"}


class CheckError(Exception):
    """A ``danqa predict`` output that breaks the output contract."""


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def label_runs(labels, task: str):
    """Maximal same-label runs of non-O labels as (start, end, kind, polarity)."""
    table = LABELS[task]
    runs = []
    i = 0
    while i < len(labels):
        lab = labels[i]
        j = i + 1
        while j < len(labels) and labels[j] == lab:
            j += 1
        if lab != "O":
            kind, pol = table[lab]
            runs.append((i, j, kind, pol))
        i = j
    return runs


def _gap(a, b) -> int:
    """Token distance of two disjoint spans; adjacent spans are 1 apart."""
    if a[1] <= b[0]:
        return b[0] - a[1] + 1
    if b[1] <= a[0]:
        return a[0] - b[1] + 1
    return 0


def expected_tuples(pair: dict, t_q: int) -> list:
    """The tuples ``danqa predict`` should write for a pair's gold labels."""
    tokens = pair["question"][:t_q]
    runs = label_runs(pair["labels"][:t_q], pair["task"])
    targets = [r for r in runs if r[2] == TARGET]
    funcs = [r for r in runs if r[2] == FUNCWORD]
    out, used = [], set()
    for ts, te, _, pol in targets:
        words, spans = [], []
        for fi, (fs, fe, _, fpol) in enumerate(funcs):
            if fpol == pol and _gap((fs, fe), (ts, te)) <= FUNCWORD_WINDOW:
                words.append(" ".join(tokens[fs:fe]))
                spans.append([fs, fe])
                used.add(fi)
        out.append({"product_id": pair["product_id"],
                    "target": " ".join(tokens[ts:te]), "target_span": [ts, te],
                    "function_words": words, "function_spans": spans,
                    "polarity": pol})
    for fi, (fs, fe, _, fpol) in enumerate(funcs):
        if fi not in used:
            out.append({"product_id": pair["product_id"], "target": "",
                        "target_span": None,
                        "function_words": [" ".join(tokens[fs:fe])],
                        "function_spans": [[fs, fe]], "polarity": fpol})
    return out


def _check_span(span, n_tokens: int, where: str):
    if (not isinstance(span, list) or len(span) != 2
            or not all(type(x) is int for x in span)
            or not 0 <= span[0] < span[1] <= n_tokens):
        raise CheckError(f"{where}: span {span!r} is not inside the "
                         f"{n_tokens}-token question")


def check_predictions(pairs: list, rows: list, t_q: int):
    """Raise CheckError unless ``rows`` is a valid prediction file for ``pairs``.

    One row per pair in input order, with the pair's id and product; every
    span inside the (truncated) question; every target and function-word
    text equal to the question tokens of its span; every polarity 1, 2 or 3;
    function words only in the satisfiability task.
    """
    if len(rows) != len(pairs):
        raise CheckError(f"{len(rows)} prediction lines for {len(pairs)} pairs")
    for k, (pair, row) in enumerate(zip(pairs, rows)):
        where = f"line {k + 1} ({pair['id']})"
        if row.get("id") != pair["id"]:
            raise CheckError(f"{where}: id {row.get('id')!r} out of order")
        if row.get("product_id") != pair["product_id"]:
            raise CheckError(f"{where}: product {row.get('product_id')!r}")
        tokens = pair["question"][:t_q]
        for tup in row.get("tuples", ()):
            if set(tup) != TUPLE_KEYS:
                raise CheckError(f"{where}: tuple keys {sorted(tup)}")
            if tup["polarity"] not in POLARITIES:
                raise CheckError(f"{where}: polarity {tup['polarity']!r}")
            if tup["product_id"] != pair["product_id"]:
                raise CheckError(f"{where}: tuple product {tup['product_id']!r}")
            span = tup["target_span"]
            if span is None:
                if tup["target"] != "" or not tup["function_spans"]:
                    raise CheckError(f"{where}: tuple with neither a target "
                                     f"span nor function words")
            else:
                _check_span(span, len(tokens), where)
                if tup["target"] != " ".join(tokens[span[0]:span[1]]):
                    raise CheckError(f"{where}: target {tup['target']!r} is not "
                                     f"the question text of {span}")
            if len(tup["function_words"]) != len(tup["function_spans"]):
                raise CheckError(f"{where}: function words and spans differ "
                                 f"in number")
            if tup["function_spans"] and pair["task"] != "satisf":
                raise CheckError(f"{where}: function words in a "
                                 f"{pair['task']} prediction")
            for text, fspan in zip(tup["function_words"], tup["function_spans"]):
                _check_span(fspan, len(tokens), where)
                if text != " ".join(tokens[fspan[0]:fspan[1]]):
                    raise CheckError(f"{where}: function word {text!r} is not "
                                     f"the question text of {fspan}")


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _match(preds, golds):
    """One-to-one greedy matching of (start, end) spans.

    A candidate needs an overlap of at least half the gold span; candidates
    are taken by descending overlap, ties to the leftmost prediction and
    then the leftmost gold span.
    """
    cands = []
    for pi, (ps, pe) in enumerate(preds):
        for gi, (gs, ge) in enumerate(golds):
            ratio = max(0, min(pe, ge) - max(ps, gs)) / (ge - gs)
            if ratio >= 0.5:
                cands.append((-ratio, ps, gs, pi, gi))
    cands.sort()
    pairs, used_p, used_g = [], set(), set()
    for _, _, _, pi, gi in cands:
        if pi not in used_p and gi not in used_g:
            used_p.add(pi)
            used_g.add(gi)
            pairs.append((pi, gi))
    return pairs


def score(pairs: list, rows: list, t_q: int) -> float:
    """Task F1 of predicted tuples against gold labels.

    Macro F1 over the polarity classes that occur in the gold labels or
    among the false positives. An extraction is a predicted target matched
    to a gold target; it is a true positive of its gold class when the
    polarities agree. Unmatched predictions are false positives of their own
    class. Satisfiability also requires a function-word hit (a predicted
    function-word position that is a gold one) unless the pair has no gold
    function words.
    """
    tp = dict.fromkeys(POLARITIES, 0)
    fp = dict.fromkeys(POLARITIES, 0)
    gold_n = dict.fromkeys(POLARITIES, 0)
    for pair, row in zip(pairs, rows, strict=True):
        runs = label_runs(pair["labels"][:t_q], pair["task"])
        gold_t = [(s, e, pol) for s, e, kind, pol in runs if kind == TARGET]
        gold_f = {i for s, e, kind, _ in runs if kind == FUNCWORD
                  for i in range(s, e)}
        pred_t = [(t["target_span"][0], t["target_span"][1], t["polarity"])
                  for t in row["tuples"] if t["target_span"] is not None]
        pred_f = {i for t in row["tuples"] for s, e in t["function_spans"]
                  for i in range(s, e)}
        for _, _, pol in gold_t:
            gold_n[pol] += 1
        hit = pair["task"] != "satisf" or not gold_f or bool(pred_f & gold_f)
        matched = _match([p[:2] for p in pred_t], [g[:2] for g in gold_t])
        for pi, gi in matched:
            if hit and pred_t[pi][2] == gold_t[gi][2]:
                tp[gold_t[gi][2]] += 1
        taken = {pi for pi, _ in matched}
        for pi, (_, _, pol) in enumerate(pred_t):
            if pi not in taken:
                fp[pol] += 1
    f1s = [_f1(tp[c], fp[c], gold_n[c] - tp[c]) for c in POLARITIES
           if fp[c] + gold_n[c] > 0]
    return sum(f1s) / len(f1s) if f1s else 1.0
