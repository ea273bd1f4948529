"""Evaluation protocol: span matching, task scores."""

import numpy as np
import pytest

from danqa.labels import COMPAT, SATISF, KIND_FUNCWORD, KIND_TARGET
from danqa.metrics import (SpanPred, match_targets, render_table,
                           score_for_task, spans_from_labels)
from util import reference_score


def target(start, end, pol):
    return SpanPred(start, end, pol, KIND_TARGET)


def funcword(start, end, pol):
    return SpanPred(start, end, pol, KIND_FUNCWORD)


def random_spans(rng, max_spans=5, length=20, with_func=False):
    """Non-overlapping random spans over a question of the given length."""
    spans = []
    pos = 0
    for _ in range(rng.integers(0, max_spans + 1)):
        pos += int(rng.integers(0, 3))
        width = int(rng.integers(1, 4))
        if pos + width > length:
            break
        kind = KIND_FUNCWORD if with_func and rng.random() < 0.4 else KIND_TARGET
        spans.append(SpanPred(pos, pos + width, int(rng.integers(1, 4)), kind))
        pos += width
    return spans


class TestSpansFromLabels:
    def test_single_entity_run(self):
        spans = spans_from_labels(["O", "C", "C", "O"], COMPAT)
        assert spans == [target(1, 3, 1)]

    def test_function_expression_labels(self):
        spans = spans_from_labels(["F-S", "F-S", "S", "O"], SATISF)
        assert spans == [funcword(0, 2, 1), target(2, 3, 1)]

    def test_polarity_change_splits_runs(self):
        spans = spans_from_labels(["C", "I"], COMPAT)
        assert spans == [target(0, 1, 1), target(1, 2, 2)]


class TestMatchTargets:
    def test_exact_match(self):
        matches, up, ug = match_targets([target(2, 4, 1)], [target(2, 4, 1)])
        assert matches == [(0, 0, 1.0)]
        assert up == [] and ug == []

    def test_half_overlap_is_positive(self):
        matches, _, _ = match_targets([target(0, 1, 1)], [target(0, 2, 1)])
        assert matches == [(0, 0, 0.5)]

    def test_third_overlap_is_negative(self):
        matches, up, ug = match_targets([target(0, 1, 1)], [target(0, 3, 1)])
        assert matches == []
        assert up == [0] and ug == [0]

    def test_greedy_prefers_higher_overlap(self):
        preds = [target(0, 2, 1), target(0, 4, 1)]
        golds = [target(0, 4, 1)]
        matches, up, _ = match_targets(preds, golds)
        assert matches == [(1, 0, 1.0)]
        assert up == [0]

    def test_tie_broken_by_leftmost_prediction(self):
        preds = [target(4, 6, 1), target(0, 2, 1)]
        golds = [target(0, 2, 1), target(4, 6, 1)]
        matches, _, _ = match_targets(preds, golds)
        assert set(matches) == {(1, 0, 1.0), (0, 1, 1.0)}


class TestScoreCompat:
    @pytest.mark.parametrize("task", ["compat", "satisf"])
    def test_perfect_agreement(self, task):
        golds = [[target(1, 3, 1)], [target(0, 2, 2), target(5, 6, 3)],
                 [funcword(0, 2, 1), target(2, 3, 1)]]
        rep = score_for_task(task, golds, golds)
        assert rep.avg_f1 == 1.0
        assert rep.extraction_f1 == 1.0
        assert rep.polarity_acc == 1.0

    def test_polarity_mismatch_hand_case(self):
        golds = [[target(2, 4, 1)]]
        preds = [[target(2, 4, 2)]]
        rep = score_for_task("compat", preds, golds)
        assert rep.extraction_f1 == 1.0
        assert rep.polarity_acc == 0.0
        assert rep.per_class[1]["fn"] == 1
        assert rep.per_class[2]["fp"] == 0  # matched prediction is not an FP
        assert rep.avg_f1 == 0.0

    def test_empty_everything_is_perfect(self):
        rep = score_for_task("compat", [[]], [[]])
        assert rep.avg_f1 == 1.0
        assert rep.extraction_f1 == 1.0
        assert rep.polarity_acc == 1.0

    def test_reference_oracle_agreement(self):
        rng = np.random.default_rng(42)
        for case in range(200):
            n_ex = int(rng.integers(1, 4))
            preds = [random_spans(rng) for _ in range(n_ex)]
            golds = [random_spans(rng) for _ in range(n_ex)]
            rep = score_for_task("compat", preds, golds)
            ref = reference_score("compat", preds, golds)
            assert rep.avg_f1 == ref["avg_f1"], f"case {case}"
            assert rep.extraction_f1 == ref["extraction_f1"], f"case {case}"
            assert rep.polarity_acc == ref["polarity_acc"], f"case {case}"
            for c in (1, 2, 3):
                got = (rep.per_class[c]["tp"], rep.per_class[c]["fp"],
                       rep.per_class[c]["fn"])
                assert got == ref["per_class"][c], f"case {case} class {c}"


class TestScoreSatisf:
    def test_missing_gold_function_word_clause(self):
        golds = [[target(2, 4, 1)]]  # no gold function words at all
        preds = [[target(2, 4, 1)]]
        rep = score_for_task("satisf", preds, golds)
        assert rep.extraction_f1 == 1.0
        assert rep.avg_f1 == 1.0

    def test_conjunction_requires_function_word_hit(self):
        golds = [[funcword(0, 1, 1), target(2, 4, 1)]]
        preds = [[target(2, 4, 1)]]  # correct target, no function words
        rep = score_for_task("satisf", preds, golds)
        assert rep.counts["extraction_tp"] == 0
        assert rep.extraction_f1 == 0.0

    def test_function_word_hit_ignores_polarity(self):
        golds = [[funcword(0, 1, 1), target(2, 4, 1)]]
        preds = [[funcword(0, 1, 3), target(2, 4, 1)]]
        rep = score_for_task("satisf", preds, golds)
        assert rep.extraction_f1 == 1.0
        assert rep.polarity_acc == 1.0

    def test_function_expression_exact_match(self):
        spans = spans_from_labels(["F-S", "F-S", "S", "O"], SATISF)
        rep = score_for_task("satisf", [spans], [spans])
        assert rep.avg_f1 == 1.0
        assert rep.extraction_f1 == 1.0
        assert rep.polarity_acc == 1.0

    def test_reference_oracle_agreement(self):
        rng = np.random.default_rng(202)
        for case in range(200):
            n_ex = int(rng.integers(1, 4))
            preds = [random_spans(rng, with_func=True) for _ in range(n_ex)]
            golds = [random_spans(rng, with_func=True) for _ in range(n_ex)]
            rep = score_for_task("satisf", preds, golds)
            ref = reference_score("satisf", preds, golds)
            assert rep.avg_f1 == ref["avg_f1"], f"case {case}"
            assert rep.extraction_f1 == ref["extraction_f1"], f"case {case}"
            assert rep.polarity_acc == ref["polarity_acc"], f"case {case}"


class TestInvariants:
    def test_self_score_is_perfect_for_any_gold(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            golds = [random_spans(rng, with_func=True)
                     for _ in range(int(rng.integers(1, 4)))]
            for task in ("compat", "satisf"):
                rep = score_for_task(task, golds, golds)
                assert rep.avg_f1 == 1.0
                assert rep.extraction_f1 == 1.0
                assert rep.polarity_acc == 1.0

    def test_removing_false_positive_never_lowers_precision(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            preds = [random_spans(rng)]
            golds = [random_spans(rng)]
            rep = score_for_task("compat", preds, golds)
            p_targets = preds[0]
            matches, unmatched_p, _ = match_targets(p_targets, golds[0])
            if not unmatched_p:
                continue
            drop = unmatched_p[0]
            fewer = [[s for i, s in enumerate(p_targets) if i != drop]]
            rep2 = score_for_task("compat", fewer, golds)
            for c in (1, 2, 3):
                assert (rep2.per_class[c]["precision"]
                        >= rep.per_class[c]["precision"] - 1e-12)

    def test_tp_plus_fn_equals_gold_count(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            preds = [random_spans(rng) for _ in range(2)]
            golds = [random_spans(rng) for _ in range(2)]
            rep = score_for_task("compat", preds, golds)
            for c in (1, 2, 3):
                n_gold = sum(1 for ex in golds for s in ex if s.polarity == c)
                assert rep.per_class[c]["tp"] + rep.per_class[c]["fn"] == n_gold


class TestRenderTable:
    def test_layout(self):
        rep = score_for_task("compat", [[target(0, 2, 1)]], [[target(0, 2, 1)]])
        text = render_table("compat", [("dan", rep), ("qa-s-blstm", rep)])
        lines = text.splitlines()
        assert "PCA F1" in lines[0] and "CER F1" in lines[0]
        assert "Polar. Acc." in lines[0]
        assert len(lines) == 4  # header, rule, two methods
        assert lines[2].startswith("dan")
        assert "100.0" in lines[2]

    def test_satisf_headers(self):
        rep = score_for_task("satisf", [[]], [[]])
        text = render_table("satisf", [("dan", rep)])
        assert "FSA F1" in text and "FNR F1" in text
