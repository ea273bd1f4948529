"""Fast tests of the benchmark's own checker, scorer, input files and tracer."""

import json

import numpy as np
import pytest

import checks
import inputs
from danqa import tensor as tc
from danqa.corpus import build_vocab, encode, synth_generate
from danqa.embeddings import init_table, load_vectors
from danqa.labels import get_space
from danqa.metrics import score_for_task, spans_from_labels
from danqa.model import Model, ModelConfig, decode_tuples
from danqa.training import batch_loss

T_Q = 24


def as_dicts(pairs):
    return [{"id": p.id, "product_id": p.product_id, "question": p.question_tokens,
             "answer": p.answer_tokens, "labels": p.gold_labels, "task": p.task}
            for p in pairs]


def perfect_rows(pairs):
    return [{"id": p["id"], "product_id": p["product_id"],
             "tuples": checks.expected_tuples(p, T_Q)} for p in pairs]


def test_expected_tuples_of_a_satisf_question():
    pair = {"id": "x", "product_id": "tab", "task": "satisf",
            "question": ["can", "you", "use", "this", "for", "video", "editing", "?"],
            "labels": ["O", "O", "F-UN", "O", "F-UN", "UN", "UN", "O"]}
    assert checks.expected_tuples(pair, T_Q) == [{
        "product_id": "tab", "target": "video editing", "target_span": [5, 7],
        "function_words": ["use", "for"], "function_spans": [[2, 3], [4, 5]],
        "polarity": 2}]


@pytest.mark.parametrize("task", ["compat", "satisf"])
def test_expected_tuples_match_the_decoder_on_gold_labels(task):
    for pair in synth_generate(300, task, seed=4):
        space = get_space(task)
        want = [t.to_json() for t in decode_tuples(
            pair.gold_labels, pair.question_tokens, pair.product_id, space)]
        assert checks.expected_tuples(as_dicts([pair])[0], T_Q) == want


@pytest.mark.parametrize("task", ["compat", "satisf"])
def test_scorer_agrees_with_danqa_metrics_on_random_labels(task):
    """Random predicted labels, decoded to tuples, score as danqa.metrics does."""
    rng = np.random.default_rng(7)
    space = get_space(task)
    pairs = as_dicts(synth_generate(400, task, seed=5))
    rows, pred_spans, gold_spans = [], [], []
    for pair in pairs:
        n = len(pair["question"])
        labels = list(rng.integers(0, len(space), n) * (rng.random(n) < 0.5))
        if rng.random() < 0.3:  # some exact copies of gold
            labels = [space.index(lab) for lab in pair["labels"]]
        tuples = decode_tuples(labels, pair["question"], pair["product_id"], space)
        rows.append({"id": pair["id"], "product_id": pair["product_id"],
                     "tuples": [t.to_json() for t in tuples]})
        pred_spans.append(spans_from_labels(labels, space))
        gold_spans.append(spans_from_labels(pair["labels"], space))
    checks.check_predictions(pairs, rows, T_Q)
    want = score_for_task(task, pred_spans, gold_spans).avg_f1
    assert abs(checks.score(pairs, rows, T_Q) - want) <= 1e-12
    assert 0.0 < want < 1.0


@pytest.mark.parametrize("task", ["compat", "satisf"])
def test_perfect_predictions_pass_and_score_one(task):
    pairs = as_dicts(synth_generate(50, task, seed=6))
    rows = perfect_rows(pairs)
    checks.check_predictions(pairs, rows, T_Q)
    assert checks.score(pairs, rows, T_Q) == 1.0


def _wrong_text(rows):
    rows[3]["tuples"][0]["target"] += " x"


def _swapped_lines(rows):
    rows[1], rows[2] = rows[2], rows[1]


def _span_past_question(rows):
    rows[0]["tuples"][0]["target_span"][1] = 99


def _bad_polarity(rows):
    rows[5]["tuples"][0]["polarity"] = 4


def _missing_line(rows):
    rows.pop()


def _wrong_function_word(rows):
    rows[0]["tuples"][0]["function_words"][0] = "fits"


@pytest.mark.parametrize("corrupt", [_wrong_text, _swapped_lines,
                                     _span_past_question, _bad_polarity,
                                     _missing_line, _wrong_function_word])
def test_corrupted_prediction_file_is_rejected(tmp_path, corrupt):
    pairs = as_dicts(synth_generate(20, "satisf", seed=8))
    rows = perfect_rows(pairs)
    corrupt(rows)
    path = tmp_path / "tuples.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(checks.CheckError):
        checks.check_predictions(pairs, checks.read_jsonl(path), T_Q)


def test_vector_files_load_and_compose_ngrams(tmp_path):
    pairs = synth_generate(100, "compat", seed=9)
    tokens = sorted({t for p in pairs for t in p.question_tokens + p.answer_tokens})
    vec, grams = tmp_path / "vec.txt", tmp_path / "grams.txt"
    sizes = inputs.write_vector_files(tokens, 12, 3, vec, grams)
    for path in (vec, grams):
        lines = path.read_text().splitlines()
        assert not any(line.endswith(" ") for line in lines)
        assert int(lines[0].split()[0]) == len(lines) - 1
    loaded = load_vectors(vec, 12, ngram_path=grams)
    assert len(loaded.words) == sizes["vector_lines"]
    assert len(loaded.ngrams) == sizes["ngram_lines"]
    gram_only = [t for t in tokens if t not in loaded.words
                 and any(g in loaded.ngrams for g in inputs.char_ngrams(t))]
    assert len(gram_only) >= sizes["ngram_only"] > 0
    vocab = build_vocab(pairs)
    table = init_table(vocab, loaded, 12, seed=0).table.data
    tok = gram_only[0]
    hits = [loaded.ngrams[g] for g in inputs.char_ngrams(tok) if g in loaded.ngrams]
    assert np.array_equal(table[:, vocab.index(tok)], np.mean(hits, axis=0))
    assert inputs.write_vector_files(tokens, 12, 3, tmp_path / "v2",
                                     tmp_path / "g2") == sizes
    assert (tmp_path / "v2").read_bytes() == vec.read_bytes()


def _loss_and_grads(model, examples):
    model.zero_grad()
    loss = batch_loss(model, examples, training=True,
                      rng=np.random.default_rng(0))
    loss.backward()
    return loss.item(), {k: p.grad.copy() for k, p in model.params().items()}


def test_tracer_changes_no_value_and_restores_everything():
    import tracing
    pairs = synth_generate(12, "compat", seed=10)
    vocab = build_vocab(pairs)
    cfg = ModelConfig(variant="dan", d_e=8, blstm_dim=4, t_q=10, t_a=12)
    examples = [encode(p, vocab, cfg) for p in pairs]
    before = dict(vars(tc))
    plain = _loss_and_grads(Model(cfg, vocab.size), examples)
    with tracing.Tracer() as tracer:
        traced = _loss_and_grads(Model(cfg, vocab.size), examples)
    assert dict(vars(tc)) == before
    assert plain[0] == traced[0]
    for name, grad in plain[1].items():
        assert np.array_equal(grad, traced[1][name]), name
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.PER_LAYER)
    for name in ("layers.ctx1_qa.fwd_s", "layers.attention.bwd_s",
                 "tensor.lstm_cell.bwd_s", "layers.head.bwd_s"):
        assert metrics[name] > 0.0, name
    real = sum(ex.q_mask.sum() + ex.a_mask.sum() for ex in examples)
    # per direction, the question and the answer tokens each pass through
    # three BLSTMs: ctx1_q or ctx1_a, ctx1_qa, and ctx2_q or ctx2_a
    assert metrics["layers.lstm.cell_steps"] == 2 * 12 * (10 + 12 + 22 + 10 + 12)
    assert metrics["layers.lstm.real_step_ratio"] == pytest.approx(
        2 * 3 * real / metrics["layers.lstm.cell_steps"])
