"""Acceptance criteria, one test per criterion with a printed verdict.

The heavy end-to-end runs live here; expect several minutes of CPU time
for the whole module.
"""

import json
import time

import numpy as np
import pytest

from danqa import gradcheck
from danqa.cli import main
from danqa.corpus import QAPair, build_vocab, encode, split, synth_generate
from danqa.labels import COMPAT, SATISF
from danqa.metrics import score_for_task
from danqa.model import Model, ModelConfig, decode_tuples, predict_labels
from danqa.training import TrainConfig, batch_loss, fit
from test_layers import attention
from test_metrics import random_spans
from util import reference_score

MICRO_PRESET = dict(d_e=64, blstm_dim=64, t_q=24, t_a=24)


def _verdict(ok, name, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' if detail else ''}{detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.mark.slow
def test_c1_gradient_suite():
    """Every parameter of every variant vs central finite differences."""
    started = time.monotonic()
    ok, results, elapsed = gradcheck.run(seed=0)
    worst = gradcheck.worst_entry(results)
    _verdict(ok and elapsed < 60.0, "C1 gradient suite",
             f"worst rel err {worst[2]:.2e} ({worst[0]}/{worst[1]}), "
             f"{elapsed:.1f}s over {len(results)} variants")
    assert time.monotonic() - started < 60.0


def test_c2_attention_laws():
    """Weight rows sum to one; uniform stories give uniform weights."""
    worst_sum = 0.0
    worst_uniform = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        src = rng.standard_normal((5, 8))
        story = rng.standard_normal((9, 8))
        _, weights = attention(src, story)
        worst_sum = max(worst_sum,
                        float(np.abs(weights.sum(axis=-1) - 1.0).max()))
        flat = np.tile(rng.standard_normal(8), (9, 1))
        _, uniform = attention(src, flat)
        worst_uniform = max(worst_uniform,
                            float(np.abs(uniform - 1.0 / 9).max()))
    _verdict(worst_sum <= 1e-9 and worst_uniform <= 1e-9,
             "C2 attention laws",
             f"row-sum dev {worst_sum:.2e}, uniformity dev {worst_uniform:.2e}")


@pytest.mark.slow
def test_c3_overfit_micro():
    """64 compatibility pairs memorized to 99% token accuracy in time."""
    started = time.monotonic()
    cfg = ModelConfig(variant="dan", task="compat", dropout_rate=0.1,
                      seed=7, **MICRO_PRESET)
    pairs = synth_generate(64, "compat", seed=7)
    vocab = build_vocab(pairs)
    examples = [encode(p, vocab, cfg) for p in pairs]
    model = Model(cfg, vocab.size)
    tcfg = TrainConfig(batch_size=128, max_epochs=300, patience=300, seed=7,
                       stop_at_token_acc=0.99)
    _, history, _ = fit(model, examples, examples, tcfg)
    elapsed = time.monotonic() - started
    acc = history[-1]["valid"]["token_acc"]
    _verdict(acc >= 0.99 and len(history) <= 300 and elapsed < 300.0,
             "C3 overfit", f"token acc {acc:.4f} after {len(history)} epochs "
             f"in {elapsed:.0f}s")


def test_c4_metric_oracle():
    """Scorers agree exactly with the independent reference implementation."""
    rng = np.random.default_rng(777)
    checked = 0
    for case in range(200):
        task = "compat" if case % 2 == 0 else "satisf"
        n_ex = int(rng.integers(1, 4))
        preds = [random_spans(rng, with_func=task == "satisf")
                 for _ in range(n_ex)]
        golds = [random_spans(rng, with_func=task == "satisf")
                 for _ in range(n_ex)]
        rep = score_for_task(task, preds, golds)
        ref = reference_score(task, preds, golds)
        assert rep.avg_f1 == ref["avg_f1"], f"case {case}"
        assert rep.extraction_f1 == ref["extraction_f1"], f"case {case}"
        assert rep.polarity_acc == ref["polarity_acc"], f"case {case}"
        checked += 1
    # 50 percent boundary inclusive on the gold side
    from danqa.metrics import SpanPred, match_targets
    from danqa.labels import KIND_TARGET
    half = match_targets([SpanPred(0, 1, 1, KIND_TARGET)],
                         [SpanPred(0, 2, 1, KIND_TARGET)])[0]
    third = match_targets([SpanPred(0, 1, 1, KIND_TARGET)],
                          [SpanPred(0, 3, 1, KIND_TARGET)])[0]
    assert half and not third
    # missing gold function words auto-pass the function-word clause
    missing = score_for_task("satisf", [[SpanPred(0, 2, 1, KIND_TARGET)]],
                           [[SpanPred(0, 2, 1, KIND_TARGET)]])
    assert missing.extraction_f1 == 1.0
    _verdict(checked == 200, "C4 metric oracle",
             "200 randomized cases, boundary and missing-function-word "
             "clauses included")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Shared end-to-end artifacts for C5 and C6."""
    return tmp_path_factory.mktemp("e2e")


@pytest.mark.slow
def test_c5_end_to_end_synthetic(e2e, capsys):
    started = time.monotonic()
    thresholds = {"compat": 0.90, "satisf": 0.85}
    scores = {}
    for task in ("compat", "satisf"):
        corpus = e2e / f"{task}.jsonl"
        assert main(["synth", "--n", "2000", "--task", task, "--seed",
                     str(1000 if task == "compat" else 2000),
                     "--out", str(corpus)]) == 0
        for seed in (11, 22, 33):
            out = e2e / f"{task}-s{seed}"
            assert main(["train", "--corpus", str(corpus), "--task", task,
                         "--preset", "micro", "--epochs", "14",
                         "--patience", "4", "--batch", "128",
                         "--seed", str(seed), "--out", str(out)]) == 0
            report = e2e / f"{task}-s{seed}.json"
            assert main(["eval", "--checkpoint", str(out / "best.ckpt"),
                         "--corpus", str(corpus), "--split", "test",
                         "--report-out", str(report)]) == 0
            data = json.loads(report.read_text())
            scores[(task, seed)] = data["avg_f1"]
            assert data["avg_f1"] >= thresholds[task], (
                f"{task} seed {seed}: test F1 {data['avg_f1']:.4f}"
            )

    # four-variant comparison on the compatibility corpus, one seed
    corpus = e2e / "compat.jsonl"
    checkpoints = [str(e2e / "compat-s11" / "best.ckpt")]
    for variant in ("dan-no-ans-attn", "qa-s-blstm", "qa-coattention"):
        out = e2e / f"base-{variant}"
        assert main(["train", "--corpus", str(corpus), "--task", "compat",
                     "--preset", "micro", "--epochs", "10", "--patience", "3",
                     "--variant", variant, "--seed", "11",
                     "--out", str(out)]) == 0
        checkpoints.append(str(out / "best.ckpt"))
    capsys.readouterr()
    args = ["eval", "--corpus", str(corpus), "--split", "test",
            "--report-out", str(e2e / "variants.json")]
    for c in checkpoints:
        args += ["--checkpoint", c]
    assert main(args) == 0
    table = capsys.readouterr().out
    lines = [l for l in table.splitlines() if l.strip()]
    assert "PCA F1" in lines[0] and "Polar. Acc." in lines[0]
    methods = [l.split()[0] for l in lines[2:]]
    assert methods == ["dan", "dan-no-ans-attn", "qa-s-blstm",
                       "qa-coattention"]

    elapsed = time.monotonic() - started
    detail = ", ".join(f"{t}/s{s}={f1:.3f}" for (t, s), f1 in scores.items())
    _verdict(elapsed < 1800.0, "C5 end-to-end synthetic",
             f"{detail}; 4-variant table rendered; {elapsed:.0f}s")


def test_c6_training_determinism(e2e):
    corpus = e2e / "det.jsonl"
    assert main(["synth", "--n", "80", "--task", "compat", "--seed", "5",
                 "--out", str(corpus)]) == 0
    flags = ["--corpus", str(corpus), "--task", "compat", "--epochs", "3",
             "--batch", "16", "--d-e", "16", "--blstm", "16", "--tq", "12",
             "--ta", "12", "--seed", "9"]
    out_a, out_b = e2e / "det-a", e2e / "det-b"
    assert main(["train", *flags, "--out", str(out_a)]) == 0
    assert main(["train", *flags, "--out", str(out_b)]) == 0
    ckpt_a = (out_a / "best.ckpt").read_bytes()
    ckpt_b = (out_b / "best.ckpt").read_bytes()
    hist_a = (out_a / "history.jsonl").read_bytes()
    hist_b = (out_b / "history.jsonl").read_bytes()
    named_a = sorted(p.name for p in out_a.glob("checkpoint_*.ckpt"))
    named_b = sorted(p.name for p in out_b.glob("checkpoint_*.ckpt"))
    _verdict(ckpt_a == ckpt_b and hist_a == hist_b and named_a == named_b,
             "C6 determinism",
             f"checkpoints {len(ckpt_a)} bytes identical, histories identical")


def test_c7_fixture_decoding():
    works = decode_tuples(["F-S", "F-S", "S", "O"],
                        ["Works", "with", "iphone", "?"], "p1", SATISF)
    ok_works = (len(works) == 1 and works[0].target_text == "iphone"
                and works[0].function_words == ["Works with"]
                and works[0].polarity == 1)
    tokens = "Does the surface pro 4 support the Google Play app store ?".split()
    labels = ["O", "O", "O", "O", "O", "F-UN", "O", "UN", "UN", "UN", "UN", "O"]
    support = decode_tuples(labels, tokens, "p1", SATISF)
    ok_support = (len(support) == 1
                  and support[0].target_text == "Google Play app store"
                  and support[0].polarity == 2)
    _verdict(ok_works and ok_support, "C7 fixture decoding",
             f"({works[0].function_words[0]} {works[0].target_text}, 1); "
             f"({support[0].target_text}, 2)")


def test_c8_loss_semantics():
    cfg = ModelConfig(variant="dan", task="compat", d_e=8, blstm_dim=8,
                      t_q=6, t_a=6, dropout_rate=0.0, seed=4)
    pairs = synth_generate(6, "compat", seed=4)
    vocab = build_vocab(pairs)
    examples = [encode(p, vocab, cfg) for p in pairs]
    model = Model(cfg, vocab.size)

    whole = batch_loss(model, examples, training=False).item()
    parts = sum(batch_loss(model, [ex], training=False).item()
                for ex in examples)
    additivity_gap = abs(whole - parts)

    k = sum(int(ex.q_mask.sum()) for ex in examples)
    expected = k * np.log(len(COMPAT))
    uniform_gap = abs(whole - expected) / expected

    _verdict(additivity_gap <= 1e-10 and uniform_gap <= 0.20,
             "C8 loss semantics",
             f"additivity gap {additivity_gap:.2e}, initial loss within "
             f"{100 * uniform_gap:.1f}% of k*ln|L|")


@pytest.mark.slow
def test_converged_model_labels_fixture_question():
    """A model trained on the synthetic satisfiability corpus labels the
    canonical 'works with <entity> ?' question as function words + target."""
    cfg = ModelConfig(variant="dan", task="satisf", dropout_rate=0.1,
                      seed=13, **MICRO_PRESET)
    pairs = synth_generate(96, "satisf", seed=13)
    vocab = build_vocab(pairs)
    examples = [encode(p, vocab, cfg) for p in pairs]
    model = Model(cfg, vocab.size)
    tcfg = TrainConfig(batch_size=128, max_epochs=300, patience=300, seed=13,
                       stop_at_token_acc=0.995)
    model, history, _ = fit(model, examples, examples, tcfg)
    assert history[-1]["valid"]["token_acc"] >= 0.995

    probe = QAPair("probe", "p1", ["works", "with", "iphone", "?"],
                   ["yes", ",", "it", "is"], None, "satisf")
    ex = encode(probe, vocab, cfg)
    probs = model.forward_batch([ex]).data
    got = [SATISF.labels[i] for i in predict_labels(probs, ex.q_mask)[:4]]
    assert got == ["F-S", "F-S", "S", "O"]
    tuples = decode_tuples(got, probe.question_tokens, "p1", SATISF)
    assert tuples[0].target_text == "iphone"
    assert tuples[0].function_words == ["works with"]
    assert tuples[0].polarity == 1
