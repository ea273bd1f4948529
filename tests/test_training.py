"""Optimizer behavior, loss semantics, fit loop and its invariants."""

import math

import numpy as np
import pytest

from danqa import tensor as tc
from danqa.corpus import build_vocab, encode, synth_generate
from danqa.errors import ContractError, NumericError
from danqa.gradcheck import check_model, micro_batch
from danqa.model import VARIANTS, Model, ModelConfig, predict_label_batches
from danqa.training import Adam, TrainConfig, batch_loss, evaluate_dataset, fit
from util import parameter


def setup_micro(task="compat", seed=0, n=8, variant="dan", **cfg_kw):
    base = dict(d_e=8, blstm_dim=8, t_q=6, t_a=6, dropout_rate=0.0)
    base.update(cfg_kw)
    cfg = ModelConfig(variant=variant, task=task, seed=seed, **base)
    pairs = synth_generate(n, task, seed=seed)
    vocab = build_vocab(pairs)
    return cfg, vocab, [encode(p, vocab, cfg) for p in pairs]


class TestBatchLoss:
    def test_empty_batch_rejected(self):
        cfg, vocab, _ = setup_micro()
        with pytest.raises(ContractError):
            batch_loss(Model(cfg, vocab.size), [])

    def test_additivity_over_examples(self):
        cfg, vocab, examples = setup_micro(n=2)
        model = Model(cfg, vocab.size)
        both = batch_loss(model, examples, training=False).item()
        single = sum(batch_loss(model, [ex], training=False).item()
                     for ex in examples)
        assert abs(both - single) <= 1e-10

    def test_near_uniform_initial_loss(self):
        cfg, vocab, examples = setup_micro(n=8)
        model = Model(cfg, vocab.size)
        loss = batch_loss(model, examples, training=False).item()
        k = sum(int(ex.q_mask.sum()) for ex in examples)
        expected = k * math.log(4)
        assert abs(loss - expected) <= 0.2 * expected


    @pytest.mark.parametrize("variant", ["dan", "qa-coattention"])
    def test_pad_column_gets_no_gradient(self, variant):
        """A PAD step is a no-op, so a training step never reads the PAD
        embedding column, which keeps its zero gradient and its zeros."""
        cfg, vocab, examples = setup_micro(n=8, variant=variant, dropout_rate=0.1)
        assert any(ex.q_mask.min() == 0 for ex in examples)
        model = Model(cfg, vocab.size)
        table = model.embedding.table
        batch_loss(model, examples, training=True,
                   rng=np.random.default_rng(0)).backward()
        assert np.all(table.grad[:, 0] == 0.0)
        assert np.any(table.grad[:, 1:] != 0.0)
        Adam(model.params()).step()
        np.testing.assert_array_equal(table.data[:, 0], 0.0)

    @pytest.mark.parametrize("variant, ops", [
        ("dan", 28), ("dan-no-ans-attn", 26), ("qa-s-blstm", 20),
        ("qa-coattention", 24)])
    def test_tape_size_is_pinned(self, variant, ops):
        """The tape of one training loss, dropout included, holds this many
        ops (tensors with a backward rule): one ``lstm_cell`` per BLSTM and
        one ``attend`` per attention, so an op more per layer shows here."""
        cfg, vocab, examples = setup_micro(variant=variant, dropout_rate=0.1)
        loss = batch_loss(Model(cfg, vocab.size), examples, training=True,
                          rng=np.random.default_rng(0))
        seen, stack, found = {id(loss)}, [loss], 0
        while stack:
            node = stack.pop()
            found += node._backward is not None
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert found == ops

    def test_every_public_tensor_op_has_a_production_caller(self, monkeypatch):
        """Each public function of ``danqa.tensor`` runs in a training step or
        a predict of some variant, so an op left with no production caller
        fails here instead of lingering."""
        ops = {name: fn for name, fn in vars(tc).items()
               if callable(fn) and not isinstance(fn, type) and not name.startswith("_")
               and getattr(fn, "__module__", None) == tc.__name__}
        reached = set()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                reached.add(name)
                return fn(*args, **kwargs)
            return wrapped

        for name, fn in ops.items():
            monkeypatch.setattr(tc, name, counted(name, fn))
        for variant in VARIANTS:
            cfg, vocab, examples = setup_micro(n=4, variant=variant, dropout_rate=0.1)
            model = Model(cfg, vocab.size)
            batch_loss(model, examples, training=True,
                       rng=np.random.default_rng(0)).backward()
            predict_label_batches(model, examples)
        assert {"lstm_cell", "attend", "cross_entropy", "no_grad"} <= set(ops)
        assert sorted(set(ops) - reached) == []


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = parameter(np.array([1.0, -2.0]))
        adam = Adam({"w": p})
        adam.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert adam.t == 1

    def test_first_step_closed_form(self):
        for g in (0.5, -3.0):
            p = parameter(np.array([2.0]))
            p.grad[:] = g
            adam = Adam({"w": p}, lr=0.001)
            adam.step()
            expected = 2.0 - 0.001 * g / (math.sqrt(g * g) + 1e-8)
            assert p.data[0] == pytest.approx(expected, abs=1e-15)
            assert (p.data[0] - 2.0) * g < 0  # moves against the gradient

    def test_gradients_zeroed_after_step(self):
        p = parameter(np.array([1.0]))
        p.grad[:] = 5.0
        Adam({"w": p}).step()
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_missing_moment_buffer_rejected(self):
        adam = Adam({"w": parameter(np.array([1.0]))})
        adam.params["rogue"] = parameter(np.array([2.0]))
        with pytest.raises(ContractError, match="rogue"):
            adam.step()

    def test_ten_steps_bit_identical(self):
        def run():
            cfg, vocab, examples = setup_micro(n=4)
            model = Model(cfg, vocab.size)
            adam = Adam(model.params())
            for _ in range(10):
                loss = batch_loss(model, examples, training=False)
                loss.backward()
                adam.step()
            return {k: p.data.copy() for k, p in model.params().items()}

        first, second = run(), run()
        for k in first:
            assert np.array_equal(first[k], second[k])


class TestFit:
    def test_zero_epochs_returns_initial_model(self):
        cfg, vocab, examples = setup_micro()
        model = Model(cfg, vocab.size)
        before = {k: p.data.copy() for k, p in model.params().items()}
        model, history, summary = fit(model, examples, examples,
                                      TrainConfig(max_epochs=0))
        assert history == []
        for k, p in model.params().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_loss_strictly_decreases_early(self):
        cfg = ModelConfig(variant="dan", task="compat", seed=2, d_e=32,
                          blstm_dim=32, t_q=12, t_a=12, dropout_rate=0.1)
        pairs = synth_generate(64, "compat", seed=2)
        vocab = build_vocab(pairs)
        examples = [encode(p, vocab, cfg) for p in pairs]
        model = Model(cfg, vocab.size)
        _, history, _ = fit(model, examples, examples,
                            TrainConfig(max_epochs=5, patience=10, seed=2))
        losses = [h["train_loss"] for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_patience_stops_after_frozen_metrics(self):
        cfg, vocab, examples = setup_micro(n=12)
        model = Model(cfg, vocab.size)
        tcfg = TrainConfig(max_epochs=10, patience=2, seed=0, lr=0.0)
        _, history, summary = fit(model, examples, examples, tcfg)
        assert summary["best_epoch"] == 1
        assert len(history) == 3  # stopped at best + patience

    def test_identical_runs_identical_histories(self):
        def run():
            cfg, vocab, examples = setup_micro(n=16, dropout_rate=0.1)
            model = Model(cfg, vocab.size)
            _, history, _ = fit(model, examples[:12], examples[12:],
                                TrainConfig(max_epochs=4, batch_size=4, seed=5))
            return history

        assert run() == run()

    def test_best_checkpoint_dominates_history(self):
        cfg, vocab, examples = setup_micro(n=24, d_e=16, blstm_dim=16)
        model = Model(cfg, vocab.size)
        model, history, summary = fit(
            model, examples[:16], examples[16:],
            TrainConfig(max_epochs=6, patience=6, seed=1))
        best = summary["best_f1"]
        assert all(h["valid"]["avg_f1"] <= best for h in history)
        # restored parameters really are the best epoch's: re-evaluating
        # reproduces the recorded score
        again = evaluate_dataset(model, examples[16:])
        assert again["avg_f1"] == pytest.approx(best)

    def test_non_finite_loss_aborts_with_diagnostics(self):
        cfg, vocab, examples = setup_micro()
        model = Model(cfg, vocab.size)
        model.dense_w.data[...] = np.nan
        with pytest.raises(NumericError, match="epoch 1 batch 0"):
            fit(model, examples, examples, TrainConfig(max_epochs=1))


def test_end_to_end_gradients_sampled():
    """Spot-check the full-model gradient on a sampled element subset; the
    exhaustive pass over all four variants runs in the acceptance suite."""
    cfg, vocab, batch = micro_batch(seed=1)
    model = Model(cfg, vocab.size)
    report = check_model(model, batch, max_elements=12)
    worst = max(r["max_rel_err"] for r in report.values())
    assert worst <= 1e-4
