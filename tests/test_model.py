"""Model assembly, variants, forward laws, decoding, checkpoints."""

import json
import os
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from danqa import layers, tensor as tc
from danqa.corpus import build_vocab, encode, synth_generate
from danqa.errors import ConfigError, ContractError, ShapeError
from danqa.labels import COMPAT, SATISF
from danqa.metrics import spans_from_labels
from danqa.model import (CHECKPOINT_MAGIC, VARIANTS, Model, ModelConfig,
                         decode_tuples, load_checkpoint, predict_label_batches,
                         predict_labels, save_checkpoint)
from danqa.training import Adam, batch_loss
from util import fd_gradient, max_rel_err, reference_forward


def stacked_leaf(model, name):
    """The stacked leaf and direction index behind a ``ctx*.{fw,bw}.*`` name."""
    attr, tag, weight = name.split(".")
    leaf = getattr(getattr(model, attr), {"Wx": "wx", "Wh": "wh", "b": "b"}[weight])
    return leaf, ("fw", "bw").index(tag)


def micro_cfg(variant="dan", task="compat", seed=0, **kw):
    base = dict(d_e=8, blstm_dim=8, t_q=6, t_a=6, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(variant=variant, task=task, seed=seed, **base)


def micro_setup(variant="dan", task="compat", seed=0, n=3):
    cfg = micro_cfg(variant=variant, task=task, seed=seed)
    pairs = synth_generate(n, task, seed=seed)
    vocab = build_vocab(pairs)
    examples = [encode(p, vocab, cfg) for p in pairs]
    return cfg, vocab, examples


def record_layers(model, monkeypatch):
    """Record the inputs and outputs of every BLSTM call and every
    ``attend_step`` call the next forward passes make, by layer name."""
    calls = {}

    def recorder(name, fn):
        def wrapped(*args):
            out = fn(*args)
            calls.setdefault(name, []).append((args, out))
            return out
        return wrapped

    for attr in ("ctx1_q", "ctx1_a", "ctx1_qa", "ctx2_q", "ctx2_a"):
        layer = getattr(model, attr)
        if layer is not None:
            layer.seq = recorder(f"{attr}.seq", layer.seq)
            layer.pool = recorder(f"{attr}.pool", layer.pool)
    monkeypatch.setattr(layers, "attend_step",
                        recorder("attend_step", layers.attend_step))
    return calls


def blstm_call(calls, name):
    """(input sequence, output) of the one recorded call of a BLSTM method."""
    ((args, out),) = calls[name]
    return args[0], out


MALFORMED_CHECKPOINTS = ("cut_in_manifest_length", "non_json_manifest",
                         "non_object_manifest", "missing_manifest_key",
                         "unknown_config_key", "labels_of_another_task",
                         "param_without_name", "vocab_tokens_not_a_list",
                         "params_not_a_list", "shape_not_a_list",
                         "extra_not_an_object", "width_not_an_integer",
                         "width_zero")


def spoil_checkpoint(path, how):
    """Rewrite a saved checkpoint in one of the MALFORMED_CHECKPOINTS ways."""
    blob = path.read_bytes()
    head = len(CHECKPOINT_MAGIC)
    if how == "cut_in_manifest_length":
        path.write_bytes(blob[:head + 2])
        return
    mlen = struct.unpack("<I", blob[head:head + 4])[0]
    manifest = json.loads(blob[head + 4:head + 4 + mlen].decode())
    text = {"non_json_manifest": b"{not json", "non_object_manifest": b"[1]"}
    if how == "missing_manifest_key":
        del manifest["vocab_tokens"]
    elif how == "unknown_config_key":
        manifest["config"]["colour"] = "red"
    elif how == "labels_of_another_task":
        manifest["labels"] = list(SATISF.labels)
    elif how == "param_without_name":
        del manifest["params"][0]["name"]
    elif how == "vocab_tokens_not_a_list":
        manifest["vocab_tokens"] = 5
    elif how == "params_not_a_list":
        manifest["params"] = 5
    elif how == "shape_not_a_list":
        manifest["params"][0]["shape"] = 5
    elif how == "extra_not_an_object":
        manifest["extra"] = [1]
    elif how == "width_not_an_integer":
        manifest["config"]["d_e"] = float(manifest["config"]["d_e"])
    elif how == "width_zero":
        manifest["config"]["blstm_dim"] = 0
    doctored = text.get(how, json.dumps(manifest).encode())
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(doctored))
                     + doctored + blob[head + 4 + mlen:])


def random_example(rng, t_q, t_a, vocab_size):
    """Random tokens with a random real length of at least one per side."""
    fields = {}
    for side, width in (("q", t_q), ("a", t_a)):
        mask = (np.arange(width) < rng.integers(1, width + 1)).astype(float)
        fields[f"x_{side}"] = np.where(
            mask > 0, rng.integers(1, vocab_size, size=width), 0)
        fields[f"{side}_mask"] = mask
    return SimpleNamespace(**fields)


def label_probs(model, examples):
    """(B, T_q, L) label distributions: the softmax of ``forward_batch``'s
    logits, with its rows ``t * B + b`` put in example order."""
    logits = model.forward_batch(examples).data
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return probs.reshape(model.cfg.t_q, len(examples), -1).swapaxes(0, 1)


def probs_of(model, example):
    """(T_q, L) label distributions of one example."""
    return label_probs(model, [example])[0]


class TestBuild:
    def test_same_seed_identical_parameters(self):
        cfg, vocab, _ = micro_setup(seed=5)
        m1 = Model(cfg, vocab.size)
        m2 = Model(cfg, vocab.size)
        for (n1, p1), (n2, p2) in zip(m1.params().items(), m2.params().items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_dan_parameter_inventory(self):
        cfg, vocab, _ = micro_setup("dan")
        names = set(Model(cfg, vocab.size).params())
        context1 = {n.split(".")[0] for n in names if n.startswith("ctx1")}
        context2 = {n.split(".")[0] for n in names if n.startswith("ctx2")}
        assert context1 == {"ctx1_q", "ctx1_a", "ctx1_qa"}
        assert context2 == {"ctx2_q", "ctx2_a"}
        assert "embedding.We" in names
        assert "dense.W" in names and "dense.b" in names
        assert len(names) == 1 + 5 * 6 + 2

    def test_given_embedding_leaves_the_other_parameters_as_drawn(self):
        """A given table only replaces the embedding's values: every other
        parameter is bit-equal to a model's built without one, and the model
        keeps its own copy of the table."""
        cfg, vocab, _ = micro_setup(seed=3)
        table = layers.EmbeddingTable(
            np.random.default_rng(7).standard_normal((cfg.d_e, vocab.size)))
        plain = Model(cfg, vocab.size).params()
        given = Model(cfg, vocab.size, embedding=table).params()
        assert list(given) == list(plain)
        for name, p in plain.items():
            if name != "embedding.We":
                np.testing.assert_array_equal(given[name].data, p.data)
        np.testing.assert_array_equal(given["embedding.We"].data, table.table.data)
        assert not np.shares_memory(given["embedding.We"].data, table.table.data)
        with pytest.raises(ShapeError, match=r"embedding shape \(8, 3\) does not"):
            Model(cfg, vocab.size, embedding=layers.EmbeddingTable(np.zeros((8, 3))))

    def test_named_blstm_weights_are_views_of_the_stacked_leaves(self, monkeypatch):
        """Each ``ctx*.{fw,bw}.*`` parameter is slice 0 (fw) or 1 (bw) of its
        layer's stacked leaf, data and gradient alike: a value written through
        a name changes the forward pass, and ``Adam.step`` over ``params()``
        moves the weights ``lstm_cell`` reads and zeroes their gradients."""
        cfg, vocab, examples = micro_setup("dan")
        model = Model(cfg, vocab.size)
        params = model.params()
        named = {n: p for n, p in params.items() if n.startswith("ctx")}
        assert len(named) == 5 * 6
        for name, p in named.items():
            leaf, k = stacked_leaf(model, name)
            assert p.shape == leaf.shape[1:] and leaf.shape[0] == 2
            assert np.shares_memory(p.data, leaf.data[k])
            assert not np.shares_memory(p.data, leaf.data[1 - k])
            assert np.shares_memory(p.grad, leaf.grad[k])
            assert not np.shares_memory(p.grad, leaf.grad[1 - k])

        before = model.forward_batch(examples).data
        params["ctx2_q.bw.b"].data[0] += 1.0
        assert model.ctx2_q.b.data[1, 0] == params["ctx2_q.bw.b"].data[0]
        assert not np.array_equal(model.forward_batch(examples).data, before)

        read, lstm_cell = [], tc.lstm_cell

        def recording(x, *weights_and_lengths):
            read.extend(weights_and_lengths[:3])
            return lstm_cell(x, *weights_and_lengths)

        monkeypatch.setattr(tc, "lstm_cell", recording)
        batch_loss(model, examples, training=False).backward()
        assert {id(w) for w in read} == {
            id(stacked_leaf(model, n)[0]) for n in named}
        old = {n: p.data.copy() for n, p in named.items()}
        Adam(params, lr=0.01).step()
        for name, p in named.items():
            leaf, k = stacked_leaf(model, name)
            assert not np.array_equal(leaf.data[k], old[name]), name
            np.testing.assert_array_equal(leaf.grad[k], 0.0)

    def test_sblstm_has_no_story_layer(self, monkeypatch):
        cfg, vocab, examples = micro_setup("qa-s-blstm")
        model = Model(cfg, vocab.size)
        assert not any(n.startswith("ctx1_qa") for n in model.params())
        calls = record_layers(model, monkeypatch)
        model.forward_batch(examples[:1])
        assert model.ctx1_qa is None and "attend_step" not in calls
        # without attention the second question BLSTM reads the first's
        # output, with the question's real steps
        _, hq1 = blstm_call(calls, "ctx1_q.seq")
        hq2, _ = blstm_call(calls, "ctx2_q.seq")
        np.testing.assert_array_equal(hq2.x.data, hq1.data)
        np.testing.assert_array_equal(hq2.lengths, [examples[0].q_mask.sum()])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="transformer")

    @pytest.mark.parametrize("field, value", [
        ("d_e", 0), ("d_e", -3), ("d_e", 8.0), ("d_e", True),
        ("blstm_dim", 0), ("blstm_dim", -2), ("blstm_dim", 4.0),
        ("t_q", 0), ("t_a", -1), ("t_a", "6")])
    def test_bad_width_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"{field} must be an integer"):
            ModelConfig(**{field: value})

    def test_coattention_has_both_contexts_only(self, monkeypatch):
        cfg, vocab, examples = micro_setup("qa-coattention")
        model = Model(cfg, vocab.size)
        assert not any(n.startswith("ctx1_qa") for n in model.params())
        calls = record_layers(model, monkeypatch)
        model.forward_batch(examples[:1])
        # the question attends over the answer, then the answer over the question
        attends = [args for args, _ in calls["attend_step"]]
        assert [story.shape[0] for _, story, _, _ in attends] == [cfg.t_a, cfg.t_q]
        assert [src.shape[0] for src, _, _, _ in attends] == [cfg.t_q, cfg.t_a]
        # each side's length is the source length of one call, the story's of
        # the other
        q_len, a_len = [examples[0].q_mask.sum()], [examples[0].a_mask.sum()]
        for (_, _, src_len, story_len), (sl, tl) in zip(
                attends, ((q_len, a_len), (a_len, q_len))):
            np.testing.assert_array_equal(src_len, sl)
            np.testing.assert_array_equal(story_len, tl)

    @pytest.mark.parametrize("variant, n_calls", [
        ("dan", 2), ("dan-no-ans-attn", 1), ("qa-coattention", 2),
        ("qa-s-blstm", 0)])
    def test_one_attention_call_per_attending_source(self, monkeypatch,
                                                     variant, n_calls):
        cfg, vocab, examples = micro_setup(variant)
        model = Model(cfg, vocab.size)
        calls = record_layers(model, monkeypatch)
        model.forward_batch(examples)
        assert len(calls.get("attend_step", [])) == n_calls


class TestForward:
    def test_shapes_and_row_sums(self, monkeypatch):
        cfg, vocab, examples = micro_setup()
        model = Model(cfg, vocab.size)
        calls = record_layers(model, monkeypatch)
        pq = model.forward_batch(examples)
        b, n = len(examples), cfg.blstm_dim
        assert pq.shape == (b * cfg.t_q, len(cfg.space))
        hq2, _ = blstm_call(calls, "ctx2_q.seq")
        assert hq2.shape == (cfg.t_q, b, 2 * n)
        _, ha3 = blstm_call(calls, "ctx2_a.pool")
        assert ha3.shape == (b, n)
        _, hqa = blstm_call(calls, "ctx1_qa.seq")
        assert hqa.shape == (cfg.t_q + cfg.t_a, b, n)
        np.testing.assert_allclose(label_probs(model, examples).sum(axis=-1), 1.0,
                                   atol=1e-9)

    def test_story_is_question_then_answer(self, monkeypatch):
        """The story BLSTM reads each example's real question token ids, then
        its real answer ones, then its PAD, time-major like those of the
        question and answer BLSTMs; its padded length stays t_q + t_a, and
        its real length is the question's plus the answer's."""
        cfg, vocab, examples = micro_setup()
        model = Model(cfg, vocab.size)
        calls = record_layers(model, monkeypatch)
        model.forward_batch(examples)
        eq, _ = blstm_call(calls, "ctx1_q.seq")
        ea, _ = blstm_call(calls, "ctx1_a.seq")
        eqa, _ = blstm_call(calls, "ctx1_qa.seq")
        np.testing.assert_array_equal(eq.x, np.stack([ex.x_q for ex in examples], 1))
        np.testing.assert_array_equal(ea.x, np.stack([ex.x_a for ex in examples], 1))
        assert len(eqa) == cfg.t_q + cfg.t_a
        for b, ex in enumerate(examples):
            real = np.concatenate([ex.x_q[ex.q_mask > 0], ex.x_a[ex.a_mask > 0]])
            np.testing.assert_array_equal(eqa.x[:len(real), b], real)
            assert np.all(eqa.x[len(real):, b] == 0)
            assert (eq.lengths[b], ea.lengths[b], eqa.lengths[b]) == (
                ex.q_mask.sum(), ex.a_mask.sum(), len(real))
        assert any(ex.q_mask.min() == 0 for ex in examples)  # a gap to pack

    def test_pad_only_answer_still_valid(self):
        cfg, vocab, examples = micro_setup()
        ex = examples[0]
        ex.x_a[:] = 0
        ex.a_mask[:] = 0.0
        model = Model(cfg, vocab.size)
        pq = probs_of(model, ex)
        assert np.all(np.isfinite(pq))
        np.testing.assert_allclose(pq.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("field", ["x_q", "x_a"])
    def test_pad_before_a_real_token_rejected(self, field):
        """Lengths count each column's real steps from the front, so ids
        with a PAD before a real token fail early, naming the example."""
        cfg, vocab, examples = micro_setup(n=3)
        ids = getattr(examples[1], field)
        ids[0] = 0
        assert ids[1] != 0
        with pytest.raises(ContractError, match=rf"{examples[1].pair.id}.*{field}"):
            Model(cfg, vocab.size).forward_batch(examples)

    def test_length_mismatch_rejected(self):
        cfg, vocab, examples = micro_setup()
        other_cfg = micro_cfg(t_q=8, t_a=8)
        bad = encode(examples[0].pair, vocab, other_cfg)
        model = Model(cfg, vocab.size)
        with pytest.raises(ContractError):
            model.forward_batch([bad])

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(VARIANTS),
           task=st.sampled_from(("compat", "satisf")),
           seed=st.integers(0, 2 ** 16), size=st.integers(1, 6),
           order=st.permutations(range(6)))
    def test_rows_do_not_depend_on_batch_peers(self, variant, task, seed,
                                               size, order):
        """Each example's rows are those of running it alone, whatever its
        batch peers and its place among them."""
        cfg, vocab, examples = micro_setup(variant, task, seed, n=6)
        model = Model(cfg, vocab.size)
        batch = [examples[i] for i in order[:size]]
        with tc.no_grad():
            together = label_probs(model, batch)
            for ex, rows in zip(batch, together, strict=True):
                np.testing.assert_allclose(rows, probs_of(model, ex),
                                           rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from(VARIANTS),
           task=st.sampled_from(("compat", "satisf")),
           seed=st.integers(0, 2 ** 16), size=st.integers(1, 6),
           extra_q=st.integers(1, 8), extra_a=st.integers(1, 8))
    def test_real_rows_do_not_depend_on_padding(self, variant, task, seed, size,
                                                extra_q, extra_a):
        """The same pairs encoded with more padding get the same real-token
        probabilities and the same labels: a PAD step is a no-op."""
        pairs = synth_generate(size, task, seed=seed)
        vocab = build_vocab(pairs)
        t_q = max(len(p.question_tokens) for p in pairs)
        t_a = max(1, max(len(p.answer_tokens) for p in pairs))
        runs = []
        for cfg in (micro_cfg(variant, task, seed, t_q=t_q, t_a=t_a),
                    micro_cfg(variant, task, seed, t_q=t_q + extra_q,
                              t_a=t_a + extra_a)):
            model = Model(cfg, vocab.size)
            examples = [encode(p, vocab, cfg) for p in pairs]
            with tc.no_grad():
                probs = label_probs(model, examples)
            runs.append((probs, predict_label_batches(model, examples, batch_size=4)))
        (probs, labels), (padded_probs, padded_labels) = runs
        for b, pair in enumerate(pairs):
            real = len(pair.question_tokens)
            np.testing.assert_allclose(padded_probs[b, :real], probs[b, :real],
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(padded_labels[:, :t_q], labels)
        assert np.all(padded_labels[:, t_q:] == 0)

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(VARIANTS),
           task=st.sampled_from(("compat", "satisf")),
           d_e=st.integers(1, 8), half=st.integers(1, 4),
           t_q=st.integers(1, 6), t_a=st.integers(1, 6),
           size=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    def test_matches_numpy_reference(self, variant, task, d_e, half, t_q, t_a,
                                     size, seed):
        """The probabilities are those of ``util.reference_forward``, the
        model written out in plain numpy one example at a time."""
        cfg = ModelConfig(variant=variant, task=task, d_e=d_e,
                          blstm_dim=2 * half, t_q=t_q, t_a=t_a, seed=seed)
        model = Model(cfg, 12)
        rng = np.random.default_rng(seed)
        examples = [random_example(rng, t_q, t_a, 12) for _ in range(size)]
        with tc.no_grad():
            got = label_probs(model, examples).reshape(size * t_q, -1)
        params = {name: p.data for name, p in model.params().items()}
        np.testing.assert_allclose(
            got, reference_forward(params, examples, cfg), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_gradients_match_reference_loss(self, variant):
        """Every parameter gradient of one inference-mode training step is
        the central difference of the loss of ``util.reference_forward``.
        The batch repeats tokens, pads, and has an all-PAD answer; the
        ``qa-coattention`` question over it gets an exactly zero context."""
        cfg = ModelConfig(variant=variant, task="satisf", d_e=2, blstm_dim=2,
                          t_q=3, t_a=4, seed=5)
        model = Model(cfg, 5)
        rng = np.random.default_rng(5)
        examples = [random_example(rng, cfg.t_q, cfg.t_a, 5) for _ in range(3)]
        examples[0].x_q[examples[0].q_mask > 0] = examples[0].x_q[0]
        examples[1].x_a[:], examples[1].a_mask[:] = 0, 0.0
        for ex in examples:
            ex.y = rng.integers(0, len(cfg.space), cfg.t_q)
        batch_loss(model, examples, training=False).backward()
        params = {name: p.data for name, p in model.params().items()}
        gold = np.concatenate([ex.y for ex in examples])
        real = np.concatenate([ex.q_mask for ex in examples]) > 0

        def loss():
            probs = reference_forward(params, examples, cfg)
            return -np.log(probs[np.arange(len(gold)), gold][real]).sum()

        for name, p in model.params().items():
            assert max_rel_err(p.grad, fd_gradient(loss, p.data)) <= 1e-5, name

    def test_never_produces_non_finite(self):
        for seed in range(5):
            cfg, vocab, examples = micro_setup(seed=seed)
            model = Model(cfg, vocab.size)
            assert np.all(np.isfinite(model.forward_batch(examples).data))
            assert np.all(np.isfinite(label_probs(model, examples)))

    def test_variant_nesting_zero_attention(self):
        """With the story encoder forced to zero, the full model reduces to
        the attention-free baseline on shared parameters."""
        cfg_s, vocab, examples = micro_setup("qa-s-blstm", seed=3)
        cfg_d = micro_cfg(variant="dan", seed=3)
        sblstm = Model(cfg_s, vocab.size)
        dan = Model(cfg_d, vocab.size)

        sp, dp = sblstm.params(), dan.params()
        b = cfg_d.blstm_dim
        for name, p in dp.items():
            if name.startswith("ctx1_qa"):
                p.data[...] = 0.0  # story encodings become exactly zero
            elif name.startswith("ctx2") and name.endswith("Wx"):
                p.data[...] = 0.0
                p.data[:, :b] = sp[name].data
            else:
                p.data[...] = sp[name].data

        for ex in examples:
            out_s = probs_of(sblstm, ex)
            out_d = probs_of(dan, ex)
            np.testing.assert_allclose(out_d, out_s, atol=1e-12)


class TestPredictLabels:
    def test_one_hot_rows(self):
        pq = np.eye(4)[[2, 0, 3, 1]]
        labels = predict_labels(pq, np.ones(4))
        np.testing.assert_array_equal(labels, [2, 0, 3, 1])

    def test_uniform_row_breaks_tie_to_o(self):
        pq = np.full((2, 4), 0.25)
        labels = predict_labels(pq, np.ones(2))
        np.testing.assert_array_equal(labels, [0, 0])

    def test_pad_positions_forced_to_o(self):
        pq = np.eye(4)[[1, 1, 1]]
        labels = predict_labels(pq, np.array([1, 1, 0]))
        np.testing.assert_array_equal(labels, [1, 1, 0])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        pq = rng.random((10, 5))
        labels = predict_labels(pq, np.ones(10))
        for t in range(10):
            best, best_p = 0, pq[t, 0]
            for l in range(1, 5):
                if pq[t, l] > best_p:
                    best, best_p = l, pq[t, l]
            assert labels[t] == best

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((6, 4))
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        l1 = predict_labels(scores, np.ones(6))
        l2 = predict_labels(3.0 * scores + 11.0, np.ones(6))
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(predict_labels(probs, np.ones(6)), l1)


class TestDecodeTuples:
    def test_all_o_is_empty(self):
        assert decode_tuples(["O", "O", "O"], ["a", "b", "c"], "p1",
                             COMPAT) == []

    def test_works_with_fixture(self):
        tuples = decode_tuples(["F-S", "F-S", "S", "O"],
                               ["Works", "with", "iphone", "?"], "p1", SATISF)
        assert len(tuples) == 1
        t = tuples[0]
        assert t.target_text == "iphone"
        assert t.function_words == ["Works with"]
        assert t.polarity == 1

    def test_product_question_fixture(self):
        tokens = ("Does the surface pro 4 support the Google Play app store ?"
                  .split())
        labels = ["O", "O", "O", "O", "O", "F-UN", "O", "UN", "UN", "UN",
                  "UN", "O"]
        tuples = decode_tuples(labels, tokens, "p1", SATISF)
        assert len(tuples) == 1
        assert tuples[0].target_text == "Google Play app store"
        assert tuples[0].polarity == 2
        assert tuples[0].function_words == ["support"]

    def test_compat_entity(self):
        tuples = decode_tuples(["O", "O", "C", "O"],
                               ["Works", "with", "iphone", "?"], "p1", COMPAT)
        assert len(tuples) == 1
        assert tuples[0].target_text == "iphone"
        assert tuples[0].polarity == 1
        assert tuples[0].function_words == []

    def test_far_function_word_left_unattached(self):
        labels = ["F-S", "O", "O", "O", "O", "S"]
        tuples = decode_tuples(labels, list("abcdef"), "p1", SATISF)
        assert len(tuples) == 2
        target = next(t for t in tuples if t.target_span is not None)
        orphan = next(t for t in tuples if t.target_span is None)
        assert target.function_words == []
        assert orphan.function_words == ["a"]

    def test_polarity_mismatch_not_paired(self):
        labels = ["F-UN", "S", "O"]
        tuples = decode_tuples(labels, ["run", "it", "?"], "p1", SATISF)
        assert len(tuples) == 2

    def test_label_outside_space_rejected(self):
        with pytest.raises(ContractError):
            decode_tuples(["F-S"], ["x"], "p1", COMPAT)

    def test_roundtrip_on_random_span_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            length = 12
            labels = ["O"] * length
            pos = 0
            expected = []
            while pos < length - 2:
                pos += int(rng.integers(1, 3))
                width = int(rng.integers(1, 3))
                if pos + width >= length:
                    break
                lab = ["C", "I", "U"][rng.integers(3)]
                for i in range(pos, pos + width):
                    labels[i] = lab
                expected.append((pos, pos + width, lab))
                pos += width + 1  # gap keeps runs separate
            tokens = [f"t{i}" for i in range(length)]
            tuples = decode_tuples(labels, tokens, "p", COMPAT)
            got = [(t.target_span[0], t.target_span[1],
                    COMPAT.target_label(t.polarity)) for t in tuples]
            assert got == expected
            # and the span extraction agrees with the metrics module
            spans = spans_from_labels(labels, COMPAT)
            assert [(s.start, s.end) for s in spans] == \
                   [(a, b) for a, b, _ in expected]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg, vocab, examples = micro_setup("dan", task="satisf", seed=9)
        model = Model(cfg, vocab.size)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, extra={"note": 1})
        loaded, loaded_vocab, manifest = load_checkpoint(path)
        assert loaded_vocab.tokens == vocab.tokens
        assert manifest["config"]["variant"] == "dan"
        assert manifest["labels"] == list(SATISF.labels)
        for name, p in model.params().items():
            np.testing.assert_array_equal(loaded.params()[name].data, p.data)
        got = loaded.forward_batch(examples).data
        want = model.forward_batch(examples).data
        np.testing.assert_array_equal(got, want)

    def test_file_layout_is_pinned(self, tmp_path):
        """The manifest lists every parameter by name and shape in sorted-name
        order, and the blob after it holds each one's little-endian float64
        bytes in that order, a BLSTM name reading its direction's slice of the
        stacked weight."""
        cfg, vocab, _ = micro_setup("dan")
        model = Model(cfg, vocab.size)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab)
        blob = path.read_bytes()
        mlen = struct.unpack("<I", blob[8:12])[0]
        manifest = json.loads(blob[12:12 + mlen].decode())
        n_labels = len(COMPAT.labels)
        want = [[f"{attr}.{tag}.{weight}", shape]
                for attr, d_in in (("ctx1_a", 8), ("ctx1_q", 8), ("ctx1_qa", 8),
                                   ("ctx2_a", 16), ("ctx2_q", 16))
                for tag in ("bw", "fw")
                for weight, shape in (("Wh", [16, 4]), ("Wx", [16, d_in]), ("b", [16]))]
        want += [["dense.W", [n_labels, 16]], ["dense.b", [n_labels]],
                 ["embedding.We", [8, vocab.size]]]
        assert [[d["name"], d["shape"]] for d in manifest["params"]] == want

        def array(name):
            if name.startswith("ctx"):
                leaf, k = stacked_leaf(model, name)
                return leaf.data[k]
            return {"dense.W": model.dense_w, "dense.b": model.dense_b,
                    "embedding.We": model.embedding.table}[name].data

        assert blob[12 + mlen:] == b"".join(
            array(name).astype("<f8").tobytes() for name, _ in want)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_shape_verification(self, tmp_path):
        cfg, vocab, _ = micro_setup()
        model = Model(cfg, vocab.size)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab)
        blob = path.read_bytes()
        mlen = struct.unpack("<I", blob[8:12])[0]
        manifest = json.loads(blob[12:12 + mlen].decode())
        manifest["params"][3]["shape"][0] += 1
        doctored = json.dumps(manifest).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(doctored))
                         + doctored + blob[12 + mlen:])
        with pytest.raises(ConfigError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("how", MALFORMED_CHECKPOINTS)
    def test_malformed_file_names_its_path(self, tmp_path, how):
        cfg, vocab, _ = micro_setup(task="compat")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model(cfg, vocab.size), vocab)
        spoil_checkpoint(path, how)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        cfg, vocab, _ = micro_setup()
        model = Model(cfg, vocab.size)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg, vocab, _ = micro_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model(cfg, vocab.size), vocab)
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        with pytest.raises(ConfigError, match="after its last parameter"):
            load_checkpoint(path)

    def test_save_replaces_the_file_in_one_step(self, tmp_path, monkeypatch):
        """The checkpoint is written beside its target and renamed over it,
        so a save that fails leaves the previous file whole."""
        cfg, vocab, _ = micro_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model(cfg, vocab.size), vocab)
        before = path.read_bytes()
        renames = []

        def failing_replace(src, dst):
            renames.append((Path(src), Path(dst)))
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, Model(micro_cfg(seed=1), vocab.size), vocab)
        [(src, dst)] = renames
        assert dst == path and src.parent == path.parent and src != path
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]
