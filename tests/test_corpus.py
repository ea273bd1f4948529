"""Corpus IO, vocabulary, encoding, splitting and the synthetic generator."""

import json
import logging

import numpy as np
import pytest

from danqa.corpus import (QAPair, build_vocab, encode, load_corpus,
                          save_corpus, split, synth_generate)
from danqa.errors import ConfigError, ValidationError
from danqa.labels import get_space
from danqa.model import ModelConfig, decode_tuples

SURFACE_QA = QAPair(
    id="surface-gp",
    product_id="surface-pro-4",
    question_tokens="Does the surface pro 4 support the Google Play app store ?".split(),
    answer_tokens="No , it does not support Google Play .".split(),
    gold_labels=["O", "O", "O", "O", "O", "F-UN", "O", "UN", "UN", "UN",
                 "UN", "O"],
    task="satisf",
)


def small_cfg(**kw):
    base = dict(variant="qa-s-blstm", d_e=8, blstm_dim=8, t_q=82, t_a=82,
                task="compat", dropout_rate=0.0, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestLoadSave:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_roundtrip_fixture(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([SURFACE_QA], path)
        loaded = load_corpus(path)
        save_corpus(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_text() == path.read_text()
        assert loaded[0] == SURFACE_QA

    def test_label_length_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "x", "product_id": "p", "task": "compat",
               "question": ["a", "b", "c", "d", "e"],
               "answer": ["yes"], "labels": ["O", "O", "O", "O"]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_corpus(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_corpus([SURFACE_QA], path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize("field, value, problem", [
        ("labels", 5, "labels must be null or a list of strings"),
        ("labels", "OO", "labels must be null or a list of strings"),
        ("labels", ["O", 5], "labels must be null or a list of strings"),
        ("question", [1, 2], "question must be a non-empty list of strings"),
        ("question", "ab", "question must be a non-empty list of strings"),
        ("answer", ["yes", None], "answer must be a list of strings"),
        ("task", "nope", "unknown task 'nope'"),
    ])
    def test_wrong_field_type_reports_line(self, tmp_path, field, value,
                                           problem):
        rec = {"id": "x", "product_id": "p", "task": "compat",
               "question": ["a", "b"], "answer": ["yes"], "labels": ["O", "C"]}
        rec[field] = value
        path = tmp_path / "bad.jsonl"
        save_corpus([SURFACE_QA], path)
        with open(path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match=f"line 2: pair x: {problem}"):
            load_corpus(path)

    @pytest.mark.parametrize("line", ["5", "null", "[1, 2]", '"text"'])
    def test_non_object_line_reports_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        save_corpus([SURFACE_QA], path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValidationError,
                           match="line 2: expected a JSON object"):
            load_corpus(path)

    def test_label_outside_space(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "x", "product_id": "p", "task": "compat",
               "question": ["a"], "answer": [], "labels": ["F-S"]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="F-S"):
            load_corpus(path)

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        rec = {"id": "x", "product_id": "p", "task": "compat",
               "question": ["a"], "answer": ["b"], "labels": None,
               "someday": "metadata"}
        path.write_text(json.dumps(rec) + "\n")
        assert load_corpus(path)[0].id == "x"


class TestVocab:
    def test_empty_is_reserved_only(self):
        vocab = build_vocab([])
        assert vocab.size == 2

    def test_min_count_maps_rare_tokens_to_unk(self):
        pairs = [QAPair("1", "p", ["hello", "world"], ["hello"], None, "compat")]
        vocab = build_vocab(pairs, min_count=2)
        assert vocab.index("hello") >= 2
        assert vocab.index("world") == 1  # below threshold -> UNK

    def test_order_deterministic_under_permutation(self):
        pairs = synth_generate(50, "compat", seed=0)
        v1 = build_vocab(pairs)
        v2 = build_vocab(list(reversed(pairs)))
        assert v1.tokens == v2.tokens
        assert v1.sha256() == v2.sha256()


class TestEncode:
    def test_short_question_padding(self):
        pair = QAPair("1", "p", ["a", "b", "c"], ["yes"],
                      ["O", "O", "O"], "compat")
        vocab = build_vocab([pair])
        ex = encode(pair, vocab, small_cfg())
        assert ex.x_q.shape == (82,)
        assert np.all(ex.x_q[3:] == 0)
        np.testing.assert_array_equal(ex.q_mask[:4], [1, 1, 1, 0])
        assert ex.q_mask.sum() == 3

    def test_long_answer_keeps_first_tokens(self):
        tokens = [f"w{i}" for i in range(100)]
        pair = QAPair("1", "p", ["a"], tokens, ["O"], "compat")
        vocab = build_vocab([pair])
        ex = encode(pair, vocab, small_cfg())
        assert ex.a_mask.sum() == 82
        expected = [vocab.index(t) for t in tokens[:82]]
        np.testing.assert_array_equal(ex.x_a, expected)

    def test_truncating_labeled_tokens_warns(self, caplog):
        cfg = small_cfg(t_q=2, t_a=2)
        pair = QAPair("warned", "p", ["a", "b", "c"], ["yes"],
                      ["O", "O", "C"], "compat")
        vocab = build_vocab([pair])
        with caplog.at_level(logging.WARNING):
            encode(pair, vocab, cfg)
        assert any("warned" in rec.message for rec in caplog.records)


class TestSplit:
    def test_ten_pairs(self):
        pairs = synth_generate(10, "compat", seed=1)
        train, valid, test = split(pairs, seed=1)
        assert (len(train), len(valid), len(test)) == (7, 1, 2)

    def test_corpus_scale_arithmetic(self):
        pairs = list(range(7969))
        train, valid, test = split(pairs, seed=2)
        assert (len(train), len(valid), len(test)) == (5579, 796, 1594)

    def test_same_seed_same_partition(self):
        pairs = synth_generate(40, "compat", seed=3)
        a = split(pairs, seed=9)
        b = split(pairs, seed=9)
        for pa, pb in zip(a, b):
            assert [p.id for p in pa] == [p.id for p in pb]

    def test_partitions_disjoint_and_exhaustive(self):
        pairs = synth_generate(123, "satisf", seed=4)
        train, valid, test = split(pairs, seed=5)
        ids = [p.id for p in train + valid + test]
        assert len(ids) == 123
        assert len(set(ids)) == 123

    def test_too_few_pairs(self):
        with pytest.raises(ConfigError):
            split(list(range(9)), seed=0)


class TestSynth:
    def test_gold_labels_mark_slot_tokens(self):
        (pair,) = synth_generate(1, "compat", seed=6)
        space = get_space("compat")
        labeled = [t for t, lab in zip(pair.question_tokens, pair.gold_labels)
                   if lab != "O"]
        assert labeled  # the slot filler is labeled
        # labeled tokens are contiguous and share one polarity label
        non_o = [lab for lab in pair.gold_labels if lab != "O"]
        assert len(set(non_o)) == 1
        assert all(lab in space for lab in pair.gold_labels)

    def test_polarity_mix_statistics(self):
        pairs = synth_generate(1000, "compat", seed=7,
                               polarity_mix=(0.5, 0.3, 0.2))
        space = get_space("compat")
        counts = {1: 0, 2: 0, 3: 0}
        for p in pairs:
            pol = max(space.polarity(space.index(lab))
                      for lab in p.gold_labels)
            counts[pol] += 1
        assert abs(counts[1] / 1000 - 0.5) <= 0.03
        assert abs(counts[2] / 1000 - 0.3) <= 0.03
        assert abs(counts[3] / 1000 - 0.2) <= 0.03

    def test_satisf_labels_function_words(self):
        pairs = synth_generate(50, "satisf", seed=8)
        func_labels = {"F-S", "F-UN", "F-U"}
        assert all(any(lab in func_labels for lab in p.gold_labels)
                   for p in pairs)

    def test_deterministic(self):
        a = synth_generate(20, "satisf", seed=9)
        b = synth_generate(20, "satisf", seed=9)
        assert a == b

    def test_bad_mix_rejected(self):
        for mix in ((0.5, 0.4, 0.2), (float("nan"), 0.5, 0.5),
                    (-0.5, 1.0, 0.5)):
            with pytest.raises(ConfigError):
                synth_generate(5, "compat", seed=0, polarity_mix=mix)

    def test_generator_decoder_roundtrip(self):
        for task in ("compat", "satisf"):
            space = get_space(task)
            for pair in synth_generate(60, task, seed=10):
                tuples = decode_tuples(pair.gold_labels, pair.question_tokens,
                                       pair.product_id, space)
                targets = [t for t in tuples if t.target_span is not None]
                assert len(targets) == 1
                start, end = targets[0].target_span
                assert (targets[0].target_text
                        == " ".join(pair.question_tokens[start:end]))
                # every function-word span was attached to the target
                assert len(tuples) == 1

    def test_encode_shapes_total(self):
        cfg = small_cfg(t_q=24, t_a=24)
        pairs = synth_generate(30, "compat", seed=11)
        vocab = build_vocab(pairs)
        for p in pairs:
            ex = encode(p, vocab, cfg)
            assert ex.x_q.shape == (24,)
            assert ex.x_a.shape == (24,)
            assert ex.y.shape == (24,)
