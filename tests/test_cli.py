"""CLI surface: commands, exit codes, manifests, file schemas."""

import json
from pathlib import Path

import pytest

from danqa import tensor as tc
from danqa.cli import PRESETS, build_parser, main
from danqa.corpus import load_corpus
from danqa.model import load_checkpoint
from test_model import MALFORMED_CHECKPOINTS, spoil_checkpoint


def run(*argv):
    return main(list(argv))


def train_args(corpus, out, **over):
    flags = {
        "--corpus": str(corpus), "--task": "compat", "--epochs": "2",
        "--batch": "16", "--d-e": "16", "--blstm": "16", "--tq": "12",
        "--ta": "12", "--seed": "3", "--out": str(out),
    }
    flags.update({k: str(v) for k, v in over.items()})
    argv = ["train"]
    for k, v in flags.items():
        argv += [k, v]
    return argv


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small trained model shared by the eval/predict tests."""
    root = tmp_path_factory.mktemp("tiny")
    corpus = root / "corpus.jsonl"
    assert run("synth", "--n", "60", "--task", "compat", "--seed", "1",
               "--out", str(corpus)) == 0
    out = root / "run"
    assert run(*train_args(corpus, out, **{"--epochs": "6"})) == 0
    return {"corpus": corpus, "out": out,
            "checkpoint": out / "best.ckpt", "root": root}


class TestSynth:
    def test_output_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert run("synth", "--n", "10", "--task", "compat", "--out",
                   str(path)) == 0
        assert len(load_corpus(path)) == 10
        assert Path(str(path) + ".manifest.json").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("synth", "--n", "25", "--task", "satisf", "--seed", "7",
            "--out", str(a))
        run("synth", "--n", "25", "--task", "satisf", "--seed", "7",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_polarity_mix(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert run("synth", "--n", "1000", "--task", "compat", "--seed", "2",
                   "--mix", "0.5,0.3,0.2", "--out", str(path)) == 0
        pairs = load_corpus(path)
        counts = {1: 0, 2: 0, 3: 0}
        polarity_of = {"C": 1, "I": 2, "U": 3}
        for p in pairs:
            pol = next(polarity_of[lab] for lab in p.gold_labels if lab != "O")
            counts[pol] += 1
        for pol, want in ((1, 0.5), (2, 0.3), (3, 0.2)):
            assert abs(counts[pol] / 1000 - want) <= 0.03

    @pytest.mark.parametrize("mix", ["0.5,0.4,0.2", "nan,0.5,0.5",
                                     "-0.5,1.0,0.5"],
                             ids=["sum_above_one", "nan_weight",
                                  "negative_weight"])
    def test_bad_mix_is_usage_error(self, tmp_path, capsys, mix):
        code = run("synth", "--n", "5", "--task", "compat",
                   f"--mix={mix}", "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert mix in err and len(err.splitlines()) == 1


class TestTrain:
    def test_defaults_match_published_hyperparameters(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--corpus", "x", "--task",
                                  "compat", "--out", "y"])
        assert args.batch == 128
        assert args.lr == 0.001
        assert args.dropout == 0.1
        assert PRESETS["full"] == {"d_e": 300, "blstm_dim": 128,
                                    "t_q": 82, "t_a": 82}

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "-0.5"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
        ("--epochs", "0"), ("--patience", "0")],
        ids=["lr_negative", "lr_zero", "lr_nan", "lr_inf", "epochs_zero",
             "patience_zero"])
    def test_bad_training_flag_is_usage_error(self, tmp_path, capsys, flag,
                                              value):
        # the corpus does not exist: the flag must be refused before it is read
        out = tmp_path / "run"
        code = run(*train_args(tmp_path / "missing.jsonl", out,
                               **{flag: value}))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("usage error:") and len(err.splitlines()) == 1
        assert flag in err and value in err
        assert not out.exists()

    def test_baseline_variant_trains(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--n", "20", "--task", "compat", "--seed", "5",
            "--out", str(corpus))
        out = tmp_path / "run"
        assert run(*train_args(corpus, out, **{"--epochs": "1",
                                               "--variant": "qa-s-blstm"})) == 0
        model, _, manifest = load_checkpoint(out / "best.ckpt")
        assert model.cfg.variant == "qa-s-blstm"
        assert not any(n.startswith("ctx1_qa") for n in model.params())
        assert manifest["extra"]["best_epoch"] == 1
        assert len((out / "history.jsonl").read_text().splitlines()) == 1
        assert (out / "run.manifest.json").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--blstm", "-2", "blstm_dim"), ("--blstm", "0", "blstm_dim"),
        ("--d-e", "-3", "d_e"), ("--d-e", "0", "d_e")])
    def test_bad_model_width_is_validation_error(self, tmp_path, capsys, flag,
                                                 value, field):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--n", "20", "--task", "compat", "--seed", "5",
            "--out", str(corpus))
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(*train_args(corpus, out, **{flag: value})) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("validation error:") and field in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_corpus_validation_before_training(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "1"}\n')
        assert run(*train_args(bad, tmp_path / "run")) == 2

    def test_task_mismatch_rejected(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--n", "20", "--task", "satisf", "--seed", "6",
            "--out", str(corpus))
        assert run(*train_args(corpus, tmp_path / "run")) == 2


class TestEval:
    def test_report_schema(self, tiny_run, tmp_path):
        report = tmp_path / "report.json"
        assert run("eval", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--corpus", str(tiny_run["corpus"]),
                   "--report-out", str(report)) == 0
        data = json.loads(report.read_text())
        for key in ("avg_f1", "extraction_f1", "polarity_acc", "per_class"):
            assert key in data
        assert data["method"] == "dan"

    def test_missing_checkpoint_is_one_line_usage_error(self, tiny_run,
                                                        tmp_path, capsys):
        missing = tmp_path / "missing.ckpt"
        code = run("eval", "--checkpoint", str(missing),
                   "--corpus", str(tiny_run["corpus"]))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert str(missing) in err and len(err.splitlines()) == 1

    def test_vocab_hash_mismatch_refused(self, tiny_run, tmp_path):
        other = tmp_path / "other.jsonl"
        run("synth", "--n", "40", "--task", "compat", "--seed", "99",
            "--out", str(other))
        code = run("eval", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--corpus", str(other))
        assert code == 2

    def test_mixed_task_checkpoints_are_usage_error(self, tiny_run, tmp_path,
                                                     capsys):
        corpus = tmp_path / "s.jsonl"
        run("synth", "--n", "20", "--task", "satisf", "--seed", "8",
            "--out", str(corpus))
        assert run(*train_args(corpus, tmp_path / "run", **{
            "--task": "satisf", "--epochs": "1"})) == 0
        capsys.readouterr()
        code = run("eval", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
                   "--corpus", str(tiny_run["corpus"]))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "mix tasks" in err and len(err.splitlines()) == 1


class TestPredict:
    def test_output_schema(self, tiny_run, tmp_path):
        out = tmp_path / "tuples.jsonl"
        assert run("predict", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--in", str(tiny_run["corpus"]), "--out", str(out)) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 60
        for rec in lines:
            assert set(rec) == {"id", "product_id", "tuples"}
            for t in rec["tuples"]:
                assert set(t) == {"product_id", "target", "target_span",
                                  "function_words", "function_spans",
                                  "polarity"}
                assert t["polarity"] in (1, 2, 3)
        assert Path(str(out) + ".manifest.json").exists()

    def test_task_mismatch_is_usage_error(self, tiny_run, tmp_path):
        other = tmp_path / "satisf.jsonl"
        run("synth", "--n", "12", "--task", "satisf", "--seed", "8",
            "--out", str(other))
        code = run("predict", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--in", str(other), "--out", str(tmp_path / "x.jsonl"))
        assert code == 1


    def test_missing_checkpoint_is_one_line_usage_error(self, tiny_run,
                                                        tmp_path, capsys):
        missing = tmp_path / "missing.ckpt"
        code = run("predict", "--checkpoint", str(missing),
                   "--in", str(tiny_run["corpus"]),
                   "--out", str(tmp_path / "x.jsonl"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert str(missing) in err and len(err.splitlines()) == 1

    def test_missing_input_is_one_line_usage_error(self, tiny_run, tmp_path,
                                                   capsys):
        missing = tmp_path / "missing.jsonl"
        code = run("predict", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--in", str(missing), "--out", str(tmp_path / "x.jsonl"))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert str(missing) in err and len(err.splitlines()) == 1

    def test_non_object_input_line_is_validation_error(self, tiny_run,
                                                        tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("5\n")
        code = run("predict", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--in", str(bad), "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "line 1: expected a JSON object" in capsys.readouterr().err

    def test_wrong_field_type_is_validation_error(self, tiny_run, tmp_path,
                                                  capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "id": "x", "product_id": "p", "task": "compat",
            "question": ["a", "b"], "answer": ["yes"], "labels": 5}) + "\n")
        code = run("predict", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--in", str(bad), "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "line 1: pair x: labels must be" in capsys.readouterr().err

    @pytest.mark.parametrize("how", MALFORMED_CHECKPOINTS)
    def test_malformed_checkpoint_is_one_line_error(self, tiny_run, tmp_path,
                                                    capsys, how):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(tiny_run["checkpoint"].read_bytes())
        spoil_checkpoint(bad, how)
        code = run("predict", "--checkpoint", str(bad),
                   "--in", str(tiny_run["corpus"]),
                   "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert str(bad) in err and len(err.splitlines()) == 1


class TestGradcheckCommand:
    def test_sampled_run_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("gradcheck", "--max-elements", "2") == 0
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert report["ok"] is True
        assert set(report["results"]) == {"dan", "dan-no-ans-attn",
                                          "qa-s-blstm", "qa-coattention"}

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_elements_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                        count):
        monkeypatch.chdir(tmp_path)
        assert run("gradcheck", "--max-elements", count) == 1
        err = capsys.readouterr().err.strip()
        assert "--max-elements" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "gradcheck_report.json").exists()

    def test_corrupted_backward_detected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        true_loss = tc.cross_entropy

        def broken_loss(*args):
            out = true_loss(*args)
            if out._backward is not None:
                good = out._backward
                out._backward = lambda g: tuple(
                    None if p is None else 1.02 * p for p in good(g))
            return out

        monkeypatch.setattr(tc, "cross_entropy", broken_loss)
        code = run("gradcheck", "--max-elements", "2", "--out",
                   str(tmp_path / "bad.json"))
        assert code == 3
        report = json.loads((tmp_path / "bad.json").read_text())
        assert report["ok"] is False


class TestReport:
    def test_combined_table(self, tiny_run, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        run("eval", "--checkpoint", str(tiny_run["checkpoint"]),
            "--corpus", str(tiny_run["corpus"]), "--report-out", str(r1))
        capsys.readouterr()
        assert run("report", str(r1), str(r1)) == 0
        out = capsys.readouterr().out
        assert "PCA F1" in out
        assert out.count("dan") >= 2

    @pytest.fixture(scope="class")
    def compat_report(self, tiny_run, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "compat.json"
        assert run("eval", "--checkpoint", str(tiny_run["checkpoint"]),
                   "--corpus", str(tiny_run["corpus"]),
                   "--report-out", str(path)) == 0
        return path

    def test_mixed_tasks_are_usage_error(self, compat_report, tmp_path,
                                         capsys):
        row = json.loads(compat_report.read_text())
        satisf = tmp_path / "satisf.json"
        satisf.write_text(json.dumps(dict(row, task="satisf")))
        capsys.readouterr()
        assert run("report", str(compat_report), str(satisf)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "mix tasks" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("content", [
        "not json {", "[1, 2]", '{"rows": 5}',
        '{"method": "dan", "avg_f1": 0.5, "extraction_f1": 0.5, '
        '"polarity_acc": 0.5}',
        '{"method": "dan", "task": "compat", "avg_f1": "high", '
        '"extraction_f1": 0.5, "polarity_acc": 0.5}'],
        ids=["not_json", "list", "rows_not_list", "row_without_task",
             "text_metric"])
    def test_non_report_is_validation_error(self, compat_report, tmp_path,
                                            capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        capsys.readouterr()
        assert run("report", str(compat_report), str(bad)) == 2
        err = capsys.readouterr().err.strip()
        assert str(bad) in err and len(err.splitlines()) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("eval", "--nonsense") == 1
