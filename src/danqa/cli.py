"""Command-line interface: synth, train, eval, predict, gradcheck, report.

Exit codes: 0 success, 1 usage or file error, 2 validation, 3 numeric
failure. Every artifact-producing run writes a JSON manifest next to its
primary output so reruns can reproduce it from the recorded flags and seed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import shutil
import sys
from pathlib import Path

from . import gradcheck as gradcheck_mod
from .corpus import build_vocab, encode, load_corpus, save_corpus, split, synth_generate
from .embeddings import init_table, load_vectors
from .errors import (ConfigError, ContractError, NumericError, ShapeError,
                     UsageError, ValidationError, VocabError)
from .labels import TASKS
from .metrics import TABLE_HEADERS, render_table
from .model import (VARIANTS, Model, ModelConfig, decode_tuples, load_checkpoint,
                    predict_label_batches, save_checkpoint)
from .training import TrainConfig, evaluate_dataset, fit

logger = logging.getLogger(__name__)

PRESETS = {
    "micro": {"d_e": 64, "blstm_dim": 64, "t_q": 24, "t_a": 24},
    "full": {"d_e": 300, "blstm_dim": 128, "t_q": 82, "t_a": 82},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_manifest(primary_output, command: str, args: argparse.Namespace,
                   outputs: dict):
    path = Path(str(primary_output) + ".manifest.json")
    manifest = {
        "command": command,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "outputs": outputs,
        "created_utc": _utcnow(),
    }
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n",
                    encoding="utf-8")
    return path


def _parse_mix(text: str):
    try:
        mix = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--mix must be three comma-separated floats, got {text!r}")
    # a NaN weight fails ``>= 0`` too
    if (len(mix) != 3 or not all(w >= 0.0 for w in mix)
            or abs(sum(mix) - 1.0) > 1e-9):
        raise UsageError(
            f"--mix must be 3 non-negative weights summing to 1, got {text!r}")
    return mix


def cmd_synth(args) -> int:
    mix = _parse_mix(args.mix)
    pairs = synth_generate(args.n, args.task, args.seed, mix)
    save_corpus(pairs, args.out)
    write_manifest(args.out, "synth", args, {"corpus": str(args.out)})
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _resolve_model_dims(args) -> dict:
    dims = dict(PRESETS["full"])
    if args.preset:
        dims.update(PRESETS[args.preset])
    for key, flag in (("d_e", args.d_e), ("blstm_dim", args.blstm),
                      ("t_q", args.tq), ("t_a", args.ta)):
        if flag is not None:
            dims[key] = flag
    return dims


def _load_task_corpus(path, task: str):
    pairs = load_corpus(path)
    bad = [p.id for p in pairs if p.task != task]
    if bad:
        raise ValidationError(
            f"{len(bad)} pairs have a different task than {task!r} "
            f"(first: {bad[0]})"
        )
    return pairs


def _check_train_flags(args):
    # the chained comparison is False for NaN too
    if not 0.0 < args.lr < float("inf"):
        raise UsageError(f"--lr must be a finite number > 0, got {args.lr}")
    for flag, value in (("--epochs", args.epochs), ("--patience", args.patience)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")


def cmd_train(args) -> int:
    _check_train_flags(args)
    dims = _resolve_model_dims(args)
    pairs = _load_task_corpus(args.corpus, args.task)
    train_pairs, valid_pairs, test_pairs = split(pairs, args.seed)
    vocab = build_vocab(train_pairs, min_count=args.min_count)

    cfg = ModelConfig(variant=args.variant, task=args.task,
                      dropout_rate=args.dropout, seed=args.seed, **dims)
    train_ex = [encode(p, vocab, cfg) for p in train_pairs]
    valid_ex = [encode(p, vocab, cfg) for p in valid_pairs]

    embedding = None
    if args.vectors:
        vectors = load_vectors(args.vectors, cfg.d_e, ngram_path=args.ngrams)
        embedding = init_table(vocab, vectors, cfg.d_e, args.seed)
    model = Model(cfg, vocab.size, embedding=embedding)

    tcfg = TrainConfig(batch_size=args.batch, max_epochs=args.epochs,
                       patience=args.patience, seed=args.seed, lr=args.lr)
    model, history, summary = fit(model, train_ex, valid_ex, tcfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    best_f1 = max(summary["best_f1"], 0.0)
    ckpt = out / f"checkpoint_ep{summary['best_epoch']:03d}_f1{best_f1:.4f}.ckpt"
    extra = {"min_count": args.min_count, "best_epoch": summary["best_epoch"],
             "best_valid_f1": best_f1}
    save_checkpoint(ckpt, model, vocab, extra=extra)
    shutil.copyfile(ckpt, out / "best.ckpt")

    history_path = out / "history.jsonl"
    with open(history_path, "w", encoding="utf-8") as fh:
        for entry in history:
            fh.write(json.dumps(entry) + "\n")

    write_manifest(out / "run", "train", args, {
        "checkpoint": str(ckpt), "best": str(out / "best.ckpt"),
        "history": str(history_path),
        "split_sizes": [len(train_pairs), len(valid_pairs), len(test_pairs)],
    })
    print(f"best epoch {summary['best_epoch']} valid_f1={best_f1:.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def _single_task(tasks, what: str) -> str:
    """The one task that ``tasks`` share; a mix is a usage error."""
    distinct = sorted(set(tasks))
    if len(distinct) > 1:
        raise UsageError(f"{what} mix tasks {distinct}; use them separately")
    return distinct[0]


def _eval_one(model, vocab, manifest, corpus_path, which_split: str):
    cfg = model.cfg
    pairs = _load_task_corpus(corpus_path, cfg.task)
    train_pairs, _, test_pairs = split(pairs, cfg.seed)
    rebuilt = build_vocab(train_pairs,
                          min_count=manifest["extra"].get("min_count", 1))
    if rebuilt.sha256() != manifest["vocab_hash"]:
        raise ValidationError(
            "cannot evaluate: the vocabulary rebuilt from this corpus's "
            "training split does not match the checkpoint's vocabulary hash; "
            "the checkpoint was trained on different data or settings"
        )
    chosen = test_pairs if which_split == "test" else pairs
    examples = [encode(p, vocab, cfg) for p in chosen]
    row = dict(evaluate_dataset(model, examples)["report"].to_json())
    row["method"] = cfg.variant
    row["task"] = cfg.task
    return row


def cmd_eval(args) -> int:
    loaded = [load_checkpoint(ckpt) for ckpt in args.checkpoint]
    task = _single_task([model.cfg.task for model, _, _ in loaded],
                        "checkpoints")
    rows = [_eval_one(*ckpt, args.corpus, args.split) for ckpt in loaded]
    table = render_table(task, [(r["method"], r) for r in rows])
    print(table)
    if args.report_out:
        payload = rows[0] if len(rows) == 1 else {"task": task, "rows": rows}
        Path(args.report_out).write_text(json.dumps(payload, indent=2) + "\n",
                                         encoding="utf-8")
        write_manifest(args.report_out, "eval", args,
                       {"report": str(args.report_out)})
    return 0


def cmd_predict(args) -> int:
    model, vocab, _ = load_checkpoint(args.checkpoint)
    cfg = model.cfg
    pairs = load_corpus(args.infile)
    mismatched = [p.id for p in pairs if p.task != cfg.task]
    if mismatched:
        raise UsageError(
            f"checkpoint is for task {cfg.task!r} but {len(mismatched)} input "
            f"pairs are not (first: {mismatched[0]})"
        )
    examples = [encode(p, vocab, cfg) for p in pairs]
    label_rows = predict_label_batches(model, examples)
    with open(args.out, "w", encoding="utf-8") as fh:
        for pair, row in zip(pairs, label_rows):
            tokens = pair.question_tokens[:cfg.t_q]
            tuples = decode_tuples(row[:len(tokens)], tokens, pair.product_id,
                                   cfg.space)
            fh.write(json.dumps({
                "id": pair.id,
                "product_id": pair.product_id,
                "tuples": [t.to_json() for t in tuples],
            }) + "\n")
    write_manifest(args.out, "predict", args, {"tuples": str(args.out)})
    print(f"wrote predictions for {len(pairs)} pairs to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.max_elements is not None and args.max_elements < 1:
        raise UsageError(
            f"--max-elements must be >= 1, got {args.max_elements}")
    ok, results, elapsed = gradcheck_mod.run(seed=args.seed,
                                             max_elements=args.max_elements)
    for variant, report in results.items():
        worst_param = max(report, key=lambda k: report[k]["max_rel_err"])
        print(f"{variant}: max rel err {report[worst_param]['max_rel_err']:.3e} "
              f"({worst_param})")
    payload = {"ok": ok, "elapsed_sec": elapsed, "results": results}
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_manifest(out, "gradcheck", args, {"report": str(out)})
    if not ok:
        variant, name, err = gradcheck_mod.worst_entry(results)
        print(f"FAIL: {variant} parameter {name} rel err {err:.3e} exceeds "
              f"{gradcheck_mod.TOLERANCE}", file=sys.stderr)
        return 3
    print(f"gradient check passed in {elapsed:.1f}s")
    return 0


def _report_rows(path) -> list:
    """The rows of one saved eval report, one report or a ``rows`` list."""
    metrics = ("avg_f1", "extraction_f1", "polarity_acc")
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValidationError(f"{path} is not an eval report: {exc}") from None
    rows = data.get("rows", [data]) if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and isinstance(r.get("method"), str)
            and r.get("task") in tuple(TABLE_HEADERS)
            and all(type(r.get(k)) in (int, float) for k in metrics)
            for r in rows):
        raise ValidationError(
            f"{path} is not an eval report: each row needs a method, a task "
            f"in {sorted(TABLE_HEADERS)} and numeric {', '.join(metrics)}")
    return rows


def cmd_report(args) -> int:
    rows = [row for path in args.reports for row in _report_rows(path)]
    if not rows:
        raise UsageError("no report rows found")
    task = _single_task([row["task"] for row in rows], "reports")
    print(render_table(task, [(row["method"], row) for row in rows]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="danqa", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mix", default="0.5,0.3,0.2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a labeled corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--variant", default="dan", choices=VARIANTS)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--d-e", dest="d_e", type=int, default=None)
    p.add_argument("--blstm", type=int, default=None)
    p.add_argument("--tq", type=int, default=None)
    p.add_argument("--ta", type=int, default=None)
    p.add_argument("--preset", choices=tuple(PRESETS), default=None)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--min-count", dest="min_count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vectors", default=None)
    p.add_argument("--ngrams", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on a corpus")
    p.add_argument("--checkpoint", action="append", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("test", "all"), default="test")
    p.add_argument("--report-out", dest="report_out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="extract tuples from QA pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all variants")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-elements", dest="max_elements", type=int,
                   default=None,
                   help="sample at most this many elements per parameter "
                        "(default: exhaustive)")
    p.add_argument("--out", default="gradcheck_report.json")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="render saved eval reports as one table")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable input or output path
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, ConfigError, VocabError, ContractError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
