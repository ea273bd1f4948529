"""End-to-end benchmark of danqa: synth, train, eval and predict per workload.

    python3 bench/run.py --workload dan-micro-compat --seed 1 --seconds 5 --trace 0

Run from a source checkout; the benchmark imports danqa from its ``src``
directory and nothing else. One run, in its own process:

1. set-up: synthesises the training corpus and a held-out corpus from
   another seed, writes the test split and, for ``dan-full-vectors``, the
   seeded vector and n-gram files;
2. ``danqa train`` for a fixed number of epochs (patience = epochs);
3. ``danqa eval`` on the test split, and ``danqa predict`` on the same
   pairs, whose F1 from the benchmark's own scorer must equal eval's;
4. ``danqa predict`` on the held-out corpus, repeated for ``--seconds``;
5. checks every output (see checks.py).

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (danqa commands run and failed) and
``metrics``. With ``--trace 0`` these are the end-to-end metrics. With
``--trace 1`` an untraced twin of the run first runs in a child process;
the run then repeats with per-layer timers and reports the per-layer
metrics and the timers' overhead. Both make one held-out predict round.

Times are CPU seconds of the benchmark's process (``time.process_time``),
not wall time: on a shared virtual machine the hypervisor steals a varying
share of wall time, while every danqa command is single-threaded here.
Wall times go to the JSON line on standard error.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Single-threaded BLAS in the benchmark's processes only, set before numpy
# loads: steadier on a shared machine, and faster at the micro sizes, where
# each GEMM is small.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import inputs  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

F1_AGREEMENT = 1e-9
MIN_ROUNDS = 3  # held-out predict rounds, for a median


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    variant: str
    preset: str
    batch: int
    epochs: int
    lr: float
    corpus_pairs: int     # training corpus, split 70/10/20 by danqa
    heldout_pairs: int    # separate corpus from another seed, for predict
    min_f1: float | None  # least held-out F1 the trained model must reach
    vectors: bool = False


# lr 0.003 makes the micro models converge in about five epochs instead
# of nine; the work per step is that of the lr 0.001 runs.
WORKLOADS = {w.name: w for w in (
    Workload("dan-micro-compat", "compat", "dan", "micro", 128, 7, 0.003,
             2000, 1000, 0.90),
    Workload("blstm-micro-satisf", "satisf", "qa-s-blstm", "micro", 128, 6,
             0.003, 2000, 1000, 0.85),
    # 92 pairs split into 64 train (two steps of 32), 9 valid and 19 test
    Workload("dan-full-vectors", "compat", "dan", "full", 32, 4, 0.001,
             92, 64, None, vectors=True),
)}

END_TO_END = {"setup_s": "s", "train_examples_per_s": "examples/s",
              "predict_pairs_per_s": "pairs/s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """A danqa command failed or an output broke a check."""


def import_danqa():
    """Import danqa from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "danqa" / "__init__.py").is_file():
        raise BenchError(f"no danqa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import danqa
    if not Path(danqa.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported danqa from {danqa.__file__}, not {SRC}")


class Run:
    """One pass of a workload's pipeline in ``workdir``."""

    def __init__(self, spec: Workload, seed: int, workdir: Path):
        from danqa import cli
        self.cli = cli
        self.spec = spec
        self.t_q = cli.PRESETS[spec.preset]["t_q"]
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.wall = {}
        self.info = {"wall_s": self.wall}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def danqa(self, *argv) -> float:
        """Run one danqa command in-process; returns its CPU time.

        Its wall time goes to ``self.wall`` under the command's name.
        """
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sys.stderr):
            code = self.cli.main([str(a) for a in argv])
        cpu = time.process_time() - cpu
        self.wall.setdefault(argv[0], []).append(time.perf_counter() - wall)
        if code != 0:
            self.failed += 1
            raise BenchError(f"danqa {argv[0]} exited with {code}")
        return cpu

    def setup(self):
        from danqa.corpus import split
        spec, seed = self.spec, self.seed
        self.dir.mkdir(parents=True, exist_ok=True)
        self.danqa("synth", "--n", spec.corpus_pairs, "--task", spec.task,
                   "--seed", seed, "--out", self.path("corpus.jsonl"))
        self.danqa("synth", "--n", spec.heldout_pairs, "--task", spec.task,
                   "--seed", seed + 1_000_003, "--out", self.path("heldout.jsonl"))
        corpus = checks.read_jsonl(self.path("corpus.jsonl"))
        train, _, test = split(corpus, seed)
        self.n_train = len(train)
        with open(self.path("test.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(p) + "\n" for p in test)
        self.vector_args = ()
        if spec.vectors:
            tokens = sorted({t for p in corpus for t in p["question"] + p["answer"]})
            self.info["vector_files"] = inputs.write_vector_files(
                tokens, self.cli.PRESETS[spec.preset]["d_e"], seed,
                self.path("vectors.txt"), self.path("ngrams.txt"))
            self.vector_args = ("--vectors", self.path("vectors.txt"),
                                "--ngrams", self.path("ngrams.txt"))

    def measure(self, seconds: float, rounds: int | None = None) -> dict:
        """Train, eval and predict; ``rounds`` fixes the held-out rounds."""
        spec = self.spec
        out = self.dir / "model"
        times = {"train": self.danqa(
            "train", "--corpus", self.path("corpus.jsonl"), "--task", spec.task,
            "--variant", spec.variant, "--preset", spec.preset,
            "--epochs", spec.epochs, "--patience", spec.epochs,
            "--batch", spec.batch, "--lr", spec.lr, "--seed", self.seed,
            "--out", out, *self.vector_args)}
        ckpt = out / "best.ckpt"
        times["eval"] = self.danqa(
            "eval", "--checkpoint", ckpt, "--corpus", self.path("corpus.jsonl"),
            "--split", "test", "--report-out", self.path("report.json"))
        times["predict_test"] = self.danqa(
            "predict", "--checkpoint", ckpt, "--in", self.path("test.jsonl"),
            "--out", self.path("test_tuples.jsonl"))

        round_times = []
        first = None
        started = time.perf_counter()
        while (len(round_times) < (rounds or MIN_ROUNDS)
               or (rounds is None and time.perf_counter() - started < seconds)):
            tuples = self.path("heldout_tuples.jsonl")
            round_times.append(self.danqa("predict", "--checkpoint", ckpt,
                                          "--in", self.path("heldout.jsonl"),
                                          "--out", tuples))
            data = Path(tuples).read_bytes()
            if first is None:
                first = data
            elif data != first:
                raise BenchError("held-out predictions differ between rounds")
        times["predict_heldout"] = round_times

        self.history = (out / "history.jsonl").read_bytes()
        self.check()
        return times

    def check(self):
        spec = self.spec
        history = [json.loads(line) for line in self.history.splitlines()]
        losses = [h["train_loss"] for h in history]
        if len(losses) != spec.epochs:
            raise BenchError(f"trained {len(losses)} epochs, not {spec.epochs}")
        if not all(math.isfinite(x) for x in losses) or losses[-1] >= losses[0]:
            raise BenchError(f"training loss did not fall: {losses}")

        test = checks.read_jsonl(self.path("test.jsonl"))
        test_rows = checks.read_jsonl(self.path("test_tuples.jsonl"))
        checks.check_predictions(test, test_rows, self.t_q)
        eval_f1 = json.loads(Path(self.path("report.json")).read_text())["avg_f1"]
        test_f1 = checks.score(test, test_rows, self.t_q)
        if abs(eval_f1 - test_f1) > F1_AGREEMENT:
            raise BenchError(f"danqa eval F1 {eval_f1!r} != benchmark scorer "
                             f"F1 {test_f1!r} on the test split")

        heldout = checks.read_jsonl(self.path("heldout.jsonl"))
        rows = checks.read_jsonl(self.path("heldout_tuples.jsonl"))
        checks.check_predictions(heldout, rows, self.t_q)
        heldout_f1 = checks.score(heldout, rows, self.t_q)
        if spec.min_f1 is not None and heldout_f1 < spec.min_f1:
            raise BenchError(f"held-out F1 {heldout_f1:.4f} < {spec.min_f1}")
        exact = sum(row["tuples"] == checks.expected_tuples(pair, self.t_q)
                    for pair, row in zip(heldout, rows))
        self.info.update(test_f1=test_f1, heldout_f1=heldout_f1,
                         heldout_exact_tuples=exact / len(heldout),
                         train_losses=losses)


def untraced_twin(name: str, seed: int, workdir: str) -> dict:
    """The untraced run a traced run is compared with (child process)."""
    import_danqa()
    run = Run(WORKLOADS[name], seed, Path(workdir))
    try:
        run.setup()
        times = run.measure(0.0, rounds=1)
    except (BenchError, checks.CheckError) as exc:
        return {"error": str(exc), "attempted": run.attempted,
                "failed": run.failed}
    return {"times": times, "history": run.history.decode(),
            "attempted": run.attempted, "failed": run.failed}


TWIN = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "print(json.dumps(run.untraced_twin(sys.argv[2], int(sys.argv[3]), "
        "sys.argv[4])))")


def fixed_work(times: dict) -> float:
    return (times["train"] + times["eval"] + times["predict_test"]
            + sum(times["predict_heldout"]))


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup()
    setup_s = time.process_time()
    times = run.measure(seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    heldout = run.spec.heldout_pairs
    return {
        "setup_s": setup_s,
        "train_examples_per_s": run.n_train * run.spec.epochs / times["train"],
        "predict_pairs_per_s": statistics.median(
            heldout / t for t in times["predict_heldout"]),
        "peak_rss_mb": rss,
    }, times


def run_traced(run: Run, workdir: Path) -> tuple[dict, dict]:
    import tracing
    child = subprocess.run(
        [sys.executable, "-c", TWIN, str(Path(__file__).parent), run.spec.name,
         str(run.seed), str(workdir / "untraced")],
        stdout=subprocess.PIPE, text=True, check=False, timeout=150)
    if child.returncode != 0:
        raise BenchError(f"untraced twin exited with {child.returncode}")
    twin = json.loads(child.stdout.splitlines()[-1])
    run.attempted += twin["attempted"]
    run.failed += twin["failed"]
    if "error" in twin:
        raise BenchError(f"untraced twin: {twin['error']}")
    with tracing.Tracer() as tracer:
        run.setup()
        times = run.measure(0.0, rounds=1)
    if run.history.decode() != twin["history"]:
        raise BenchError("traced training history differs from the untraced one")
    values = tracer.metrics()
    values["trace.overhead_ratio"] = (fixed_work(times)
                                      / fixed_work(twin["times"]) - 1.0)
    return values, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        import_danqa()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    workdir = RUNS / f"{spec.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(spec, args.seed, workdir / "traced" if args.trace else workdir)
    correct = True
    values, times = {}, {}
    try:
        if args.trace:
            values, times = run_traced(run, workdir)
        else:
            values, times = run_untraced(run, args.seconds)
    except (BenchError, checks.CheckError) as exc:
        print(f"bench: {spec.name} seed {args.seed}: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # the result line below reports the failed run
        traceback.print_exc()
        correct = False
    if not correct:
        print(f"bench: outputs kept in {workdir}", file=sys.stderr)
    print(json.dumps({"workload": spec.name, "seed": args.seed,
                      "times": times, **run.info}), file=sys.stderr)
    if args.trace:
        import tracing
        units = {k: tracing.unit(k) for k in values}
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }))
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
