"""Per-layer timers for the traced benchmark run.

``Tracer`` wraps public danqa functions from outside the package and
restores them on exit; it never touches a value, so a traced run computes
exactly what an untraced one does. What it wraps:

- every op of ``danqa.tensor``: forward time per op, and the op's backward
  rule on the returned tensor is swapped for a timed one;
- ``BLSTMLayer.seq``/``pool`` on each model instance (named after the
  model attribute, e.g. ``ctx1_q``), ``layers.attend_step``,
  ``EmbeddingTable.lookup`` and ``layers.dense_shared`` as layer scopes: a
  layer's backward time is the time spent in backward rules of ops created
  while its forward call ran;
- ``Tensor.backward``, ``Adam.step`` and the training, model, corpus,
  embeddings, metrics and CLI functions a run goes through.

A function imported by name into other danqa modules is replaced in each of
them. Times are process CPU seconds, totals per run unless the name says
otherwise.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from danqa import cli, corpus, embeddings, layers, metrics, model, training
from danqa import tensor as tc

clock = time.process_time  # CPU time, as the end-to-end metrics use
BLSTM_ATTRS = ("ctx1_q", "ctx1_a", "ctx1_qa", "ctx2_q", "ctx2_a")
# ops made outside any layer scope that belong to the classifier head
HEAD_OPS = ("softmax_rows", "cross_entropy")
NOT_OPS = ("no_grad", "constant", "parameter")

# (module, function, metric) timed as inclusive wall time per call
FUNCTIONS = (
    (training, "evaluate_dataset", "training.evaluate_s"),
    (metrics, "score_for_task", "metrics.score_s"),
    (embeddings, "load_vectors", "embeddings.load_vectors_s"),
    (embeddings, "init_table", "embeddings.init_table_s"),
    (corpus, "synth_generate", "corpus.synth_generate_s"),
    (corpus, "load_corpus", "corpus.load_corpus_s"),
    (corpus, "encode", "corpus.encode_s"),
    (corpus, "build_vocab", "corpus.build_vocab_s"),
    (model, "load_checkpoint", "model.load_checkpoint_s"),
    (model, "save_checkpoint", "model.save_checkpoint_s"),
    (model, "decode_tuples", "model.decode_tuples_s"),
    (cli, "cmd_synth", "cli.synth_s"),
    (cli, "cmd_train", "cli.train_s"),
    (cli, "cmd_eval", "cli.eval_s"),
    (cli, "cmd_predict", "cli.predict_s"),
)
LAYER_FUNCTIONS = (
    (layers, "attend_step", "attention"),
    (layers, "dense_shared", "head"),
)

PER_LAYER = (
    "layers.attention.fwd_s", "layers.attention.bwd_s",
    "tensor.bmm.fwd_s", "tensor.bmm.bwd_s",
    *(f"layers.{name}.{d}_s" for name in BLSTM_ATTRS for d in ("fwd", "bwd")),
    "tensor.affine2.fwd_s", "tensor.affine2.bwd_s",
    "tensor.lstm_cell.fwd_s", "tensor.lstm_cell.bwd_s",
    "layers.lstm.cell_steps", "layers.lstm.real_step_ratio",
    "layers.embedding.fwd_s", "layers.embedding.bwd_s",
    "layers.head.fwd_s", "layers.head.bwd_s",
    "tensor.ops_per_step", "tensor.backward_rules_s", "tensor.tape_overhead_s",
    "training.steps", "training.step_s", "training.batch_loss_s",
    "training.backward_s", "training.adam_s", "training.evaluate_s",
    "metrics.score_s",
    "embeddings.load_vectors_s", "embeddings.init_table_s",
    "corpus.synth_generate_s",
    "corpus.load_corpus_s", "corpus.encode_s", "corpus.build_vocab_s",
    "model.load_checkpoint_s", "model.forward_batch_s",
    "model.decode_tuples_s", "cli.predict_s",
    "model.save_checkpoint_s", "cli.synth_s", "cli.train_s", "cli.eval_s",
)
COUNTS = ("layers.lstm.cell_steps", "tensor.ops_per_step", "training.steps")
RATIOS = ("layers.lstm.real_step_ratio", "trace.overhead_ratio")


def unit(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name in RATIOS:
        return "ratio"
    return "s"


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.scopes = []            # active layer scopes, innermost last
        self.cell_steps = 0         # lstm_cell rows computed
        self.scoped_steps = 0       # 2 * B * T over BLSTM calls, to cross-check
        self.real_steps = 0         # of those, rows whose input is a real token
        self.masks = None           # (q, a, qa) real-token counts of the batch
        self.step_start = None      # set between batch_loss and Adam.step
        self.step_ops = 0
        self.step_times = []
        self._restore = []

    # -- installation ---------------------------------------------------

    def _replace(self, owner, name, wrapper):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _replace_everywhere(self, module, name, wrapper):
        """Rebind ``module.name`` in every danqa module that imported it."""
        orig = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "danqa" or mod_name.startswith("danqa.")) \
                    and getattr(mod, name, None) is orig:
                self._replace(mod, name, wrapper)

    def __enter__(self):
        for name, fn in list(vars(tc).items()):
            if (callable(fn) and getattr(fn, "__module__", None) == tc.__name__
                    and not isinstance(fn, type) and not name.startswith("_")
                    and name not in NOT_OPS):
                self._replace_everywhere(tc, name, self._op(name, fn))
        for module, name, metric in FUNCTIONS:
            self._replace_everywhere(module, name,
                                     self._timed(getattr(module, name), metric))
        for module, name, layer in LAYER_FUNCTIONS:
            self._replace_everywhere(module, name,
                                     self._scoped(getattr(module, name), layer))
        self._replace_everywhere(training, "batch_loss",
                                 self._batch_loss(training.batch_loss))
        self._replace(training.Adam, "step", self._adam_step(training.Adam.step))
        self._replace(tc.Tensor, "backward",
                      self._timed(tc.Tensor.backward, "training.backward_s"))
        self._replace(layers.EmbeddingTable, "lookup",
                      self._scoped(layers.EmbeddingTable.lookup, "embedding"))
        self._replace(model.Model, "__init__",
                      self._model_init(model.Model.__init__))
        self._replace(model.Model, "forward_batch",
                      self._forward_batch(model.Model.forward_batch))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)
        return False

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn, metric):
        seconds = self.seconds

        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[metric] += clock() - t0
        return wrapped

    def _batch_loss(self, fn):
        """A training step runs from ``batch_loss(training=True)`` to ``Adam.step``."""
        timed = self._timed(fn, "training.batch_loss_s")

        def wrapped(model_, batch, training=True, rng=None):
            if training:
                self.step_start = clock()
            return timed(model_, batch, training=training, rng=rng)
        return wrapped

    def _adam_step(self, fn):
        timed = self._timed(fn, "training.adam_s")

        def wrapped(adam):
            timed(adam)
            self.step_times.append(clock() - self.step_start)
            self.step_start = None
        return wrapped

    def _scoped(self, fn, layer):
        seconds, scopes = self.seconds, self.scopes
        metric = f"layers.{layer}.fwd_s"

        def wrapped(*args, **kwargs):
            scopes.append(layer)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[metric] += clock() - t0
                scopes.pop()
        return wrapped

    def _blstm(self, fn, layer):
        """A BLSTM scope that also counts the real-token rows it consumes."""
        scoped = self._scoped(fn, layer)
        which = {"q": 0, "a": 1, "qa": 2}[layer.rsplit("_", 1)[1]]

        def wrapped(xs):
            self.scoped_steps += 2 * len(xs) * xs[0].shape[0]
            self.real_steps += 2 * self.masks[which]
            return scoped(xs)
        return wrapped

    def _model_init(self, init):
        def wrapped(model_self, *args, **kwargs):
            init(model_self, *args, **kwargs)
            for attr in BLSTM_ATTRS:
                layer = getattr(model_self, attr)
                if layer is not None:
                    layer.seq = self._blstm(layer.seq, attr)
                    layer.pool = self._blstm(layer.pool, attr)
        return wrapped

    def _forward_batch(self, forward):
        seconds = self.seconds

        def wrapped(model_self, examples, training=False, rng=None):
            q = int(sum(ex.q_mask.sum() for ex in examples))
            a = int(sum(ex.a_mask.sum() for ex in examples))
            self.masks = (q, a, q + a)
            t0 = clock()
            try:
                return forward(model_self, examples, training=training, rng=rng)
            finally:
                if not training:
                    seconds["model.forward_batch_s"] += clock() - t0
        return wrapped

    def _op(self, name, fn):
        seconds, scopes = self.seconds, self.scopes
        fwd, bwd = f"tensor.{name}.fwd_s", f"tensor.{name}.bwd_s"

        def wrapped(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            seconds[fwd] += dt
            layer = scopes[-1] if scopes else None
            if layer is None and name in HEAD_OPS:
                layer = "head"
                seconds["layers.head.fwd_s"] += dt
            if name == "lstm_cell":
                self.cell_steps += out.shape[0]
            rule = out._backward
            if rule is not None and not any(out is a for a in args):
                if self.step_start is not None:
                    self.step_ops += 1
                out._backward = self._timed_rule(rule, bwd, layer)
            return out
        return wrapped

    def _timed_rule(self, rule, op_metric, layer):
        seconds = self.seconds
        layer_metric = f"layers.{layer}.bwd_s" if layer else None

        def timed(g):
            t0 = clock()
            out = rule(g)
            dt = clock() - t0
            seconds[op_metric] += dt
            seconds["tensor.backward_rules_s"] += dt
            if layer_metric:
                seconds[layer_metric] += dt
            return out
        return timed

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        if self.cell_steps != self.scoped_steps:
            raise RuntimeError(
                f"lstm_cell computed {self.cell_steps} rows but the BLSTM "
                f"calls consumed {self.scoped_steps}")
        steps = len(self.step_times)
        values = dict(self.seconds)
        values.update({
            "layers.lstm.cell_steps": self.cell_steps,
            "layers.lstm.real_step_ratio":
                self.real_steps / self.cell_steps if self.cell_steps else 0.0,
            "tensor.ops_per_step": self.step_ops / steps if steps else 0,
            "tensor.tape_overhead_s": (values.get("training.backward_s", 0.0)
                                       - values.get("tensor.backward_rules_s", 0.0)),
            "training.steps": steps,
            "training.step_s": statistics.median(self.step_times) if steps else 0.0,
        })
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER}

