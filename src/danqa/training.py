"""Mini-batch Adam training with validation-based model selection."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ContractError, NumericError
from .metrics import score_for_task, spans_from_labels
from .model import Model, predict_label_batches

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 10
    patience: int = 5
    seed: int = 0
    lr: float = 0.001
    stop_at_token_acc: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter map (sorted iteration)."""

    def __init__(self, params: dict, lr: float = 0.001):
        self.params = dict(sorted(params.items()))
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        """Apply one update from the accumulated gradients, then zero them."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            if name not in self.m:
                raise ContractError(f"no moment buffers for parameter {name}")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.zero_grad()


def batch_loss(model: Model, batch, training: bool = True, rng=None):
    """Summed masked cross entropy of a batch (PAD positions excluded)."""
    if not batch:
        raise ContractError("batch_loss needs a non-empty batch")
    logits = model.forward_batch(batch, training=training, rng=rng)
    y = np.stack([ex.y for ex in batch], axis=1).reshape(-1)
    mask = np.stack([ex.q_mask for ex in batch], axis=1).reshape(-1)
    return tc.cross_entropy(logits, y, mask)


def evaluate_dataset(model: Model, examples) -> dict:
    """Span metrics plus non-PAD token accuracy on encoded examples."""
    space = model.cfg.space
    pred_rows = predict_label_batches(model, examples, batch_size=256)
    pred_spans, gold_spans = [], []
    hits = total = 0
    for row, ex in zip(pred_rows, examples):
        n = int(ex.q_mask.sum())
        pred, gold = row[:n], ex.y[:n]
        hits += int((pred == gold).sum())
        total += n
        pred_spans.append(spans_from_labels(pred, space))
        gold_spans.append(spans_from_labels(gold, space))
    report = score_for_task(model.cfg.task, pred_spans, gold_spans)
    return {
        "avg_f1": report.avg_f1,
        "extraction_f1": report.extraction_f1,
        "polarity_acc": report.polarity_acc,
        "token_acc": hits / total if total else 1.0,
        "report": report,
    }


def _snapshot(model: Model) -> dict:
    return {k: p.data.copy() for k, p in model.params().items()}


def _restore(model: Model, state: dict):
    for k, p in model.params().items():
        p.data[...] = state[k]


def fit(model: Model, train, valid, tcfg: TrainConfig):
    """Train with early stopping; returns (model, history, best).

    Each epoch shuffles by seed XOR epoch, sums the batch losses, then
    scores the validation set. ``model`` gets back the parameters of the
    epoch with the best validation span F1, ``history`` has one entry per
    epoch run, and ``best`` holds that ``best_epoch`` and its ``best_f1``.
    """
    params = model.params()
    adam = Adam(params, lr=tcfg.lr)
    drop_rng = np.random.default_rng(tcfg.seed)
    history = []
    best_f1 = -1.0
    best_epoch = 0
    best_state = _snapshot(model)

    n = len(train)
    for epoch in range(1, tcfg.max_epochs + 1):
        order = np.random.default_rng(tcfg.seed ^ epoch).permutation(n)
        epoch_loss = 0.0
        for bi, lo in enumerate(range(0, n, tcfg.batch_size)):
            batch = [train[i] for i in order[lo:lo + tcfg.batch_size]]
            loss = batch_loss(model, batch, training=True, rng=drop_rng)
            value = loss.item()
            if not math.isfinite(value):
                norms = {k: float(np.linalg.norm(p.data))
                         for k, p in params.items()}
                raise NumericError(
                    f"non-finite loss {value} at epoch {epoch} batch {bi}; "
                    f"parameter norms: {norms}"
                )
            loss.backward()
            adam.step()
            epoch_loss += value

        metrics = evaluate_dataset(model, valid)
        entry = {
            "epoch": epoch,
            "train_loss": epoch_loss,
            "valid": {k: metrics[k] for k in
                      ("avg_f1", "extraction_f1", "polarity_acc", "token_acc")},
        }
        history.append(entry)
        logger.info("epoch %d: train_loss=%.4f valid_f1=%.4f token_acc=%.4f",
                    epoch, epoch_loss, metrics["avg_f1"], metrics["token_acc"])

        # reaching the asked-for token accuracy keeps this state, and stops
        reached = (tcfg.stop_at_token_acc is not None
                   and metrics["token_acc"] >= tcfg.stop_at_token_acc)
        if reached or metrics["avg_f1"] > best_f1:
            best_f1 = metrics["avg_f1"]
            best_epoch = epoch
            best_state = _snapshot(model)
        if reached or epoch - best_epoch >= tcfg.patience:
            break

    _restore(model, best_state)
    return model, history, {"best_epoch": best_epoch, "best_f1": best_f1}
