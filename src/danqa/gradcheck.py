"""Finite-difference verification of every parameter gradient.

Central differences with step 1e-4 in double precision are compared
against the backward pass of the batch loss on a tiny two-example model.
The relative error uses max(|analytic|, |numeric|, ERROR_FLOOR) as
denominator so near-zero gradients are judged by an absolute criterion.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import replace

import numpy as np

from . import tensor as tc
from .corpus import build_vocab, encode, synth_generate
from .model import Model, ModelConfig, VARIANTS
from .training import batch_loss

EPS = 1e-4
TOLERANCE = 1e-4
ERROR_FLOOR = 1e-3

MICRO = {"d_e": 8, "blstm_dim": 8, "t_q": 6, "t_a": 6, "dropout_rate": 0.0}


def micro_batch(seed: int = 0):
    """Two encoded synthetic compat examples matching the micro widths."""
    cfg = ModelConfig(task="compat", seed=seed, **MICRO)
    pairs = synth_generate(2, "compat", seed)
    vocab = build_vocab(pairs)
    return cfg, vocab, [encode(p, vocab, cfg) for p in pairs]


def check_model(model: Model, batch, max_elements: int | None = None):
    """Per-parameter maximum relative error of backward vs finite differences."""
    model.zero_grad()
    loss = batch_loss(model, batch, training=False)
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in model.params().items()}
    model.zero_grad()

    def loss_value():
        with tc.no_grad():
            return batch_loss(model, batch, training=False).item()

    report = {}
    for name, p in model.params().items():
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        if max_elements is not None and flat.size > max_elements:
            picks = np.random.default_rng(zlib.crc32(name.encode())).choice(
                flat.size, size=max_elements, replace=False)
        else:
            picks = range(flat.size)
        worst = 0.0
        worst_idx = -1
        for i in picks:
            orig = flat[i]
            flat[i] = orig + EPS
            up = loss_value()
            flat[i] = orig - EPS
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2.0 * EPS)
            err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), ERROR_FLOOR)
            if err > worst:
                worst, worst_idx = err, int(i)
        report[name] = {"max_rel_err": worst, "element": worst_idx}
    return report


def run(seed: int = 0, max_elements: int | None = None):
    """Gradient-check every variant; returns (ok, per-variant report, seconds)."""
    started = time.monotonic()
    cfg, vocab, batch = micro_batch(seed=seed)
    results = {}
    ok = True
    for variant in VARIANTS:
        model = Model(replace(cfg, variant=variant), vocab.size)
        report = check_model(model, batch, max_elements=max_elements)
        results[variant] = report
        if any(r["max_rel_err"] > TOLERANCE for r in report.values()):
            ok = False
    return ok, results, time.monotonic() - started


def worst_entry(results: dict):
    """(variant, parameter, error) of the largest relative error seen."""
    worst = ("", "", -1.0)
    for variant, report in results.items():
        for name, r in report.items():
            if r["max_rel_err"] > worst[2]:
                worst = (variant, name, r["max_rel_err"])
    return worst
