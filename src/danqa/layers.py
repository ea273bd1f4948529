"""Reusable network layers: embeddings, BLSTMs, attention, dense head.

A BLSTM consumes and returns lists of per-timestep ``(B, d)`` tensors,
vectorized over the batch; each direction records one ``tc.lstm_cell``
op per step. Attention takes whole ``(B, T, d)`` sequences.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .errors import ShapeError, VocabError
from .tensor import Tensor

NEG_INF = -1e9  # additive mask value; exp underflows to exactly 0.0


def glorot(rng, n_out: int, n_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


class EmbeddingTable:
    """Trainable word embedding matrix of shape (dim, vocab_size).

    Column ``t`` is the vector of token index ``t``. The PAD column
    (index 0) starts at zero and stays trainable.
    """

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"embedding table must be 2-D, got {weights.shape}")
        self.table = Tensor(weights, requires_grad=True)

    @classmethod
    def random(cls, dim: int, vocab_size: int, rng) -> "EmbeddingTable":
        w = glorot(rng, dim, vocab_size)
        w[:, 0] = 0.0
        return cls(w)

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.table.shape[1]

    def lookup(self, idx: np.ndarray) -> Tensor:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab_size):
            bad = int(idx.max() if idx.max() >= self.vocab_size else idx.min())
            raise VocabError(
                f"token index {bad} outside vocabulary of size {self.vocab_size}"
            )
        return tc.gather_cols(self.table, idx)


class LSTMDirection:
    """Parameters of a single-direction LSTM with fused gate weights.

    ``wx`` is (4H, input_dim), ``wh`` (4H, H) and ``b`` (4H,), with the
    gate blocks in the order [input | forget | output | candidate] that
    ``tc.lstm_cell`` reads; the forget-gate bias block starts at 1.0. The
    recurrent state is one (B, 2H) tensor [h | c], zero before the first
    step.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.wx = Tensor(glorot(rng, 4 * hidden_dim, input_dim), requires_grad=True)
        self.wh = Tensor(glorot(rng, 4 * hidden_dim, hidden_dim), requires_grad=True)
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.b = Tensor(bias, requires_grad=True)

    def run(self, xs):
        """Consume per-timestep (B, input_dim) tensors in order; return the
        (B, 2H) state [h | c] after each step, one ``lstm_cell`` op each."""
        if not xs:
            raise ShapeError("LSTM needs at least one timestep")
        hc = tc.constant(np.zeros((xs[0].shape[0], 2 * self.hidden_dim)))
        states = []
        for x in xs:
            hc = tc.lstm_cell(x, hc, self.wx, self.wh, self.b)
            states.append(hc)
        return states


class BLSTMLayer:
    """Bidirectional LSTM; ``output_dim`` is the concatenated fwd+bwd width."""

    def __init__(self, input_dim: int, output_dim: int, rng):
        if output_dim % 2 != 0:
            raise ShapeError(f"BLSTM output_dim must be even, got {output_dim}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.fw = LSTMDirection(input_dim, output_dim // 2, rng)
        self.bw = LSTMDirection(input_dim, output_dim // 2, rng)

    def _join(self, fw_state: Tensor, bw_state: Tensor) -> Tensor:
        half = self.output_dim // 2
        return tc.concat(tc.slice_cols(fw_state, 0, half),
                         tc.slice_cols(bw_state, 0, half), axis=1)

    def seq(self, xs):
        """Per-timestep outputs: [fwd h_t | bwd h_t] for each t."""
        fwd = self.fw.run(xs)
        bwd = self.bw.run(xs[::-1])[::-1]
        return [self._join(f, b) for f, b in zip(fwd, bwd)]

    def pool(self, xs) -> Tensor:
        """Whole-sequence vector: last forward h with first backward h."""
        return self._join(self.fw.run(xs)[-1], self.bw.run(xs[::-1])[-1])

    def params(self, prefix: str) -> dict:
        out = {}
        for tag, d in (("fw", self.fw), ("bw", self.bw)):
            out[f"{prefix}.{tag}.Wx"] = d.wx
            out[f"{prefix}.{tag}.Wh"] = d.wh
            out[f"{prefix}.{tag}.b"] = d.b
        return out


def attend_step(src: Tensor, story: Tensor, story_mask):
    """Dot-product attention of every step of a source over a story.

    ``src`` is (B, T, d) and ``story`` is (B, S, d); ``story_mask`` is the
    (B, S) 0/1 array of real story positions. Padded positions get a
    ``NEG_INF`` logit and so exactly zero weight. Returns ``(context,
    weights)``: the (B, T, d) weight-averaged story rows and the (B, T, S)
    row-softmax of the masked ``src . story`` logits.
    """
    scores = tc.bmm(src, tc.swap_last2(story))
    bias = np.where(np.asarray(story_mask) > 0, 0.0, NEG_INF)[:, None, :]
    weights = tc.softmax_rows(
        tc.add(scores, tc.constant(np.broadcast_to(bias, scores.shape))))
    return tc.bmm(weights, story), weights


def dense_shared(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Position-shared affine map from (B·T, d) features to (B·T, L) scores."""
    return tc.affine(h, w, b)
