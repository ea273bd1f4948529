"""Reusable network layers: embeddings, BLSTMs, attention, dense head.

A sequence is one time-major ``(T, B, d)`` tensor. A BLSTM runs both
directions as one ``tc.lstm_cell`` op over the whole sequence, where a PAD step
is a no-op; a first-layer BLSTM reads the ``(T, B)`` token ids instead and
embeds each distinct token once. Attention takes batch-first ``(B, T, d)``
views, which ``tc.transpose`` makes.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .corpus import PAD
from .errors import ShapeError, VocabError
from .tensor import Tensor

NEG_INF = -1e9  # additive mask value; exp underflows to exactly 0.0


def glorot(rng, n_out: int, n_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


class EmbeddingTable:
    """Trainable word embedding matrix of shape (dim, vocab_size).

    Column ``t`` is the vector of token index ``t``. The PAD column
    (index 0) starts at zero. The BLSTMs never use it, as a PAD step is a
    no-op, so it gets no gradient and stays zero.
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
    """Parameters of one LSTM direction with fused gate weights.

    ``wx`` is (4H, input_dim), ``wh`` (4H, H) and ``b`` (4H,), gate blocks
    [input | forget | output | candidate]; ``BLSTMLayer`` hands them to
    ``tc.lstm_cell`` as one ``(wx, wh, b)`` triple. The forget bias starts at 1.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng):
        self.wx = Tensor(glorot(rng, 4 * hidden_dim, input_dim), requires_grad=True)
        self.wh = Tensor(glorot(rng, 4 * hidden_dim, hidden_dim), requires_grad=True)
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.b = Tensor(bias, requires_grad=True)


class MaskedSeq:
    """A (T, B, d) sequence ``x`` and its (T, B) bool ``mask`` of real steps.
    ``len``, ``[t]`` and ``shape`` read ``x``, as the benchmark's tracer sizes
    BLSTM calls by them; this goes once the tracer lets ``seq`` take a mask."""

    def __init__(self, x: Tensor, mask):
        self.x, self.mask, self.shape = x, mask, x.shape

    def __len__(self):
        return len(self.x)

    def __getitem__(self, key):
        return self.x[key]


class BLSTMLayer:
    """Bidirectional LSTM; ``output_dim`` is the concatenated fwd+bwd width.

    A layer given an ``embedding`` reads a (T, B) token-id array: it embeds
    the distinct tokens once and lets ``tc.lstm_cell`` read each step's row
    from them; its PAD tokens are PAD steps. Otherwise it reads a time-major
    (T, B, input_dim) tensor, or a ``MaskedSeq`` of one with its real steps.
    A PAD step leaves both directions' states as they were.
    """

    def __init__(self, input_dim: int, output_dim: int, rng,
                 embedding: EmbeddingTable | None = None):
        if output_dim % 2 != 0:
            raise ShapeError(f"BLSTM output_dim must be even, got {output_dim}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.embedding = embedding
        self.fw = LSTMDirection(input_dim, output_dim // 2, rng)
        self.bw = LSTMDirection(input_dim, output_dim // 2, rng)

    def _run(self, x) -> Tensor:
        """One ``lstm_cell`` op: (T·B·2, H) states laid out (T, B, 2, H)."""
        fw, bw = ((d.wx, d.wh, d.b) for d in (self.fw, self.bw))
        if self.embedding is None:
            x, mask = (x.x, x.mask) if isinstance(x, MaskedSeq) else (x, None)
            return tc.lstm_cell(x, fw, bw, mask=mask)
        tokens, idx = np.unique(x, return_inverse=True)
        return tc.lstm_cell(self.embedding.lookup(tokens), fw, bw,
                            idx.reshape(x.shape), x != PAD)

    def seq(self, x) -> Tensor:
        """The (T, B, output_dim) outputs over the sequence ``x``:
        [fwd h_t | bwd h_t] at each step t."""
        return tc.reshape(self._run(x), (*x.shape[:2], self.output_dim))

    def pool(self, x) -> Tensor:
        """(B, output_dim) sequence vectors: the forward h after the last
        real step with the backward h after the first one."""
        states, batch = self._run(x), x.shape[1]
        return tc.concat(states[-2 * batch::2], states[1:2 * batch:2], axis=1)

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
    scores = tc.bmm(src, tc.transpose(story, (0, 2, 1)))
    bias = np.where(np.asarray(story_mask) > 0, 0.0, NEG_INF)[:, None, :]
    weights = tc.softmax_rows(
        tc.add(scores, tc.constant(np.broadcast_to(bias, scores.shape))))
    return tc.bmm(weights, story), weights


def dense_shared(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Position-shared affine map from (B·T, d) features to (B·T, L) scores."""
    return tc.affine(h, w, b)
