"""Reusable network layers: embeddings, BLSTMs, attention, dense head.

A sequence is one time-major ``(T, B, d)`` tensor, or ``(T, B)`` token ids,
with ``(B,)`` lengths: each column's real steps come first, then its PAD. A
BLSTM runs both directions as one ``tc.lstm_cell`` op over each column's own
real steps; a first-layer BLSTM reads the token ids and embeds each distinct
token once. Attention is one ``tc.attend`` op over time-major sources and
stories. The head scores ``(T·B, d)`` rows; its softmax lives in
``tc.cross_entropy``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .errors import ShapeError, VocabError
from .tensor import Tensor


def glorot(rng, n_out: int, n_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


class EmbeddingTable:
    """Trainable word embedding matrix of shape (dim, vocab_size).

    Column ``t`` is the vector of token index ``t``. The PAD column
    (index 0) starts at zero. A BLSTM reads it only at steps past a
    sequence's length, which feed no output, so it gets no gradient and
    stays zero.
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


class MaskedSeq:
    """A time-major sequence and its (B,) ``lengths``: column b's first
    ``lengths[b]`` steps are real, the rest PAD, whose values must be finite.
    ``x`` is a (T, B) token-id array or a (T, B, d) tensor. ``len``, ``[t]``
    and ``shape`` read ``x``, as the benchmark's tracer sizes BLSTM calls by
    them."""

    def __init__(self, x, lengths):
        self.x, self.lengths, self.shape = x, lengths, x.shape

    def __len__(self):
        return len(self.x)

    def __getitem__(self, key):
        return self.x[key]


class BLSTMLayer:
    """Bidirectional LSTM; ``output_dim`` is the concatenated fwd+bwd width.

    ``seq`` and ``pool`` take a ``MaskedSeq``. A layer given an
    ``embedding`` reads (T, B) token ids: it embeds the distinct tokens once
    and lets ``tc.lstm_cell`` read each step's row from them. Otherwise it
    reads a time-major (T, B, input_dim) tensor. The forward state holds
    after a column's last real step, and the backward state is 0 at its PAD
    steps.

    ``fw`` and ``bw`` are each direction's ``(wx, wh, b)`` weights as
    ``tc.lstm_cell`` takes them: ``wx`` (4H, input_dim), ``wh`` (4H, H) and
    ``b`` (4H,), gate blocks [input | forget | output | candidate], with the
    forget bias starting at 1.
    """

    def __init__(self, input_dim: int, output_dim: int, rng,
                 embedding: EmbeddingTable | None = None):
        if output_dim % 2 != 0:
            raise ShapeError(f"BLSTM output_dim must be even, got {output_dim}")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.embedding = embedding
        hdim = output_dim // 2

        def direction():
            bias = np.zeros(4 * hdim)
            bias[hdim:2 * hdim] = 1.0
            return tuple(Tensor(w, requires_grad=True) for w in (
                glorot(rng, 4 * hdim, input_dim), glorot(rng, 4 * hdim, hdim), bias))

        self.fw, self.bw = direction(), direction()

    def _run(self, seq: MaskedSeq) -> Tensor:
        """One ``lstm_cell`` op: (T·B·2, H) states laid out (T, B, 2, H)."""
        if self.embedding is None:
            return tc.lstm_cell(seq.x, self.fw, self.bw, seq.lengths)
        tokens, idx = np.unique(seq.x, return_inverse=True)
        return tc.lstm_cell(self.embedding.lookup(tokens), self.fw, self.bw,
                            seq.lengths, idx.reshape(seq.shape))

    def seq(self, seq: MaskedSeq) -> Tensor:
        """The (T, B, output_dim) outputs over ``seq``: [fwd h_t | bwd h_t]
        at each step t."""
        return tc.reshape(self._run(seq), (*seq.shape[:2], self.output_dim))

    def pool(self, seq: MaskedSeq) -> Tensor:
        """(B, output_dim) sequence vectors: the forward h after the last
        real step with the backward h after the first one."""
        states, batch = self._run(seq), seq.shape[1]
        return tc.concat(states[-2 * batch::2], states[1:2 * batch:2], axis=1)

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.{tag}.{name}": p
                for tag, weights in (("fw", self.fw), ("bw", self.bw))
                for name, p in zip(("Wx", "Wh", "b"), weights)}


def attend_step(src: Tensor, story: Tensor, src_len, story_len) -> Tensor:
    """The (T, B, d) context of a (T, B, d) source over an (S, B, d) story,
    with (B,) real lengths each: one ``tc.attend`` op, under the name the
    benchmark times attention by."""
    return tc.attend(src, story, src_len, story_len)


def dense_shared(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Position-shared affine map from (T·B, d) features to (T·B, L) logits."""
    return tc.affine(h, w, b)
