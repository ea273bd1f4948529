"""Dense float64 tensors with reverse-mode gradient accumulation.

Every tensor records its parents and a backward rule at creation time.
Creation order doubles as the tape: sorting the reachable subgraph by
descending creation index replays backward rules in exact reverse
execution order, which keeps repeated backward passes bit-identical.

Gradients accumulate into leaf tensors (those without parents) that were
created with ``requires_grad=True``; calling ``backward`` twice without
``zero_grad`` doubles the stored gradients.

A backward rule returns one gradient per parent: ``None`` or an array of
the parent's shape. Rules may return views of their incoming gradient: the
tape mutates only the buffers it allocated itself.

Sequences are single time-major ``(T, B, d)`` tensors, or for ``lstm_cell``
``(U, d)`` rows and a ``(T, B)`` index into them, with ``(T, B)`` masks of
their real steps. ``lstm_cell`` and ``attend`` compute only the leading steps
up to the last one where some row is real. That is exact for any mask, and
for masks that are a prefix of each row, as the model's are, it skips every
all-PAD step.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ConfigError, ShapeError

_seq = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / FD probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._parents = _parents
        self._backward = _backward
        self._seq = next(_seq)

    @property
    def shape(self):
        return self.data.shape

    def __len__(self):
        return len(self.data)

    # x[t] past the end raises ShapeError, which would not end a for loop
    __iter__ = None

    def __getitem__(self, key):
        """The view ``self.data[key]`` for a basic index: integers and slices."""
        keys = key if isinstance(key, tuple) else (key,)
        if not all(isinstance(k, (int, slice)) for k in keys):
            raise ShapeError(f"index takes integers and slices, got {key!r}")
        try:
            part = self.data[key]
        except IndexError as exc:
            raise ShapeError(f"bad index {key!r} of {self.shape}: {exc}") from None
        if part.size == 0:
            raise ShapeError(f"index {key!r} of {self.shape} selects nothing")

        def backward(g):
            gx = np.zeros(self.data.shape)
            gx[key] = g
            return (gx,)

        return _wrap(part, (self,), backward)

    @property
    def grad(self) -> np.ndarray:
        """Gradient buffer, same shape as ``data``, lazily allocated to zeros."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def zero_grad(self):
        if self._grad is not None:
            self._grad.fill(0.0)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf."""
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar tensor, got shape {self.shape}"
            )
        nodes = []
        seen = {id(self)}
        stack = [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        nodes.sort(key=lambda n: n._seq, reverse=True)

        acc = {id(self): np.ones_like(self.data)}
        owned = set()  # keys whose stored array is safe to mutate in place
        for node in nodes:
            g = acc.pop(id(node), None)
            if g is None:
                continue
            owned.discard(id(node))
            if node.requires_grad and not node._parents:
                buf = node.grad
                buf += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                prev = acc.get(key)
                if prev is None:
                    acc[key] = pg
                elif key in owned:
                    prev += pg
                else:
                    acc[key] = prev + pg
                    owned.add(key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(data, parents, backward):
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True,
                              _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def _masked_softmax(logits, real):
    """In-place softmax of ``logits`` over the last axis, at the positions where
    the broadcast bool ``real`` is True: the rest, and rows with none, get 0.0."""
    np.copyto(logits, -np.inf, where=~real)
    logits -= np.maximum(logits.max(axis=-1, keepdims=True, initial=-np.inf), -1e300)
    np.exp(logits, out=logits)
    logits /= np.maximum(logits.sum(axis=-1, keepdims=True), 1.0)  # 0 or >= 1
    return logits


def _live_prefix(real) -> int:
    """The steps up to the last one where some row of the (T, B) bool ``real``
    is real: at least one, so an all-PAD sequence computes one no-op step."""
    return 1 + int(max(np.flatnonzero(real.any(axis=1)), default=0))


# ---------------------------------------------------------------------------
# core operations


def repeat(x: Tensor, n: int, axis: int) -> Tensor:
    """``n`` copies of ``x`` stacked along a new axis at position ``axis``."""
    if n < 1 or not -x.data.ndim - 1 <= axis <= x.data.ndim:
        raise ShapeError(f"repeat needs n >= 1 and a new axis for {x.shape}, "
                         f"got n={n}, axis={axis}")

    def backward(g):
        return (g.sum(axis=axis),)

    return _wrap(np.repeat(np.expand_dims(x.data, axis), n, axis=axis), (x,),
                 backward)


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _wrap(x.data.reshape(shape), (x,), backward)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    ax = axis % a.data.ndim
    for d in range(a.data.ndim):
        if d != ax and a.shape[d] != b.shape[d]:
            raise ShapeError(
                f"concat extents differ off axis {axis}: {a.shape} vs {b.shape}"
            )
    k = a.shape[ax]

    def backward(g):
        head = (slice(None),) * ax
        return g[(*head, slice(None, k))], g[(*head, slice(k, None))]

    return _wrap(np.concatenate([a.data, b.data], axis=ax), (a, b), backward)


def attend(src: Tensor, story: Tensor, src_mask, story_mask) -> Tensor:
    """Dot-product attention of every source step over a story, as one op.

    ``src`` is (T, B, d) and ``story`` (S, B, d), time-major, and the (T, B)
    ``src_mask`` and (S, B) ``story_mask`` are nonzero at real steps. Row [t, b]
    averages the story rows of b by the softmax of ``src[t, b] . story[:, b]``
    over its real positions. A PAD source row, and a row whose story has no
    real position, gets zero weights, so its context and gradient are 0 and no
    row depends on its batch peers. Only the source steps and story positions
    up to the last real one are computed, over batch-first views."""
    src_mask, story_mask = np.asarray(src_mask) > 0, np.asarray(story_mask) > 0
    if (src.data.ndim != 3 or story.data.ndim != 3 or story.shape[1:] != src.shape[1:]
            or src_mask.shape != src.shape[:2] or story_mask.shape != story.shape[:2]):
        raise ShapeError(f"attend shapes incompatible: src {src.shape}, story "
                         f"{story.shape}, masks {src_mask.shape}, {story_mask.shape}")
    n, m = _live_prefix(src_mask), _live_prefix(story_mask)
    x, s = src.data[:n].transpose(1, 0, 2), story.data[:m].transpose(1, 0, 2)
    weights = _masked_softmax(x @ s.transpose(0, 2, 1),
                              src_mask[:n].T[:, :, None] & story_mask[:m].T[:, None])
    out = np.zeros(src.shape)
    out[:n] = (weights @ s).transpose(1, 0, 2)

    def backward(g):
        g = g[:n].transpose(1, 0, 2)
        gl = g @ s.transpose(0, 2, 1)  # the weights' gradient, then the logits'
        gl = (gl - (gl * weights).sum(axis=-1, keepdims=True)) * weights
        gx, gs = np.zeros(src.shape), np.zeros(story.shape)
        gx[:n] = (gl @ s).transpose(1, 0, 2)
        gs[:m] = (gl.transpose(0, 2, 1) @ x + weights.transpose(0, 2, 1) @ g
                  ).transpose(1, 0, 2)
        return gx, gs

    return _wrap(out, (src, story), backward)


def cross_entropy(logits: Tensor, y, mask) -> Tensor:
    """Masked softmax cross entropy, summed over rows.

    Row i of the (m, L) ``logits`` scores the labels of one position, ``y``
    holds the (m,) integer gold labels and the (m,) ``mask`` weights each
    row's ``-log softmax(logits[i])[y[i]]``, 0 for a padded row. The
    log-softmax is taken of the logits, so the loss stays exact however
    confident the model is; row i's gradient is ``mask[i] * (softmax - onehot)``.
    """
    y, mask = np.asarray(y), np.asarray(mask, dtype=np.float64)
    if (logits.data.ndim != 2 or y.shape != (logits.shape[0],) or mask.shape != y.shape
            or y.dtype.kind not in "iu" or np.any((y < 0) | (y >= logits.shape[1]))):
        raise ShapeError(f"cross_entropy needs (m, L) logits, (m,) integer labels in "
                         f"[0, L) and an (m,) mask, got {logits.shape}, labels "
                         f"{y.shape} {y.dtype}, mask {mask.shape}")
    rows = np.arange(len(y))
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss = mask @ (log_norm - z[rows, y])

    def backward(g):
        grad = np.exp(z - log_norm[:, None])
        grad[rows, y] -= 1.0
        grad *= (float(g.reshape(())) * mask)[:, None]
        return (grad,)

    return _wrap(np.asarray(loss), (logits,), backward)


def dropout(x: Tensor, rate: float, training: bool, rng) -> Tensor:
    """Inverted dropout: identity at inference, mask/(1-rate) when training."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) >= rate) / keep

    def backward(g):
        return (g * mask,)

    return _wrap(x.data * mask, (x,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b with w of shape (n_out, n_in) and b of shape (n_out,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"affine shapes incompatible: {x.shape} with W {w.shape}")
    if b.data.shape != (w.shape[0],):
        raise ShapeError(f"affine bias shape {b.shape} does not match W {w.shape}")

    def backward(g):
        return g @ w.data, g.T @ x.data, g.sum(axis=0)

    return _wrap(x.data @ w.data.T + b.data, (x, w, b), backward)


def lstm_cell(x: Tensor, fw, bw, idx=None, mask=None) -> Tensor:
    """Both directions of a BLSTM layer over one sequence, as one op.

    ``fw`` and ``bw`` are ``(wx, wh, b)`` triples, ``wx`` (4H, D), ``wh``
    (4H, H) and ``b`` (4H,), with gate blocks [input | forget | output |
    candidate]. Step (t, b) reads ``x.data[t, b]`` of a time-major (T, B, D)
    ``x`` or, given a (T, B) int array ``idx``, row ``idx[t, b]`` of (U, D)
    rows ``x``. One time loop advances the forward direction from the first
    step and the backward one from the last, as stacked (2, B, ·) states.
    Returns the (T·B·2, H) states laid out (T, B, 2, H): [t, b, d] is
    direction d's state after step t.

    A step that the (T, B) bool ``mask`` marks PAD (none if None) is a no-op
    in both directions: that row's [h | c] stays as it was and takes no
    gradient. Only the steps up to the last one where some row is real are
    computed; after them the forward states hold and the backward ones stay 0.

    Both directions' input projections are one GEMM over the rows of ``x``,
    not kept for backward, which runs BPTT per step and then forms ``dX``
    and ``dWx`` with one GEMM each (Appleyard et al. 2016); with ``idx`` it
    first sums the real steps' gate gradients per row of ``x``. The benchmark
    counts the rows of the op by its name ``lstm_cell``.
    """
    hdim, d_in = fw[1].shape[-1], x.shape[-1]
    g4 = 4 * hdim
    if idx is None:
        ok = x.data.ndim == 3 and x.data.size > 0
    else:
        idx = np.asarray(idx)
        ok = (x.data.ndim == 2 and x.data.size > 0 and idx.ndim == 2 and idx.size
              and idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < len(x))
    shape = x.shape[:2] if idx is None else idx.shape
    real = np.ones(shape, bool) if mask is None else np.asarray(mask, bool)
    if not ok or real.shape != shape or any(
            wx.shape != (g4, d_in) or wh.shape != (g4, hdim) or b.shape != (g4,)
            for wx, wh, b in (fw, bw)):
        raise ShapeError(
            f"lstm_cell shapes incompatible: x {x.shape}, idx "
            f"{None if idx is None else idx.shape}; " + "; ".join(
                f"{tag} Wx {wx.shape}, Wh {wh.shape}, b {b.shape}"
                for tag, (wx, wh, b) in (("fw", fw), ("bw", bw)))
            + f"; mask {None if mask is None else real.shape}")
    t_len, batch = shape
    parents = (x, *fw, *bw)
    track = _grad_enabled and any(p.requires_grad for p in parents)
    wx, wh, bias = (np.stack([f.data, b.data]) for f, b in zip(fw, bw))
    wx, bias = wx.reshape(2 * g4, d_in), bias[:, None]
    n = _live_prefix(real)
    real = real[:n]
    pad = ~np.stack([real, real[::-1]], axis=1)[..., None]  # (n, 2, B, 1), step order
    partial = pad.any(axis=(1, 2, 3)).tolist()
    src = x.data[:n] if idx is None else x.data
    steps = range(n) if idx is None else idx[:n]
    hs = np.empty((n, 2, batch, hdim))  # in step order
    if track:  # what the backward pass reads, in step order
        acts = np.empty((n, 2, batch, g4))
        cells, tanhs = np.empty((2, n, 2, batch, hdim))
    else:
        act = np.empty((2, batch, g4))
    # both directions' input projections of all rows of x, made after the kept
    # buffers: freed, they leave no heap hole below them (peak RSS)
    rows = src.reshape(-1, d_in)
    p_fw, p_bw = np.moveaxis((rows @ wx.T).reshape(*src.shape[:-1], 2, g4), -2, 0)
    h = c = np.zeros((2, batch, hdim))
    wht = wh.transpose(0, 2, 1)
    for s in range(n):
        z = np.matmul(h, wht)
        z[0] += p_fw[steps[s]]
        z[1] += p_bw[steps[n - 1 - s]]
        z += bias
        act = acts[s] if track else act
        np.divide(1.0, 1.0 + np.exp(-z[..., :3 * hdim]), out=act[..., :3 * hdim])
        np.tanh(z[..., 3 * hdim:], out=act[..., 3 * hdim:])
        i, f, o = act[..., :hdim], act[..., hdim:2 * hdim], act[..., 2 * hdim:3 * hdim]
        c_new = np.add(f * c, i * act[..., 3 * hdim:], out=cells[s] if track else None)
        h_new = np.multiply(o, np.tanh(c_new, out=tanhs[s] if track else None),
                            out=hs[s])
        if partial[s]:  # a PAD row keeps its state
            np.copyto(c_new, c, where=pad[s])
            np.copyto(h_new, h, where=pad[s])
        h, c = h_new, c_new
    fw_h, bw_h = hs[:, 0], hs[::-1, 1]  # time-major
    out = np.zeros((t_len, batch, 2, hdim))
    out[:n, :, 0], out[:n, :, 1] = fw_h, bw_h
    out[n:, :, 0] = fw_h[-1]

    def backward(g):
        g = g.reshape(t_len, batch, 2, hdim)
        gh_all = np.empty((n, 2, batch, hdim))  # step order
        gh_all[:, 0], gh_all[:, 1] = g[:n, :, 0], g[n - 1::-1, :, 1]
        gh_all[-1, 0] += g[n:, :, 0].sum(axis=0)  # the steps that hold its state
        gz = np.empty((n, batch, 2, g4))  # time-major, as the GEMMs read
        gzs = np.empty((2, batch, g4))
        gh_rec = gc_next = 0.0
        for s in range(n - 1, -1, -1):
            i, f, o, g_ = (acts[s, ..., k * hdim:(k + 1) * hdim] for k in range(4))
            th, gh = tanhs[s], gh_all[s]
            gh += gh_rec
            gc = gh * o * (1.0 - th * th)
            gc += gc_next
            gzs[..., :hdim] = gc * g_ * i * (1.0 - i)
            if s == 0:  # the cell state before the first step is zero
                gzs[..., hdim:2 * hdim] = 0.0
            else:
                gzs[..., hdim:2 * hdim] = gc * cells[s - 1] * f * (1.0 - f)
            gzs[..., 2 * hdim:3 * hdim] = gh * th * o * (1.0 - o)
            gzs[..., 3 * hdim:] = gc * i * (1.0 - g_ * g_)
            gh_rec, gc_prev = np.matmul(gzs, wh), gc * f
            if partial[s]:  # a PAD row takes no gate gradient and passes its state's on
                np.copyto(gzs, 0.0, where=pad[s])
                np.copyto(gh_rec, gh, where=pad[s])
                np.copyto(gc_prev, gc_next, where=pad[s])
            gc_next = gc_prev
            gz[s, :, 0] = gzs[0]
            gz[n - 1 - s, :, 1] = gzs[1]
        gz_all = gz.reshape(n * batch, 2 * g4)
        if idx is not None:  # sum the gate gradients of real steps per row of x
            pos = np.flatnonzero(real)
            pos = pos[np.argsort(steps.reshape(-1)[pos], kind="stable")]
            ids, rows_sorted = steps.reshape(-1)[pos], gz_all[pos]
            cuts = np.flatnonzero(np.diff(ids, prepend=-1))
            gz_all = np.zeros((len(x), 2 * g4))
            for lo, hi in zip(cuts, np.r_[cuts[1:], len(ids)]):
                gz_all[ids[lo]] = rows_sorted[lo:hi].sum(axis=0)
        gx = (gz_all @ wx).reshape(src.shape)
        if gx.shape != x.shape:  # the steps after the computed ones read no input
            gx, part = np.zeros(x.shape), gx
            gx[:n] = part
        gwx = gz_all.T @ rows
        # h before step t is fw_h[t - 1] (forward) or bw_h[t + 1] (backward)
        gwh_fw = gz[1:, :, 0].reshape(-1, g4).T @ fw_h[:-1].reshape(-1, hdim)
        gwh_bw = gz[:-1, :, 1].reshape(-1, g4).T @ bw_h[1:].reshape(-1, hdim)
        gb = gz.sum(axis=(0, 1))
        return (gx, gwx[:g4], gwh_fw, gb[0], gwx[g4:], gwh_bw, gb[1])

    return _wrap(out.reshape(t_len * batch * 2, hdim), parents, backward)


def gather_cols(table: Tensor, idx: np.ndarray) -> Tensor:
    """The columns of ``table`` (d, V) at the indices ``idx``, as rows.

    The output has shape ``idx.shape + (d,)``. The table must be a leaf
    parameter; its gradient is scatter-added in place so large vocabularies
    never materialize dense per-op buffers.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_cols needs a (d,V) table, got {table.shape}")
    if table._parents:
        raise ContractError("gather_cols table must be a leaf parameter")

    def backward(g):
        np.add.at(table.grad.T, idx, g)
        return (None,)

    return _wrap(table.data.T[idx], (table,), backward)
