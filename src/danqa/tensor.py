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
``(U, d)`` rows and a ``(T, B)`` index into them, with ``(B,)`` lengths: each
column's real steps come first, then its PAD. ``lstm_cell`` and ``attend``
compute only the steps up to the longest column's.
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


def _valid_lengths(lengths, t_len, batch) -> bool:
    """Whether ``lengths`` holds (B,) integer real-step counts in [0, T]."""
    return (lengths.shape == (batch,) and lengths.dtype.kind in "iu"
            and bool(np.all((lengths >= 0) & (lengths <= t_len))))


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


def attend(src: Tensor, story: Tensor, src_len, story_len) -> Tensor:
    """Dot-product attention of every source step over a story, as one op.

    ``src`` is (T, B, d) and ``story`` (S, B, d), time-major. Column b's first
    ``src_len[b]`` source steps and first ``story_len[b]`` story positions are
    real, the rest PAD. Row [t, b] averages the story rows of b by the softmax
    of ``src[t, b] . story[:, b]`` over its real positions. A PAD source row,
    and a row whose story has no real position, gets zero weights, so its
    context and gradient are 0 and no row depends on its batch peers. Only the
    source steps and story positions up to the longest column's are computed,
    over batch-first views, so PAD values there must be finite."""
    src_len, story_len = np.asarray(src_len), np.asarray(story_len)
    if (src.data.ndim != 3 or story.data.ndim != 3 or story.shape[1:] != src.shape[1:]
            or not _valid_lengths(src_len, *src.shape[:2])
            or not _valid_lengths(story_len, *story.shape[:2])):
        raise ShapeError(f"attend shapes incompatible: src {src.shape}, story "
                         f"{story.shape}, lengths {src_len.shape} {src_len.dtype}, "
                         f"{story_len.shape} {story_len.dtype}")
    n, m = max(1, int(src_len.max())), max(1, int(story_len.max()))
    x, s = src.data[:n].transpose(1, 0, 2), story.data[:m].transpose(1, 0, 2)
    weights = _masked_softmax(x @ s.transpose(0, 2, 1),
                              (np.arange(n) < src_len[:, None])[:, :, None]
                              & (np.arange(m) < story_len[:, None])[:, None])
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


def lstm_cell(x: Tensor, fw, bw, lengths, idx=None) -> Tensor:
    """Both directions of a BLSTM layer over one sequence, as one op.

    ``fw`` and ``bw`` are ``(wx, wh, b)`` triples, ``wx`` (4H, D), ``wh``
    (4H, H) and ``b`` (4H,), with gate blocks [input | forget | output |
    candidate]. Step (t, b) reads ``x.data[t, b]`` of a time-major (T, B, D)
    ``x`` or, given a (T, B) int array ``idx``, row ``idx[t, b]`` of (U, D)
    rows ``x``. Column b's first ``lengths[b]`` steps are real, the rest PAD.
    Returns the (T·B·2, H) states laid out (T, B, 2, H): [t, b, 0] is the
    forward state after real step t, held after the column's last one, and
    [t, b, 1] the backward state after real step t, 0 at PAD steps.

    One time loop runs both directions over each column's own real steps,
    as stacked (2, B, ·) states: loop step s is the forward direction's
    step s and the backward one's step ``lengths[b] - 1 - s``. Loop steps
    up to the longest column's are computed. One past a column's length
    reads that column's own PAD step and feeds no output, so it takes an
    exactly zero gradient; PAD-step inputs must therefore be finite.

    Both directions' input projections are one GEMM over the rows of ``x``,
    not kept for backward, which runs BPTT per step and then forms ``dX``
    and ``dWx`` with one GEMM each (Appleyard et al. 2016); with ``idx`` it
    first sums the real steps' gate gradients per row of ``x``. The benchmark
    counts the rows of the op by its name ``lstm_cell``.
    """
    hdim, d_in = fw[1].shape[-1], x.shape[-1]
    g4 = 4 * hdim
    lengths = np.asarray(lengths)
    if idx is None:
        ok = x.data.ndim == 3 and x.data.size > 0
    else:
        idx = np.asarray(idx)
        ok = (x.data.ndim == 2 and x.data.size > 0 and idx.ndim == 2 and idx.size
              and idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < len(x))
    shape = x.shape[:2] if idx is None else idx.shape
    if not ok or not _valid_lengths(lengths, *shape) or any(
            wx.shape != (g4, d_in) or wh.shape != (g4, hdim) or b.shape != (g4,)
            for wx, wh, b in (fw, bw)):
        raise ShapeError(
            f"lstm_cell shapes incompatible: x {x.shape}, idx "
            f"{None if idx is None else idx.shape}; " + "; ".join(
                f"{tag} Wx {wx.shape}, Wh {wh.shape}, b {b.shape}"
                for tag, (wx, wh, b) in (("fw", fw), ("bw", bw)))
            + f"; lengths {lengths.shape} {lengths.dtype}")
    t_len, batch = shape
    parents = (x, *fw, *bw)
    track = _grad_enabled and any(p.requires_grad for p in parents)
    wx, wh, bias = (np.stack([f.data, b.data]) for f, b in zip(fw, bw))
    wx, bias = wx.reshape(2 * g4, d_in), bias[:, None]
    n = max(1, int(lengths.max()))
    steps, cols = np.arange(n)[:, None], np.arange(batch)
    real = steps < lengths  # (n, B)
    # (2, n, B): the step t·B + b each direction reads at loop step s; as the
    # backward map is its own inverse, also the loop step that reads step t
    flat = np.stack([np.broadcast_to(steps, real.shape),
                     np.where(real, lengths - 1 - steps, steps)]) * batch + cols
    rows = x.data[:n].reshape(-1, d_in) if idx is None else x.data
    read_x = flat if idx is None else idx.reshape(-1)[flat]  # the row of x each reads
    sel = 2 * read_x + np.arange(2)[:, None, None]  # of the (2U, 4H) projections
    hs = np.zeros((2, n + 1, batch, hdim))  # hs[:, s + 1]: after loop step s
    if track:  # what the backward pass reads, by loop step
        acts = np.empty((n, 2, batch, g4))
        tanhs = np.empty((n, 2, batch, hdim))
        cells = np.zeros((n + 1, 2, batch, hdim))
    else:
        act = np.empty((2, batch, g4))
    # both directions' input projections, made after the kept buffers: freed,
    # they leave no heap hole below them (peak RSS)
    proj = (rows @ wx.T).reshape(-1, g4)
    c = np.zeros((2, batch, hdim))
    wht = wh.transpose(0, 2, 1)
    for s in range(n):
        z = np.matmul(hs[:, s], wht)
        z += proj[sel[:, s]]
        z += bias
        act = acts[s] if track else act
        np.divide(1.0, 1.0 + np.exp(-z[..., :3 * hdim]), out=act[..., :3 * hdim])
        np.tanh(z[..., 3 * hdim:], out=act[..., 3 * hdim:])
        i, f, o = act[..., :hdim], act[..., hdim:2 * hdim], act[..., 2 * hdim:3 * hdim]
        c = np.add(f * c, i * act[..., 3 * hdim:], out=cells[s + 1] if track else None)
        np.multiply(o, np.tanh(c, out=tanhs[s] if track else None), out=hs[:, s + 1])
    # the output at [t, b] reads hs[0, min(t + 1, len)] and hs[1, max(len - t, 0)]
    t = np.arange(t_len)[:, None]
    read = np.stack([np.minimum(t + 1, lengths), n + 1 + np.maximum(lengths - t, 0)],
                    axis=2) * batch + cols[:, None]
    out = hs.reshape(-1, hdim)[read.reshape(-1)]

    def backward(g):
        g = g.reshape(t_len, batch, 2, hdim)
        # by the rows of hs the outputs read; the forward state after step
        # len - 1 is read from there on, so it gets the sum of their gradients
        gh_all = np.zeros(hs.shape)
        gh_all.reshape(-1, hdim)[read[:n].reshape(-1)] = g[:n].reshape(-1, hdim)
        gh_all[0, lengths, cols] = g[n:, :, 0].sum(axis=0) + np.where(
            (steps >= lengths - 1)[..., None], g[:n, :, 0], 0.0).sum(axis=0)
        gz = np.empty((2, n, batch, g4))  # by loop step
        gh_rec = gc_next = 0.0
        for s in range(n - 1, -1, -1):
            i, f, o, g_ = (acts[s, ..., k * hdim:(k + 1) * hdim] for k in range(4))
            th, gh, gzs = tanhs[s], gh_all[:, s + 1], gz[:, s]
            gh += gh_rec
            gc = gh * o * (1.0 - th * th)
            gc += gc_next
            gzs[..., :hdim] = gc * g_ * i * (1.0 - i)
            gzs[..., hdim:2 * hdim] = gc * cells[s] * f * (1.0 - f)
            gzs[..., 2 * hdim:3 * hdim] = gh * th * o * (1.0 - o)
            gzs[..., 3 * hdim:] = gc * i * (1.0 - g_ * g_)
            gh_rec, gc_next = np.matmul(gzs, wh), gc * f
        gwh = np.matmul(gz.reshape(2, -1, g4).transpose(0, 2, 1),
                        hs[:, :n].reshape(2, -1, hdim))
        gb = gz.sum(axis=(1, 2))
        steps_of = flat.reshape(2, -1)  # both directions' loop steps, by step
        if idx is not None:  # only the real steps, sorted by the row of x they read
            pos = np.flatnonzero(real)
            pos = pos[np.argsort(idx[:n].reshape(-1)[pos], kind="stable")]
            steps_of = steps_of[:, pos]
        # both directions' gate gradients at those steps, side by side
        gz_all = gz.reshape(2, -1, g4)[np.arange(2), steps_of.T].reshape(-1, 2 * g4)
        if idx is None:  # the steps after the computed ones read no input
            gx = np.empty(x.shape)
            gx[n:] = 0.0
            np.matmul(gz_all, wx, out=gx[:n].reshape(-1, d_in))
        else:  # sum them per row of x
            ids = idx[:n].reshape(-1)[pos]
            cuts = np.flatnonzero(np.diff(ids, prepend=-1))
            rows_sorted, gz_all = gz_all, np.zeros((len(x), 2 * g4))
            for lo, hi in zip(cuts, np.r_[cuts[1:], len(ids)]):
                gz_all[ids[lo]] = rows_sorted[lo:hi].sum(axis=0)
            gx = gz_all @ wx
        gwx = gz_all.T @ rows
        return (gx, gwx[:g4], gwh[0], gb[0], gwx[g4:], gwh[1], gb[1])

    return _wrap(out, parents, backward)


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
