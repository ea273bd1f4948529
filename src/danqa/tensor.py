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
``(U, d)`` rows and a ``(T, B)`` index into them; ``transpose`` gives the
``(B, T, d)`` views that ``bmm`` batches over.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ConfigError, DomainError, ShapeError

LOG_EPS = 1e-12

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


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# core operations


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product over identical leading batch dimensions."""
    if (a.data.ndim < 3 or a.data.ndim != b.data.ndim
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")

    def backward(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _wrap(a.data @ b.data, (a, b), backward)


def transpose(x: Tensor, axes) -> Tensor:
    """The view of ``x`` with its axes permuted as ``np.transpose(x, axes)``."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} do not permute the axes of "
                         f"{x.shape}")
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _wrap(np.transpose(x.data, axes), (x,), backward)


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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return g, g

    return _wrap(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return g * b.data, g * a.data

    return _wrap(a.data * b.data, (a, b), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilized by max subtraction."""
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax_rows got an empty row: {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _wrap(out, (x,), backward)


def tensor_sum(x: Tensor) -> Tensor:
    def backward(g):
        return (np.full(x.data.shape, float(g.reshape(()))),)

    return _wrap(np.asarray(x.data.sum()), (x,), backward)


def cross_entropy(p: Tensor, y_onehot: Tensor, mask: Tensor) -> Tensor:
    """Masked negative log likelihood, summed over all rows.

    Rows of ``p`` must be probability distributions and ``y_onehot`` rows
    one-hot; ``mask`` zeroes out padded rows. Probabilities below
    ``LOG_EPS`` are clamped before the log so a confidently wrong model
    yields a large finite loss instead of infinity.
    """
    if p.data.ndim != 2 or p.shape != y_onehot.shape:
        raise ShapeError(
            f"cross_entropy needs matching (m,L) inputs, got {p.shape} vs "
            f"{y_onehot.shape}"
        )
    if mask.data.shape != (p.shape[0],):
        raise ShapeError(
            f"cross_entropy mask must have shape ({p.shape[0]},), got {mask.shape}"
        )
    if np.any(p.data < 0.0):
        raise DomainError("cross_entropy got negative probabilities")
    weights = mask.data[:, None] * y_onehot.data
    loss = -(weights * np.log(np.maximum(p.data, LOG_EPS))).sum()

    def backward(g):
        scale = float(g.reshape(()))
        dp = np.where(p.data > LOG_EPS, -weights / np.maximum(p.data, LOG_EPS), 0.0)
        return (dp * scale, None, None)

    return _wrap(np.asarray(loss), (p, y_onehot, mask), backward)


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
    gradient. Only steps where some row is real are computed; a skipped step
    holds the states of the computed steps around it (or zero).

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
    live = real.any(axis=1)
    kept = np.flatnonzero(live)  # the steps some row reads
    n = len(kept)
    span = slice(kept[0], kept[-1] + 1) if n and kept[-1] - kept[0] == n - 1 else kept
    real = real[span]
    pad = ~np.stack([real, real[::-1]], axis=1)[..., None]  # (n, 2, B, 1), step order
    partial = pad.any(axis=(1, 2, 3)).tolist()
    src = x.data[span] if idx is None else x.data
    steps = range(n) if idx is None else idx[span]
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
    states = np.zeros((n + 2, batch, 2, hdim))  # time-major, a zero state at each end
    states[1:-1, :, 0], states[1:-1, :, 1] = hs[:, 0], hs[::-1, 1]
    at = np.cumsum(live)  # the states row the forward direction holds after step t
    out = np.stack([states[at, :, 0], states[at + ~live, :, 1]], axis=2)

    def backward(g):
        g = g.reshape(t_len, batch, 2, hdim)
        gh_all = np.empty((n, 2, batch, hdim))  # step order, skipped steps summed in
        np.add.reduceat(g[:, :, 0], kept, axis=0, out=gh_all[:, 0])
        np.add.reduceat(g[::-1, :, 1], t_len - 1 - kept[::-1], axis=0, out=gh_all[:, 1])
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
        if gx.shape != x.shape:  # the skipped steps read no input
            gx, part = np.zeros(x.shape), gx
            gx[span] = part
        gwx = gz_all.T @ rows
        # h before kept step k is states[k] (forward) or states[k + 2] (backward)
        gwh_fw = gz[1:, :, 0].reshape(-1, g4).T @ states[1:n, :, 0].reshape(-1, hdim)
        gwh_bw = gz[:-1, :, 1].reshape(-1, g4).T @ states[2:-1, :, 1].reshape(-1, hdim)
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
