"""Dense float64 tensors with reverse-mode gradient accumulation.

Every tensor records its parents and a backward rule at creation time.
Creation order doubles as the tape: sorting the reachable subgraph by
descending creation index replays backward rules in exact reverse
execution order, which keeps repeated backward passes bit-identical.

Gradients accumulate into leaf tensors (those without parents) that were
created with ``requires_grad=True``; calling ``backward`` twice without
``zero_grad`` doubles the stored gradients.

A backward rule returns one gradient per parent: ``None``, an array of the
parent's shape, or an ``(index, part)`` pair giving the gradient of
``parent.data[index]`` only, which the tape adds into a zero buffer of its
own. Rules may return views of their incoming gradient: the tape mutates
only the buffers it allocated itself.
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
                if type(pg) is tuple:  # (index, part): d/d parent.data[index]
                    index, part = pg
                    if key not in owned:
                        prev = (np.zeros(parent.data.shape) if prev is None
                                else prev.copy())
                        acc[key] = prev
                        owned.add(key)
                    prev[index] += part
                elif prev is None:
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


def swap_last2(x: Tensor) -> Tensor:
    if x.data.ndim < 2:
        raise ShapeError(f"swap_last2 needs ndim >= 2, got {x.shape}")

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _wrap(np.swapaxes(x.data, -1, -2), (x,), backward)


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


def stack_time(xs) -> Tensor:
    """Stack T equally shaped (B, d) tensors into (B, T, d)."""
    xs = list(xs)
    if not xs:
        raise ShapeError("stack_time needs at least one tensor")
    base = xs[0].shape
    for x in xs:
        if x.shape != base:
            raise ShapeError(f"stack_time shape mismatch: {x.shape} vs {base}")

    def backward(g):
        return tuple(g[:, t] for t in range(len(xs)))

    return _wrap(np.stack([x.data for x in xs], axis=1), tuple(xs), backward)


def index(x: Tensor, key) -> Tensor:
    """The view ``x.data[key]`` for a basic index: integers and slices.

    Its backward rule hands the tape ``(key, g)``, so any number of parts
    of one tensor add their gradients into a single buffer.
    """
    keys = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(k, (int, slice)) for k in keys):
        raise ShapeError(f"index takes integers and slices, got {key!r}")
    try:
        part = x.data[key]
    except IndexError as exc:
        raise ShapeError(f"bad index {key!r} of {x.shape}: {exc}") from None
    if part.size == 0:
        raise ShapeError(f"index {key!r} of {x.shape} selects nothing")

    def backward(g):
        return ((key, g),)

    return _wrap(part, (x,), backward)


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


def lstm_cell(xs, wx: Tensor, wh: Tensor, b: Tensor,
              reverse: bool = False) -> Tensor:
    """A whole LSTM direction over the (B, D) step inputs ``xs``, as one op.

    The direction consumes ``xs`` in order, or last to first when
    ``reverse``, from a zero state. Each step's gate pre-activations
    ``x_t @ wx.T + h @ wh.T + b`` have width 4H in the order [input |
    forget | output | candidate] (the three sigmoid gates share one exp
    call); ``wx`` is (4H, D), ``wh`` (4H, H) and ``b`` (4H,). Returns the
    (T·B, H) hidden states in time-major order: row block ``t`` is the
    state after consuming ``xs[t]``.

    The backward pass runs BPTT inside the op: its time loop computes the
    gate gradients and ``dX`` step by step, and ``dWx``, ``dWh`` and ``db``
    are one GEMM or sum each over all steps (the cuDNN recipe, Appleyard et
    al. 2016). The op computes every step of a direction but keeps the name
    ``lstm_cell``, which ``bench/tracing.py`` counts rows of.
    """
    hdim = wh.shape[-1]
    if (not xs or xs[0].data.ndim != 2
            or any(x.shape != xs[0].shape for x in xs)
            or wx.shape != (4 * hdim, xs[0].shape[1])
            or wh.shape != (4 * hdim, hdim) or b.shape != (4 * hdim,)):
        steps = sorted({x.shape for x in xs})
        raise ShapeError(f"lstm_cell shapes incompatible: {len(xs)} steps x "
                         f"{steps}, Wx {wx.shape}, Wh {wh.shape}, b {b.shape}")
    t_len, (batch, d_in) = len(xs), xs[0].shape
    parents = (*xs, wx, wh, b)
    track = _grad_enabled and any(p.requires_grad for p in parents)
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    hs = np.empty((t_len, batch, hdim))
    if track:  # what the backward pass reads
        acts = np.empty((t_len, batch, 4 * hdim))
        cells = np.empty((t_len, batch, hdim))
        tanhs = np.empty((t_len, batch, hdim))
    else:
        act = np.empty((batch, 4 * hdim))
    h = c = np.zeros((batch, hdim))
    wxt, wht = wx.data.T, wh.data.T
    for t in order:
        z = xs[t].data @ wxt + h @ wht + b.data
        if track:
            act = acts[t]
        np.divide(1.0, 1.0 + np.exp(-z[:, :3 * hdim]), out=act[:, :3 * hdim])
        np.tanh(z[:, 3 * hdim:], out=act[:, 3 * hdim:])
        i, f, o = act[:, :hdim], act[:, hdim:2 * hdim], act[:, 2 * hdim:3 * hdim]
        c = np.add(f * c, i * act[:, 3 * hdim:], out=cells[t] if track else None)
        th = np.tanh(c, out=tanhs[t] if track else None)
        h = np.multiply(o, th, out=hs[t])

    def backward(g):
        g = g.reshape(t_len, batch, hdim)
        gz = np.empty((t_len, batch, 4 * hdim))
        gxs = [None] * t_len
        first = order[0]
        gh_rec = gc_next = None
        for t in reversed(order):
            i, f, o, g_ = (acts[t, :, k * hdim:(k + 1) * hdim] for k in range(4))
            th, gzt = tanhs[t], gz[t]
            gh = g[t] if gh_rec is None else g[t] + gh_rec
            gc = gh * o * (1.0 - th * th)
            if gc_next is not None:
                gc += gc_next
            gzt[:, :hdim] = gc * g_ * i * (1.0 - i)
            if t == first:  # the cell state before the first step is zero
                gzt[:, hdim:2 * hdim] = 0.0
            else:
                c_prev = cells[t + 1 if reverse else t - 1]
                gzt[:, hdim:2 * hdim] = gc * c_prev * f * (1.0 - f)
            gzt[:, 2 * hdim:3 * hdim] = gh * th * o * (1.0 - o)
            gzt[:, 3 * hdim:] = gc * i * (1.0 - g_ * g_)
            gxs[t] = gzt @ wx.data
            gh_rec = gzt @ wh.data
            gc_next = gc * f
        x_all = np.stack([x.data for x in xs]).reshape(t_len * batch, d_in)
        gz_all = gz.reshape(t_len * batch, 4 * hdim)
        # h before step t is hs[t - 1] (forward) or hs[t + 1] (reverse)
        gz_rec, h_prev = (gz[:-1], hs[1:]) if reverse else (gz[1:], hs[:-1])
        gwh = gz_rec.reshape(-1, 4 * hdim).T @ h_prev.reshape(-1, hdim)
        return (*gxs, gz_all.T @ x_all, gwh, gz_all.sum(axis=0))

    return _wrap(hs.reshape(t_len * batch, hdim), parents, backward)


def gather_cols(table: Tensor, idx: np.ndarray) -> Tensor:
    """Rows of the output are the indexed columns of ``table`` (d, V).

    The table must be a leaf parameter; its gradient is scatter-added in
    place so large vocabularies never materialize dense per-op buffers.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_cols needs a (d,V) table and flat indices, "
                         f"got {table.shape} and {idx.shape}")
    if table._parents:
        raise ContractError("gather_cols table must be a leaf parameter")

    def backward(g):
        np.add.at(table.grad.T, idx, g)
        return (None,)

    return _wrap(table.data[:, idx].T, (table,), backward)
