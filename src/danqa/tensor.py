"""Dense float64 tensors with reverse-mode gradient accumulation.

Every tensor records its parents and a backward rule at creation time.
Creation order doubles as the tape: sorting the reachable subgraph by
descending creation index replays backward rules in exact reverse
execution order, which keeps repeated backward passes bit-identical.

Gradients accumulate into leaf tensors (those without parents) that were
created with ``requires_grad=True``; calling ``backward`` twice without
``zero_grad`` doubles the stored gradients.
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
        ga = np.take(g, range(k), axis=ax)
        gb = np.take(g, range(k, g.shape[ax]), axis=ax)
        return ga, gb

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
        return tuple(g[:, t, :].copy() for t in range(len(xs)))

    return _wrap(np.stack([x.data for x in xs], axis=1), tuple(xs), backward)


def slice_cols(x: Tensor, j0: int, j1: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= j0 < j1 <= x.data.shape[1]):
        raise ShapeError(f"bad column slice [{j0}:{j1}] of {x.data.shape}")

    def backward(g):
        full = np.zeros_like(x.data)
        full[:, j0:j1] = g
        return (full,)

    return _wrap(x.data[:, j0:j1], (x,), backward)


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


def lstm_cell(x: Tensor, hc: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM step: input ``x`` (B, D) and state ``hc`` = [h | c] (B, 2H).

    The gate pre-activations ``x @ wx.T + h @ wh.T + b`` have width 4H in
    the order [input | forget | output | candidate] (the three sigmoid
    gates share one exp call); ``wx`` is (4H, D), ``wh`` (4H, H) and ``b``
    (4H,). The result is the next state [h' | c'], again (B, 2H).
    """
    hdim = hc.shape[-1] // 2
    if (x.data.ndim != 2 or hc.shape != (x.shape[0], 2 * hdim)
            or wx.shape != (4 * hdim, x.shape[1]) or wh.shape != (4 * hdim, hdim)
            or b.shape != (4 * hdim,)):
        raise ShapeError(f"lstm_cell shapes incompatible: x {x.shape}, "
                         f"[h|c] {hc.shape}, Wx {wx.shape}, Wh {wh.shape}, "
                         f"b {b.shape}")
    h_prev, c_prev = hc.data[:, :hdim], hc.data[:, hdim:]
    z = x.data @ wx.data.T + h_prev @ wh.data.T + b.data
    gates = 1.0 / (1.0 + np.exp(-z[:, :3 * hdim]))
    i, f, o = gates[:, :hdim], gates[:, hdim:2 * hdim], gates[:, 2 * hdim:]
    g_ = np.tanh(z[:, 3 * hdim:])
    c = f * c_prev + i * g_
    th = np.tanh(c)
    out = np.empty(hc.shape)
    np.multiply(o, th, out=out[:, :hdim])
    out[:, hdim:] = c

    def backward(g):
        gh = g[:, :hdim]
        gc = g[:, hdim:] + gh * o * (1.0 - th * th)
        gz = np.empty((len(g), 4 * hdim))  # the pre-activations are not kept
        gz[:, :hdim] = gc * g_ * i * (1.0 - i)
        gz[:, hdim:2 * hdim] = gc * c_prev * f * (1.0 - f)
        gz[:, 2 * hdim:3 * hdim] = gh * th * o * (1.0 - o)
        gz[:, 3 * hdim:] = gc * i * (1.0 - g_ * g_)
        ghc = np.concatenate([gz @ wh.data, gc * f], axis=1)
        return gz @ wx.data, ghc, gz.T @ x.data, gz.T @ h_prev, gz.sum(axis=0)

    return _wrap(out, (x, hc, wx, wh, b), backward)


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
