"""Minimal dense-tensor math with tape-based reverse-mode gradients.

Everything is float64 and 2-D (vectors are 1xN rows, scalars are shape-()
arrays).  Ops record onto the innermost active Tape only when an input
requires gradients; with no active tape they are plain numpy and cost
nothing extra, which is how the image branch runs during test-time tuning.
"""

import math

import numpy as np
from scipy.special import erf as _erf

_EPS_CLAMP = 1e-12

_TAPES = []  # active tapes, innermost last


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.is_leaf = True

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of differentiable ops; a context manager.

    Backward traversal replays the record in exact reverse execution
    order.  Tensors produced on a tape are marked non-leaf; leaves keep
    accumulating across repeated backward() calls, intermediates are
    re-zeroed per call.
    """

    def __init__(self):
        self._records = []  # (output Tensor, backward closure)

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def record(self, out, backward_fn):
        out.requires_grad = True
        out.grad = np.zeros_like(out.data)
        out.is_leaf = False
        self._records.append((out, backward_fn))

    def backward(self, loss):
        if loss.data.shape not in ((), (1,), (1, 1)):
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        recorded = {id(out) for out, _ in self._records}
        if id(loss) not in recorded:
            raise ValueError("loss was not produced on this tape")
        for out, _ in self._records:
            out.grad[...] = 0.0
        loss.grad[...] = 1.0
        for out, backward_fn in reversed(self._records):
            backward_fn()


def active_tape():
    return _TAPES[-1] if _TAPES else None


def _record(out, inputs, backward_fn):
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# ops


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bw():
        if a.requires_grad:
            a.grad += out.grad @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ out.grad

    return _record(out, (a, b), bw)


def transpose(a):
    out = Tensor(a.data.T)

    def bw():
        a.grad += out.grad.T

    return _record(out, (a,), bw)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bw():
        if a.requires_grad:
            a.grad += out.grad
        if b.requires_grad:
            b.grad += out.grad

    return _record(out, (a, b), bw)


def add_row(a, row):
    """Add a 1xN row tensor to every row of a."""
    out = Tensor(a.data + row.data)

    def bw():
        if a.requires_grad:
            a.grad += out.grad
        if row.requires_grad:
            row.grad += out.grad.sum(axis=0, keepdims=True)

    return _record(out, (a, row), bw)


def mul(a, b):
    out = Tensor(a.data * b.data)

    def bw():
        if a.requires_grad:
            a.grad += out.grad * b.data
        if b.requires_grad:
            b.grad += out.grad * a.data

    return _record(out, (a, b), bw)


def scale(a, c):
    c = float(c)
    out = Tensor(a.data * c)

    def bw():
        a.grad += out.grad * c

    return _record(out, (a,), bw)


def neg(a):
    return scale(a, -1.0)


def sum_all(a):
    out = Tensor(np.sum(a.data))

    def bw():
        a.grad += out.grad

    return _record(out, (a,), bw)


def mean_rows(a):
    """Column means as a 1xN row (mean-pooling over rows)."""
    n = a.data.shape[0]
    out = Tensor(a.data.mean(axis=0, keepdims=True))

    def bw():
        a.grad += out.grad / n

    return _record(out, (a,), bw)


def concat_rows(tensors):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=0))
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def bw():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.grad += out.grad[lo:hi]

    return _record(out, tuple(tensors), bw)


def concat_cols(tensors):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1))
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])

    def bw():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.grad += out.grad[:, lo:hi]

    return _record(out, tuple(tensors), bw)


def gather_rows(a, indices):
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx])

    def bw():
        np.add.at(a.grad, idx, out.grad)

    return _record(out, (a,), bw)


def slice_cols(a, lo, hi):
    out = Tensor(a.data[:, lo:hi])

    def bw():
        a.grad[:, lo:hi] += out.grad

    return _record(out, (a,), bw)


def softmax_rows(x):
    """Row-wise softmax, max-subtracted for stability."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bw():
        g = out.grad
        x.grad += y * (g - (g * y).sum(axis=1, keepdims=True))

    return _record(out, (x,), bw)


def log(x):
    """Natural log with input clamped at 1e-12; zero gradient in the clamp."""
    clamped = np.maximum(x.data, _EPS_CLAMP)
    out = Tensor(np.log(clamped))
    live = x.data >= _EPS_CLAMP

    def bw():
        x.grad += np.where(live, out.grad / clamped, 0.0)

    return _record(out, (x,), bw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x):
    erf_term = _erf(x.data * _INV_SQRT2)
    out = Tensor(0.5 * x.data * (1.0 + erf_term))

    def bw():
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        x.grad += out.grad * (0.5 * (1.0 + erf_term) + x.data * pdf)

    return _record(out, (x,), bw)


def l2_normalize_rows(x):
    """Divide each row by max(||row||_2, 1e-12)."""
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    n = np.maximum(norms, _EPS_CLAMP)
    y = x.data / n
    out = Tensor(y)
    live = norms >= _EPS_CLAMP

    def bw():
        g = out.grad
        proj = np.where(live, y * (g * y).sum(axis=1, keepdims=True), 0.0)
        x.grad += (g - proj) / n

    return _record(out, (x,), bw)


def layer_norm(x, gain, bias, eps=1e-5):
    """Per-row zero mean / unit variance, then affine by gain and bias."""
    if gain.data.shape[-1] != x.data.shape[-1] or bias.data.shape[-1] != x.data.shape[-1]:
        raise ValueError("layer_norm gain/bias must match the last dimension")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    sigma = np.sqrt(var + eps)
    y = xc / sigma
    out = Tensor(y * gain.data + bias.data)

    def bw():
        g = out.grad
        gy = g * gain.data
        if x.requires_grad:
            x.grad += (gy - gy.mean(axis=1, keepdims=True)
                       - y * (gy * y).mean(axis=1, keepdims=True)) / sigma
        if gain.requires_grad:
            gain.grad += (g * y).sum(axis=0, keepdims=True).reshape(gain.data.shape)
        if bias.requires_grad:
            bias.grad += g.sum(axis=0, keepdims=True).reshape(bias.data.shape)

    return _record(out, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(f, x, h=1e-5):
    """Max relative error of analytic grad of f(x) vs central differences.

    f must be a deterministic scalar-Tensor function of x.  Relative error
    per element is |a - n| / max(|a|, |n|, floor), where the floor covers
    the roundoff noise of the central differences themselves (~eps·|f|/h):
    below it, both numbers are indistinguishable from zero and demanding
    relative agreement would only compare noise against noise.
    """
    x.zero_grad()
    with Tape() as tape:
        loss = f(x)
        tape.backward(loss)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data)
        flat[i] = orig - h
        fm = float(f(x).data)
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)

    fscale = max(abs(float(f(x).data)), 1.0)
    floor = max(1e-8, 100.0 * np.finfo(np.float64).eps * fscale / h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
