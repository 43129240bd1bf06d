"""Minimal dense-tensor math with tape-based reverse-mode gradients.

Everything is float64.  An op acts on the last two axes as a matrix
(rows x columns); any axes before them are batch axes (views, class
prompts, attention heads), and each batch item is computed exactly as
the 2-D op would compute it alone.  Operands broadcast: a 2-D weight,
bias or gain meets every item of a batch.  Such a shared input gets its
gradient item by item, in reverse item order, which is the order a tape
of one-item ops replays; so a batched forward and backward round
exactly like the per-item ones.  Scalars are shape-() arrays.

Ops record onto the innermost active Tape only when an input requires
gradients; with no active tape they are plain numpy and cost nothing
extra, which is how the image branch runs during test-time tuning.
"""

import math

import numpy as np
from scipy.special import erf as _erf

_EPS_CLAMP = 1e-12

_TAPES = []  # active tapes, innermost last


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None

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
    order.  Tensors produced on the tape are re-zeroed per backward()
    call; inputs from outside it keep accumulating across calls.
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


def _record(out, inputs, backward_fn):
    if _TAPES and any(t.requires_grad for t in inputs):
        _TAPES[-1].record(out, backward_fn)
    return out


def _accumulate(t, g):
    """t.grad += g, where g has the broadcast shape of an op's output.

    Axes along which t was broadcast are summed: within the matrix (the
    last two axes) by numpy, over batch axes one item at a time in
    reverse order.
    """
    shape = t.data.shape
    if g.shape == shape:
        t.grad += g
        return
    padded = (1,) * (g.ndim - len(shape)) + shape
    inner = tuple(ax for ax in range(max(0, g.ndim - 2), g.ndim)
                  if padded[ax] == 1 and g.shape[ax] != 1)
    if inner:
        g = g.sum(axis=inner, keepdims=True)
    if g.shape == padded:
        t.grad += g.reshape(shape)
        return
    if len(shape) > 2:
        raise ValueError(f"cannot sum a {g.shape} gradient into a batched {shape} input")
    for item in g.reshape((-1,) + shape)[::-1]:
        t.grad += item


# ---------------------------------------------------------------------------
# ops


def matmul(a, b):
    """Matrix product of the last two axes, batch axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bw():
        if a.requires_grad:
            _accumulate(a, np.matmul(out.grad, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), out.grad))

    return _record(out, (a, b), bw)


def transpose(a):
    """Swap the last two axes."""
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def bw():
        a.grad += np.swapaxes(out.grad, -1, -2)

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw():
        a.grad += out.grad.reshape(a.data.shape)

    return _record(out, (a,), bw)


def split_heads(x, heads):
    """(..., T, heads * dh) -> (..., heads, T, dh): each head's columns,
    as a view."""
    *batch, t, d = x.data.shape
    out = Tensor(np.swapaxes(x.data.reshape(*batch, t, heads, d // heads), -3, -2))

    def bw():
        x.grad += np.swapaxes(out.grad, -3, -2).reshape(x.data.shape)

    return _record(out, (x,), bw)


def merge_heads(x):
    """(..., heads, T, dh) -> (..., T, heads * dh), the inverse of split_heads."""
    *batch, heads, t, dh = x.data.shape
    out = Tensor(np.swapaxes(x.data, -3, -2).reshape(*batch, t, heads * dh))

    def bw():
        x.grad += np.swapaxes(out.grad.reshape(*batch, t, heads, dh), -3, -2)

    return _record(out, (x,), bw)


def add(a, b):
    out = Tensor(a.data + b.data)

    def bw():
        if a.requires_grad:
            _accumulate(a, out.grad)
        if b.requires_grad:
            _accumulate(b, out.grad)

    return _record(out, (a, b), bw)


def mul(a, b):
    out = Tensor(a.data * b.data)

    def bw():
        if a.requires_grad:
            _accumulate(a, out.grad * b.data)
        if b.requires_grad:
            _accumulate(b, out.grad * a.data)

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
    """Column means as one row per item (mean-pooling over rows)."""
    n = a.data.shape[-2]
    out = Tensor(a.data.mean(axis=-2, keepdims=True))

    def bw():
        a.grad += out.grad / n

    return _record(out, (a,), bw)


def concat_rows(tensors):
    """Stack along the row axis; batch axes broadcast, so one 2-D prompt
    can head every item of a batch."""
    batch = np.broadcast_shapes(*(t.data.shape[:-2] for t in tensors))
    out = Tensor(np.concatenate(
        [np.broadcast_to(t.data, batch + t.data.shape[-2:]) for t in tensors], axis=-2))
    offsets = np.cumsum([0] + [t.data.shape[-2] for t in tensors])

    def bw():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accumulate(t, out.grad[..., lo:hi, :])

    return _record(out, tuple(tensors), bw)


def gather_rows(a, indices):
    """Rows of the row axis by index.

    A 2-D table looked up with an index array of any shape (embedding
    lookup; the index's leading axes become batch axes), or a batch
    with a 1-D index, which picks the same rows of every item.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim > 2 and idx.ndim > 1:
        raise ValueError("a batched tensor takes a 1-D row index")
    out = Tensor(a.data[..., idx, :])

    def bw():
        if a.data.ndim > 2:
            np.add.at(a.grad, (Ellipsis, idx, slice(None)), out.grad)
            return
        # a shared table: one lookup at a time, in reverse
        rows = idx.reshape(-1, idx.shape[-1])
        grads = out.grad.reshape(rows.shape + a.data.shape[-1:])
        for i in reversed(range(len(rows))):
            np.add.at(a.grad, rows[i], grads[i])

    return _record(out, (a,), bw)


def softmax_rows(x):
    """Softmax over the last axis, max-subtracted for stability."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw():
        g = out.grad
        x.grad += y * (g - (g * y).sum(axis=-1, keepdims=True))

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
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    n = np.maximum(norms, _EPS_CLAMP)
    y = x.data / n
    out = Tensor(y)
    live = norms >= _EPS_CLAMP

    def bw():
        g = out.grad
        proj = np.where(live, y * (g * y).sum(axis=-1, keepdims=True), 0.0)
        x.grad += (g - proj) / n

    return _record(out, (x,), bw)


def layer_norm(x, gain, bias, eps=1e-5):
    """Per-row zero mean / unit variance, then affine by gain and bias."""
    if gain.data.shape[-1] != x.data.shape[-1] or bias.data.shape[-1] != x.data.shape[-1]:
        raise ValueError("layer_norm gain/bias must match the last dimension")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    y = xc / sigma
    out = Tensor(y * gain.data + bias.data)

    def bw():
        g = out.grad
        gy = g * gain.data
        if x.requires_grad:
            x.grad += (gy - gy.mean(axis=-1, keepdims=True)
                       - y * (gy * y).mean(axis=-1, keepdims=True)) / sigma
        if gain.requires_grad:
            _accumulate(gain, g * y)
        if bias.requires_grad:
            _accumulate(bias, g)

    return _record(out, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(f, x, h=3e-4):
    """Max relative error of analytic grad of f(x) vs five-point central
    differences.

    f must be a deterministic scalar-Tensor function of x.  The stencil
    (8·(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h has truncation error
    ~h^4·|f^(5)|/30 and roundoff ~1.5·eps·|f|/h.  A two-point stencil at
    h = 1e-5 resolves a derivative only to ~eps·|f|/h, about 1e-10 for
    |f| near 10: a relative 1e-5 on an element where the slope is near zero
    (GELU's slope vanishes at x ≈ -0.752).  h = 3e-4 cuts that roundoff 30x
    and keeps the truncation below it for the ops here.  Relative error per
    element is |a - n| / max(|a|, |n|, floor), where the floor covers the
    roundoff noise of the differences themselves: below it, both numbers
    are indistinguishable from zero and demanding relative agreement would
    only compare noise against noise.
    """
    x.zero_grad()
    with Tape() as tape:
        loss = f(x)
        tape.backward(loss)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)

    def shifted(i, d):
        orig = flat[i]
        flat[i] = orig + d
        value = float(f(x).data)
        flat[i] = orig
        return value

    for i in range(flat.size):
        near = shifted(i, h) - shifted(i, -h)
        far = shifted(i, 2.0 * h) - shifted(i, -2.0 * h)
        nflat[i] = (8.0 * near - far) / (12.0 * h)

    fscale = max(abs(float(f(x).data)), 1.0)
    floor = max(1e-8, 100.0 * np.finfo(np.float64).eps * fscale / h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
