"""Minimal dense-tensor math with tape-based reverse-mode gradients.

Everything is float64.  An op acts on the last two axes as a matrix
(rows x columns); any axes before them are batch axes (views, class
prompts, attention heads), and each batch item is computed exactly as
the 2-D op would compute it alone.  Operands broadcast: a 2-D weight,
bias or gain meets every item of a batch.  Such a shared input gets its
gradient item by item, in reverse item order, which is the order a tape
of one-item ops replays; so a batched forward and backward round
exactly like the per-item ones.  Scalars are shape-() arrays.

An op writes only into arrays it has allocated itself, never into an
input's data: a chain of elementwise steps updates one new buffer in
place, which rounds as the chain of new arrays would.

Ops record onto the innermost active Tape only when an input requires
gradients; with no active tape they are plain numpy and cost nothing
extra, which is how the image branch runs during test-time tuning.
Layer norm, attention and the MLP each keep their forward arithmetic in
one array-level function (layer_norm_forward, attention_forward,
mlp_forward) that writes into the arrays of a slot map: the op passes
_NEW, whose every slot is None, so numpy makes the new arrays that its
backward closure holds, and an untaped encoder pass (model._transformer)
passes pass_scratch, buffers of a kept pool that no closure can hold.
"""

import math

import numpy as np
from scipy.special import erf as _erf

_EPS_CLAMP = 1e-12
LAYER_NORM_EPS = 1e-5  # added to the variance under the square root

_TAPES = []  # active tapes, innermost last


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros(self.data.shape) if requires_grad else None

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of differentiable ops; a context manager.

    Backward traversal replays the record in exact reverse execution
    order.  Recording allocates nothing: each walk gives every Tensor
    produced on the tape one fresh zero gradient buffer, laid out as its
    data (an array taken from an earlier walk keeps that walk's values),
    while inputs from outside the tape keep accumulating across walks, so
    a kept tape can be walked again.
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
        self._records.append((out, backward_fn))

    def backward(self, loss):
        if loss.data.shape not in ((), (1,), (1, 1)):
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        recorded = {id(out) for out, _ in self._records}
        if id(loss) not in recorded:
            raise ValueError("loss was not produced on this tape")
        self.walk(loss, 1.0)

    def walk(self, root, grad):
        """The reverse walk from root, a Tensor produced on this tape, whose
        gradient is set to grad (a scalar or an array of its shape) after
        every buffer is made."""
        for out, _ in self._records:
            # a strided output (a transpose, a concat of broadcast rows)
            # keeps its layout, because numpy sums the rows of a strided
            # gradient in another order
            data = out.data
            out.grad = np.zeros(data.shape) if data.flags.c_contiguous else np.zeros_like(data)
        root.grad[...] = grad
        for out, backward_fn in reversed(self._records):
            backward_fn()


def recording(*inputs):
    """Whether an op on these Tensors would be recorded: a tape is active
    and one of them requires gradients."""
    return bool(_TAPES) and any(t.requires_grad for t in inputs)


def _record(out, inputs, backward_fn):
    if _TAPES and any(t.requires_grad for t in inputs):
        _TAPES[-1].record(out, backward_fn)
    return out


# The kept scratch pool: slot -> one C-contiguous float64 buffer, made at
# the slot's first request and replaced by a larger one when a request
# outgrows it, so it holds the slot's largest request for the lifetime of
# the process; only the pages a request has touched are resident.
# Without the pool every array of an untaped pass is new, and one of
# 128 KB or more is served by glibc's malloc from a fresh mmap once its
# mmap threshold is fixed there, so its pages would fault in zeroed on
# every pass.  Like the tape stack, the pool is the process's: two
# threads may not run passes at once.
# the (..., T, D) arrays of a pass: the residual stream, layer norm's
# output and square, attention's q, k, v, the heads' contexts side by
# side, and each sublayer's output
_ROW_SLOTS = ("x", "ln.y", "ln.sq", "attn.q", "attn.k", "attn.v", "attn.ctx", "out")
_scratch = {}


def scratch(slot, shape):
    """An uninitialised C-contiguous float64 array of `shape`: a reshaped
    prefix of the slot's kept buffer, which the slot's next request
    overwrites, so only an array that cannot outlive the call that takes
    it may come from here.  A request larger than the buffer replaces it
    with a buffer of the request's size."""
    n = math.prod(shape)
    buf = _scratch.get(slot)
    if buf is None or buf.size < n:
        buf = _scratch[slot] = np.empty(n)
    return buf[:n].reshape(shape)


# The slot map of a recorded op: every slot None, so numpy makes each array anew.
_NEW = dict.fromkeys(_ROW_SLOTS + ("attn.p", "mlp.pre", "mlp.erf"))


def pass_scratch(shape, heads, hidden):
    """The slot map of an untaped encoder pass over (..., T, D) rows of
    `shape` with `heads` heads and an MLP of width `hidden`: each slot's
    kept buffer, taken once for all the pass's layers."""
    *batch, t, _ = shape
    shapes = {**dict.fromkeys(_ROW_SLOTS, shape), "attn.p": (*batch, heads, t, t),
              "mlp.pre": (*batch, t, hidden), "mlp.erf": (*batch, t, hidden)}
    return {slot: scratch(slot, s) for slot, s in shapes.items()}


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
        g = np.add.reduce(g, axis=inner, keepdims=True)
    if g.shape == padded:
        t.grad += g.reshape(shape)
        return
    if len(shape) > 2:
        raise ValueError(f"cannot sum a {g.shape} gradient into a batched {shape} input")
    for item in g.reshape((-1,) + shape)[::-1]:
        t.grad += item


def _accumulate_product(t, a, b):
    """_accumulate(t, a @ b) without the stacked product where a 2-D t
    meets a batch (a weight shared by views, captions or patches): each
    item's 2-D product is added in reverse item order, as _accumulate
    adds the items of the stack, and each rounds as that item of the
    stack does."""
    if t.data.ndim != 2 or a.ndim == 2 or a.shape[:-2] != b.shape[:-2]:
        _accumulate(t, np.matmul(a, b))
        return
    for a_i, b_i in zip(a.reshape((-1,) + a.shape[-2:])[::-1],
                        b.reshape((-1,) + b.shape[-2:])[::-1]):
        t.grad += np.matmul(a_i, b_i)


# ---------------------------------------------------------------------------
# ops


def matmul(a, b):
    """Matrix product of the last two axes, batch axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bw():
        if a.requires_grad:
            _accumulate_product(a, out.grad, b.data.swapaxes(-1, -2))
        if b.requires_grad:
            _accumulate_product(b, a.data.swapaxes(-1, -2), out.grad)

    return _record(out, (a, b), bw)


def transpose(a):
    """Swap the last two axes."""
    out = Tensor(a.data.swapaxes(-1, -2))

    def bw():
        a.grad += out.grad.swapaxes(-1, -2)

    return _record(out, (a,), bw)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bw():
        a.grad += out.grad.reshape(a.data.shape)

    return _record(out, (a,), bw)


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


def sum_all(a):
    out = Tensor(np.sum(a.data))

    def bw():
        a.grad += out.grad

    return _record(out, (a,), bw)


def mean_rows(a):
    """Column means as one row per item (mean-pooling over rows)."""
    n = a.data.shape[-2]
    out = Tensor(np.add.reduce(a.data, axis=-2, keepdims=True) / n)

    def bw():
        a.grad += out.grad / n

    return _record(out, (a,), bw)


def concat_rows(tensors):
    """Stack along the row axis; each part's batch axes broadcast to those
    of the part with the most, so one 2-D prompt can head every item of a
    batch."""
    offsets = np.cumsum([0] + [t.data.shape[-2] for t in tensors])
    batch = max((t.data.shape[:-2] for t in tensors), key=len)
    out = Tensor(np.empty(batch + (offsets[-1], tensors[0].data.shape[-1])))
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        out.data[..., lo:hi, :] = t.data

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
        # a shared table: the lookups in reverse, each in its own order
        rows = idx.reshape(-1, idx.shape[-1])[::-1]
        grads = out.grad.reshape(rows.shape + a.data.shape[-1:])[::-1]
        np.add.at(a.grad, rows.ravel(), grads.reshape(-1, a.data.shape[-1]))

    return _record(out, (a,), bw)


def _softmax(x, out=None):
    """Row softmax of an array, max-subtracted for stability, into out
    (which may be x) or a new array, and the map from an output gradient
    to the input's."""
    y = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)

    def grad(g):
        return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))

    return y, grad


def softmax_rows(x):
    """Softmax over the last axis, max-subtracted for stability."""
    y, grad = _softmax(x.data)
    out = Tensor(y)

    def bw():
        x.grad += grad(out.grad)

    return _record(out, (x,), bw)


def log_softmax_rows(x):
    """Log of the row softmax, as one op: z - log(sum(exp(z))) with z the
    max-subtracted row.  Unlike log(softmax_rows(x)) it has no clamp, so a
    probability far below 1e-12 keeps its gradient."""
    y = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    y -= np.log(np.add.reduce(np.exp(y), axis=-1, keepdims=True))
    out = Tensor(y)

    def bw():
        g = out.grad
        x.grad += g - np.exp(y) * np.add.reduce(g, axis=-1, keepdims=True)

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


def _one_plus_erf(x, out):
    """1 + erf(x / sqrt(2)) of an array, written into out.  erf is odd bit
    for bit (scipy takes erf(-x) as -erf(x)), so it runs on |x / sqrt(2)|
    and takes x's sign back: the same values, without a branch on the
    sign per element."""
    np.multiply(x, _INV_SQRT2, out=out)
    np.abs(out, out=out)
    _erf(out, out=out)
    np.copysign(out, x, out=out)
    out += 1.0
    return out


def _gelu(x, one_plus_erf=None, out=None):
    """GELU of an array, 0.5 * x * (1 + erf(x / sqrt(2))), with 1 + erf
    written into one_plus_erf and the GELU into out (which may be x, if
    the gradient map goes unused), each a new array if None, and the map
    from an output gradient g to the input's, g * (0.5 * (1 + erf) + x *
    pdf(x)), each computed in that order."""
    one_plus_erf = _one_plus_erf(x, np.empty_like(x) if one_plus_erf is None else one_plus_erf)

    def grad(g):
        pdf = -0.5 * x
        pdf *= x
        np.exp(pdf, out=pdf)
        pdf *= _INV_SQRT2PI
        pdf *= x
        slope = 0.5 * one_plus_erf
        slope += pdf
        slope *= g
        return slope

    y = np.multiply(x, 0.5, out=out)
    y *= one_plus_erf
    return y, grad


def gelu(x):
    y, grad = _gelu(x.data)
    out = Tensor(y)

    def bw():
        x.grad += grad(out.grad)

    return _record(out, (x,), bw)


def l2_normalize_rows(x):
    """Divide each row by max(||row||_2, 1e-12)."""
    norms = np.sqrt(np.add.reduce(x.data * x.data, axis=-1, keepdims=True))
    n = np.maximum(norms, _EPS_CLAMP)
    y = x.data / n
    out = Tensor(y)
    live = norms >= _EPS_CLAMP

    def bw():
        g = out.grad
        proj = np.where(live, y * np.add.reduce(g * y, axis=-1, keepdims=True), 0.0)
        x.grad += (g - proj) / n

    return _record(out, (x,), bw)


def layer_norm_forward(x, gain, bias, buf):
    """Per-row zero mean / unit variance of an array x, then affine by the
    Tensors gain and bias.  Returns (out, y, sigma): y the normalized rows
    and sigma their standard deviations, which the backward pass reads.

    Each (..., T, D) array is written into its slot of the map buf, a new
    array where the slot is None (_NEW) and a kept buffer off the tape
    (pass_scratch).  out and y share the slot "ln.y", so off the tape the
    affine runs in place on y."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    y = np.subtract(x, mu, out=buf["ln.y"])
    var = np.add.reduce(np.multiply(y, y, out=buf["ln.sq"]), axis=-1, keepdims=True) / d
    sigma = np.sqrt(var + LAYER_NORM_EPS)
    y /= sigma
    out = np.multiply(y, gain.data, out=buf["ln.y"])
    out += bias.data
    return out, y, sigma


def layer_norm(x, gain, bias):
    """Per-row zero mean / unit variance, then affine by gain and bias."""
    if gain.data.shape[-1] != x.data.shape[-1] or bias.data.shape[-1] != x.data.shape[-1]:
        raise ValueError("layer_norm gain/bias must match the last dimension")
    d = x.data.shape[-1]
    y_out, y, sigma = layer_norm_forward(x.data, gain, bias, _NEW)
    out = Tensor(y_out)

    def bw():
        g = out.grad
        gy = g * gain.data
        if x.requires_grad:
            x.grad += (gy - np.add.reduce(gy, axis=-1, keepdims=True) / d
                       - y * (np.add.reduce(gy * y, axis=-1, keepdims=True) / d)) / sigma
        if gain.requires_grad:
            _accumulate(gain, g * y)
        if bias.requires_grad:
            _accumulate(bias, g)

    return _record(out, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# transformer sublayers, one op each
#
# Each computes what its composition of the single ops above would, with
# the same arithmetic in the same order, and replays that composition's
# backward in reverse by hand, so it rounds exactly as the composition
# does.  There every gradient passes through a zero-initialised,
# C-contiguous buffer; numpy's matmul and sums can round differently on a
# strided view, so a gradient that a head split or merge leaves strided is
# made contiguous before it meets either.  Where the composition makes a
# new array at each step, a sublayer updates its own buffer in place.


def _affine(x, w, b, out=None):
    """x @ w + b of an array x and Tensors w and b, the bias added in
    place, into out if given."""
    out = np.matmul(x, w.data, out=out)
    out += b.data
    return out


def _affine_grads(x, w, b, g):
    """Given g, the gradient of x @ w + b, accumulate those of the Tensors
    w and b and return that of the array x."""
    if b.requires_grad:
        _accumulate(b, g)
    if w.requires_grad:
        _accumulate_product(w, x.swapaxes(-1, -2), g)
    return np.matmul(g, w.data.swapaxes(-1, -2))


def attention_forward(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask, buf):
    """Multi-head scaled dot-product self-attention over the rows of an
    array x, each large array written into its slot of buf (see
    layer_norm_forward).  Returns (out, grad): grad maps out's gradient to
    the weights', which it accumulates, and yields x's gradient through v,
    k and q, in the order the composition adds them.

    Each projection is x @ w + b; the D columns split into `heads` heads
    of D / heads.  `mask` is an array added to the (T, T) scores, a large
    negative entry where a row may not attend, or None.  The softmax runs
    in place on the scores, and the heads' contexts are multiplied into
    their columns of one (..., T, D) array."""
    *batch, t, d = x.shape
    dh = d // heads
    c = float(1.0 / np.sqrt(dh))

    def split(a):  # (..., T, D) -> (..., heads, T, dh), a view
        return a.reshape(*batch, t, heads, dh).swapaxes(-3, -2)

    def merge(a):  # (..., heads, T, dh) -> (..., T, D)
        return a.swapaxes(-3, -2).reshape(*batch, t, d)

    qh, kh, vh = (split(_affine(x, w, b, buf[slot]))
                  for slot, w, b in (("attn.q", wq, bq), ("attn.k", wk, bk), ("attn.v", wv, bv)))
    scores = np.matmul(qh, kh.swapaxes(-1, -2), out=buf["attn.p"])
    scores *= c
    if mask is not None:
        scores += mask
    p, softmax_grad = _softmax(scores, scores)
    ctx = buf["attn.ctx"]
    if ctx is None:
        ctx = np.empty(x.shape)
    np.matmul(p, vh, out=split(ctx))

    def grad(g):
        g_heads = np.ascontiguousarray(split(_affine_grads(ctx, wo, bo, g)))
        g_scores = softmax_grad(np.matmul(g_heads, vh.swapaxes(-1, -2))) * c
        g_v = np.matmul(p.swapaxes(-1, -2), g_heads)
        g_k = np.matmul(qh.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)
        g_q = np.matmul(g_scores, kh)
        for g_in, w, b in ((g_v, wv, bv), (g_k, wk, bk), (g_q, wq, bq)):
            yield _affine_grads(x, w, b, np.ascontiguousarray(merge(g_in)))

    return _affine(ctx, wo, bo, buf["out"]), grad


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    """attention_forward as one op on Tensors."""
    y, grad = attention_forward(x.data, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask, _NEW)
    out = Tensor(y)

    def bw():
        for g_x in grad(out.grad):
            if x.requires_grad:
                _accumulate(x, g_x)

    return _record(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), bw)


def mlp_forward(x, w1, b1, w2, b2, buf):
    """GELU(x @ w1 + b1) @ w2 + b2 of an array x, each large array written
    into its slot of buf (see layer_norm_forward).  Returns (out, grad):
    grad maps out's gradient to the weights', which it accumulates, and
    returns x's.  The GELU output shares the pre-activation's slot, so
    off the tape it runs in place, halving the pre-activation and
    multiplying by 1 + erf: the taped pass's products in its order."""
    pre = _affine(x, w1, b1, buf["mlp.pre"])
    hidden, gelu_grad = _gelu(pre, buf["mlp.erf"], buf["mlp.pre"])

    def grad(g):
        return _affine_grads(x, w1, b1, gelu_grad(_affine_grads(hidden, w2, b2, g)))

    return _affine(hidden, w2, b2, buf["out"]), grad


def mlp(x, w1, b1, w2, b2):
    """mlp_forward as one op on Tensors."""
    y, grad = mlp_forward(x.data, w1, b1, w2, b2, _NEW)
    out = Tensor(y)

    def bw():
        g_x = grad(out.grad)
        if x.requires_grad:
            _accumulate(x, g_x)

    return _record(out, (x, w1, b1, w2, b2), bw)


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(f, x):
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
    h = 3e-4
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
        value = f(x).data.item()
        flat[i] = orig
        return value

    for i in range(flat.size):
        near = shifted(i, h) - shifted(i, -h)
        far = shifted(i, 2.0 * h) - shifted(i, -2.0 * h)
        nflat[i] = (8.0 * near - far) / (12.0 * h)

    fscale = max(abs(f(x).data.item()), 1.0)
    floor = max(1e-8, 100.0 * np.finfo(np.float64).eps * fscale / h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
