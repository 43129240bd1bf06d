"""AdamW with decoupled weight decay, operating on Tensor parameters."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# the step's constant factors as 0-d arrays, which a ufunc takes faster
# than a Python float
_B1, _B2, _G1, _G2, _EPS = map(np.array, (BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2, EPS))


def _flat(arrays, out):
    """The arrays' elements in one flat array: all of them gathered into
    out, or a lone array's own, a view where it can be, so that a prompt
    alone is stepped without a copy."""
    if len(arrays) == 1:
        return arrays[0].reshape(-1)
    return np.concatenate([a.reshape(-1) for a in arrays], out=out)


class AdamW:
    """Standard bias-corrected Adam with decoupled weight decay.

    State (first/second moments, step counter) starts at zero and is
    dropped whenever the episode that owns it resets.  The moments and
    the scratch are flat buffers over every parameter, so a step makes
    one pass per arithmetic step over all of them; each element goes
    through the same operations in the same order as a step of each
    parameter alone would.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        if not self.params:
            raise ValueError("AdamW needs at least one parameter")
        first = {}
        for i, p in enumerate(self.params):
            j = first.setdefault(id(p), i)
            if j != i:
                raise ValueError(f"parameter {i} is parameter {j} listed again")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self.m, self.v, self._grads, self._data, self._scratch, self._update = (
            np.zeros(ends[-1]) for _ in range(6))
        self._updates = [self._update[lo:hi].reshape(p.data.shape)
                         for p, lo, hi in zip(self.params, [0] + ends, ends)]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"parameter {i} has no gradient buffer")
            if p.grad.shape != p.data.shape:
                raise ValueError(f"parameter {i}: grad shape {p.grad.shape} "
                                 f"!= param shape {p.data.shape}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        g = _flat([p.grad for p in self.params], self._grads)
        x = _flat([p.data for p in self.params], self._data)
        m, v, s, u = self.m, self.v, self._scratch, self._update
        m *= _B1
        m += np.multiply(g, _G1, s)
        v *= _B2
        np.multiply(g, _G2, s)
        v += np.multiply(s, g, s)
        # u = lr * (m / bc1 / (sqrt(v / bc2) + EPS) + weight_decay * x)
        np.sqrt(np.divide(v, bc2, s), s)
        s += _EPS
        np.divide(m, bc1, u)
        u /= s
        u += np.multiply(x, self.weight_decay, s)
        u *= self.lr
        for p, update in zip(self.params, self._updates):
            p.data -= update

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
