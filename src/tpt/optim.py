"""AdamW with decoupled weight decay, operating on Tensor parameters."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Standard bias-corrected Adam with decoupled weight decay.

    State (first/second moments, step counter) starts at zero and is
    dropped whenever the episode that owns it resets.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g.shape != p.data.shape:
                raise ValueError(f"grad shape {g.shape} != param shape {p.data.shape}")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + EPS)
                                 + self.weight_decay * p.data)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
