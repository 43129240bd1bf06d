import numpy as np
import pytest

from tpt.autodiff import Tensor
from tpt.optim import BETA1, BETA2, EPS, AdamW


def test_step_names_both_shapes_of_a_mismatched_grad():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = AdamW([p], lr=0.1)
    p.grad = np.ones((3, 2))
    with pytest.raises(ValueError, match=r"grad shape \(3, 2\) != param shape \(2, 3\)"):
        opt.step()


# ---------------------------------------------------------------------------
# the flat step against AdamW written out one parameter at a time, with a
# new array for each arithmetic step, as the reference it equals to the bit


class _AdamWRef:
    def __init__(self, params, lr, weight_decay):
        self.params, self.lr, self.weight_decay, self.t = params, lr, weight_decay, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + EPS)
                                 + self.weight_decay * p.data)


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("shapes", [[(4, 32)], [(4, 32), (2, 1, 32)],
                                    [(4, 32), (2, 1, 32), (32, 128), (1, 32)]],
                         ids=["prompt", "prompt+cls", "weights"])
def test_flat_step_is_bit_identical_to_the_per_parameter_step(shapes, weight_decay):
    rng = np.random.default_rng(3)
    start = [rng.normal(size=s) for s in shapes]
    # gradients spanning many orders of magnitude, some exactly zero
    grads = [[rng.normal(size=s) * 10.0 ** rng.integers(-9, 3, size=s)
              * (rng.random(s) > 0.1) for s in shapes] for _ in range(4)]

    def run(optimizer):
        params = [Tensor(x.copy(), requires_grad=True) for x in start]
        opt = optimizer(params, lr=0.005, weight_decay=weight_decay)
        history = []
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad[...] = g
            opt.step()
            history.append([p.data.copy() for p in params])
        return history

    for n, (got, want) in enumerate(zip(run(AdamW), run(_AdamWRef))):
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), f"step {n + 1}, parameter {i}"


# ---------------------------------------------------------------------------
# input checks: each a ValueError that names the parameter, raised before
# any parameter moves


def test_a_parameter_without_a_gradient_buffer_is_named():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 2)))
    opt = AdamW([a, b], lr=0.1)
    with pytest.raises(ValueError, match="parameter 1 has no gradient buffer"):
        opt.step()
    assert opt.t == 0


def test_a_parameter_listed_twice_is_rejected():
    a, b = (Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(2))
    with pytest.raises(ValueError, match="parameter 2 is parameter 0 listed again"):
        AdamW([a, b, a], lr=0.1)


def test_every_gradient_is_checked_before_any_parameter_moves():
    a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
    opt = AdamW([a, b], lr=0.1)
    a.grad[...] = 1.0
    b.grad = np.ones((3, 2))
    with pytest.raises(ValueError, match=r"parameter 1: grad shape \(3, 2\)"):
        opt.step()
    assert np.array_equal(a.data, np.ones((2, 3)))
    assert opt.t == 0


def test_no_parameters_is_rejected():
    with pytest.raises(ValueError, match="at least one parameter"):
        AdamW([], lr=0.1)
