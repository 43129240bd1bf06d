import numpy as np
import pytest

from tpt.autodiff import Tensor
from tpt.optim import AdamW


def test_step_names_both_shapes_of_a_mismatched_grad():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = AdamW([p], lr=0.1)
    p.grad = np.ones((3, 2))
    with pytest.raises(ValueError, match=r"grad shape \(3, 2\) != param shape \(2, 3\)"):
        opt.step()
