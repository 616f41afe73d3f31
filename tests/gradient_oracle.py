"""Central-difference gradient oracle for the attention model tests.

Perturbs every scalar parameter of an :class:`AttentionModel` in turn and
compares the loss slope to the analytic gradient of ``backward``; the model's
hand-written backward pass is checked against it.
"""

import numpy as np

from suffixbeam.attention import AttentionModel


def finite_difference_check(
    model: AttentionModel,
    x: np.ndarray,
    mask: np.ndarray,
    targets: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Dropout is off (no rng passed), so the loss is deterministic in the
    parameters. Every scalar parameter is perturbed individually.
    """
    probs, cache = model.forward(x, mask)
    grads = model.backward(cache, targets)
    worst = 0.0
    for name, param in model.params.items():
        flat = param.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = model.forward(x, mask)
            loss_up = model.loss(up, targets)
            flat[i] = orig - step
            down, _ = model.forward(x, mask)
            loss_down = model.loss(down, targets)
            flat[i] = orig
            numeric = (loss_up - loss_down) / (2.0 * step)
            denom = max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst
