"""Adam with bias correction, for dense parameter dicts and for sparse
row updates into embedding matrices.

One AdamState serves a whole training run; the timestep advances once
per optimizer step and is shared by dense and row-sparse updates, so
bias correction stays consistent. Rows not touched by a batch are left
alone (lazy updates keep frozen rows byte-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    def slot(self, name, like):
        if name not in self.m:
            self.m[name] = np.zeros_like(like)
            self.v[name] = np.zeros_like(like)
        return self.m[name], self.v[name]


def _update(param, grad, m, v, t, learning_rate, beta1, beta2, epsilon):
    """One Adam update of param, m and v in place: the textbook formula's
    operations in its order, through two scratch arrays."""
    scratch = np.multiply(1.0 - beta1, grad)
    m *= beta1
    m += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - beta2
    v *= beta2
    v += scratch
    np.divide(m, 1.0 - beta1**t, out=scratch)  # m_hat
    scratch *= learning_rate
    denominator = np.divide(v, 1.0 - beta2**t)  # v_hat
    np.sqrt(denominator, out=denominator)
    denominator += epsilon
    scratch /= denominator
    param -= scratch


def adam_step(params, grads, state, learning_rate=0.001, beta1=0.9, beta2=0.999,
              epsilon=1e-8):
    """Update every named parameter with its gradient, in place; advances
    the shared timestep."""
    state.t += 1
    for name, grad in grads.items():
        param = params[name]
        if param.shape != grad.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        m, v = state.slot(name, param)
        _update(param, grad, m, v, state.t, learning_rate, beta1, beta2, epsilon)
    return params, state


def adam_step_rows(matrix, rows, grad, state, name, learning_rate=0.001,
                   beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Adam on distinct rows of a matrix, given their stacked gradients;
    untouched rows do not move. The rows are gathered, updated as
    adam_step updates a dense parameter, and scattered back."""
    m, v = state.slot(name, matrix)
    param_rows, m_rows, v_rows = matrix[rows], m[rows], v[rows]
    _update(param_rows, grad, m_rows, v_rows, state.t, learning_rate, beta1, beta2,
            epsilon)
    matrix[rows] = param_rows
    m[rows] = m_rows
    v[rows] = v_rows
