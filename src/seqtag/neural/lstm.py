"""LSTM scans, bidirectional encoding, and backpropagation through time.

Gate weights are stacked row-wise in (input, forget, output, candidate)
order: W is (4H, D), U is (4H, H), b is (4H,). Scans start from zero
hidden and cell states. A scan takes its input pre-activations
xs @ W.T + b ready-made and its backward pass returns only the gate
gradients, so the caller forms the input and weight GEMMs once over a
whole mini-batch of stacked sentences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(z):
    """Logistic function without overflow: exp is only taken of -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class LstmParams:
    W: np.ndarray  # (4H, D) input-to-hidden, gates stacked i|f|o|g
    U: np.ndarray  # (4H, H) hidden-to-hidden
    b: np.ndarray  # (4H,)

    def __post_init__(self):
        four_h, _ = self.W.shape
        if four_h % 4:
            raise ValueError("first weight dimension must be 4*H")
        h = four_h // 4
        if self.U.shape != (four_h, h) or self.b.shape != (four_h,):
            raise ValueError("inconsistent LSTM parameter shapes")

    @property
    def hidden_size(self):
        return self.W.shape[0] // 4

    @property
    def input_size(self):
        return self.W.shape[1]

    @classmethod
    def init(cls, input_size, hidden_size, rng):
        """Uniform gate weights in [-1/sqrt(H), 1/sqrt(H)]; forget-gate
        bias 1, other biases 0."""
        bound = 1.0 / np.sqrt(hidden_size)
        w = rng.uniform(-bound, bound, size=(4 * hidden_size, input_size))
        u = rng.uniform(-bound, bound, size=(4 * hidden_size, hidden_size))
        b = np.zeros(4 * hidden_size)
        b[hidden_size : 2 * hidden_size] = 1.0
        return cls(w, u, b)


def lstm_forward(zx, params):
    """Scan the input pre-activations zx = xs @ W.T + b, (T, 4H), from
    zero states; returns hidden states and the cache needed for the
    backward pass.

    The input products are formed by the caller, one GEMM over as many
    rows as it likes; only U @ h stays in the loop. The gates are
    activated in place in the rows of zx, which may be a reversed view.
    The cache holds (T, .) arrays: previous hidden and cell states,
    activated gates (i|f|o|g) and tanh(c).
    """
    n_steps = zx.shape[0]
    h_size = params.hidden_size
    if zx.shape != (n_steps, 4 * h_size):
        raise ValueError("input pre-activations must be (T, 4*H)")
    gates = zx  # activated in place
    i, f, o, g = np.split(gates, 4, axis=1)  # (T, H) views
    hs = np.zeros((n_steps + 1, h_size))
    cs = np.zeros((n_steps + 1, h_size))
    tanh_cs = np.empty((n_steps, h_size))
    for t in range(n_steps):
        z = gates[t]
        z += params.U @ hs[t]
        z[: 3 * h_size] = sigmoid(z[: 3 * h_size])
        np.tanh(g[t], out=g[t])
        cs[t + 1] = f[t] * cs[t] + i[t] * g[t]
        tanh_cs[t] = np.tanh(cs[t + 1])
        hs[t + 1] = o[t] * tanh_cs[t]
    return hs[1:], (hs[:-1], cs[:-1], gates, tanh_cs)


def lstm_backward(cache, params, dhs):
    """BPTT given upstream gradients on every hidden state; returns the
    (T, 4H) gate gradients DZ.

    Only dh_next = U^T dz stays in the loop. The caller forms the
    parameter gradients (DZ^T xs, DZ^T h_prev, sum of DZ) and the input
    gradients DZ @ W, over as many scans as it stacks.
    """
    h_prev, c_prev, gates, tanh_cs = cache
    n_steps = gates.shape[0]
    h_size = params.hidden_size
    i, f, o, g = np.split(gates, 4, axis=1)
    # the gate derivatives; step t multiplies row t by [dc, dc, dh, dc]
    dz = np.concatenate(
        [
            g * i * (1.0 - i),
            c_prev * f * (1.0 - f),
            tanh_cs * o * (1.0 - o),
            i * (1.0 - g**2),
        ],
        axis=1,
    )
    dc_from_dh = o * (1.0 - tanh_cs**2)
    dh_next = np.zeros(h_size)
    dc_next = np.zeros(h_size)
    for t in range(n_steps - 1, -1, -1):
        dh = dhs[t] + dh_next
        dc = dh * dc_from_dh[t] + dc_next
        dz[t] *= np.concatenate((dc, dc, dh, dc))
        dc_next = dc * f[t]
        dh_next = dz[t] @ params.U
    return dz


def bilstm_encode(xs, fwd, bwd):
    """Concatenate forward and reversed-scan hidden states per position."""
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("need a (T, D) input with T >= 1")
    hs_f, _ = lstm_forward(xs @ fwd.W.T + fwd.b, fwd)
    hs_b, _ = lstm_forward((xs @ bwd.W.T + bwd.b)[::-1], bwd)
    return np.concatenate([hs_f, hs_b[::-1]], axis=1)
