"""LSTM scans, bidirectional encoding, and backpropagation through time.

Gate weights are stacked row-wise in (input, forget, output, candidate)
order: W is (4H, D), U is (4H, H), b is (4H,). Scans start from zero
hidden and cell states. A scan takes its input pre-activations
xs @ W.T + b ready-made and its backward pass returns only the gate
gradients, so the caller forms the input and weight GEMMs once over a
whole mini-batch of stacked sentences.

The scans do only the work their result needs. The forward scan forms no
U @ h at the first step, where h is zero, and the backward scan forms
neither dc * f nor dz @ U at the first step, whose results nothing reads.
The sigmoid gates come from one tanh per step over the whole (4H) gate
row, through sigma(x) = (1 + tanh(x / 2)) / 2, which cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _gate_views(gates, h):
    """The (T, H) i, f, o and g views of a (T, 4H) gate block."""
    return gates[:, :h], gates[:, h : 2 * h], gates[:, 2 * h : 3 * h], gates[:, 3 * h :]


def lstm_forward(zx, params):
    """Scan the input pre-activations zx = xs @ W.T + b, (T, 4H), from
    zero states; returns hidden states and the cache needed for the
    backward pass.

    The input products are formed by the caller, one GEMM over as many
    rows as it likes; only U @ h stays in the loop, from the second step
    on. The gates are activated in place in the rows of zx, which may be
    a reversed view: each row's first 3H entries are halved, the whole
    row goes through one tanh, and those 3H entries are mapped to
    (1 + tanh(z / 2)) / 2, the sigmoid. The cell and hidden updates are
    written in place. The cache holds (T, .) arrays: previous hidden and
    cell states, activated gates (i|f|o|g) and tanh(c).
    """
    n_steps = zx.shape[0]
    h_size = params.hidden_size
    if zx.shape != (n_steps, 4 * h_size):
        raise ValueError("input pre-activations must be (T, 4*H)")
    gates = zx  # activated in place
    i, f, o, g = _gate_views(gates, h_size)
    sigmoid_part = gates[:, : 3 * h_size]  # i|f|o
    hs = np.zeros((n_steps + 1, h_size))
    cs = np.zeros((n_steps + 1, h_size))
    tanh_cs = np.empty((n_steps, h_size))
    for t in range(n_steps):
        z, z_sig = gates[t], sigmoid_part[t]
        if t:  # h_0 = 0
            z += params.U @ hs[t]
        z_sig *= 0.5
        np.tanh(z, out=z)
        z_sig *= 0.5
        z_sig += 0.5
        np.multiply(f[t], cs[t], out=cs[t + 1])
        np.multiply(i[t], g[t], out=tanh_cs[t])  # scratch for i * g
        cs[t + 1] += tanh_cs[t]
        np.tanh(cs[t + 1], out=tanh_cs[t])
        np.multiply(o[t], tanh_cs[t], out=hs[t + 1])
    return hs[1:], (hs[:-1], cs[:-1], gates, tanh_cs)


def lstm_backward(cache, params, dhs):
    """BPTT given upstream gradients on every hidden state; returns the
    (T, 4H) gate gradients DZ.

    Only dh_next = U^T dz stays in the loop, and the first step forms
    neither it nor dc_next, which nothing reads. The caller forms the
    parameter gradients (DZ^T xs, DZ^T h_prev, sum of DZ) and the input
    gradients DZ @ W, over as many scans as it stacks.
    """
    h_prev, c_prev, gates, tanh_cs = cache
    n_steps = gates.shape[0]
    h_size = params.hidden_size
    i, f, o, g = _gate_views(gates, h_size)
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
        if t:
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
