"""Dense MLPs with hand-written forward/backward passes, plus Adam.

Everything runs in float64 numpy so that analytic gradients can be checked
against central finite differences to tight tolerances. Networks are small
fixed-architecture perceptrons: ReLU hidden layers and a linear output.
``Mlp.forward`` returns the output and every layer's input, which
``Mlp.backward`` reads; backward returns gradients in the same flat order
as ``Mlp.parameters()``, and the input gradient only when asked. Which
output columns a model reads as scales is the model's business
(``model.scale_heads``). Networks have no file format.
"""

from __future__ import annotations

import numpy as np

# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softplus(x):
    # max(x,0) + log1p(exp(-|x|)) never overflows
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    # exp(-|x|) <= 1 never overflows; each branch is the textbook form on its
    # side of zero, so the result equals the per-sign masked evaluation
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Mlp:
    """Multilayer perceptron: ReLU hidden layers and a linear output.

    Args:
        layer_dims: sizes ``[d_in, h1, ..., d_out]``; at least one layer.
        seed: RNG seed for weight init (uniform +-sqrt(6/(d_in+d_out)),
            zero biases).
    """

    def __init__(self, layer_dims, seed=0):
        if len(layer_dims) < 2:
            raise ValueError("need at least one layer")
        self.layer_dims = list(int(d) for d in layer_dims)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for d_in, d_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            limit = np.sqrt(6.0 / (d_in + d_out))
            self.weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
            self.biases.append(np.zeros(d_out))

    @property
    def n_layers(self):
        return len(self.weights)

    def parameters(self):
        """Live references, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, X):
        """Returns ``(out, inputs)``: the output for the rows of ``X`` and
        the input of every layer, which ``backward`` reads."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"expected input of width {self.layer_dims[0]}, got shape {X.shape}"
            )
        inputs = [X]
        h = X
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            inputs.append(h)
        return h @ self.weights[-1] + self.biases[-1], inputs

    def backward(self, inputs, d_out, input_grad=True):
        """Backprop ``d_out``, a gradient w.r.t. the output of the
        ``forward`` whose layer inputs are ``inputs``; ``d_out`` is only
        read.

        Returns (grads, dX) where grads aligns with ``parameters()``; dX is
        None when ``input_grad`` is false.
        """
        da = d_out
        grads = [None] * (2 * self.n_layers)
        for l in range(self.n_layers - 1, -1, -1):
            h_in = inputs[l]
            grads[2 * l] = h_in.T @ da
            grads[2 * l + 1] = da.sum(axis=0)
            if l > 0:
                da = da @ self.weights[l].T
                # ReLU mask: inputs[l] holds the post-activation of layer l-1
                np.multiply(da, h_in > 0, out=da)
        return grads, (da @ self.weights[0].T if input_grad else None)


class Adam:
    """Bias-corrected adaptive-moment optimizer over a flat parameter list.

    ``params`` are the live arrays it updates in place, in a list it keeps.
    Both moments live in one flat float64 buffer each, laid out in the
    order of ``params``. A step updates the whole buffer with elementwise
    operations only, so every element sees the same IEEE operations as an
    update run array by array. Its intermediates go to two flat buffers
    allocated at construction, so a step allocates no flat temporary.
    """

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = np.zeros(sum(p.size for p in self.params))
        self.v = np.zeros_like(self.m)
        self._grad = np.empty_like(self.m)
        self._upd = np.empty_like(self.m)
        # each parameter's update, as a view of the flat update buffer
        self._upd_views, start = [], 0
        for p in self.params:
            self._upd_views.append(self._upd[start : start + p.size].reshape(p.shape))
            start += p.size

    def step(self, grads):
        """One update of ``params`` by ``grads``, one array per parameter."""
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match the parameter list")
        for p, g in zip(self.params, grads):
            if g.shape != p.shape:
                raise ValueError("gradient shape mismatch")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        g = np.concatenate([g.ravel() for g in grads], out=self._grad)
        m, v, upd = self.m, self.v, self._upd
        # upd holds each moment's increment until the update itself, and g
        # the step lr * m / b1t once both moments are updated
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=upd)
        m += upd
        v *= ADAM_BETA2
        np.multiply(g, g, out=upd)
        upd *= 1.0 - ADAM_BETA2
        v += upd
        np.divide(m, b1t, out=g)
        g *= self.lr
        np.divide(v, b2t, out=upd)
        np.sqrt(upd, out=upd)
        upd += ADAM_EPS
        np.divide(g, upd, out=upd)
        for p, delta in zip(self.params, self._upd_views):
            p -= delta

    def state_dict(self):
        return {"t": self.t, "m": self.m.copy(), "v": self.v.copy()}

    def load_state_dict(self, state):
        m = np.array(state["m"], dtype=np.float64)
        v = np.array(state["v"], dtype=np.float64)
        if m.shape != self.m.shape or v.shape != self.v.shape:
            raise ValueError("moment buffers do not match optimizer state")
        self.t = state["t"]
        self.m, self.v = m, v
