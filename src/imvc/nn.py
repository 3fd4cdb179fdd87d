"""Dense MLPs with hand-written forward/backward passes, plus Adam.

Everything runs in float64 numpy so that analytic gradients can be checked
against central finite differences to tight tolerances. Networks are small
fixed-architecture perceptrons: ReLU hidden layers and a configurable set
of output heads applied to column slices of the final linear layer:

    identity  -- raw linear output (means; Bernoulli decoders emit logits)
    softplus  -- softplus(a) + SIGMA_MIN, strictly positive (scale outputs)

Forward passes cache what backward needs; backward returns gradients in
the same flat order as ``Mlp.parameters()``. Each pass is a trunk (the
ReLU layers and the final linear map, ``trunk_forward``/``trunk_backward``)
plus the heads (``apply_heads``, ``apply_head_slope``), so a caller that
reads only identity-head columns can run the trunk alone. Networks have
no file format of their own: ``model.save_model`` writes a model's
networks as part of ``DmgmmModel.parameters()``.
"""

from __future__ import annotations

import numpy as np

# Floor added to every softplus head output; squaring it gives the variance
# floor used downstream.
SIGMA_MIN = 1e-4

HEAD_KINDS = ("identity", "softplus")

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
    """Multilayer perceptron with ReLU hidden layers and sliced output heads.

    Args:
        layer_dims: sizes ``[d_in, h1, ..., d_out]``; at least one layer.
        heads: sequence of ``(kind, width)`` pairs partitioning the output
            columns; widths must sum to ``layer_dims[-1]``. Defaults to a
            single identity head over the full output.
        seed: RNG seed for weight init (uniform +-sqrt(6/(d_in+d_out)),
            zero biases).
    """

    def __init__(self, layer_dims, heads=None, seed=0):
        if len(layer_dims) < 2:
            raise ValueError("need at least one layer")
        self.layer_dims = list(int(d) for d in layer_dims)
        if heads is None:
            heads = (("identity", self.layer_dims[-1]),)
        self.heads = tuple((str(k), int(w)) for k, w in heads)
        for kind, _ in self.heads:
            if kind not in HEAD_KINDS:
                raise ValueError(f"unknown head kind {kind!r}")
        if sum(w for _, w in self.heads) != self.layer_dims[-1]:
            raise ValueError("head widths must sum to the output dimension")

        self._softplus_slices = []
        start = 0
        for kind, width in self.heads:
            if kind == "softplus":
                self._softplus_slices.append(slice(start, start + width))
            start += width

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

    @property
    def n_params(self):
        return sum((w.shape[0] + 1) * w.shape[1] for w in self.weights)

    def parameters(self):
        """Live references, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def trunk_forward(self, X):
        """The layers without the heads: returns ``(a_out, inputs)``, the
        final linear output and the input of every layer."""
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

    def apply_heads(self, a_out):
        """The head outputs of a final linear output, in a new array."""
        # identity heads pass the linear output through
        Y = a_out.copy()
        for sl in self._softplus_slices:
            Y[:, sl] = softplus(a_out[:, sl]) + SIGMA_MIN
        return Y

    def forward(self, X):
        """Returns (Y, cache). Rows of X are samples."""
        a_out, inputs = self.trunk_forward(X)
        return self.apply_heads(a_out), (inputs, a_out)

    def trunk_backward(self, inputs, da, input_grad=True):
        """Backprop a gradient w.r.t. the final linear output of
        ``trunk_forward``, whose layer inputs are ``inputs``; ``da`` is only
        read.

        Returns (grads, dX) where grads aligns with ``parameters()``; dX is
        None when ``input_grad`` is false.
        """
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

    def apply_head_slope(self, a_out, da):
        """Multiply ``da`` in place by the heads' slope at ``a_out``."""
        # identity heads have unit slope, softplus heads slope sigmoid
        for sl in self._softplus_slices:
            da[:, sl] *= sigmoid(a_out[:, sl])

    def backward(self, cache, d_out, input_grad=True):
        """Backprop a gradient w.r.t. the head outputs.

        Returns (grads, dX) as ``trunk_backward`` does.
        """
        inputs, a_out = cache
        d_out = np.asarray(d_out, dtype=np.float64)
        if d_out.shape != a_out.shape:
            raise ValueError("gradient shape does not match cached forward")
        # the copy leaves the caller's array unwritten
        da = d_out.copy(order="K")
        self.apply_head_slope(a_out, da)
        return self.trunk_backward(inputs, da, input_grad)


class Adam:
    """Bias-corrected adaptive-moment optimizer over a flat parameter list.

    Parameters are updated in place. Both moments live in one flat float64
    buffer each, laid out in the order of the parameter list given at
    construction, so the same list (same shapes, same order) must be passed
    every step. A step updates the whole buffer with elementwise operations
    only, so every element sees the same IEEE operations as an update run
    array by array. Its intermediates go to two flat buffers allocated at
    construction, so a step allocates no flat temporary.
    """

    def __init__(self, params, lr=1e-3):
        self.lr = float(lr)
        self.t = 0
        self._shapes = [p.shape for p in params]
        self.m = np.zeros(sum(p.size for p in params))
        self.v = np.zeros_like(self.m)
        self._grad = np.empty_like(self.m)
        self._upd = np.empty_like(self.m)
        # each parameter's update, as a view of the flat update buffer
        self._upd_views, start = [], 0
        for p in params:
            self._upd_views.append(self._upd[start : start + p.size].reshape(p.shape))
            start += p.size

    def step(self, params, grads):
        if len(params) != len(self._shapes) or len(grads) != len(self._shapes):
            raise ValueError("parameter/gradient list does not match optimizer state")
        for p, g, shape in zip(params, grads, self._shapes):
            if p.shape != shape or g.shape != shape:
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
        for p, delta in zip(params, self._upd_views):
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
