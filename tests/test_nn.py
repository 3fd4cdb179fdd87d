import numpy as np
import pytest

from imvc.model import DmgmmModel, scale_heads, scale_slope
from imvc.nn import Adam, Mlp, sigmoid
from oracles import AdamPerArray, mlp_backward, mlp_forward, sigmoid_masked


def fd_param_grads(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss over a flat param list."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.ravel()
        gf = g.ravel()
        for j in range(flat.size):
            old = flat[j]
            flat[j] = old + h
            lp = loss_fn()
            flat[j] = old - h
            lm = loss_fn()
            flat[j] = old
            gf[j] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def max_rel_err(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        for x, y in zip(ga.ravel(), gn.ravel()):
            worst = max(worst, rel_err(x, y))
    return worst


def has_kink_margin(net, X, margin=1e-3):
    """True when every hidden pre-activation sits clear of the ReLU kink."""
    h = X
    for l in range(net.n_layers - 1):
        a = h @ net.weights[l] + net.biases[l]
        if np.abs(a).min() < margin:
            return False
        h = np.maximum(a, 0.0)
    return True


def make_instance(seed, out_dim, dims=(4, 7, 5)):
    rng = np.random.default_rng(seed)
    for bump in range(50):
        net = Mlp([*dims, out_dim], seed=seed + 100 * bump)
        X = rng.standard_normal((6, dims[0]))
        if has_kink_margin(net, X):
            return net, X
    raise AssertionError("could not find a kink-free instance")


class TestForward:
    def test_zero_net_identity_head(self):
        net = Mlp([3, 4, 2])
        for w in net.weights:
            w[...] = 0.0
        Y, _ = net.forward(np.random.default_rng(0).standard_normal((5, 3)))
        np.testing.assert_array_equal(Y, np.zeros((5, 2)))

    def test_single_linear_identity(self):
        net = Mlp([3, 3])
        net.weights[0][...] = np.eye(3)
        X = np.random.default_rng(1).standard_normal((4, 3))
        Y, _ = net.forward(X)
        np.testing.assert_allclose(Y, X)

    def test_matches_independent_evaluation(self):
        # second, straightforward layer-by-layer evaluation
        net = Mlp([4, 3, 2], seed=7)
        X = np.random.default_rng(2).standard_normal((6, 4))
        Y, _ = net.forward(X)
        h = np.maximum(X @ net.weights[0] + net.biases[0], 0.0)
        expected = h @ net.weights[1] + net.biases[1]
        np.testing.assert_allclose(Y, expected, rtol=0, atol=0)

    def test_dim_mismatch_raises(self):
        net = Mlp([3, 2])
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 5)))

    def test_param_count(self):
        net = Mlp([4, 7, 5, 3])
        assert [p.shape for p in net.parameters()] == [(4, 7), (7,), (7, 5), (5,),
                                                         (5, 3), (3,)]


class TestBackward:
    def test_zero_grad_out(self):
        net = Mlp([3, 4, 2], seed=1)
        X = np.random.default_rng(4).standard_normal((5, 3))
        _, inputs = net.forward(X)
        grads, dX = net.backward(inputs, np.zeros((5, 2)))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)
        np.testing.assert_array_equal(dX, 0.0)

    def test_linear_squared_loss_closed_form(self):
        # single linear layer, L = ||XW - T||^2 / n  =>  dW = 2 X^T (XW-T)/n
        rng = np.random.default_rng(5)
        net = Mlp([3, 2], seed=2)
        X = rng.standard_normal((8, 3))
        T = rng.standard_normal((8, 2))
        Y, inputs = net.forward(X)
        grads, _ = net.backward(inputs, 2.0 * (Y - T) / 8)
        expected = 2.0 * X.T @ (X @ net.weights[0] + net.biases[0] - T) / 8
        np.testing.assert_allclose(grads[0], expected, rtol=1e-12)

    # k columns of 3 pass through ``model.scale_heads``, the rest are
    # scales: k = 3 is the plain network
    @pytest.mark.parametrize("k", [3, 0, 2], ids=["identity", "softplus", "mixed"])
    def test_finite_difference_every_head(self, k):
        net, X = make_instance(11, 3)
        rng = np.random.default_rng(12)
        T = rng.standard_normal((X.shape[0], 3))

        def loss():
            return float(((scale_heads(net.forward(X)[0], k) - T) ** 2).sum())

        a, inputs = net.forward(X)
        d_out = 2.0 * (scale_heads(a, k) - T)
        scale_slope(a, k, d_out)
        analytic, _ = net.backward(inputs, d_out)
        numeric = fd_param_grads(loss, net.parameters())
        assert max_rel_err(analytic, numeric) <= 1e-4

    def test_input_gradient_finite_difference(self):
        net, X = make_instance(13, 4)
        T = np.random.default_rng(14).standard_normal((X.shape[0], 4))
        Y, inputs = net.forward(X)
        _, dX = net.backward(inputs, 2.0 * (Y - T))
        h = 1e-5
        num = np.zeros_like(X)
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                old = X[i, j]
                X[i, j] = old + h
                lp = float(((net.forward(X)[0] - T) ** 2).sum())
                X[i, j] = old - h
                lm = float(((net.forward(X)[0] - T) ** 2).sum())
                X[i, j] = old
                num[i, j] = (lp - lm) / (2 * h)
        assert max_rel_err([dX], [num]) <= 1e-4

    @pytest.mark.parametrize("dims", [(4, 7, 5), (4,)], ids=["hidden", "no-hidden"])
    def test_without_input_grad(self, dims):
        net = Mlp([*dims, 4], seed=27)
        rng = np.random.default_rng(28)
        _, inputs = net.forward(rng.standard_normal((6, dims[0])) * 3.0)
        d_out = rng.standard_normal((6, 4))
        d_before = d_out.copy()
        grads, dX = net.backward(inputs, d_out)
        grads_no_dx, none = net.backward(inputs, d_out, input_grad=False)
        assert none is None and dX.shape == (6, dims[0])
        assert len(grads_no_dx) == len(grads)
        for g, t in zip(grads, grads_no_dx):
            assert np.array_equal(g, t)
        # the caller's gradient array is left as it was
        assert np.array_equal(d_out, d_before)


class TestAdam:
    def test_zero_grads_no_update(self):
        net = Mlp([3, 2], seed=3)
        params = net.parameters()
        before = [p.copy() for p in params]
        opt = Adam(params, lr=0.1)
        opt.step([np.zeros_like(p) for p in params])
        for b, p in zip(before, params):
            np.testing.assert_array_equal(b, p)

    def test_first_step_magnitude(self):
        # bias-corrected first step with constant gradient moves ~lr
        w = np.array([0.0, 0.0])
        g = np.array([3.7, -0.2])
        opt = Adam([w], lr=0.05)
        opt.step([g])
        np.testing.assert_allclose(np.abs(w), 0.05, rtol=1e-3)

    def test_quadratic_bowl_converges(self):
        w = np.array([1.0, 1.0])
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            opt.step([2.0 * w])
        assert np.linalg.norm(w) < 1e-2

    def test_deterministic_trajectory(self):
        def run():
            net = Mlp([4, 5, 2], seed=9)
            params = net.parameters()
            opt = Adam(params, lr=1e-2)
            rng = np.random.default_rng(42)
            X = rng.standard_normal((10, 4))
            T = rng.standard_normal((10, 2))
            for _ in range(20):
                Y, inputs = net.forward(X)
                grads, _ = net.backward(inputs, 2.0 * (Y - T) / 10)
                opt.step(grads)
            return [p.copy() for p in params]

        a, b = run(), run()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @staticmethod
    def mixed_params(rng):
        """(K,), (K, d) and (1,) arrays, then the 39 arrays of a 3-view model."""
        model = DmgmmModel.build([5, 4, 6], K=3, d_z=2, hidden=(8, 4), seed=1)
        return [rng.standard_normal(3), rng.standard_normal((3, 2)),
                rng.standard_normal(1), *model.parameters()]

    def test_flat_equals_per_array(self):
        rng = np.random.default_rng(17)
        params = self.mixed_params(rng)
        assert len(params) == 3 + 39
        ref = [p.copy() for p in params]
        opt = Adam(params, lr=1e-2)
        ref_opt = AdamPerArray(ref, lr=1e-2)
        for t in range(100):
            if t % 4 == 3:
                grads = [np.zeros_like(p) for p in params]
            else:
                grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 3)
                         for p in params]
            opt.step(grads)
            ref_opt.step(grads)
            for p, r in zip(params, ref):
                assert np.array_equal(p, r)

    def test_state_roundtrip_resumes_bitwise(self):
        rng = np.random.default_rng(18)
        params = self.mixed_params(rng)
        grads = [[rng.standard_normal(p.shape) for p in params] for _ in range(20)]
        straight = [p.copy() for p in params]
        opt = Adam(straight, lr=1e-2)
        for g in grads:
            opt.step(g)

        resumed = [p.copy() for p in params]
        first = Adam(resumed, lr=1e-2)
        for g in grads[:8]:
            first.step(g)
        state = first.state_dict()
        saved = [p.copy() for p in resumed]
        first.step(grads[8])  # moves the live buffers, not the snapshot
        second = Adam(saved, lr=1e-2)
        second.load_state_dict(state)
        for g in grads[8:]:
            second.step(g)
        for p, r in zip(saved, straight):
            assert np.array_equal(p, r)

    def test_shape_mismatch_raises(self):
        params = [np.zeros(3), np.zeros((2, 2))]
        opt = Adam(params)
        with pytest.raises(ValueError, match="shape mismatch"):
            opt.step([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError, match="does not match"):
            opt.step([np.zeros(3)])
        assert opt.t == 0
        np.testing.assert_array_equal(params[1], 0.0)
        with pytest.raises(ValueError, match="do not match"):
            opt.load_state_dict({"t": 1, "m": np.zeros(3), "v": np.zeros(3)})


class TestAgainstReference:
    """The library's sigmoid, and its MLP passes followed by
    ``model.scale_heads`` and its slope, equal the per-slice forms in
    ``oracles``, bit for bit."""

    def test_sigmoid_equals_masked(self):
        tiny = np.finfo(np.float64).tiny
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
                          tiny, -tiny, tiny / 2**20, -tiny / 2**20, 5e-324, -5e-324,
                          36.7, -36.7, 709.8, -709.8, np.nan])
        rng = np.random.default_rng(19)
        for x in (edges, rng.uniform(-800, 800, 20_000),
                  rng.standard_normal((300, 7)) * 30.0, np.array(-2.5)):
            assert np.array_equal(sigmoid(x), sigmoid_masked(x), equal_nan=True)

    # (hidden dims, output width, mean columns k, rows)
    @pytest.mark.parametrize(
        "dims, out_dim, k, rows",
        [
            ((4, 7, 5), 5, 2, 6),
            ((4, 7, 5), 3, 3, 6),
            ((4, 7, 5), 3, 0, 6),
            ((4, 7, 5), 4, 2, 1),
            ((4,), 4, 2, 6),
            ((4,), 3, 3, 1),
        ],
        ids=["mixed", "identity", "softplus", "one-row", "no-hidden", "no-hidden-one-row"],
    )
    def test_passes_equal_reference(self, dims, out_dim, k, rows):
        net = Mlp([*dims, out_dim], seed=23)
        rng = np.random.default_rng(24)
        X = rng.standard_normal((rows, dims[0])) * 3.0
        a, inputs = net.forward(X)
        Y = scale_heads(a, k)
        Y_ref, (inputs_ref, a_ref) = mlp_forward(net, X, k)
        assert np.array_equal(Y, Y_ref) and np.array_equal(a, a_ref)
        for x, y in zip(inputs, inputs_ref):
            assert np.array_equal(x, y)
        d_out = rng.standard_normal(Y.shape)
        da = d_out.copy()
        scale_slope(a, k, da)
        da_before = da.copy()
        grads, dX = net.backward(inputs, da)
        grads_ref, dX_ref = mlp_backward(net, (inputs_ref, a_ref), d_out, k)
        assert len(grads) == len(grads_ref)
        for g, r in zip(grads, grads_ref):
            assert np.array_equal(g, r)
        assert np.array_equal(dX, dX_ref)
        # the caller's gradient array is left as it was
        assert np.array_equal(da, da_before)
