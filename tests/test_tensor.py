"""Tensor core: forward values, backward rules, tape behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from danqa import tensor as tc
from danqa.errors import ContractError, DomainError, ShapeError
from util import fd_gradient, max_rel_err


def gate_step(x, hc, wx=None, wh=None, b=None):
    """``lstm_cell`` over tensors or arrays; the weights default to an
    identity input map with no recurrence or bias, so ``x`` is the gate
    pre-activation."""
    hdim = np.shape(hc.data if isinstance(hc, tc.Tensor) else hc)[1] // 2
    wx = np.eye(4 * hdim) if wx is None else wx
    wh = np.zeros((4 * hdim, hdim)) if wh is None else wh
    b = np.zeros(4 * hdim) if b is None else b
    return tc.lstm_cell(*(t if isinstance(t, tc.Tensor) else tc.constant(t)
                          for t in (x, hc, wx, wh, b)))


def reference_step(x, hc, wx, wh, b):
    """Separate affine pre-activation, then the textbook gate formulas."""
    hdim = wh.shape[1]
    h, c = hc[:, :hdim], hc[:, hdim:]
    z = x @ wx.T + h @ wh.T + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, o = (sig(z[:, k * hdim:(k + 1) * hdim]) for k in range(3))
    c_new = f * c + i * np.tanh(z[:, 3 * hdim:])
    return np.concatenate([o * np.tanh(c_new), c_new], axis=1)


class TestMatmul:
    """The matrix product, ``bmm``, over a leading batch axis."""

    def test_identity(self):
        out = tc.bmm(tc.constant(np.eye(2)[None]),
                     tc.constant([[[1., 2.], [3., 4.]]]))
        np.testing.assert_array_equal(out.data, [[[1., 2.], [3., 4.]]])

    def test_hand_product(self):
        out = tc.bmm(tc.constant([[[1., 2.]]]), tc.constant([[[3.], [4.]]]))
        np.testing.assert_array_equal(out.data, [[[11.]]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 3\).*\(1, 2, 3\)"):
            tc.bmm(tc.constant(np.zeros((1, 2, 3))),
                   tc.constant(np.zeros((1, 2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = tc.parameter(rng.standard_normal((2, 3, 4)))
        b = tc.parameter(rng.standard_normal((2, 4, 2)))
        tc.tensor_sum(tc.bmm(a, b)).backward()

        def loss():
            return tc.tensor_sum(tc.bmm(a, b)).item()

        fd_a = fd_gradient(loss, a.data)
        fd_b = fd_gradient(loss, b.data)
        assert max_rel_err(a.grad, fd_a) <= 1e-6
        assert max_rel_err(b.grad, fd_b) <= 1e-6


class TestSoftmaxRows:
    def test_symmetry(self):
        out = tc.softmax_rows(tc.constant([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_large_inputs_no_overflow(self):
        out = tc.softmax_rows(tc.constant([1000.0, 1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)
        assert np.all(np.isfinite(out.data))

    def test_row_sums_and_gradient(self):
        rng = np.random.default_rng(1)
        x = tc.parameter(rng.standard_normal((2, 5)))
        w = rng.standard_normal((2, 5))
        out = tc.softmax_rows(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        tc.tensor_sum(tc.mul(out, tc.constant(w))).backward()

        def loss():
            return tc.tensor_sum(
                tc.mul(tc.softmax_rows(x), tc.constant(w))).item()

        assert max_rel_err(x.grad, fd_gradient(loss, x.data)) <= 1e-6

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeError):
            tc.softmax_rows(tc.constant(np.zeros((3, 0))))

    def test_row_sums_one_for_extreme_inputs(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 7)) * rng.choice([1.0, 50.0, 500.0])
            s = tc.softmax_rows(tc.constant(x)).data.sum(axis=-1)
            np.testing.assert_allclose(s, 1.0, atol=1e-9)


class TestConcat:
    def test_vectors(self):
        out = tc.concat(tc.constant([1.0, 2.0]), tc.constant([3.0]), axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_feature_axis_shape(self):
        out = tc.concat(tc.constant(np.zeros((82, 128))),
                        tc.constant(np.ones((82, 128))), axis=1)
        assert out.shape == (82, 256)

    def test_backward_splits(self):
        a = tc.parameter(np.zeros((2, 3)))
        b = tc.parameter(np.zeros((2, 2)))
        tc.tensor_sum(tc.concat(a, b, axis=1)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))

    def test_incompatible_extents(self):
        with pytest.raises(ShapeError):
            tc.concat(tc.constant(np.zeros((2, 3))),
                      tc.constant(np.zeros((3, 3))), axis=1)

    def test_concat_then_split_is_identity(self):
        rng = np.random.default_rng(2)
        a = tc.parameter(rng.standard_normal((3, 4)))
        b = tc.parameter(rng.standard_normal((3, 2)))
        joined = tc.concat(a, b, axis=1)
        back_a = tc.slice_cols(joined, 0, 4)
        back_b = tc.slice_cols(joined, 4, 6)
        np.testing.assert_array_equal(back_a.data, a.data)
        np.testing.assert_array_equal(back_b.data, b.data)
        tc.tensor_sum(back_a).backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(b.grad, np.zeros((3, 2)))


class TestPointwise:
    """Elementwise ops; the sigmoid and tanh live inside ``lstm_cell``."""

    def test_sigmoid_zero(self):
        # z = 0 opens every sigmoid gate half way: c' = 0.5 * c_prev
        hc = gate_step(np.zeros((1, 4)), [[0.0, 1.0]])
        assert hc.data[0, 1] == 0.5

    def test_tanh_zero(self):
        # zero pre-activations and cell give a zero candidate, cell and state
        hc = gate_step(np.zeros((1, 4)), np.zeros((1, 2)))
        np.testing.assert_array_equal(hc.data, [[0.0, 0.0]])

    def test_binary_shape_mismatch(self):
        a, b = tc.constant(np.zeros((2, 2))), tc.constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            tc.add(a, b)
        with pytest.raises(ShapeError):
            tc.mul(a, b)

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        x = tc.parameter(rng.standard_normal((4, 4)))
        y = tc.parameter(rng.standard_normal((4, 4)))

        def build():
            if op == "add":
                return tc.tensor_sum(tc.mul(tc.add(x, y), tc.constant(w)))
            return tc.tensor_sum(tc.mul(tc.mul(x, y), tc.constant(w)))

        w = rng.standard_normal((4, 4))
        build().backward()
        assert max_rel_err(x.grad, fd_gradient(lambda: build().item(),
                                               x.data)) <= 1e-6


class TestCrossEntropy:
    @staticmethod
    def _scalar_reference(p, y, mask):
        total = 0.0
        for t in range(p.shape[0]):
            for l in range(p.shape[1]):
                total -= mask[t] * y[t, l] * np.log(max(p[t, l], 1e-12))
        return total

    def test_exact_onehot_gives_zero(self):
        p = tc.constant(np.eye(3))
        y = tc.constant(np.eye(3))
        mask = tc.constant(np.ones(3))
        assert tc.cross_entropy(p, y, mask).item() == 0.0

    def test_uniform_gives_ln4(self):
        p = tc.constant(np.full((1, 4), 0.25))
        y = tc.constant(np.array([[0.0, 1.0, 0.0, 0.0]]))
        mask = tc.constant(np.ones(1))
        assert abs(tc.cross_entropy(p, y, mask).item() - np.log(4)) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        raw = rng.random((6, 5)) + 0.01
        p = raw / raw.sum(axis=1, keepdims=True)
        y = np.zeros_like(p)
        y[np.arange(6), rng.integers(5, size=6)] = 1.0
        mask = (rng.random(6) > 0.3).astype(float)
        got = tc.cross_entropy(tc.constant(p), tc.constant(y),
                               tc.constant(mask)).item()
        assert abs(got - self._scalar_reference(p, y, mask)) < 1e-12

    def test_zero_probability_is_clamped(self):
        p = tc.constant(np.array([[0.0, 1.0]]))
        y = tc.constant(np.array([[1.0, 0.0]]))
        loss = tc.cross_entropy(p, y, tc.constant(np.ones(1)))
        assert np.isfinite(loss.item())
        assert abs(loss.item() - (-np.log(1e-12))) < 1e-9

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            tc.cross_entropy(tc.constant([[-0.1, 1.1]]),
                             tc.constant([[1.0, 0.0]]),
                             tc.constant(np.ones(1)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        raw = rng.random((4, 3)) + 0.1
        p = tc.parameter(raw / raw.sum(axis=1, keepdims=True))
        y = np.zeros((4, 3))
        y[np.arange(4), rng.integers(3, size=4)] = 1.0
        yt, mt = tc.constant(y), tc.constant(np.ones(4))
        tc.cross_entropy(p, yt, mt).backward()

        def loss():
            return tc.cross_entropy(p, yt, mt).item()

        assert max_rel_err(p.grad, fd_gradient(loss, p.data)) <= 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = tc.parameter(np.zeros((2, 3)))
        tc.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_disconnected_stays_zero(self):
        x = tc.parameter(np.ones((2, 2)))
        other = tc.parameter(np.ones((2, 2)))
        tc.tensor_sum(x).backward()
        np.testing.assert_array_equal(other.grad, np.zeros((2, 2)))

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            tc.parameter(np.zeros((2, 2))).backward()

    def test_repeated_backward_accumulates(self):
        x = tc.parameter(np.array([[1.0, 2.0]]))
        loss = tc.tensor_sum(tc.mul(x, x))
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_tape_replay_determinism(self):
        def run():
            rng = np.random.default_rng(6)
            a = tc.parameter(rng.standard_normal((1, 5, 5)))
            b = tc.parameter(rng.standard_normal((1, 5, 20)))
            z = tc.reshape(tc.bmm(a, b), (5, 20))
            h = gate_step(z, np.zeros((5, 10)))
            out = tc.softmax_rows(tc.concat(h, tc.mul(h, h), axis=1))
            tc.tensor_sum(out).backward()
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


class TestFusedOps:
    def test_lstm_cell_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = tc.parameter(rng.standard_normal((3, 4)))
        hc = tc.parameter(rng.standard_normal((3, 4)))
        wx = tc.parameter(rng.standard_normal((8, 4)))
        wh = tc.parameter(rng.standard_normal((8, 2)))
        b = tc.parameter(rng.standard_normal(8))
        v = tc.constant(rng.standard_normal((3, 4)))
        tc.tensor_sum(tc.mul(tc.lstm_cell(x, hc, wx, wh, b), v)).backward()

        def loss():
            return tc.tensor_sum(
                tc.mul(tc.lstm_cell(x, hc, wx, wh, b), v)).item()

        for t in (x, hc, wx, wh, b):
            assert max_rel_err(t.grad, fd_gradient(loss, t.data)) <= 1e-5

    def test_lstm_cell_gradients(self):
        rng = np.random.default_rng(9)
        z = tc.parameter(rng.standard_normal((3, 8)))
        hc = tc.parameter(np.concatenate(
            [np.zeros((3, 2)), rng.standard_normal((3, 2))], axis=1))
        w = tc.constant(rng.standard_normal((3, 4)))

        def build():
            return tc.tensor_sum(tc.mul(gate_step(z, hc), w))

        build().backward()
        for t in (z, hc):
            assert max_rel_err(t.grad, fd_gradient(lambda: build().item(),
                                                   t.data)) <= 1e-5

    def test_lstm_cell_shape_error_names_the_shapes(self):
        x, hc = tc.constant(np.zeros((3, 4))), tc.constant(np.zeros((3, 4)))
        wx, b = tc.constant(np.zeros((8, 4))), tc.constant(np.zeros(8))
        with pytest.raises(ShapeError, match=r"\(3, 4\).*Wh \(8, 3\)"):
            tc.lstm_cell(x, hc, wx, tc.constant(np.zeros((8, 3))), b)
        with pytest.raises(ShapeError, match=r"x \(2, 4\), \[h\|c\] \(3, 4\)"):
            tc.lstm_cell(tc.constant(np.zeros((2, 4))), hc, wx,
                         tc.constant(np.zeros((8, 2))), b)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 4), d_in=st.integers(1, 5),
           hdim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 1.0, 3.0]))
    def test_lstm_cell_matches_reference_step(self, batch, d_in, hdim, seed,
                                              scale):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((batch, d_in))
        hc = scale * rng.standard_normal((batch, 2 * hdim))
        wx = scale * rng.standard_normal((4 * hdim, d_in))
        wh = scale * rng.standard_normal((4 * hdim, hdim))
        b = scale * rng.standard_normal(4 * hdim)
        got = gate_step(x, hc, wx, wh, b).data
        np.testing.assert_allclose(got, reference_step(x, hc, wx, wh, b),
                                   rtol=0, atol=1e-12)

    def test_gather_cols_scatter_adds(self):
        table = tc.parameter(np.arange(12, dtype=float).reshape(3, 4))
        out = tc.gather_cols(table, np.array([3, 3]))
        np.testing.assert_array_equal(out.data, [[3., 7., 11.], [3., 7., 11.]])
        tc.tensor_sum(out).backward()
        expected = np.zeros((3, 4))
        expected[:, 3] = 2.0
        np.testing.assert_array_equal(table.grad, expected)


def test_every_op_gradient_over_twenty_seeds():
    """Module invariant: rel err <= 1e-4 at step 1e-4 over >= 20 seeds."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = tc.parameter(rng.standard_normal((1, 3, 4)))
        y = tc.parameter(rng.standard_normal((1, 4, 12)))
        w = tc.constant(rng.standard_normal((3, 6)))

        def build():
            m = tc.reshape(tc.bmm(x, y), (3, 12))
            s = tc.softmax_rows(gate_step(m, np.ones((3, 6))))
            return tc.tensor_sum(tc.mul(s, w))

        build().backward()
        for t in (x, y):
            fd = fd_gradient(lambda: build().item(), t.data)
            assert max_rel_err(t.grad, fd, floor=1e-4) <= 1e-4
