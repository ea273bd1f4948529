"""Tensor core: forward values, backward rules, tape behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from danqa import tensor as tc
from danqa.errors import ContractError, ShapeError
from util import (add, bmm, constant, fd_gradient, max_rel_err, mul, parameter,
                  reference_direction, tensor_sum)


def gate_step(z):
    """The forward direction of ``lstm_cell`` over the (T, B, 4H) tensor or
    array ``z`` with an identity input map and no recurrence or bias, so
    ``z[t]`` is the gate pre-activation of step t; (T·B, H) like
    ``reference_direction``."""
    z = z if isinstance(z, tc.Tensor) else constant(np.asarray(z, float))
    hdim = z.shape[2] // 4
    weights = (constant(np.eye(4 * hdim)),
               constant(np.zeros((4 * hdim, hdim))),
               constant(np.zeros(4 * hdim)))
    return tc.lstm_cell(z, weights, weights)[::2]


def lstm_inputs(rng, t_len, batch=3, d_in=4, hdim=2, scale=1.0):
    """A random (T, B, D) input and the forward and backward weight triples
    of an ``lstm_cell`` call, as arrays."""
    def weights():
        return (scale * rng.standard_normal((4 * hdim, d_in)),
                scale * rng.standard_normal((4 * hdim, hdim)),
                scale * rng.standard_normal(4 * hdim))

    return scale * rng.standard_normal((t_len, batch, d_in)), weights(), weights()


# real steps (T=6, B=3): an all-PAD prefix (t=0), interior gap (t=3) and
# suffix (t=5), a partially real step (t=2), and an all-PAD row (b=2)
GAPPY_MASK = np.array([[0, 0, 0], [1, 1, 0], [1, 0, 0],
                       [0, 0, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)


def padding_mask(rng, t_len, batch, density):
    """A random (T, B) real-step mask: each step real with ``density``, and
    some whole steps and rows PAD."""
    mask = rng.random((t_len, batch)) < density
    mask[rng.random(t_len) < (1.0 - density) / 2] = False
    mask[:, rng.random(batch) < 0.2] = False
    return mask


def directions(out, t_len, batch):
    """The forward and backward (T·B, H) halves of ``lstm_cell`` states."""
    both = np.asarray(out).reshape(t_len * batch, 2, -1)
    return both[:, 0], both[:, 1]


class TestMatmul:
    """The test op ``bmm``: the matrix product over a leading batch axis."""

    def test_identity(self):
        out = bmm(constant(np.eye(2)[None]),
                  constant([[[1., 2.], [3., 4.]]]))
        np.testing.assert_array_equal(out.data, [[[1., 2.], [3., 4.]]])

    def test_hand_product(self):
        out = bmm(constant([[[1., 2.]]]), constant([[[3.], [4.]]]))
        np.testing.assert_array_equal(out.data, [[[11.]]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 3\).*\(1, 2, 3\)"):
            bmm(constant(np.zeros((1, 2, 3))),
                constant(np.zeros((1, 2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = parameter(rng.standard_normal((2, 3, 4)))
        b = parameter(rng.standard_normal((2, 4, 2)))
        tensor_sum(bmm(a, b)).backward()

        def loss():
            return tensor_sum(bmm(a, b)).item()

        fd_a = fd_gradient(loss, a.data)
        fd_b = fd_gradient(loss, b.data)
        assert max_rel_err(a.grad, fd_a) <= 1e-6
        assert max_rel_err(b.grad, fd_b) <= 1e-6


def softmax_and_grad(x, labels=None):
    """The row softmax that ``cross_entropy`` takes of the (m, L) logits
    ``x`` (gold labels 0 unless given), read off its gradient
    ``softmax - onehot``; and that gradient."""
    x = parameter(np.asarray(x, dtype=float))
    y = np.zeros(len(x), int) if labels is None else np.asarray(labels)
    tc.cross_entropy(x, y, np.ones(len(x))).backward()
    probs = x.grad.copy()
    probs[np.arange(len(x)), y] += 1.0
    return probs, x.grad


class TestSoftmaxRows:
    """The softmax over each row of logits, which ``cross_entropy`` takes."""

    def test_symmetry(self):
        probs, _ = softmax_and_grad([[0.0, 0.0]])
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_large_inputs_no_overflow(self):
        probs, _ = softmax_and_grad([[1000.0, 1000.0, 1000.0]])
        np.testing.assert_allclose(probs, [[1 / 3] * 3])
        assert np.all(np.isfinite(probs))
        loss = tc.cross_entropy(constant([[1000.0, 1000.0, 1000.0]]), [0], [1.0])
        assert loss.item() == pytest.approx(np.log(3), abs=1e-12)

    def test_row_sums_and_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5))
        y = rng.integers(5, size=2)
        probs, grad = softmax_and_grad(x, y)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

        def loss():
            return tc.cross_entropy(constant(x), y, np.ones(2)).item()

        assert max_rel_err(grad, fd_gradient(loss, x)) <= 1e-6

    def test_empty_row_rejected(self):
        with pytest.raises(ShapeError):
            tc.cross_entropy(constant(np.zeros((3, 0))), np.zeros(3, int), np.ones(3))

    def test_row_sums_one_for_extreme_inputs(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 7)) * rng.choice([1.0, 50.0, 500.0])
            probs, _ = softmax_and_grad(x, rng.integers(7, size=4))
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


class TestConcat:
    def test_vectors(self):
        out = tc.concat(constant([1.0, 2.0]), constant([3.0]), axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_feature_axis_shape(self):
        out = tc.concat(constant(np.zeros((82, 128))),
                        constant(np.ones((82, 128))), axis=1)
        assert out.shape == (82, 256)

    def test_backward_splits(self):
        a = parameter(np.zeros((2, 3)))
        b = parameter(np.zeros((2, 2)))
        tensor_sum(tc.concat(a, b, axis=1)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))

    def test_incompatible_extents(self):
        with pytest.raises(ShapeError):
            tc.concat(constant(np.zeros((2, 3))),
                      constant(np.zeros((3, 3))), axis=1)

    def test_concat_then_split_is_identity(self):
        rng = np.random.default_rng(2)
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((3, 2)))
        joined = tc.concat(a, b, axis=1)
        back_a, back_b = joined[:, 0:4], joined[:, 4:6]
        np.testing.assert_array_equal(back_a.data, a.data)
        np.testing.assert_array_equal(back_b.data, b.data)
        tensor_sum(back_a).backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(b.grad, np.zeros((3, 2)))


class TestIndex:
    """``x[key]`` views; their dense gradients add with every other one."""

    def test_overlapping_slices_add(self):
        x = parameter(np.zeros((4, 3)))
        add(tensor_sum(x[0:3]), tensor_sum(x[1:4])).backward()
        np.testing.assert_array_equal(x.grad, np.repeat([[1.], [2.], [2.], [1.]],
                                                        3, axis=1))

    @pytest.mark.parametrize("slice_first", [False, True])
    def test_slice_and_full_gradients_add_in_either_order(self, slice_first):
        # the full gradient reaches y as the very array add() also hands to
        # z, so adding the slice into it in place would corrupt z's gradient
        rng = np.random.default_rng(11)
        x = parameter(rng.standard_normal((4, 3)))
        other = parameter(rng.standard_normal((4, 3)))
        w_full = rng.standard_normal((4, 3))
        w_part = rng.standard_normal((2, 3))
        y = mul(x, constant(np.full((4, 3), 2.0)))
        z = mul(other, constant(np.full((4, 3), 3.0)))

        def part():
            return tensor_sum(mul(y[1:3], constant(w_part)))

        def full():
            return tensor_sum(mul(add(y, z), constant(w_full)))

        first, second = (part(), full()) if slice_first else (full(), part())
        add(first, second).backward()
        expected = w_full.copy()
        expected[1:3] += w_part
        np.testing.assert_allclose(x.grad, 2.0 * expected, rtol=1e-15)
        np.testing.assert_array_equal(other.grad, 3.0 * w_full)

    def test_leaf_parameter_gets_parts(self):
        x = parameter(np.zeros((3, 4)))
        w = np.arange(3.0)
        loss = add(tensor_sum(mul(x[:, 1], constant(w))),
                   tensor_sum(x[0, 0:2]))
        loss.backward()
        expected = np.zeros((3, 4))
        expected[:, 1] = w
        expected[0, :2] += 1.0
        np.testing.assert_array_equal(x.grad, expected)
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * expected)

    def test_value_is_the_numpy_view(self):
        x = constant(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(x[:, 2].data, x.data[:, 2])

    def test_bad_keys_name_the_shape(self):
        x = constant(np.zeros((4, 3)))
        with pytest.raises(ShapeError, match="integers and slices"):
            x[[0, 1]]
        with pytest.raises(ShapeError, match=r"\(4, 3\)"):
            x[:, 5]
        with pytest.raises(ShapeError, match=r"of \(4, 3\) selects nothing"):
            x[2:2]

    def test_length_reads_the_time_and_batch_extents(self):
        # bench/tracing.py sizes each BLSTM call as 2 * len(x) * x[0].shape[0]
        x = constant(np.zeros((5, 3, 2)))
        assert len(x) * x[0].shape[0] == 5 * 3
        with pytest.raises(TypeError):
            len(constant(1.0))
        with pytest.raises(TypeError, match="not iterable"):
            list(x)


class TestTransposeRepeat:
    """The sequence-layout op ``repeat``; sequences stay time-major, so no op
    permutes their axes."""

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_repeat_copies_and_sums_back(self, axis):
        rng = np.random.default_rng(20)
        x = parameter(rng.standard_normal((2, 3)))
        out = tc.repeat(x, 4, axis=axis)
        assert out.shape[axis] == 4
        for k in range(4):
            np.testing.assert_array_equal(np.take(out.data, k, axis=axis),
                                          x.data)
        w = constant(rng.standard_normal(out.shape))

        def build():
            return tensor_sum(mul(tc.repeat(x, 4, axis=axis), w))

        build().backward()
        np.testing.assert_allclose(x.grad, w.data.sum(axis=axis), rtol=1e-15)
        assert max_rel_err(x.grad, fd_gradient(lambda: build().item(),
                                               x.data)) <= 1e-6

    def test_repeat_needs_a_new_axis(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            tc.repeat(constant(np.zeros((2, 3))), 2, axis=3)


class TestPointwise:
    """Elementwise ops; the sigmoid and tanh live inside ``lstm_cell``."""

    def test_sigmoid_zero(self):
        # z = 0 opens every sigmoid gate half way: step 1 writes
        # c1 = 0.5 * tanh(2), step 2 keeps c2 = 0.5 * c1, and h = 0.5 * tanh(c)
        h = gate_step([[[0.0, 0.0, 0.0, 2.0]], [[0.0, 0.0, 0.0, 0.0]]]).data
        c1 = 0.5 * np.tanh(2.0)
        assert h[0, 0] == 0.5 * np.tanh(c1)
        assert h[1, 0] == 0.5 * np.tanh(0.5 * c1)

    def test_tanh_zero(self):
        # zero pre-activations and cell give a zero candidate, cell and state
        h = gate_step(np.zeros((3, 1, 4)))
        np.testing.assert_array_equal(h.data, np.zeros((3, 1)))

    def test_binary_shape_mismatch(self):  # of the test ops add and mul
        a, b = constant(np.zeros((2, 2))), constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            add(a, b)
        with pytest.raises(ShapeError):
            mul(a, b)

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        x = parameter(rng.standard_normal((4, 4)))
        y = parameter(rng.standard_normal((4, 4)))

        def build():
            if op == "add":
                return tensor_sum(mul(add(x, y), constant(w)))
            return tensor_sum(mul(mul(x, y), constant(w)))

        w = rng.standard_normal((4, 4))
        build().backward()
        assert max_rel_err(x.grad, fd_gradient(lambda: build().item(),
                                               x.data)) <= 1e-6


class TestCrossEntropy:
    @staticmethod
    def _scalar_reference(logits, y, mask):
        total = 0.0
        for t in range(logits.shape[0]):
            top = max(logits[t])
            norm = sum(np.exp(v - top) for v in logits[t])
            total -= mask[t] * (logits[t, y[t]] - top - np.log(norm))
        return total

    def test_exact_onehot_gives_zero(self):
        logits = constant(1000.0 * np.eye(3))
        assert tc.cross_entropy(logits, np.arange(3), np.ones(3)).item() == 0.0

    def test_uniform_gives_ln4(self):
        loss = tc.cross_entropy(constant(np.zeros((1, 4))), [1], np.ones(1))
        assert abs(loss.item() - np.log(4)) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        logits = 3.0 * rng.standard_normal((6, 5))
        y = rng.integers(5, size=6)
        mask = (rng.random(6) > 0.3).astype(float)
        got = tc.cross_entropy(constant(logits), y, mask).item()
        assert abs(got - self._scalar_reference(logits, y, mask)) < 1e-12

    def test_confident_wrong_row_is_exact(self):
        """A gold probability far below 1e-12 gets its exact loss and the
        gradient softmax - onehot, not a clamped loss and a zero gradient;
        a masked row adds nothing and gets no gradient."""
        logits = parameter(np.array([[40.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0]]))
        loss = tc.cross_entropy(logits, [1, 2], [1.0, 0.0])
        exact = 40.0 + np.log1p(3.0 * np.exp(-40.0))
        assert loss.item() == pytest.approx(exact, rel=1e-15)
        assert loss.item() > 27.64  # -log(1e-12), where a clamp would stop it
        loss.backward()
        softmax = np.exp(logits.data[0] - exact - logits.data[0, 1])
        np.testing.assert_allclose(logits.grad[0], softmax - np.eye(4)[1],
                                   rtol=1e-15, atol=1e-30)
        np.testing.assert_array_equal(logits.grad[1], 0.0)

    def test_bad_labels_and_masks_rejected(self):
        logits = constant(np.zeros((2, 3)))
        for y, mask in (([0, 3], [1, 1]), ([-1, 0], [1, 1]), ([0.0, 1.0], [1, 1]),
                        ([0], [1]), ([0, 1], [1, 1, 1])):
            with pytest.raises(ShapeError, match=r"\(2, 3\)"):
                tc.cross_entropy(logits, np.array(y), np.array(mask))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = parameter(rng.standard_normal((4, 3)))
        y, mask = rng.integers(3, size=4), np.array([1.0, 0.0, 1.0, 1.0])
        tc.cross_entropy(logits, y, mask).backward()

        def loss():
            return tc.cross_entropy(logits, y, mask).item()

        assert max_rel_err(logits.grad, fd_gradient(loss, logits.data)) <= 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = parameter(np.zeros((2, 3)))
        tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_disconnected_stays_zero(self):
        x = parameter(np.ones((2, 2)))
        other = parameter(np.ones((2, 2)))
        tensor_sum(x).backward()
        np.testing.assert_array_equal(other.grad, np.zeros((2, 2)))

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            parameter(np.zeros((2, 2))).backward()

    def test_repeated_backward_accumulates(self):
        x = parameter(np.array([[1.0, 2.0]]))
        loss = tensor_sum(mul(x, x))
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_tape_replay_determinism(self):
        def run():
            rng = np.random.default_rng(6)
            a = parameter(rng.standard_normal((1, 5, 5)))
            b = parameter(rng.standard_normal((1, 5, 20)))
            z = tc.reshape(bmm(a, b), (1, 5, 20))
            h = gate_step(tc.concat(z, mul(z, z), axis=0))
            logits = tc.concat(h, mul(h, h), axis=1)
            tc.cross_entropy(logits, np.arange(10), np.ones(10)).backward()
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


class TestFusedOps:
    def test_lstm_cell_matches_finite_differences(self):
        # a dense (T, B, D) input, and (U, D) rows read through an index
        # that repeats rows within and across steps and never reads row 4;
        # unmasked, and with the PAD steps of GAPPY_MASK
        for masked, t_len, rows in itertools.product((False, True), (1, 3, 6),
                                                     (False, True)):
            rng = np.random.default_rng(7 + t_len)
            x, fw, bw = lstm_inputs(rng, t_len)
            idx = None
            if rows:
                x, idx = rng.standard_normal((5, 4)), rng.integers(0, 4, (t_len, 3))
                idx[0] = 2
            mask = GAPPY_MASK[:t_len] if masked else None
            x = parameter(x)
            fw, bw = (tuple(map(parameter, w)) for w in (fw, bw))
            v = constant(rng.standard_normal((3 * t_len * 2, 2)))

            def build():
                return tensor_sum(mul(tc.lstm_cell(x, fw, bw, idx, mask), v))

            build().backward()
            for t in (x, *fw, *bw):
                fd = fd_gradient(lambda: build().item(), t.data)
                assert max_rel_err(t.grad, fd) <= 1e-5, (masked, t_len, rows)
            if masked and not rows:  # a PAD step reads nothing of its input
                assert np.all(x.grad[~mask] == 0.0)

    def test_lstm_cell_pad_steps_keep_the_state(self):
        x, fw, bw = lstm_inputs(np.random.default_rng(11), 6)
        args = (constant(x), *(tuple(map(constant, w)) for w in (fw, bw)))
        out = tc.lstm_cell(*args, mask=GAPPY_MASK).data.reshape(6, 3, 2, 2)
        np.testing.assert_array_equal(out[:, 2], 0.0)  # the all-PAD row
        np.testing.assert_array_equal(out[0, :, 0], 0.0)  # before any real step
        np.testing.assert_array_equal(out[5, :, 1], 0.0)
        np.testing.assert_array_equal(out[3, :, 0], out[2, :, 0])  # the gap
        np.testing.assert_array_equal(out[3, :, 1], out[4, :, 1])
        np.testing.assert_array_equal(out[2, 1, 0], out[1, 1, 0])  # partial step
        np.testing.assert_array_equal(out[2, 1, 1], out[4, 1, 1])
        # an all-PAD mask leaves every state at zero and reads no input, on
        # the dense and the token-id path
        for inp, idx in ((x, None), (x[0], np.zeros((6, 3), int))):
            inp = parameter(inp)
            nothing = tc.lstm_cell(inp, *args[1:], idx, np.zeros((6, 3), bool))
            np.testing.assert_array_equal(nothing.data, 0.0)
            tensor_sum(nothing).backward()
            np.testing.assert_array_equal(inp.grad, 0.0)

    def test_lstm_cell_gradients(self):
        # gate pre-activations as inputs: the candidate, the cell carried
        # through the forget gate and the output gate each get a gradient
        rng = np.random.default_rng(9)
        z = parameter(rng.standard_normal((3, 3, 8)))
        w = constant(rng.standard_normal((9, 2)))

        def build():
            return tensor_sum(mul(gate_step(z), w))

        build().backward()
        assert np.all(z.grad[0, :, 2:4] == 0.0)  # no cell before step 0
        assert np.all(z.grad[0, :, [0, 1, 4, 5, 6, 7]] != 0.0)
        assert np.all(z.grad[1:] != 0.0)
        assert max_rel_err(z.grad, fd_gradient(lambda: build().item(),
                                               z.data)) <= 1e-5

    def test_lstm_cell_shape_error_names_the_shapes(self):
        x = constant(np.zeros((1, 3, 4)))
        wx, b = constant(np.zeros((8, 4))), constant(np.zeros(8))
        wh = constant(np.zeros((8, 2)))
        fw = (wx, wh, b)
        with pytest.raises(ShapeError, match=r"x \(1, 3, 4\).*Wh \(8, 3\)"):
            tc.lstm_cell(x, fw, (wx, constant(np.zeros((8, 3))), b))
        with pytest.raises(ShapeError, match=r"x \(3, 4\), idx None; fw Wx \(8, 4\)"):
            tc.lstm_cell(constant(np.zeros((3, 4))), fw, fw)
        with pytest.raises(ShapeError, match=r"x \(0, 3, 4\), idx None; fw Wx \(8, 4\)"):
            tc.lstm_cell(constant(np.zeros((0, 3, 4))), fw, fw)
        with pytest.raises(ShapeError, match=r"b \(4,\)"):
            tc.lstm_cell(x, (wx, wh, constant(np.zeros(4))), fw)
        rows = constant(np.zeros((3, 4)))
        for idx in ([[0, 3]], [[-1, 0]], [[0.0, 1.0]], [0, 1], np.zeros((0, 2), int)):
            with pytest.raises(ShapeError, match=r"x \(3, 4\), idx"):
                tc.lstm_cell(rows, fw, fw, np.array(idx))
        with pytest.raises(ShapeError, match=r"x \(1, 3, 4\), idx \(1, 1\)"):
            tc.lstm_cell(x, fw, fw, np.zeros((1, 1), int))
        with pytest.raises(ShapeError, match=r"x \(1, 3, 4\), idx None;.*mask \(3, 1\)"):
            tc.lstm_cell(x, fw, fw, mask=np.ones((3, 1), bool))

    @settings(max_examples=60, deadline=None)
    @given(t_len=st.integers(1, 6), batch=st.integers(1, 4),
           d_in=st.integers(1, 5), hdim=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 1.0, 3.0]),
           density=st.sampled_from([1.0, 0.7, 0.3]), rows=st.booleans())
    def test_lstm_cell_matches_reference_step(self, t_len, batch, d_in, hdim,
                                              seed, scale, density, rows):
        """Both halves are ``reference_direction`` forward and reversed, over
        a dense input or rows read through an index, with random PAD steps
        (none at density 1)."""
        rng = np.random.default_rng(seed)
        x, fw, bw = lstm_inputs(rng, t_len, batch, d_in, hdim, scale)
        mask = None if density == 1.0 else padding_mask(rng, t_len, batch, density)
        weights = [tuple(map(constant, w)) for w in (fw, bw)]
        if rows:
            table, idx = x[0], rng.integers(0, batch, (t_len, batch))
            got = tc.lstm_cell(constant(table), *weights, idx, mask)
            x = table[idx]
        else:
            got = tc.lstm_cell(constant(x), *weights, mask=mask)
        for half, w, reverse in zip(directions(got.data, t_len, batch),
                                    (fw, bw), (False, True)):
            np.testing.assert_allclose(
                half, reference_direction(x, *w, reverse, mask), rtol=0,
                atol=1e-12)

    def test_lstm_cell_records_no_buffers_without_grad(self):
        x, fw, bw = lstm_inputs(np.random.default_rng(10), 4)
        args = [parameter(x), tuple(map(parameter, fw)),
                tuple(map(parameter, bw))]
        with tc.no_grad():
            plain = tc.lstm_cell(*args)
        assert plain._backward is None
        np.testing.assert_array_equal(plain.data, tc.lstm_cell(*args).data)

    def test_attend_shape_error_names_the_shapes(self):
        src, story = constant(np.zeros((3, 2, 4))), constant(np.zeros((5, 2, 4)))
        with pytest.raises(ShapeError, match=r"src \(3, 2, 4\), story \(5, 2, 4\), "
                                             r"masks \(2, 2\), \(5, 2\)"):
            tc.attend(src, story, np.ones((2, 2)), np.ones((5, 2)))
        with pytest.raises(ShapeError, match=r"story \(5, 2, 3\)"):
            tc.attend(src, constant(np.zeros((5, 2, 3))), np.ones((3, 2)),
                      np.ones((5, 2)))
        with pytest.raises(ShapeError, match=r"story \(5, 1, 4\)"):
            tc.attend(src, constant(np.zeros((5, 1, 4))), np.ones((3, 2)),
                      np.ones((5, 1)))

    def test_gather_cols_scatter_adds(self):
        table = parameter(np.arange(12, dtype=float).reshape(3, 4))
        out = tc.gather_cols(table, np.array([3, 3]))
        np.testing.assert_array_equal(out.data, [[3., 7., 11.], [3., 7., 11.]])
        tensor_sum(out).backward()
        expected = np.zeros((3, 4))
        expected[:, 3] = 2.0
        np.testing.assert_array_equal(table.grad, expected)


def test_every_op_gradient_over_twenty_seeds():
    """Module invariant: rel err <= 1e-4 at step 1e-4 over >= 20 seeds."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((1, 3, 4)))
        y = parameter(rng.standard_normal((1, 4, 12)))
        labels = rng.integers(3, size=6)
        w_ctx = constant(rng.standard_normal((2, 3, 3)))
        # a masked loss row; attention with PAD source rows, an interior PAD
        # story position and an all-PAD story
        mask = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        src_mask = [[1, 1, 0], [1, 0, 0]]
        story_mask = [[1, 0, 1], [0, 0, 1], [1, 0, 1], [1, 0, 0]]

        def build():
            m = tc.reshape(bmm(x, y), (3, 12))
            swapped = tc.concat(m[:, 6:], m[:, :6], axis=1)
            h = gate_step(tc.reshape(tc.concat(m, swapped, axis=0), (2, 3, 12)))
            seq = tc.reshape(h, (2, 3, 3))
            last = tc.repeat(h[3:6], 2, axis=0)
            loss = tc.cross_entropy(tc.reshape(add(seq, last), (6, 3)), labels, mask)
            ctx = tc.attend(seq, tc.reshape(m, (4, 3, 3)), src_mask, story_mask)
            return add(loss, tensor_sum(mul(ctx, w_ctx)))

        build().backward()
        for t in (x, y):
            fd = fd_gradient(lambda: build().item(), t.data)
            assert max_rel_err(t.grad, fd, floor=1e-4) <= 1e-4
