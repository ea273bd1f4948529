"""Layer behavior: embeddings, BLSTM recurrence, attention, dense head."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from danqa import tensor as tc
from danqa.errors import ConfigError, ShapeError, VocabError
from danqa.layers import (BLSTMLayer, EmbeddingTable, MaskedSeq, attend_step,
                          dense_shared)
from util import (add, attention_weights, constant, fd_gradient, max_rel_err,
                  mul, parameter, reference_attention, reference_direction,
                  tensor_sum)


def zeroed_layer(input_dim, output_dim, seed=0):
    layer = BLSTMLayer(input_dim, output_dim, np.random.default_rng(seed))
    for p in layer.params("x").values():
        p.data[...] = 0.0
    return layer


def as_seq(x):
    """(T, d) array -> time-major (T, 1, d) sequence tensor of one row."""
    return constant(np.asarray(x)[:, None])


def seq_matrix(layer, x):
    """(T, d_out) matrix of a BLSTM's per-step outputs over one sequence."""
    return layer.seq(as_seq(x)).data[:, 0]


def token_layer(d_e, output_dim, vocab_size, rng):
    """A first-layer BLSTM over a random embedding table, PAD column too."""
    table = EmbeddingTable(rng.standard_normal((d_e, vocab_size)))
    return BLSTMLayer(d_e, output_dim, rng, embedding=table)


def tensors_made(fn):
    """How many tensors ``fn()`` creates, read off the creation counter."""
    start = next(tc._seq)
    fn()
    return next(tc._seq) - start - 1


def attention(src, story, mask=None):
    """Attend every (T, d) ``src`` row over a (S, d) story in one
    ``attend_step`` call, as time-major sequences of one row; (context,
    weights) as (T, d) and (T, S) arrays, the weights read by
    ``attention_weights``."""
    src, story = np.asarray(src, dtype=float), np.asarray(story, dtype=float)
    mask = np.ones(len(story)) if mask is None else np.asarray(mask)
    args = (src[:, None], story[:, None], np.ones((len(src), 1)), mask[:, None])
    context = attend_step(constant(args[0]), constant(args[1]), *args[2:])
    return context.data[:, 0], attention_weights(*args)[0]


class TestEmbedding:
    def test_pad_columns_are_zero_at_init(self):
        table = EmbeddingTable.random(8, 10, np.random.default_rng(0))
        out = table.lookup([0, 0])
        np.testing.assert_array_equal(out.data, np.zeros((2, 8)))

    def test_single_token_is_its_column(self):
        table = EmbeddingTable.random(8, 10, np.random.default_rng(1))
        out = table.lookup([4])
        np.testing.assert_array_equal(out.data[0], table.table.data[:, 4])

    def test_repeated_token_gradient_accumulates(self):
        table = EmbeddingTable.random(5, 8, np.random.default_rng(2))
        tensor_sum(table.lookup([3, 3])).backward()
        grad = table.table.grad
        np.testing.assert_array_equal(grad[:, 3], np.full(5, 2.0))
        grad[:, 3] = 0.0
        np.testing.assert_array_equal(grad, np.zeros((5, 8)))

    def test_index_array_gives_time_major_sequence(self):
        table = EmbeddingTable.random(5, 8, np.random.default_rng(4))
        idx = np.array([[1, 2, 3], [4, 0, 7]])
        out = table.lookup(idx)
        assert out.shape == (2, 3, 5)
        for t, b in np.ndindex(idx.shape):
            np.testing.assert_array_equal(out.data[t, b],
                                          table.table.data[:, idx[t, b]])

    def test_out_of_vocab_index_rejected(self):
        table = EmbeddingTable.random(4, 6, np.random.default_rng(3))
        with pytest.raises(VocabError):
            table.lookup([6])


class TestBLSTM:
    def test_zero_weights_give_zero_output(self):
        layer = zeroed_layer(3, 4)
        x = np.random.default_rng(0).standard_normal((5, 3))
        np.testing.assert_array_equal(seq_matrix(layer, x), np.zeros((5, 4)))

    def test_length_one_seq_equals_pool(self):
        rng = np.random.default_rng(4)
        layer = BLSTMLayer(3, 4, rng)
        x = rng.standard_normal((1, 3))
        seq = layer.seq(as_seq(x))
        pool = layer.pool(as_seq(x))
        np.testing.assert_allclose(seq.data[0], pool.data)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(5)
        layer = BLSTMLayer(3, 8, rng)
        swapped = BLSTMLayer(3, 8, rng)
        swapped.fw, swapped.bw = layer.bw, layer.fw
        x = rng.standard_normal((6, 3))
        out = seq_matrix(layer, x)
        rev = seq_matrix(swapped, x[::-1])
        half = 4
        flipped = np.concatenate([rev[::-1, half:], rev[::-1, :half]], axis=1)
        np.testing.assert_allclose(out, flipped, atol=1e-12)

    def test_pool_matches_seq_selection(self):
        rng = np.random.default_rng(6)
        layer = BLSTMLayer(4, 6, rng)
        x = rng.standard_normal((7, 4))
        seq = seq_matrix(layer, x)
        pool = layer.pool(as_seq(x)).data[0]
        np.testing.assert_allclose(pool[:3], seq[-1, :3])
        np.testing.assert_allclose(pool[3:], seq[0, 3:])

    def test_pool_output_length(self):
        rng = np.random.default_rng(7)
        layer = BLSTMLayer(4, 6, rng)
        assert layer.pool(as_seq(rng.standard_normal((5, 4)))).shape == (1, 6)

    def test_outputs_bounded_below_one(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            layer = BLSTMLayer(3, 6, rng)
            out = seq_matrix(layer, 5.0 * rng.standard_normal((10, 3)))
            assert np.all(np.abs(out) < 1.0)

    @pytest.mark.parametrize("t_len", [1, 4, 9])
    def test_one_op_per_direction_step(self, t_len):
        # one lstm_cell op for both directions whatever the length; seq adds
        # a reshape, pool two row views and a concat, and a token-id layer
        # one embedding lookup
        rng = np.random.default_rng(t_len)
        layer = BLSTMLayer(3, 4, rng)
        x = as_seq(rng.standard_normal((t_len, 3)))
        assert tensors_made(lambda: layer._run(x)) == 1
        assert tensors_made(lambda: layer.seq(x)) == 2
        assert tensors_made(lambda: layer.pool(x)) == 4
        layer = token_layer(3, 4, 6, rng)
        ids = rng.integers(0, 6, (t_len, 2))
        assert tensors_made(lambda: layer.seq(ids)) == 3
        assert tensors_made(lambda: layer.pool(ids)) == 5

    def test_empty_sequence_rejected(self):
        layer = BLSTMLayer(3, 4, np.random.default_rng(0))
        for call in (layer.seq, layer.pool):
            with pytest.raises(ShapeError, match=r"x \(0, 1, 3\)"):
                call(constant(np.zeros((0, 1, 3))))
        layer = token_layer(3, 4, 5, np.random.default_rng(0))
        for call in (layer.seq, layer.pool):
            with pytest.raises(ShapeError, match=r"x \(0, 3\), idx \(0, 1\)"):
                call(np.zeros((0, 1), dtype=np.int64))

    @settings(max_examples=40, deadline=None)
    @given(t_len=st.integers(1, 5), batch=st.integers(1, 4),
           d_e=st.integers(1, 4), hdim=st.integers(1, 3),
           vocab=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_token_ids_match_reference_over_embedded_rows(
            self, t_len, batch, d_e, hdim, vocab, seed):
        """A token-id layer reads each step's embedding column, whatever
        repeats: tokens within and across steps, and all-PAD rows; a PAD
        token is a PAD step."""
        rng = np.random.default_rng(seed)
        layer = token_layer(d_e, 2 * hdim, vocab, rng)
        ids = rng.integers(0, vocab, (t_len, batch))
        ids[:, rng.random(batch) < 0.3] = 0
        xs = layer.embedding.table.data[:, ids].transpose(1, 2, 0)
        want = [reference_direction(xs, *(w.data for w in d),
                                    reverse=d is layer.bw, mask=ids != 0
                                    ).reshape(t_len, batch, hdim)
                for d in (layer.fw, layer.bw)]
        seq = layer.seq(ids).data
        np.testing.assert_allclose(seq, np.concatenate(want, axis=2),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.pool(ids).data,
                                   np.concatenate([want[0][-1], want[1][0]], axis=1),
                                   rtol=0, atol=1e-12)

    def test_token_ids_embedding_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        layer = token_layer(3, 4, 6, rng)
        ids = np.array([[2, 0, 2], [5, 0, 2], [2, 0, 0], [1, 0, 5]])
        w_seq = constant(rng.standard_normal((4, 3, 4)))
        w_pool = constant(rng.standard_normal((3, 4)))

        def build():
            return add(tensor_sum(mul(layer.seq(ids), w_seq)),
                       tensor_sum(mul(layer.pool(ids), w_pool)))

        build().backward()
        table = layer.embedding.table
        fd = fd_gradient(lambda: build().item(), table.data)
        assert max_rel_err(table.grad, fd) <= 1e-5
        assert np.all(table.grad[:, [3, 4]] == 0.0)  # tokens never read

    def test_batched_seq_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        layer = BLSTMLayer(3, 4, rng)
        x = parameter(rng.standard_normal((3, 2, 3)))
        w_seq = constant(rng.standard_normal((3, 2, 4)))
        w_pool = constant(rng.standard_normal((2, 4)))

        def build():
            return add(tensor_sum(mul(layer.seq(x), w_seq)),
                       tensor_sum(mul(layer.pool(x), w_pool)))

        build().backward()
        for t in (x, *layer.params("x").values()):
            fd = fd_gradient(lambda: build().item(), t.data)
            assert max_rel_err(t.grad, fd) <= 1e-5

    def test_masked_sequence_skips_its_pad_steps(self):
        """``seq``/``pool`` of a ``MaskedSeq`` are the reference with the
        mask's PAD steps kept as no-ops; ``len``, ``[t]`` and ``shape`` read
        the sequence, as the benchmark's tracer sizes BLSTM calls by them."""
        rng = np.random.default_rng(14)
        layer = BLSTMLayer(3, 4, rng)
        x = rng.standard_normal((5, 2, 3))
        mask = np.array([[1, 0], [0, 0], [1, 1], [1, 0], [0, 0]], dtype=bool)
        masked = MaskedSeq(constant(x), mask)
        assert (len(masked), masked[0].shape, masked.shape) == (5, (2, 3), (5, 2, 3))
        want = [reference_direction(x, *(w.data for w in d),
                                    reverse=d is layer.bw, mask=mask
                                    ).reshape(5, 2, 2)
                for d in (layer.fw, layer.bw)]
        np.testing.assert_allclose(layer.seq(masked).data,
                                   np.concatenate(want, axis=2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.pool(masked).data,
                                   np.concatenate([want[0][-1], want[1][0]], axis=1),
                                   rtol=0, atol=1e-12)

    def test_odd_output_dim_rejected(self):
        with pytest.raises(ShapeError):
            BLSTMLayer(3, 5, np.random.default_rng(0))


class TestAttention:
    def test_identical_story_rows_give_uniform_weights(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(4)
        context, weights = attention(rng.standard_normal((3, 4)),
                                     np.tile(v, (6, 1)))
        np.testing.assert_allclose(weights, np.full((3, 6), 1 / 6), atol=1e-12)
        np.testing.assert_allclose(context, np.tile(v, (3, 1)), atol=1e-12)

    def test_single_story_row(self):
        rng = np.random.default_rng(9)
        story = rng.standard_normal((1, 4))
        context, weights = attention(rng.standard_normal((2, 4)), story)
        np.testing.assert_allclose(weights, np.ones((2, 1)))
        np.testing.assert_allclose(context, np.tile(story[0], (2, 1)))

    def test_logit_gap_three_concentrates_weight(self):
        _, weights = attention([[3.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        # closed form: exp(3) / (exp(3) + exp(0))
        expected = np.exp(3) / (np.exp(3) + 1)
        assert weights[0, 0] == pytest.approx(expected)
        assert weights[0, 0] > 0.95

    def test_weight_rows_sum_to_one(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            _, weights = attention(rng.standard_normal((4, 5)),
                                   rng.standard_normal((7, 5)))
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_shift_invariance_of_argmax(self):
        rng = np.random.default_rng(10)
        src = rng.standard_normal((3, 4))
        story = rng.standard_normal((5, 4))
        _, weights = attention(src, story)
        shifted = np.exp(src @ story.T + 7.5)
        shifted /= shifted.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(weights, shifted, atol=1e-12)
        assert np.array_equal(weights.argmax(axis=-1), shifted.argmax(axis=-1))

    def test_feature_dim_mismatch(self):
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_padding_gets_exactly_zero_weight(self):
        rng = np.random.default_rng(11)
        _, weights = attention(rng.standard_normal((2, 4)),
                               rng.standard_normal((5, 4)),
                               mask=[1, 1, 0, 1, 0])
        assert np.all(weights[:, [2, 4]] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_batched_step_matches_single_sequence_attention(self):
        """One batched call over three stories equals each story's own
        closed-form attention, softmax(src . story + mask) averaging story."""
        rng = np.random.default_rng(12)
        src = rng.standard_normal((2, 3, 4))
        stories = rng.standard_normal((5, 3, 4))
        masks = np.array([[1, 1, 1, 0, 1], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]],
                         dtype=float).T
        src_mask = np.ones((2, 3))
        context = attend_step(constant(src), constant(stories), src_mask,
                              masks)
        weights = attention_weights(src, stories, src_mask, masks)
        for b in range(3):
            for t in range(2):
                logits = np.where(masks[:, b] > 0, stories[:, b] @ src[t, b], -np.inf)
                ref = np.exp(logits - logits.max())
                ref /= ref.sum()
                np.testing.assert_allclose(weights[b, t], ref, atol=1e-12)
                np.testing.assert_allclose(context.data[t, b], ref @ stories[:, b],
                                           atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_per_row_reference(self, batch, t_len, s_len, dim, seed):
        rng = np.random.default_rng(seed)
        src = rng.standard_normal((t_len, batch, dim))
        story = rng.standard_normal((s_len, batch, dim))
        mask = (rng.random((batch, s_len)) < 0.6).astype(float)
        mask[np.arange(batch), rng.integers(s_len, size=batch)] = 1.0
        src_mask = np.ones((t_len, batch))
        context = attend_step(constant(src), constant(story), src_mask,
                              mask.T)
        weights = attention_weights(src, story, src_mask, mask.T)
        ref_context, ref_weights = reference_attention(
            src.swapaxes(0, 1), story.swapaxes(0, 1), mask)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(context.data.swapaxes(0, 1), ref_context,
                                   rtol=0, atol=1e-12)
        assert np.all(np.where(mask[:, None, :] == 0, weights, 0.0) == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 4), st.booleans(), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_live_block_matches_reference(self, batch, t_len, s_len, dim,
                                          dead_story_row, dead_src_row,
                                          no_story, seed):
        """With ragged masks, the op's context is the reference's on every
        row, and ``attention_weights`` the weights it averages the story
        with. PAD source rows get an exactly zero context and gradient; PAD
        story positions an exactly zero gradient. The flags make one story
        row all PAD, one source row all PAD, and every story position PAD."""
        rng = np.random.default_rng(seed)
        src_mask = rng.random((t_len, batch)) < 0.6
        story_mask = rng.random((s_len, batch)) < 0.6
        if dead_story_row:
            story_mask[:, rng.integers(batch)] = False
        if dead_src_row:
            src_mask[:, rng.integers(batch)] = False
        if no_story:
            story_mask[:] = False
        src = parameter(rng.standard_normal((t_len, batch, dim)))
        story = parameter(rng.standard_normal((s_len, batch, dim)))
        context = attend_step(src, story, src_mask, story_mask)
        weights = attention_weights(src.data, story.data, src_mask, story_mask)
        ref_context, ref_weights = reference_attention(
            src.data.swapaxes(0, 1), story.data.swapaxes(0, 1), story_mask.T,
            src_mask.T)
        batch_first = context.data.swapaxes(0, 1)
        np.testing.assert_allclose(batch_first, ref_context, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch_first, weights @ story.data.swapaxes(0, 1),
                                   rtol=0, atol=1e-12)
        assert np.all(context.data[~src_mask] == 0.0)
        tensor_sum(mul(context, constant(
            rng.standard_normal(context.shape)))).backward()
        assert np.all(src.grad[~src_mask] == 0.0)
        assert np.all(src.grad[:, ~story_mask.any(axis=0)] == 0.0)
        assert np.all(story.grad[~story_mask] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(t_len=st.integers(1, 5), s_len=st.integers(1, 6), dim=st.integers(1, 4),
           order=st.permutations(range(4)), size=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_batch_peers(self, t_len, s_len, dim, order,
                                               size, seed):
        """Each source row's context and gradients are those of its batch
        column attended alone, whatever peers join it and in which order; a
        PAD source row gets an exactly zero context and gradient. Source
        masks are prefixes of random length (some empty), story masks
        random."""
        rng = np.random.default_rng(seed)
        src = rng.standard_normal((t_len, 4, dim))
        story = rng.standard_normal((s_len, 4, dim))
        src_mask = np.arange(t_len)[:, None] < rng.integers(0, t_len + 1, 4)
        story_mask = rng.random((s_len, 4)) < 0.6
        w = rng.standard_normal((t_len, 4, dim))

        def run(cols):
            x, s = parameter(src[:, cols]), parameter(story[:, cols])
            context = attend_step(x, s, src_mask[:, cols], story_mask[:, cols])
            tensor_sum(mul(context, constant(w[:, cols]))).backward()
            return context.data, x.grad, s.grad

        cols = list(order[:size])
        together = run(cols)
        for k, col in enumerate(cols):
            for got, alone in zip(together, run([col])):
                np.testing.assert_allclose(got[:, k], alone[:, 0], rtol=0,
                                           atol=1e-12)
        pad = ~src_mask[:, cols]
        assert np.all(together[0][pad] == 0.0) and np.all(together[1][pad] == 0.0)

    def test_attention_gradients(self):
        self.check_gradients(np.ones((2, 3)), np.ones((5, 3)))

    def test_attention_gradients_with_ragged_masks(self):
        # source step 1 PAD in every row and step 0 in row 0; story row 1 all
        # PAD, and rows 0 and 2 with PAD positions
        src_mask, mask = np.ones((3, 2)), np.ones((3, 5))
        src_mask[:, 1] = src_mask[0, 0] = 0.0
        mask[0, [1, 4]] = mask[1] = mask[2, 0] = 0.0
        self.check_gradients(src_mask.T, mask.T)

    @staticmethod
    def check_gradients(src_mask, mask):
        rng = np.random.default_rng(13)
        src = parameter(rng.standard_normal((2, 3, 4)))
        story = parameter(rng.standard_normal((5, 3, 4)))
        w = constant(rng.standard_normal((2, 3, 4)))

        def build():
            return tensor_sum(mul(attend_step(src, story, src_mask, mask), w))

        build().backward()
        for t in (src, story):
            fd = fd_gradient(lambda: build().item(), t.data)
            assert max_rel_err(t.grad, fd, floor=1e-4) <= 1e-4


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = constant(np.ones((3, 3)))
        assert tc.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_inference_is_identity(self):
        x = constant(np.ones((3, 3)))
        assert tc.dropout(x, 0.9, False, None) is x

    def test_bad_rate_rejected(self):
        x = constant(np.ones(2))
        with pytest.raises(ConfigError):
            tc.dropout(x, 1.0, True, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            tc.dropout(x, -0.1, True, np.random.default_rng(0))

    def test_zero_fraction_near_rate(self):
        rng = np.random.default_rng(14)
        x = constant(np.ones(100_000))
        out = tc.dropout(x, 0.1, True, rng)
        frac = float((out.data == 0.0).mean())
        assert abs(frac - 0.1) <= 0.01

    def test_expectation_preserved(self):
        rng = np.random.default_rng(15)
        x = constant(np.full(200_000, 3.0))
        out = tc.dropout(x, 0.25, True, rng)
        assert out.data.mean() == pytest.approx(3.0, rel=0.01)


class TestDenseShared:
    def test_zero_weights_constant_rows(self):
        h = constant(np.random.default_rng(16).standard_normal((5, 3)))
        w = constant(np.zeros((4, 3)))
        b = constant(np.array([1.0, 2.0, 3.0, 4.0]))
        out = dense_shared(h, w, b)
        np.testing.assert_array_equal(out.data, np.tile(b.data, (5, 1)))

    def test_position_equivariance(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((6, 3))
        w = constant(rng.standard_normal((4, 3)))
        b = constant(rng.standard_normal(4))
        perm = rng.permutation(6)
        out = dense_shared(constant(h), w, b).data
        out_perm = dense_shared(constant(h[perm]), w, b).data
        np.testing.assert_allclose(out_perm, out[perm])

    def test_weight_gradient_accumulates_over_positions(self):
        rng = np.random.default_rng(18)
        h = constant(rng.standard_normal((6, 3)))
        w = parameter(rng.standard_normal((4, 3)))
        b = parameter(rng.standard_normal(4))
        v = constant(rng.standard_normal((6, 4)))

        def build():
            return tensor_sum(mul(dense_shared(h, w, b), v))

        build().backward()
        for t in (w, b):
            fd = fd_gradient(lambda: build().item(), t.data)
            assert max_rel_err(t.grad, fd, floor=1e-4) <= 1e-4
