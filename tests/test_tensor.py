import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyquant import tensor as T
from oracles import (attention_oracle, check_gradient, conv2d_oracle,
                     conv2d_slice_reference, matmul_oracle)

F32 = np.float32


def t(data):
    return T.Tensor(np.asarray(data, dtype=F32))


class TestTensorType:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(T.TensorError):
            T.Tensor([1.0, float("nan")])
        with pytest.raises(T.TensorError):
            T.Tensor([float("inf")])

    def test_shape_matches_data(self):
        x = t([[1, 2, 3], [4, 5, 6]])
        assert x.shape == (2, 3)
        assert x.size == 6
        assert x.data.dtype == np.float32


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1, 2], [3, 4]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_case(self):
        out = T.matmul(t([[1, 2]]), t([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (5, 7)).astype(F32)
        b = rng.normal(0, 1, (7, 3)).astype(F32)
        got = T.matmul(t(a), t(b)).data
        np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))

    def test_batched_and_transpose_b(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 1, (2, 3, 4, 5)).astype(F32)
        b = rng.normal(0, 1, (2, 3, 6, 5)).astype(F32)
        got = T.matmul(t(a), t(b), transpose_b=True).data
        np.testing.assert_allclose(got, a @ b.swapaxes(-1, -2), rtol=1e-6)


class TestConv2d:
    def test_scalar_kernel_scales_input(self):
        x = t(np.arange(9, dtype=F32).reshape(1, 1, 3, 3))
        w = t(np.full((1, 1, 1, 1), 2.0))
        np.testing.assert_array_equal(T.conv2d(x, w).data, 2.0 * x.data)

    def test_ones_kernel_sums_input(self):
        x = t(np.arange(9, dtype=F32).reshape(1, 1, 3, 3))
        w = t(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data.reshape(()) == x.data.sum()

    @pytest.mark.parametrize("stride,padding,groups", [(1, 0, 1), (2, 1, 1), (1, 1, 2)])
    def test_against_nested_loop_oracle(self, stride, padding, groups):
        rng = np.random.default_rng(stride * 10 + padding + groups)
        x = rng.normal(0, 1, (2, 4, 6, 5)).astype(F32)
        w = rng.normal(0, 1, (6, 4 // groups, 3, 3)).astype(F32)
        b = rng.normal(0, 1, 6).astype(F32)
        got = T.conv2d(t(x), t(w), t(b), stride=stride, padding=padding,
                       groups=groups).data
        want = conv2d_oracle(x, w, b, stride, padding, groups)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_depthwise_case(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (1, 4, 5, 5)).astype(F32)
        w = rng.normal(0, 1, (4, 1, 3, 3)).astype(F32)
        got = T.conv2d(t(x), t(w), stride=1, padding=1, groups=4).data
        want = conv2d_oracle(x, w, None, 1, 1, 4)
        np.testing.assert_allclose(got, want, atol=1e-5)

    # (x shape, kernel shape, stride, padding, groups): strides 1-3 and
    # padding 0-2, also as pairs; groups 1, C and between; H != W; 1x1
    # kernels; kernels larger than the stride; the fixtures' stem and
    # depthwise conv last. Inputs and output gradients hold zeros of both
    # signs, since a sum that starts from +0.0 drops the sign of a -0.0.
    SLICE_CASES = [
        ((2, 4, 7, 5), (6, 4, 3, 3), 1, 0, 1),
        ((2, 4, 7, 5), (6, 2, 3, 3), 2, 1, 2),
        ((2, 4, 9, 6), (4, 1, 3, 3), 3, 2, 4),
        ((2, 4, 8, 7), (8, 4, 3, 2), (2, 1), (1, 0), 1),
        ((2, 6, 7, 9), (6, 3, 2, 3), (1, 3), (0, 2), 2),
        ((3, 6, 5, 4), (6, 6, 1, 1), 1, 0, 1),
        ((2, 4, 5, 3), (4, 1, 1, 1), 1, 0, 4),
        ((2, 6, 6, 4), (6, 2, 1, 1), 2, 0, 3),
        ((2, 4, 4, 6), (4, 4, 1, 1), 1, 1, 1),
        ((2, 3, 10, 9), (4, 3, 5, 5), 2, 2, 1),
        ((2, 4, 6, 6), (4, 1, 2, 2), 2, 0, 4),
        ((3, 3, 16, 16), (16, 3, 3, 3), 2, 1, 1),
        ((3, 16, 8, 8), (16, 1, 3, 3), 2, 1, 16),
        # padding >= stride, so more than one output row and column of a
        # tap falls in the padding, and padding past the kernel's reach, so
        # some taps of the edge rows lie wholly in it
        ((4, 2, 7, 5), (4, 2, 3, 3), 2, 2, 1),
        ((2, 3, 5, 4), (3, 1, 2, 2), (2, 1), (3, 2), 3),
    ]

    @pytest.mark.parametrize("case", range(len(SLICE_CASES)))
    def test_bytes_equal_the_slice_loop_reference(self, case):
        xs, ws, stride, padding, groups = self.SLICE_CASES[case]
        rng = np.random.default_rng(700 + case)

        def values(shape):  # with exact zeros of both signs
            a = rng.normal(0, 1, shape).astype(F32)
            a[rng.random(shape) < 0.1] = 0.0
            a[rng.random(shape) < 0.1] = -0.0
            return a
        x, w = values(xs), values(ws)
        tape = T.Tape()
        xt = tape.leaf(t(x))
        out = T.conv2d(xt, t(w), stride=stride, padding=padding,
                       groups=groups, tape=tape)
        tape.watch(xt.node)
        g = values(out.shape)
        dx = T.backward(t(g), tape)[xt.node].data
        want_out, want_dx = conv2d_slice_reference(x, w, g, stride, padding,
                                                   groups)
        assert (out.shape, dx.shape) == (want_out.shape, x.shape)
        assert out.data.tobytes() == want_out.tobytes()
        assert dx.tobytes() == np.ascontiguousarray(want_dx).tobytes()

    def test_group_divisibility_error(self):
        with pytest.raises(T.ShapeMismatchError, match="groups"):
            T.conv2d(t(np.zeros((1, 3, 4, 4))), t(np.zeros((4, 1, 3, 3))), groups=2)

    def test_nonpositive_output_error(self):
        with pytest.raises(T.ShapeMismatchError, match="positive"):
            T.conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 5, 5))))


class TestSoftmax:
    # both sides of _max_keepdims' limit: a last axis of at most 32, a longer
    # one and other axes; zeros of both signs so a row max can be +-0.0
    @pytest.mark.parametrize("shape,axis", [
        ((32, 2, 16, 16), -1), ((3, 32), -1), ((3, 33), -1), ((4, 200), -1),
        ((5, 16, 7), 1), ((6, 5), 0)])
    def test_bits_match_the_plain_row_max(self, shape, axis):
        x = np.random.default_rng(0).normal(0, 3, shape).astype(F32)
        x[0] = -np.abs(x[0])
        x.flat[::5] = -0.0
        x.flat[::9] = 0.0
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        want = e / e.sum(axis=axis, keepdims=True)
        assert T.softmax(t(x), axis=axis).data.tobytes() == want.tobytes()

    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_stabilized_against_overflow(self):
        out = T.softmax(t([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16), st.integers(0, 3))
    def test_sums_to_one(self, values, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (4, len(values))).astype(F32) + np.asarray(values, F32)
        sums = T.softmax(t(x), axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestSilu:
    def test_large_negative_inputs_give_signed_zeros_without_warning(self):
        # exp(-x) overflows float32 below about -88: sigmoid 0, silu -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.silu(t([-100.0, -89.0, 0.0, 5.0])).data
        assert out.tobytes().hex() == "000000800000008000000000dded9e40"


class TestNorms:
    def test_layer_norm_constant_input_gives_bias(self):
        x = t(np.full((2, 5), 3.7))
        gamma = t(np.ones(5))
        beta = t(np.arange(5, dtype=F32))
        out = T.layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(out, np.tile(np.arange(5, dtype=F32), (2, 1)),
                                   atol=1e-3)

    def test_group_norm_groups1_equals_layer_norm_over_flattened(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 2, (3, 4, 5, 5)).astype(F32)
        gamma = (1 + 0.1 * rng.normal(0, 1, 4)).astype(F32)
        beta = rng.normal(0, 0.1, 4).astype(F32)
        gn = T.group_norm(t(x), t(gamma), t(beta), groups=1, channel_axis=1).data
        flat = x.reshape(3, -1)
        gamma_full = np.repeat(gamma, 25)
        beta_full = np.repeat(beta, 25)
        ln = T.layer_norm(t(flat), t(gamma_full), t(beta_full)).data.reshape(x.shape)
        np.testing.assert_allclose(gn, ln, atol=1e-6)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_group_statistics(self, groups):
        rng = np.random.default_rng(groups)
        x = rng.normal(3, 2, (2, 8, 4, 4)).astype(F32)
        ones = t(np.ones(8))
        zeros = t(np.zeros(8))
        out = T.group_norm(t(x), ones, zeros, groups=groups).data
        view = out.reshape(2, groups, -1)
        assert np.abs(view.mean(axis=-1)).max() < 1e-5
        np.testing.assert_allclose(view.var(axis=-1), 1.0, atol=1e-3)

    def test_group_divisibility_error(self):
        with pytest.raises(T.ShapeMismatchError, match="divide"):
            T.group_norm(t(np.zeros((1, 6, 2, 2))), t(np.ones(6)), t(np.zeros(6)),
                         groups=4)

    def test_batch_norm_folded_is_affine(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (2, 3, 4, 4)).astype(F32)
        sc = rng.normal(1, 0.2, 3).astype(F32)
        sh = rng.normal(0, 0.5, 3).astype(F32)
        out = T.batch_norm_folded(t(x), t(sc), t(sh)).data
        want = x * sc.reshape(1, 3, 1, 1) + sh.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(out, want, rtol=1e-6)


def _op_cases(seed):
    """(name, builder, input array) triples for the gradient sweep."""
    rng = np.random.default_rng(seed)

    def base(shape, scale=1.0):
        return (rng.normal(0.0, scale, shape)).astype(F32)

    w_mm = T.Tensor(base((6, 4)))
    w_conv = T.Tensor(base((4, 3, 3, 3), 0.5))
    b_conv = T.Tensor(base(4, 0.5))
    gamma = T.Tensor((1 + 0.1 * base(6)).astype(F32))
    beta = T.Tensor(base(6, 0.1))
    gamma8 = T.Tensor((1 + 0.1 * base(8)).astype(F32))
    beta8 = T.Tensor(base(8, 0.1))
    other = T.Tensor(base((3, 5)))
    labels = rng.integers(0, 4, 5)

    return [
        ("add", lambda x, tp: T.add(x, other, tp), base((3, 5))),
        ("scale", lambda x, tp: T.scale(x, 8 ** -0.5, tp), base((3, 5))),
        ("matmul", lambda x, tp: T.matmul(x, w_mm, tp), base((3, 6))),
        ("conv2d", lambda x, tp: T.conv2d(x, w_conv, b_conv, stride=2,
                                          padding=1, tape=tp), base((2, 3, 5, 5))),
        ("softmax", lambda x, tp: T.softmax(x, -1, tp), base((3, 5), 2.0)),
        ("layer_norm", lambda x, tp: T.layer_norm(x, gamma, beta, tape=tp),
         base((4, 6))),
        ("group_norm", lambda x, tp: T.group_norm(x, gamma8, beta8, groups=2,
                                                  tape=tp), base((2, 8, 3, 3))),
        ("batch_norm_folded", lambda x, tp: T.batch_norm_folded(
            x, gamma8, beta8, tape=tp), base((2, 8, 3, 3))),
        ("gelu", lambda x, tp: T.gelu(x, tp), base((3, 5), 1.5)),
        ("silu", lambda x, tp: T.silu(x, tp), base((3, 5), 1.5)),
        ("mean", lambda x, tp: T.mean(x, (1,), tp), base((3, 5, 4))),
        ("reshape", lambda x, tp: T.reshape(x, (5, 6), tp), base((3, 10))),
        ("transpose", lambda x, tp: T.transpose(x, (0, 2, 1), tp), base((2, 3, 4))),
        ("cross_entropy", lambda x, tp: T.cross_entropy(x, labels, tp),
         base((5, 4), 2.0)),
    ]


class TestBackward:
    def test_linear_closed_form(self):
        # y = W x, loss = sum(y): dloss/dx = W^T 1
        rng = np.random.default_rng(1)
        w = rng.normal(0, 1, (4, 3)).astype(F32)
        x = rng.normal(0, 1, (3, 1)).astype(F32)
        tape = T.Tape()
        xt = tape.leaf(t(x))
        T.matmul(t(w), xt, tape)
        tape.watch(xt.node)
        grad = T.backward(t(np.ones((4, 1))), tape)[xt.node].data
        np.testing.assert_allclose(grad, w.T @ np.ones((4, 1)), rtol=1e-5)

    @pytest.mark.parametrize("case_idx", range(len(_op_cases(0))))
    def test_gradients_match_finite_differences(self, case_idx):
        worst = 0.0
        for seed in range(10):
            name, apply_fn, x0 = _op_cases(seed)[case_idx]
            worst = max(worst, check_gradient(apply_fn, x0, seed))
        assert worst < 1e-2, f"{name}: max rel err {worst:.3e}"

    def test_softmax_gradient_zero_at_uniform_for_sum_loss(self):
        tape = T.Tape()
        xt = tape.leaf(t(np.zeros(6)))
        T.softmax(xt, -1, tape)
        tape.watch(xt.node)
        grad = T.backward(t(np.ones(6)), tape)[xt.node].data
        np.testing.assert_allclose(grad, 0.0, atol=1e-7)

    def test_empty_tape_error(self):
        with pytest.raises(T.EmptyTapeError):
            T.backward(T.Tensor(1.0), T.Tape())

    def test_loss_grad_shape_checked(self):
        tape = T.Tape()
        xt = tape.leaf(t([1.0, 2.0]))
        T.softmax(xt, -1, tape)
        with pytest.raises(T.ShapeMismatchError):
            T.backward(T.Tensor(np.zeros((3, 3), F32)), tape)

    def test_unreached_watched_node_gets_zeros(self):
        tape = T.Tape()
        xt = tape.leaf(t([1.0, 2.0]))
        side = T.scale(xt, 2.0, tape)  # not on the loss path
        T.relu(xt, tape)
        tape.watch(side.node)
        grads = T.backward(t([1.0, 1.0]), tape)
        np.testing.assert_array_equal(grads[side.node].data, [0.0, 0.0])

    def test_add_gradient_sums_over_the_broadcast_axes(self):
        # (N, T, E) + (E,): the row's gradient is the loss gradient summed
        # over the axes it lacks; (N, T, E) + (N, 1, E): over the axis it
        # holds at length 1
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (2, 3, 4)).astype(F32)
        g = rng.normal(0, 1, (2, 3, 4)).astype(F32)
        for shape, axes in (((4,), (0, 1)), ((2, 1, 4), (1,))):
            tape = T.Tape()
            xt, rt = tape.leaf(t(x)), tape.leaf(t(np.ones(shape)))
            T.add(xt, rt, tape)
            tape.watch(xt.node)
            tape.watch(rt.node)
            grads = T.backward(t(g), tape)
            assert grads[xt.node].data.tobytes() == g.tobytes()
            want = g.sum(axis=axes, keepdims=True).reshape(shape)
            np.testing.assert_allclose(grads[rt.node].data, want, rtol=1e-6)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(0, 2, (6, 4)).astype(F32)
        labels = rng.integers(0, 4, 6)
        tape = T.Tape()
        lt = tape.leaf(t(logits))
        T.cross_entropy(lt, labels, tape)
        tape.watch(lt.node)
        grad = T.backward(T.Tensor(1.0), tape)[lt.node].data
        probs = np.exp(logits - logits.max(1, keepdims=True))
        probs = probs / probs.sum(1, keepdims=True)
        onehot = np.eye(4, dtype=F32)[labels]
        np.testing.assert_allclose(grad, probs - onehot, atol=1e-6)

    def test_second_sweep_of_a_tape_is_refused(self):
        tape = T.Tape()
        xt = tape.leaf(t([1.0, 2.0]))
        T.relu(xt, tape)
        tape.watch(xt.node)
        T.backward(t([1.0, 1.0]), tape)
        with pytest.raises(T.TensorError, match="tape already swept"):
            T.backward(t([1.0, 1.0]), tape)

    def test_sweep_stops_at_lowest_watched_node_and_releases_used_rules(self):
        # x -> a -> b -> c -> c + b, with b watched: the rules of b and below
        # must not run, and every rule above b is released once used
        tape = T.Tape()
        xt = tape.leaf(t([1.0, -2.0, 3.0]))
        a = T.scale(xt, 2.0, tape)
        b = T.scale(a, 0.5, tape)
        c = T.relu(b, tape)
        T.add(c, b, tape)
        tape.watch(b.node)
        ran = []

        def spy(nid, rule):
            def wrapped(g):
                ran.append(nid)
                return rule(g)
            return wrapped

        tape.nodes = [(shape, spy(nid, rule))
                      for nid, (shape, rule) in enumerate(tape.nodes)]
        grads = T.backward(t([1.0, 1.0, 1.0]), tape)
        last = len(tape.nodes) - 1
        assert ran == list(range(last, b.node, -1))
        assert all(rule is None for _, rule in tape.nodes[b.node + 1:])
        assert all(rule is not None for _, rule in tape.nodes[:b.node + 1])
        # d(c + b)/db = 1 + (b > 0): both paths into b accumulate
        np.testing.assert_array_equal(grads[b.node].data, [2.0, 1.0, 2.0])

    def test_stopped_sweep_gives_the_full_sweeps_bytes(self):
        # watching the leaf as well forces a sweep to the bottom; the gradient
        # at the upper watched node must not change by a bit
        rng = np.random.default_rng(23)
        x = rng.normal(0, 1, (4, 6)).astype(F32)
        w = rng.normal(0, 1, (5, 6)).astype(F32)
        got = []
        for watch_leaf in (False, True):
            tape = T.Tape()
            xt = tape.leaf(t(x))
            h = T.gelu(T.matmul(xt, t(w), tape, transpose_b=True), tape)
            mid = T.softmax(h, -1, tape)
            T.cross_entropy(T.add(mid, h, tape), np.arange(4), tape)
            tape.watch(mid.node)
            if watch_leaf:
                tape.watch(xt.node)
            got.append(T.backward(T.Tensor(1.0), tape)[mid.node].data.tobytes())
        assert got[0] == got[1]



class TestAttentionHelpers:
    def test_matches_dense_oracle(self):
        from hyquant.graph import ATTENTION_STEPS, run_steps
        rng = np.random.default_rng(17)
        q = rng.normal(0, 1, (2, 6, 8)).astype(F32)
        k = rng.normal(0, 1, (2, 6, 8)).astype(F32)
        v = rng.normal(0, 1, (2, 6, 8)).astype(F32)
        vals = {"q": t(q), "k": t(k), "v": t(v), "attrs": {"heads": 2}}
        got = run_steps(ATTENTION_STEPS, vals, lambda name, x: x)["ctx"].data
        np.testing.assert_allclose(got, attention_oracle(q, k, v, 2), atol=1e-5)


class TestDeterminismAndBlobs:
    def test_forward_is_bit_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 3, 8, 8)).astype(F32)
        w = rng.normal(0, 1, (4, 3, 3, 3)).astype(F32)
        a = T.conv2d(t(x), t(w), padding=1).data
        b = T.conv2d(t(x), t(w), padding=1).data
        assert a.tobytes() == b.tobytes()

    def test_blob_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (3, 4, 5)).astype(F32)
        path = tmp_path / "x.hqt"
        T.save_tensor(path, t(x))
        back = T.load_tensor(path)
        assert back.data.tobytes() == x.tobytes()
        assert back.shape == x.shape

    def test_blob_round_trip_keeps_rank_zero(self, tmp_path):
        path = tmp_path / "scalar.hqt"
        T.save_tensor(path, T.Tensor(np.float32(1.0)))
        back = T.load_tensor(path)
        assert back.shape == ()
        assert back.data.tobytes() == np.float32(1.0).tobytes()

    def test_blob_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hqt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(T.TensorError, match="magic"):
            T.load_tensor(path)

    def test_blob_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.hqt"
        T.save_tensor(path, t(np.ones((2, 2))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(T.TensorError, match="payload"):
            T.load_tensor(path)

    def test_blob_non_finite_payload_names_the_file(self, tmp_path):
        path = tmp_path / "nan.hqt"
        T.save_tensor(path, t(np.ones((2, 2))))
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(T.TensorError, match="non-finite") as info:
            T.load_tensor(path)
        assert str(path) in str(info.value)
