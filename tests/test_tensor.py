"""Gradient checks for every autodiff primitive against finite differences."""

import inspect
import itertools
import re
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dialdistill import losses, tensor as T
from dialdistill.errors import ContractError, DataError, NumericError, ShapeError, VocabularyError
from dialdistill.model import ParameterSet, TransformerModel, desk_config, paper_config
from dialdistill.optim import Adam

STEP = 1e-5
TOL = 1e-6


def fd_check(build, leaves, rtol=TOL, step=STEP):
    """Compare analytic gradients of a scalar-valued ``build(leaves)`` against
    central finite differences, elementwise, in double precision.

    ``build`` receives the list of leaf Tensors and returns a scalar Tensor.
    """
    with T.precision("double"):
        out = build(leaves)
        assert out.data.size == 1
        T.backward(out)
        for leaf in leaves:
            assert leaf.grad is not None, "leaf missing gradient"
            assert leaf.grad.shape == leaf.data.shape
            numeric = np.zeros(leaf.data.shape)
            # indexed in place, so a leaf may hold a strided view
            for i in np.ndindex(leaf.data.shape):
                keep = leaf.data[i]
                leaf.data[i] = keep + step
                hi = build(leaves).data.item()
                leaf.data[i] = keep - step
                lo = build(leaves).data.item()
                leaf.data[i] = keep
                numeric[i] = (hi - lo) / (2 * step)
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(leaf.grad)), 1e-4)
            err = np.abs(numeric - leaf.grad) / denom
            assert err.max() < rtol, f"gradient mismatch: max rel err {err.max():.3e}"


def leaf(rng, *shape):
    with T.precision("double"):
        return T.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestElementwise:
    def test_add_gradients(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
            fd_check(lambda ls: T.tsum(T.mul(T.add(ls[0], ls[1]), ls[0])), [a, b])

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4)
        fd_check(lambda ls: T.tsum(T.mul(T.add(ls[0], ls[1]), T.add(ls[0], ls[1]))), [a, b])

    def test_mul_product_rule(self):
        # d/dx (x*y) at x=3, y=5 is y=5 exactly.
        with T.precision("double"):
            x = T.Tensor([3.0], requires_grad=True)
            y = T.Tensor([5.0], requires_grad=True)
            out = T.tsum(T.mul(x, y))
            T.backward(out)
            assert x.grad[0] == 5.0
            assert y.grad[0] == 3.0


@pytest.fixture(params=["flat", "per-sequence"])
def affine_path(request, monkeypatch):
    """Run a test with its multi-position inputs taking the flat GEMM, then
    keeping one product per sequence, as small products do."""
    if request.param == "flat":
        monkeypatch.setattr(T, "_SMALL_GEMM", 0)
    return request.param


class TestAffine:
    def test_gradients(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
            fd_check(lambda ls: T.tsum(T.mul(T.affine(*ls), T.affine(*ls))), [x, w, b])

    def test_batched(self):
        rng = np.random.default_rng(8)
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 2), leaf(rng, 2)
        fd_check(lambda ls: T.tsum(T.affine(*ls)), [x, w, b])

    def test_multi_position_gradients(self, affine_path):
        # contiguous, then a transposed view
        rng = np.random.default_rng(9)
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 3), leaf(rng, 3)
        fd_check(lambda ls: T.tsum(T.mul(T.affine(*ls), T.affine(*ls))), [x, w, b])
        with T.precision("double"):
            x = T.Tensor(np.transpose(rng.standard_normal((3, 2, 4)), (1, 0, 2)), requires_grad=True)
        w, b = leaf(rng, 4, 3), leaf(rng, 3)
        assert not x.data.flags.c_contiguous
        fd_check(lambda ls: T.tsum(T.mul(T.affine(*ls), 0.5)), [x, w, b])

    def test_relu_epilogue_gradients(self, affine_path):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 3), leaf(rng, 3)
            # keep every pre-activation away from the kink so FD is valid
            assert np.abs(x.data @ w.data + b.data).min() > 1e-3
            out = T.affine(x, w, b, relu=True)
            assert (out.data == 0.0).any() and (out.data > 0.0).any()
            weight = rng.standard_normal((2, 3, 3))
            fd_check(lambda ls: T.tsum(T.mul(T.affine(*ls, relu=True), weight)), [x, w, b])

    def test_relu_epilogue_equals_max_of_the_product(self, affine_path):
        rng = np.random.default_rng(3)
        x, w, b = (T.Tensor(rng.standard_normal(shape).astype(np.float32)) for shape in ((2, 5, 8), (8, 6), (6,)))
        assert np.array_equal(T.affine(x, w, b, relu=True).data, np.maximum(T.affine(x, w, b).data, 0.0))

    def test_one_position_gradients(self):
        rng = np.random.default_rng(10)
        x, w, b = leaf(rng, 3, 1, 4), leaf(rng, 4, 2), leaf(rng, 2)
        fd_check(lambda ls: T.tsum(T.mul(T.affine(*ls), T.affine(*ls))), [x, w, b])

    # paper-width output projection and FFN, which take one flat GEMM, and
    # desk-width products, which keep one per sequence
    @pytest.mark.parametrize("batch, length, k, n", [
        (32, 15, 256, 5000), (32, 60, 256, 1024), (16, 8, 64, 64), (16, 8, 64, 128), (32, 15, 64, 150)])
    def test_equals_per_sequence_products(self, batch, length, k, n):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.standard_normal((batch, length, k)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((k, n)) * 0.05, requires_grad=True)
        b = T.Tensor(rng.standard_normal(n), requires_grad=True)
        g = rng.standard_normal((batch, length, n)).astype(np.float32)
        y = T.affine(x, w, b)
        T.backward(T.tsum(T.mul(y, T.Tensor(g))))  # the affine's incoming gradient is g exactly
        for i in range(batch):
            assert np.array_equal(y.data[i], x.data[i] @ w.data + b.data), i
            assert np.array_equal(x.grad[i], g[i] @ w.data.T), i

    def test_forward_allocates_its_output_alone(self):
        # an output head's (B, T, V) logits: the bias is added in place
        rng = np.random.default_rng(15)
        x, w, b = (T.Tensor(rng.standard_normal(s)) for s in [(32, 15, 256), (256, 2000), (2000,)])
        tracemalloc.start()
        try:
            y = T.affine(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * y.data.nbytes

    def test_decode_step_gradients_through_the_flat_gemm(self, monkeypatch):
        # a decode step's rows, (rows, 1, k), taken as one (rows, k) GEMM
        monkeypatch.setattr(T, "_SMALL_GEMM", 0)
        rng = np.random.default_rng(13)
        x, w, b = leaf(rng, 3, 1, 4), leaf(rng, 4, 2), leaf(rng, 2)
        fd_check(lambda ls: T.tsum(T.mul(T.affine(*ls), T.affine(*ls))), [x, w, b])

    def test_decode_step_flat_gemm_equals_per_row_products(self):
        # above the threshold, in float64: the flat GEMM's rows agree with
        # one product per row, forward and backward, to rounding
        rng = np.random.default_rng(14)
        with T.precision("double"):
            x = T.Tensor(rng.standard_normal((8, 1, 256)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((256, 1024)) * 0.05, requires_grad=True)
            b = T.Tensor(rng.standard_normal(1024), requires_grad=True)
            g = rng.standard_normal((8, 1, 1024))
            y = T.affine(x, w, b)
            T.backward(T.tsum(T.mul(y, T.Tensor(g))))
        assert 8 * 256 * 1024 > T._SMALL_GEMM
        assert np.array_equal(y.data[:, 0], x.data[:, 0] @ w.data + b.data)  # the flat GEMM ran
        for i in range(8):
            assert np.allclose(y.data[i], x.data[i] @ w.data + b.data, rtol=0, atol=1e-12), i
            assert np.allclose(x.grad[i], g[i] @ w.data.T, rtol=0, atol=1e-12), i

    # decode steps, one position per row: one GEMM over the rows once they are
    # two or more and their product exceeds _SMALL_GEMM (a paper-width beam's
    # output head and FFN), else one product per row (a single history, and
    # every desk-width product)
    @pytest.mark.parametrize("rows, k, n, flat", [
        (4, 256, 5000, True), (32, 256, 1024, True), (1, 256, 5000, False), (4, 256, 256, False),
        (4, 64, 2000, False), (7, 64, 150, False), (32, 64, 128, False)])
    def test_decode_step_products(self, rows, k, n, flat):
        rng = np.random.default_rng(12)
        x = T.Tensor(rng.standard_normal((rows, 1, k)))
        w = T.Tensor(rng.standard_normal((k, n)) * 0.05)
        b = T.Tensor(rng.standard_normal(n))
        per_row = x.data @ w.data + b.data
        flat_gemm = (x.data[:, 0] @ w.data + b.data)[:, None]
        assert np.array_equal(T.affine(x, w, b).data, flat_gemm if flat else per_row)


def log_softmax(z):
    """The head over the logits ``z`` (rows, V) themselves: an identity
    product, which rounds nothing."""
    z = T.as_tensor(z)
    return T.head(np.eye(z.data.shape[0]), z, np.zeros(z.data.shape[-1]))


class TestHead:
    def test_hand_case(self):
        # log softmax([0, ln 3]) = [ln 1/4, ln 3/4]
        with T.precision("double"):
            out = log_softmax([[0.0, np.log(3.0)]])
            assert np.allclose(out.data, np.log([[0.25, 0.75]]), atol=1e-12)

    def test_rows_are_log_distributions(self):
        rng = np.random.default_rng(9)
        with T.precision("double"):
            x, w, b = (T.Tensor(rng.standard_normal(shape) * 3) for shape in ((2, 4, 5), (5, 7), (7,)))
            out = T.head(x, w, b)
            assert out.data.shape == (2, 4, 7)
            assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out.data < 0)
            logits = x.data @ w.data + b.data
            expected = logits - logits.max(-1, keepdims=True)
            expected -= np.log(np.exp(expected).sum(-1, keepdims=True))
            assert np.allclose(out.data, expected, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        with T.precision("double"):
            x = rng.standard_normal((3, 5))
            a = log_softmax(x).data
            b = log_softmax(x + 123.456).data
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("mode", ["single", "double"])
    def test_extreme_logits_give_finite_exact_log_probs(self, mode):
        # the last two probabilities underflow to exactly 0; their logs do not
        with T.precision(mode):
            out = log_softmax([[1000.0, 0.0, -1000.0]])
            assert np.array_equal(out.data, np.array([[0.0, -1000.0, -2000.0]], dtype=T.active_dtype()))
            assert np.array_equal(T.exp(out).data, np.array([[1.0, 0.0, 0.0]], dtype=T.active_dtype()))

    def test_empty_output_axis_rejected(self):
        with pytest.raises(ShapeError, match="non-empty output axis"):
            T.head(T.Tensor(np.ones((2, 3))), T.Tensor(np.zeros((3, 0))), T.Tensor(np.zeros(0)))
        with pytest.raises(ShapeError, match="dimension mismatch"):
            T.head(T.Tensor(np.ones((2, 3))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(2)))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_gradients(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x, w, b, c = leaf(rng, *shape), leaf(rng, 4, 5), leaf(rng, 5), leaf(rng, *shape[:-1], 5)
            fd_check(lambda ls: T.tsum(T.mul(T.head(*ls[:3]), ls[3])), [x, w, b, c])

    def test_gradients_at_wide_logits(self):
        # one entry's probability near the float64 underflow, one dominant
        rng = np.random.default_rng(16)
        z = leaf(rng, 2, 6)
        z.data[:, 0] -= 600.0
        z.data[:, 1] += 40.0
        c = leaf(rng, 2, 6)
        fd_check(lambda ls: T.tsum(T.mul(log_softmax(ls[0]), ls[1])), [z, c])

    def test_cross_entropy_gradient_is_p_minus_q(self):
        # d/dz [-sum q log softmax(z)] = softmax(z) - q
        rng = np.random.default_rng(12)
        with T.precision("double"):
            z = T.Tensor(rng.standard_normal((1, 6)), requires_grad=True)
            q = rng.random((1, 6))
            q /= q.sum()
            logp = log_softmax(z)
            T.backward(T.pick(T.cross_entropy(logp, None, np.ones(1), q), np.asarray(1)))
            assert np.allclose(z.grad, np.exp(logp.data) - q, atol=1e-10)

    def test_a_gradient_another_node_shares_is_not_overwritten(self):
        # the sum hands the head and the exp two views of one array; the
        # head writes the logits' gradient over no array but its own
        rng = np.random.default_rng(13)
        x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        fd_check(lambda ls: T.tsum(T.mul(T.add(T.head(*ls), T.exp(T.head(*ls))), T.head(*ls))), [x, w, b])

    def test_a_layer_norm_input_gradient_its_branch_shares_is_not_overwritten(self):
        # the layer norm hands its input and its residual branch one gradient;
        # the branch takes it bitwise as beside an input that is no head
        rng = np.random.default_rng(14)
        x, w, b, s, gain, bias, c = (rng.standard_normal(shape).astype(np.float32)
                                     for shape in ((6, 4), (4, 5), (5,), (6, 5), (5,), (5,), (6, 5)))
        grads = []
        for fused in (True, False):
            branch = T.Tensor(s, requires_grad=True)
            head = T.head(T.Tensor(x, requires_grad=True), w, b)
            norm_in = head if fused else T.Tensor(head.data)
            T.backward(T.tsum(T.mul(T.layer_norm(norm_in, gain, bias, T.mul(branch, 1.0)), c)))
            grads.append(branch.grad.tobytes())
        assert grads[0] == grads[1]

    def test_keeps_the_log_probabilities_and_no_logits(self):
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.standard_normal((64, 32)).astype(np.float32), requires_grad=True)
        w, b = T.Tensor(rng.standard_normal((32, 4096)) * 0.1), T.Tensor(np.zeros(4096))
        tracemalloc.start()
        try:
            out = T.head(x, w, b)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.1 * out.data.nbytes and peak < 1.5 * out.data.nbytes, (held, peak)


class TestHeadRowChunks:
    """The head's products over a row chunk of its input equal those rows
    of the product over the whole input, bitwise, so a head that runs over
    the target rows alone would round as the whole head does."""

    @staticmethod
    def inputs(batch, t, d, v, seed=0):
        rng = np.random.default_rng(seed)
        x, w, b = rng.standard_normal((batch, t, d)), rng.standard_normal((d, v)) * 0.05, rng.standard_normal(v) * 0.1
        return x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)

    @pytest.mark.parametrize("width,shape", [("desk", (16, 7, 64, 30)), ("paper", (32, 16, 256, 5000))])
    def test_chunks_of_sequences_equal_the_whole(self, width, shape):
        x, w, b = self.inputs(*shape)
        batch, t, d, v = shape
        # the desk head runs one product per sequence, the paper head one over all rows
        assert (t * d * v > T._SMALL_GEMM) == (width == "paper")
        whole = T.head(x, w, b).data
        for rows in (1, 3, 5):
            parts = [T.head(x[i:i + rows], w, b).data for i in range(0, batch, rows)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), rows

    def test_chunks_of_rows_over_the_small_gemm_bound_equal_the_whole(self):
        x, w, b = self.inputs(8, 16, 256, 5000, seed=1)
        rows = x.reshape(-1, 256)
        whole = T.head(rows, w, b).data
        for size in (13, 52, 100):
            assert size * 256 * 5000 > T._SMALL_GEMM
            parts = [T.head(rows[i:i + size], w, b).data for i in range(0, len(rows), size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), size

    @pytest.mark.parametrize("shape", [(16, 7, 64, 30), (4, 16, 32, 5000)])
    def test_the_chunk_size_moves_no_bit(self, monkeypatch, shape):
        x, w, b = self.inputs(*shape, seed=2)
        g = np.random.default_rng(3).standard_normal(shape[:2] + (shape[-1],)).astype(np.float32)
        runs = []
        for chunk in (T._CHUNK, 1, 3 * shape[-1]):
            monkeypatch.setattr(T, "_CHUNK", chunk)
            xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
            out = T.head(xt, wt, bt)
            T.backward(T.tsum(T.mul(out, g)))
            runs.append([a.tobytes() for a in (out.data, xt.grad, wt.grad, bt.grad)])
        assert runs[0] == runs[1] == runs[2]


class TestExp:
    def test_gradients(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = leaf(rng, 3, 4)
            w = leaf(rng, 3, 4)
            fd_check(lambda ls: T.tsum(T.mul(T.exp(ls[0]), ls[1])), [x, w])

    def test_keeps_its_input_where_no_graph_is_recorded(self):
        x = T.Tensor([[-1.0, 0.0]])
        with T.graph_free():
            y = T.exp(x)
            assert T.mul(y, 2.0)._parents == ()
        assert y._parents == (x,) and T.log(y) is x


class TestLog:
    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, 4, 3)
        x.data = np.abs(x.data) + 0.5
        fd_check(lambda ls: T.tsum(T.log(ls[0])), [x])

    def test_log_of_exp_is_its_input(self):
        # no exp-then-log rounding: a log-space value comes back bitwise, even
        # where its exp underflowed to zero, and so does its gradient path
        x = T.Tensor([[-200.0, -0.5, 3.0]], requires_grad=True)
        p = T.exp(x)
        assert p.data[0, 0] == 0.0
        assert T.log(p) is x
        assert sum(n._op == "log" for n in T._topological_order(T.tsum(T.log(p)), grad_only=False)) == 0

    def test_unclamped_on_any_other_tensor(self):
        with T.precision("double"):
            x = T.Tensor([1e-300, 1e-20, 0.5], requires_grad=True)
            out = T.log(x)
            assert np.array_equal(out.data, np.log([1e-300, 1e-20, 0.5]))
            T.backward(T.tsum(out))
            assert np.array_equal(x.grad, 1.0 / np.array([1e-300, 1e-20, 0.5]))

    def test_keeps_no_clamped_copy_of_its_input(self):
        x = T.Tensor(np.random.default_rng(15).random((256, 1024)), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.log(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.1 * out.data.nbytes


class TestCrossEntropy:
    @staticmethod
    def case(rng, shape=(2, 3, 5)):
        ids = rng.integers(0, shape[-1], size=shape[:-1])
        mask = (rng.random(shape[:-1]) > 0.3).astype(float)
        q = rng.random(shape)
        return ids, mask, q / q.sum(-1, keepdims=True)

    def test_equals_the_masked_pick_and_dot(self):
        rng = np.random.default_rng(20)
        with T.precision("double"):
            x = rng.standard_normal((2, 3, 5))
            ids, mask, q = self.case(rng)
            out = T.cross_entropy(T.Tensor(x), ids, mask, q)
            picked = np.take_along_axis(x, ids[..., None], axis=-1)[..., 0]
            assert np.allclose(out.data, [-(picked * mask).sum(), -((x * q).sum(-1) * mask).sum()], atol=1e-12)
            assert np.array_equal(T.cross_entropy(T.Tensor(x), None, mask).data, [0.0, 0.0])

    @pytest.mark.parametrize("terms", ["both", "nll", "soft"])
    def test_gradients(self, terms):
        rng = np.random.default_rng(21)
        for _ in range(5):
            x, w = leaf(rng, 2, 3, 5), leaf(rng, 2)
            ids, mask, q = self.case(rng)
            ids, q = (ids if terms != "soft" else None), (q if terms != "nll" else None)
            fd_check(lambda ls: T.tsum(T.mul(T.cross_entropy(ls[0], ids, mask, q), ls[1])), [x, w])

    def test_a_second_pass_adds_the_same_gradient_and_keeps_the_soft_target(self):
        rng = np.random.default_rng(23)
        with T.precision("double"):
            x = T.Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
            ids, mask, q = self.case(rng)
            kept = q.copy()
            loss = T.tsum(T.cross_entropy(x, ids, mask, q))
            T.backward(loss)
            once = x.grad.copy()
            T.backward(loss)
            assert np.array_equal(x.grad, 2 * once) and np.array_equal(q, kept)

    def test_no_gradient_into_constants(self):
        with T.precision("double"):
            a = T.Tensor(np.ones((2, 3)), requires_grad=True)
            q = np.arange(6.0).reshape(2, 3)
            T.backward(T.tsum(T.cross_entropy(a, np.array([2, 0]), np.ones(2), q)))
            expected = -q
            expected[[0, 1], [2, 0]] -= 1.0
            assert np.array_equal(a.grad, expected)

    def test_bad_inputs(self):
        x = T.Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            T.cross_entropy(x, np.zeros((2, 3), int), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            T.cross_entropy(x, np.zeros((2, 4), int), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            T.cross_entropy(x, None, np.ones((2, 3)), np.ones((2, 3, 5)))
        with pytest.raises(ContractError):
            T.cross_entropy(x, np.full((2, 3), 4), np.ones((2, 3)))
        with pytest.raises(ContractError):
            T.cross_entropy(x, np.full((2, 3), -1), np.ones((2, 3)))
        with pytest.raises(ContractError, match="must be integers"):
            T.cross_entropy(x, np.zeros((2, 3)), np.ones((2, 3)))


class TestAttention:
    """``T.attention`` on projected (B, T, d) queries and (B_kv, S, d) keys
    and values; its bitwise oracle, the chain it replaced, is in
    ``tests/test_model.py``."""

    PADDING = np.array([[[0.0, 0.0, 0.0, -1e9]], [[0.0, -1e9, -1e9, 0.0]]])  # (B, 1, S)
    CAUSAL = np.triu(np.full((3, 4), -1e9), k=2)  # (T, S), query i sees keys j <= i + 1
    MASKS = {"none": None, "padding": PADDING, "causal": CAUSAL, "causal-plus-padding": CAUSAL + PADDING}

    @staticmethod
    def attend(q, k, v, mask=None, num_heads=1):
        with T.precision("double"):
            return T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, num_heads).data

    def test_one_key_returns_its_value(self):
        # softmax over one key is exactly 1, whatever the query
        rng = np.random.default_rng(40)
        v = rng.standard_normal((2, 1, 4))
        out = self.attend(rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 1, 4)), v, num_heads=2)
        assert np.array_equal(out, np.broadcast_to(v, (2, 3, 4)))

    def test_hand_case(self):
        # two heads of width 1, so the scale is 1: head 0 scores [ln 3, 0] ->
        # weights [3/4, 1/4]; head 1's query is 0 -> weights [1/2, 1/2]
        q = np.array([[[np.log(3.0), 0.0]]])
        k = np.array([[[1.0, 1.0], [0.0, 1.0]]])
        v = np.array([[[4.0, 6.0], [8.0, 10.0]]])
        assert np.allclose(self.attend(q, k, v, num_heads=2), [[[5.0, 8.0]]], atol=1e-12)
        # masking the second key leaves the first key's value in both heads
        assert np.allclose(self.attend(q, k, v, np.array([[0.0, -1e9]]), num_heads=2), [[[4.0, 6.0]]], atol=1e-12)

    def test_zero_queries_average_the_values(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal((2, 5, 4))
        out = self.attend(np.zeros((2, 3, 4)), rng.standard_normal((2, 5, 4)), v, num_heads=2)
        assert np.allclose(out, np.broadcast_to(v.mean(axis=1, keepdims=True), (2, 3, 4)), atol=1e-12)

    @pytest.mark.parametrize("num_heads", [1, 2, 4], ids=lambda h: f"H{h}")
    @pytest.mark.parametrize("mask", list(MASKS), ids=str)
    def test_gradients(self, mask, num_heads):
        rng = np.random.default_rng(num_heads)
        q, k, v = leaf(rng, 2, 3, 8), leaf(rng, 2, 4, 8), leaf(rng, 2, 4, 8)
        with T.precision("double"):
            w = T.Tensor(rng.standard_normal((2, 3, 8)))
        fd_check(lambda ls: T.tsum(T.mul(T.attention(*ls, self.MASKS[mask], num_heads), w)), [q, k, v])

    def test_shared_keys_and_values_gradients(self):
        # one (1, S, d) memory serves every query row, as in beam search
        rng = np.random.default_rng(42)
        q, k, v = leaf(rng, 3, 2, 4), leaf(rng, 1, 5, 4), leaf(rng, 1, 5, 4)
        with T.precision("double"):
            w = T.Tensor(rng.standard_normal((3, 2, 4)))
        fd_check(lambda ls: T.tsum(T.mul(T.attention(*ls, np.zeros((1, 1, 5)), 2), w)), [q, k, v])

    @staticmethod
    def assert_all_rejected(bad):
        for n, (q, k, v, mask, heads) in enumerate(bad):
            with pytest.raises(ShapeError):
                T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), mask, heads)
                pytest.fail(f"case {n} accepted")

    def test_shape_errors(self):
        q, kv = np.ones((2, 3, 4)), np.ones((2, 5, 4))
        self.assert_all_rejected([
            (np.ones((2, 3, 6)), kv, kv, None, 2),  # query width differs
            (q, np.ones((2, 5, 6)), np.ones((2, 5, 6)), None, 2),  # key and value width differ
            (q, kv, np.ones((2, 5, 6)), None, 2),  # value width differs
            (q, np.ones((3, 5, 4)), np.ones((3, 5, 4)), None, 2),  # batch neither 1 nor B
            (q, np.ones((2, 0, 4)), np.ones((2, 0, 4)), None, 2),  # no keys
        ])

    def test_rejects_heads_that_do_not_split_the_width(self):
        q, kv = np.ones((2, 3, 4)), np.ones((2, 5, 4))
        self.assert_all_rejected([
            (q, kv, kv, None, 3),  # width not divisible by the heads
            (q, kv, kv, None, 0),
        ])

    def test_rejects_inputs_and_masks_of_the_wrong_rank(self):
        q, kv = np.ones((2, 3, 4)), np.ones((2, 5, 4))
        self.assert_all_rejected([
            (np.ones((3, 4)), kv, kv, None, 2),  # not (B, T, d)
            (q, kv, kv, np.zeros((2, 3, 6)), 2),  # masks that do not broadcast to (B, T, S)
            (q, kv, kv, np.zeros((3, 1, 5)), 2),
            (q, kv, kv, np.zeros((4, 5)), 2),
            (q, kv, kv, np.zeros((1, 2, 3, 5)), 2),
        ])


class TestLayerNorm:
    def test_hand_case(self):
        # [0, 1] + [1, 2] = [1, 3]: mean 2, var 1 -> normalized [-1, 1] / sqrt(1 + epsilon)
        with T.precision("double"):
            out = T.layer_norm(T.Tensor([[0.0, 1.0]]), T.Tensor([1.0, 1.0]), T.Tensor([0.0, 0.0]),
                               T.Tensor([[1.0, 2.0]]))
            want = np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + T.LAYER_NORM_EPSILON)
            assert np.allclose(out.data, want, atol=1e-12)

    def test_output_statistics(self):
        rng = np.random.default_rng(14)
        with T.precision("double"):
            x, s = (T.Tensor(rng.standard_normal((6, 16)) * 3 + 5) for _ in range(2))
            out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)), s, 0.5, rng)
            assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
            assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_gradients(self, rate):
        # x and s are leaves that take a second add after the node's, so a
        # gradient array the node handed to both would be corrupted by it
        rng = np.random.default_rng(15)
        for _ in range(10):
            x, g, b, s = leaf(rng, 3, 6), leaf(rng, 6), leaf(rng, 6), leaf(rng, 3, 6)
            w = rng.standard_normal((3, 6))

            def build(ls):
                out = T.layer_norm(*ls, rate, np.random.default_rng(5))  # the same mask every evaluation
                return T.add(T.tsum(T.mul(out, w)), T.tsum(T.mul(ls[0], ls[3])))

            fd_check(build, [x, g, b, s])

    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_residual_branch_takes_its_own_gradient_array(self, rate):
        x, g, b, s = (T.Tensor(np.ones(shape), requires_grad=True) for shape in ((2, 4), (4,), (4,), (2, 4)))
        out = T.layer_norm(x, g, b, s, rate, np.random.default_rng(0))
        T.backward(T.tsum(T.mul(out, np.arange(8.0).reshape(2, 4))))
        assert not np.shares_memory(x.grad, s.grad)

    @pytest.mark.parametrize("shape", [(16, 12, 64), (32, 60, 256)])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_residual_equals_the_chain_bitwise(self, shape, rate):
        # the fused node against add(x, dropout(s)) normalized with no further residual
        rng = np.random.default_rng(16)
        d = shape[-1]
        arrays = [rng.standard_normal(n).astype(np.float32) for n in (shape, (d,), (d,), shape)]
        weight = rng.standard_normal(shape).astype(np.float32)
        results = []
        for fused in (True, False):
            x, gain, bias, s = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
            draw = np.random.default_rng(17)
            if fused:
                out = T.layer_norm(x, gain, bias, s, rate, draw)
            else:
                out = T.layer_norm(T.add(x, chain_dropout(s, rate, draw)), gain, bias, np.zeros(shape, np.float32))
            T.backward(T.tsum(T.mul(out, weight)))
            results.append([out.data, x.grad, s.grad, gain.grad, bias.grad])
        for got, want in zip(*results):
            assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_rejects_a_rate_of_one(self):
        x = T.Tensor(np.ones((2, 4)))
        with pytest.raises(ContractError, match="rate must be < 1"):
            T.layer_norm(x, np.ones(4), np.zeros(4), x, 1.0, np.random.default_rng(0))
        with pytest.raises(ContractError, match="rate must be < 1"):
            T.embedding(np.ones((4, 2)), np.array([0, 3]), np.zeros((2, 2)), 1.5, np.random.default_rng(0))

    def test_rejects_a_residual_branch_of_another_shape(self):
        # an `add` would broadcast (1, 4) over (2, 4); the node does not
        x = T.Tensor(np.ones((2, 4)))
        for s in (np.ones((1, 4)), np.ones(4), np.ones((2, 2, 4))):
            with pytest.raises(ShapeError, match="residual branch"):
                T.layer_norm(x, np.ones(4), np.zeros(4), s)


def chain_gather(table, ids):
    """The gather that ``embedding`` began with, as a node of its own."""
    d = table.data.shape[-1]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, d))
        return (gt,)

    return T._make(table.data[ids], (table,), bw, "gather")


def chain_dropout(x, rate, rng):
    """The deleted ``dropout`` primitive, as a node of its own: the keep mask
    and scaling that ``embedding`` and ``layer_norm`` draw and apply."""
    if rate <= 0.0:
        return x
    keep = T._keep_mask(x.data.shape, rate, rng)
    return T._make(T._dropped(x.data, keep, rate), (x,), lambda g: (T._dropped(g, keep, rate),), "dropout")


def sinusoids(t, d, dtype=np.float64):
    return np.sin(np.arange(t)[:, None] / 10.0 ** (np.arange(d)[None, :] / d)).astype(dtype)


class TestEmbedding:
    def test_gather_and_scatter(self):
        rng = np.random.default_rng(16)
        with T.precision("double"):
            table = T.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            ids = np.array([[0, 2, 2], [4, 0, 1]])
            positions = rng.standard_normal((3, 3))
            out = T.embedding(table, ids, positions)
            assert out.data.shape == (2, 3, 3)
            assert np.array_equal(out.data[0, 1], table.data[2] + positions[1])
            T.backward(T.tsum(out))
            # row 2 used twice, row 0 twice, rows 1 and 4 once, row 3 never
            assert np.allclose(table.grad[2], 2.0)
            assert np.allclose(table.grad[0], 2.0)
            assert np.allclose(table.grad[3], 0.0)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_gradients(self, rate):
        rng = np.random.default_rng(17)
        table = leaf(rng, 6, 4)
        ids = np.array([[1, 1, 5], [0, 5, 2]])
        positions = sinusoids(3, 4)

        def build(ls):
            # the same mask every evaluation
            out = T.embedding(ls[0], ids, positions, rate, np.random.default_rng(5))
            return T.tsum(T.mul(out, out))

        fd_check(build, [table])

    @pytest.mark.parametrize("v, b, t, d", [(30, 16, 12, 64), (5000, 32, 60, 256)], ids=["desk", "paper"])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_equals_the_chain_bitwise(self, v, b, t, d, rate):
        # the fused node against gather, add of the positions, then dropout
        rng = np.random.default_rng(18)
        values = rng.standard_normal((v, d)).astype(np.float32)
        ids = rng.integers(0, v, (b, t))
        positions = sinusoids(t, d, np.float32)
        weight = rng.standard_normal((b, t, d)).astype(np.float32)
        results = []
        for fused in (True, False):
            table = T.Tensor(values.copy(), requires_grad=True)
            draw = np.random.default_rng(19)
            if fused:
                out = T.embedding(table, ids, positions, rate, draw)
            else:
                out = chain_dropout(T.add(chain_gather(table, ids), positions), rate, draw)
            T.backward(T.tsum(T.mul(out, weight)))
            results.append([out.data, table.grad, draw.random(2)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert results[0][0].dtype == np.float32

    def test_keeps_only_the_ids_and_the_keep_mask(self):
        table = T.Tensor(np.ones((6, 4)), requires_grad=True)
        out = T.embedding(table, np.array([[1, 2, 3]]), np.zeros((3, 4)), 0.5, np.random.default_rng(0))
        kept = {n: c.cell_contents for n, c in zip(out._backward.__code__.co_freevars, out._backward.__closure__)
                if isinstance(c.cell_contents, np.ndarray)}
        assert kept.keys() == {"ids", "keep"} and kept["keep"].dtype == np.bool_

    def test_out_of_range(self):
        table = T.Tensor(np.ones((4, 2)))
        with pytest.raises(VocabularyError):
            T.embedding(table, np.array([0, 4]), np.zeros((2, 2)))
        with pytest.raises(VocabularyError):
            T.embedding(table, np.array([-1]), np.zeros((1, 2)))

    @pytest.mark.parametrize("ids", [np.array([0.0, 1.0, 2.0]), np.array([True, False, True, True, False])],
                             ids=["float", "bool"])
    def test_ids_that_are_not_integers_rejected(self, ids):
        # bool ids would select rows by mask, and float ids fail to index
        with pytest.raises(VocabularyError, match="must be integers"):
            T.embedding(T.Tensor(np.ones((4, 2))), ids, np.zeros((ids.size, 2)))

    def test_positions_of_another_shape_rejected(self):
        table = T.Tensor(np.ones((4, 2)))
        for positions in (np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(ShapeError, match="positions"):
                T.embedding(table, np.array([[0, 1]]), positions)


class TestEmbeddingDropout:
    def test_zero_rate_draws_no_mask(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        table = T.Tensor(np.arange(12.0).reshape(3, 4))
        ids, positions = np.array([[2, 0]]), np.ones((2, 4))
        out = T.embedding(table, ids, positions, 0.0, rng)
        assert rng.bit_generator.state == before
        assert np.array_equal(out.data, table.data[ids] + positions)

    def test_inverted_scaling(self):
        rng = np.random.default_rng(25)
        out = T.embedding(T.Tensor(np.ones((200, 200))), np.arange(200), np.zeros((200, 200)), 0.25, rng)
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        # survivor fraction near 75%
        frac = (out.data != 0.0).mean()
        assert abs(frac - 0.75) < 0.02

    def test_gradient_uses_same_mask(self):
        with T.precision("double"):
            rng = np.random.default_rng(26)
            table = T.Tensor(np.ones((10, 10)), requires_grad=True)
            # each row read once, so each gradient row is one position's
            out = T.embedding(table, np.arange(10), np.zeros((10, 10)), 0.5, rng)
            T.backward(T.tsum(out))
            assert np.array_equal((table.grad != 0.0), (out.data != 0.0))


class TestPick:
    def test_gather_and_scatter(self):
        rng = np.random.default_rng(30)
        with T.precision("double"):
            x = T.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            ids = np.array([[0, 3, 3], [1, 2, 0]])
            out = T.pick(x, ids)
            assert out.data.shape == (2, 3)
            assert out.data[0, 1] == x.data[0, 1, 3]
            assert out.data[1, 0] == x.data[1, 0, 1]
            T.backward(T.tsum(out))
            expected = np.zeros((2, 3, 4))
            np.put_along_axis(expected, ids[..., None], 1.0, axis=-1)
            assert np.array_equal(x.grad, expected)

    def test_gradients(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = leaf(rng, 2, 3, 5)
            ids = rng.integers(0, 5, size=(2, 3))
            fd_check(lambda ls: T.tsum(T.mul(T.pick(T.exp(ls[0]), ids), T.pick(ls[0], ids))), [x])

    def test_out_of_range_and_shape(self):
        x = T.Tensor(np.ones((2, 4)))
        with pytest.raises(ContractError):
            T.pick(x, np.array([0, 4]))
        with pytest.raises(ContractError):
            T.pick(x, np.array([-1, 0]))
        with pytest.raises(ShapeError):
            T.pick(x, np.array([0, 1, 2]))

    @pytest.mark.parametrize("ids", [np.array([0.0, 3.0]), np.array([True, False])], ids=["float", "bool"])
    def test_ids_that_are_not_integers_rejected(self, ids):
        with pytest.raises(ContractError, match="must be integers"):
            T.pick(T.Tensor(np.ones((2, 4))), ids)


class TestShapeOps:
    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(18)
        with T.precision("double"):
            a = T.Tensor(rng.standard_normal((2, 3)))
            b = T.Tensor(rng.standard_normal((2, 5)))
            cat = T.concat([a, b], axis=-1)
            assert np.array_equal(cat.data[:, :3], a.data)
            assert np.array_equal(cat.data[:, 3:], b.data)

    def test_concat_gradients(self):
        rng = np.random.default_rng(19)
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 2)
        fd_check(lambda ls: T.tsum(T.mul(T.concat(ls, axis=-1), T.concat(ls, axis=-1))), [a, b])


def test_primitive_table_matches_the_ops_produced():
    # every primitive ends in one `_make(..., "<op>")`; the table must name
    # exactly those ops, so a deleted primitive cannot linger in it
    produced = set(re.findall(r'_make\(.*"(\w+)"\)', inspect.getsource(T)))
    assert len(T.PRIMITIVES) == len(set(T.PRIMITIVES))
    assert set(T.PRIMITIVES) == produced


class TestReductions:
    def test_sum_hands_its_leaf_an_owned_gradient(self):
        # sum's backward hands on a read-only broadcast view; the leaf's copy
        # is its own and writeable
        x = T.Tensor(np.arange(4.0), requires_grad=True)
        T.backward(T.tsum(x))
        assert x.grad.base is None and x.grad.flags.writeable
        assert np.array_equal(x.grad, np.ones(4))

    def test_mean_square_value(self):
        with T.precision("double"):
            a = T.Tensor([[1.0, 2.0, 3.0]])
            b = T.Tensor([[1.0, 0.0, 0.0]])
            out = T.mean_square(a, b)
            assert np.allclose(out.data, [(0 + 4 + 9) / 3.0])

    def test_mean_square_gradients(self):
        rng = np.random.default_rng(24)
        a, b = leaf(rng, 3, 5), leaf(rng, 3, 5)
        fd_check(lambda ls: T.tsum(T.mean_square(ls[0], ls[1])), [a, b])

    def test_mean_square_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mean_square(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 4))))


class TestGraphMechanics:
    def test_fanout_accumulates(self):
        # y = x*x + x*x: dy/dx = 4x
        with T.precision("double"):
            x = T.Tensor([2.0], requires_grad=True)
            sq = T.mul(x, x)
            out = T.tsum(T.add(sq, sq))
            T.backward(out)
            assert np.allclose(x.grad, [8.0])

    def test_diamond_graph(self):
        with T.precision("double"):
            x = T.Tensor([1.5], requires_grad=True)
            a = T.mul(x, 2.0)
            b = T.mul(x, 3.0)
            out = T.tsum(T.mul(a, b))  # 6x^2 -> grad 12x
            T.backward(out)
            assert np.allclose(x.grad, [18.0])

    def test_second_pass_adds_one_more_pass(self):
        # d/dx of sum(6x) is 6 per pass: a second pass over the same graph
        # adds 6, and interior gradients left by the first must not compound
        with T.precision("double"):
            x = T.Tensor([1.0], requires_grad=True)
            out = T.tsum(T.mul(T.mul(x, 3.0), 2.0))
            T.backward(out)
            assert x.grad[0] == 6.0
            T.backward(out)
            assert x.grad[0] == 12.0

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.mul(x, 2.0))

    def test_no_grad_leaf_untouched(self):
        with T.precision("double"):
            x = T.Tensor([1.0], requires_grad=True)
            c = T.Tensor([2.0])
            out = T.tsum(T.mul(x, c))
            T.backward(out)
            assert c.grad is None

    def test_fresh_leaf_blocks_gradient(self):
        with T.precision("double"):
            x = T.Tensor([3.0], requires_grad=True)
            y = T.Tensor(T.mul(x, x).data)
            z = T.tsum(T.mul(y, T.Tensor([1.0], requires_grad=True)))
            T.backward(z)
            assert x.grad is None

    def test_determinism(self):
        rng = np.random.default_rng(27)
        data = rng.standard_normal((4, 4))
        results = []
        for _ in range(2):
            with T.precision("double"):
                x = T.Tensor(data, requires_grad=True)
                out = T.tsum(T.head(x, x, T.Tensor(np.zeros(4))))
                T.backward(out)
                results.append((out.data.copy(), x.grad.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_nan_detection(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            T.check_finite(T.mul(T.Tensor([0.0]), np.inf))

    def test_precision_modes(self):
        with T.precision("single"):
            assert T.Tensor([1.0]).data.dtype == np.float32
        with T.precision("double"):
            assert T.Tensor([1.0]).data.dtype == np.float64
        assert T.active_dtype() == np.float32

    def test_constant_operands_get_no_gradient(self):
        # backward skips a None gradient, so a constant's is never computed
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        c = np.full((2, 3), 2.0)
        g = np.ones((2, 3), dtype=np.float32)
        for out in (T.add(x, c), T.mul(x, c), T.mean_square(x, c)):
            gx, gc = out._backward(g if out._op != "mean_square" else g[:, 0])
            assert gx.shape == (2, 3) and gc is None, out._op
        for out in (T.add(c, x), T.mul(c, x), T.mean_square(c, x)):
            gc, gx = out._backward(g if out._op != "mean_square" else g[:, 0])
            assert gx.shape == (2, 3) and gc is None, out._op

    def test_grad_norm(self):
        with T.precision("double"):
            ps = ParameterSet([("x", (1,), True), ("y", (1,), True)])
            x, y = ps["x"], ps["y"]
            x.data[...], y.data[...] = 3.0, 4.0
            out = T.tsum(T.add(T.mul(x, x), T.mul(y, y)))
            T.backward(out)
            # grads are 6 and 8 -> norm 10
            assert np.isclose(Adam(ps, clip_norm=0.0).step(), 10.0)


def backward_copying_views(loss):
    """``T.backward`` as it was when every view gradient was copied, leaf
    or not: the reference for gradients and for peak memory."""
    order, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in visited and node.requires_grad:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            g = g() if callable(g) else g  # a parameter gradient a primitive left to be computed
            if parent.grad is None:
                parent.grad = g.copy() if g.base is not None or g is node.grad else g
            else:
                parent.grad = parent.grad + g


def step_grads_and_peak(run_backward, config, batch, train):
    """One seeded forward + backward: the parameter gradients and the
    tracemalloc peak."""
    rng = np.random.default_rng(0)
    history = rng.integers(4, config.vocab_size, (batch, 60))
    response = rng.integers(4, config.vocab_size, (batch, 16))
    model = TransformerModel.build(config, 0)
    tracemalloc.start()
    try:
        out = model.forward(history, response[:, :-1], train=train, rng=np.random.default_rng(1))
        run_backward(losses.nll_sum(out.log_probs, response[:, 1:], np.ones((batch, 15))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {n: t.grad for n, t in model.params.items() if t.grad is not None}, peak


class TestBackwardMemory:
    # desk width with dropout is where sharing a strided view would change
    # the summation order of a later reduction
    @pytest.mark.parametrize("config, batch", [(desk_config(30), 16), (paper_config(1000), 4)])
    def test_gradients_bitwise_equal_to_copying_views(self, config, batch):
        want, _ = step_grads_and_peak(backward_copying_views, config, batch, train=True)
        got, _ = step_grads_and_peak(T.backward, config, batch, train=True)
        assert want and want.keys() == got.keys()
        for name, g in want.items():
            assert np.array_equal(g, got[name]), name

    def test_paper_width_step_peaks_below_copying_views(self):
        _, copying = step_grads_and_peak(backward_copying_views, paper_config(1000), 4, train=False)
        _, sharing = step_grads_and_peak(T.backward, paper_config(1000), 4, train=False)
        assert sharing < copying

    def test_interior_gradients_released_during_the_pass(self):
        # a deep chain of (512, 64) activations over small (64, 64) weights: a
        # pass that kept every interior gradient would hold 48 activation-sized
        # arrays at its end; one that releases them holds the leaf gradients
        # and a few arrays of its frontier
        rng = np.random.default_rng(3)
        with T.precision("double"):
            h = T.Tensor(rng.standard_normal((512, 64)))
            leaves = []
            for _ in range(24):
                w = T.Tensor(rng.standard_normal((64, 64)) / 8, requires_grad=True)
                b = T.Tensor(rng.standard_normal(64), requires_grad=True)
                leaves += [w, b]
                h = T.affine(h, w, b, relu=True)
            loss = T.tsum(h)
            interior = [n for n in T._topological_order(loss, grad_only=True) if n._parents]
            tracemalloc.start()
            try:
                T.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(interior) == 25
        assert all(n.grad is None for n in interior)
        assert all(leaf.grad is not None for leaf in leaves)
        assert peak < sum(leaf.data.nbytes for leaf in leaves) + 4 * h.data.nbytes


class TestRandomizedGradients:
    """Seeded sweep: compose random small graphs and FD-check them."""

    def test_mixed_graph_sweep(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            x = leaf(rng, 2, 4)
            w = leaf(rng, 4, 4)
            b = leaf(rng, 4)
            ln_g = leaf(rng, 4)
            ln_b = leaf(rng, 4)

            def build(ls):
                xx, ww, bb, gg, nb = ls
                h = T.affine(xx, ww, bb, relu=True)
                h = T.layer_norm(h, gg, nb, xx)
                p = T.exp(T.head(h, ww, bb))
                return T.tsum(T.mul(p, xx))

            fd_check(build, [x, w, b, ln_g, ln_b], rtol=1e-5)


class TestDeferredGradients:
    """With a helper and the size gate lowered, ``backward`` computes and adds
    parameter gradients on the helper while it goes on; every leaf's adds
    keep the order of a pass on one thread."""

    @pytest.fixture(autouse=True)
    def deferred(self, monkeypatch):
        monkeypatch.setattr(T, "_DEFER_GEMM", 0)

    @staticmethod
    def three_reads():
        """A float32 weight read by three affine nodes, whose gradients differ
        so in scale that adding them in another order rounds otherwise."""
        rng = np.random.default_rng(11)
        w = T.Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.zeros(5, np.float32), requires_grad=True)
        ys = [T.affine(T.Tensor(rng.standard_normal((7, 6)).astype(np.float32) * scale), w, b)
              for scale in (1.0, 3e3, 1e-3)]
        return [w, b], T.tsum(T.mul(T.concat(ys, axis=0), rng.standard_normal((21, 5)).astype(np.float32)))

    @staticmethod
    def desk_step():
        """A desk model's training loss, and its parameters, each read once."""
        model = TransformerModel.build(desk_config(30), seed=2)
        rng = np.random.default_rng(2)
        out = model.forward(rng.integers(4, 30, (16, 12)), rng.integers(4, 30, (16, 7)), train=True, rng=rng)
        loss = losses.nll_sum(out.log_probs, rng.integers(4, 30, (16, 7)), np.ones((16, 7)))
        return [t for _, t in model.params.update_targets()], loss

    @staticmethod
    def grads(build, pool=None):
        leaves, loss = build()
        if pool is None:
            T.backward(loss)
        else:
            with T.helper(pool):
                T.backward(loss)
        return [leaf.grad for leaf in leaves]

    @staticmethod
    def record(monkeypatch, method, on_each):
        """Call ``on_each(item or gradient)`` before each call of ``_LeafAdds.<method>``."""
        real = getattr(T._LeafAdds, method)

        def recorded(adds, *args):
            on_each(*args)
            return real(adds, *args)

        monkeypatch.setattr(T._LeafAdds, method, recorded)

    def test_a_leaf_read_three_times_takes_its_adds_in_one_thread_order(self, monkeypatch):
        w = self.three_reads()[0][0]
        added = []
        with monkeypatch.context() as m:
            self.record(m, "add", lambda leaf, g: added.append(g() if callable(g) else g))
            want = self.grads(self.three_reads)
        # the weight's three gradients, as the one-thread pass adds them
        parts = [g for g in added if g.shape == w.data.shape]
        assert len(parts) == 3
        assert len({(a + b + c).tobytes() for a, b, c in itertools.permutations(parts)}) > 1
        # the pool lags, so the pass runs ahead of it
        self.record(monkeypatch, "_run", lambda item: time.sleep(0.01))
        with ThreadPoolExecutor(max_workers=1) as pool:
            handed = []
            real = pool.submit
            monkeypatch.setattr(pool, "submit", lambda fn, item: handed.append(item[0].data.shape) or real(fn, item))
            got = self.grads(self.three_reads, pool)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        assert handed.count(w.data.shape) == 3

    @pytest.mark.parametrize("build", ["three_reads", "desk_step"])
    def test_a_busy_helper_holds_one_waiting_gradient_and_the_pass_ends(self, monkeypatch, build):
        build = getattr(self, build)
        want = self.grads(build)
        leaves, loss = build()
        with ThreadPoolExecutor(max_workers=1) as pool:
            busy = threading.Event()
            release = threading.Timer(30, busy.set)  # a pass that waits for the helper fails, not hangs
            release.start()
            pool.submit(busy.wait)
            waiting = []
            real = pool.submit

            def submit(fn, *args):
                waiting.append(real(fn, *args))
                return waiting[-1]

            monkeypatch.setattr(pool, "submit", submit)
            try:
                with T.helper(pool):
                    T.backward(loss)
                assert not busy.is_set()
            finally:
                busy.set()
                release.cancel()
        # one gradient waits, and the weight's later two queue behind it
        assert len(waiting) == (3 if build == self.three_reads else 1)
        assert all(task.cancelled() for task in waiting)
        assert all(np.array_equal(a, leaf.grad) for a, leaf in zip(want, leaves))

    def test_no_gradient_waits_behind_submitted_work(self, monkeypatch):
        want = self.grads(self.desk_step)
        passes = [self.desk_step(), self.desk_step()]
        with ThreadPoolExecutor(max_workers=1) as pool, T.helper(pool):
            busy = threading.Event()
            release = threading.Timer(30, busy.set)  # a pass that waits for the helper fails, not hangs
            release.start()
            work = T.submit(busy.wait)
            handed = []
            real = pool.submit
            monkeypatch.setattr(pool, "submit", lambda fn, *args: handed.append(fn) or real(fn, *args))
            try:
                T.backward(passes[0][1])
                assert not busy.is_set() and not handed
            finally:
                busy.set()
                release.cancel()
            work.result()
            # once the submitted work ended, the helper takes gradients again
            T.backward(passes[1][1])
            assert handed
        for leaves, _ in passes:
            assert all(np.array_equal(a, leaf.grad) for a, leaf in zip(want, leaves))

    def test_desk_step_is_bitwise_the_one_thread_pass(self):
        want = self.grads(self.desk_step)
        with ThreadPoolExecutor(max_workers=1) as pool:
            got = self.grads(self.desk_step, pool)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_an_error_is_raised_here_once_the_helper_stopped(self, monkeypatch, where):
        leaves, loss = self.desk_step()
        if where == "helper":
            def fail(item):
                if threading.current_thread() is not threading.main_thread():
                    raise DataError("a deferred gradient failed on the helper")

            self.record(monkeypatch, "_run", fail)
        else:  # the pass fails here, late, while the helper holds adds

            def fail(g):
                raise DataError("a node failed on the caller")

            next(n for n in T._topological_order(loss, grad_only=True) if n._op == "embedding")._backward = fail
        with ThreadPoolExecutor(max_workers=1) as pool:
            tasks = []
            real = pool.submit
            monkeypatch.setattr(pool, "submit", lambda fn, *args: tasks.append(real(fn, *args)) or tasks[-1])
            with T.helper(pool), pytest.raises(DataError, match=f"on the {where}"):
                T.backward(loss)
            assert tasks and all(task.done() for task in tasks)


def test_array_leaf_adds_do_not_ask_whether_the_helper_is_free(monkeypatch):
    # a desk step defers no gradient, so every leaf add is an array into a leaf
    # with no add on the helper: it is added at once, unchecked, in the same order
    want = TestDeferredGradients.grads(TestDeferredGradients.desk_step)
    monkeypatch.setattr(T._LeafAdds, "_free", lambda adds: pytest.fail("asked whether the helper is free"))
    with ThreadPoolExecutor(max_workers=1) as pool:
        got = TestDeferredGradients.grads(TestDeferredGradients.desk_step, pool)
    assert all(np.array_equal(a, b) for a, b in zip(want, got))
