"""Gradient checks for every autodiff primitive against finite differences."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest

from dialdistill import losses, tensor as T
from dialdistill.errors import ContractError, NumericError, ShapeError, VocabularyError
from dialdistill.model import TransformerModel, desk_config, paper_config
from dialdistill.optim import clip_gradients

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
            numeric = np.zeros_like(leaf.data)
            flat = leaf.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = build(leaves).data.item()
                flat[i] = keep - step
                lo = build(leaves).data.item()
                flat[i] = keep
                num_flat[i] = (hi - lo) / (2 * step)
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

    def test_relu_gradients(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = leaf(rng, 5, 3)
            # keep values away from the kink so FD is valid
            a.data[np.abs(a.data) < 0.05] += 0.1
            fd_check(lambda ls: T.tsum(T.mul(T.relu(ls[0]), ls[0])), [a])

    def test_scalar_ops_sugar(self):
        rng = np.random.default_rng(3)
        a = leaf(rng, 4)
        fd_check(lambda ls: T.tsum((ls[0] * 2.0 - 1.0) * ls[0] / 3.0 + (-ls[0])), [a])


class TestMatmul:
    def test_identity(self):
        with T.precision("double"):
            m = T.Tensor(np.arange(9.0).reshape(3, 3))
            out = T.matmul(m, T.Tensor(np.eye(3)))
            assert np.array_equal(out.data, m.data)

    def test_hand_case(self):
        with T.precision("double"):
            a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
            b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
            out = T.matmul(a, b)
            assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_matrix(self):
        with T.precision("double"):
            a = T.Tensor(np.zeros((2, 3)))
            b = T.Tensor(np.ones((3, 2)))
            assert np.all(T.matmul(a, b).data == 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
            fd_check(lambda ls: T.tsum(T.mul(T.matmul(ls[0], ls[1]), T.matmul(ls[0], ls[1]))), [a, b])

    def test_batched_gradients(self):
        rng = np.random.default_rng(5)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 5)
        fd_check(lambda ls: T.tsum(T.matmul(ls[0], ls[1])), [a, b])

    def test_broadcast_batch(self):
        rng = np.random.default_rng(6)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
        fd_check(lambda ls: T.tsum(T.mul(T.matmul(ls[0], ls[1]), 0.5)), [a, b])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


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


class TestSoftmax:
    def test_hand_case(self):
        # softmax([0, ln 3]) = [1/4, 3/4]
        with T.precision("double"):
            out = T.softmax(T.Tensor([0.0, np.log(3.0)]))
            assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        with T.precision("double"):
            x = T.Tensor(rng.standard_normal((4, 7)) * 10)
            out = T.softmax(x, axis=-1)
            assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out.data > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        with T.precision("double"):
            x = rng.standard_normal((3, 5))
            a = T.softmax(T.Tensor(x)).data
            b = T.softmax(T.Tensor(x + 123.456)).data
            assert np.allclose(a, b, atol=1e-12)

    def test_extreme_logits_stable(self):
        with T.precision("double"):
            out = T.softmax(T.Tensor([[1000.0, 0.0, -1000.0]]))
            assert np.all(np.isfinite(out.data))
            assert out.data[0, 0] > 0.999

    def test_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = leaf(rng, 3, 5)
            w = leaf(rng, 3, 5)
            fd_check(lambda ls: T.tsum(T.mul(T.softmax(ls[0]), ls[1])), [x, w])

    def test_cross_entropy_gradient_is_p_minus_q(self):
        # d/dz [-sum q log softmax(z)] = softmax(z) - q
        rng = np.random.default_rng(12)
        with T.precision("double"):
            z = T.Tensor(rng.standard_normal(6), requires_grad=True)
            q = rng.random(6)
            q /= q.sum()
            p = T.softmax(z)
            loss = T.tsum(T.mul(T.log(p), T.Tensor(-q)))
            T.backward(loss)
            assert np.allclose(z.grad, p.data - q, atol=1e-10)


class TestLog:
    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, 4, 3)
        x.data = np.abs(x.data) + 0.5
        fd_check(lambda ls: T.tsum(T.log(ls[0])), [x])

    def test_floor_clamps_and_zeroes_grad(self):
        with T.precision("double"):
            x = T.Tensor([1e-20, 0.5], requires_grad=True)
            out = T.log(x, floor=1e-12)
            assert out.data[0] == np.log(1e-12)
            T.backward(T.tsum(out))
            assert x.grad[0] == 0.0
            assert np.isclose(x.grad[1], 2.0)


class TestLayerNorm:
    def test_hand_case(self):
        # [1, 3]: mean 2, var 1 -> normalized [-1, 1] (up to epsilon)
        with T.precision("double"):
            out = T.layer_norm(
                T.Tensor([[1.0, 3.0]]), T.Tensor([1.0, 1.0]), T.Tensor([0.0, 0.0]), epsilon=0.0
            )
            assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_output_statistics(self):
        rng = np.random.default_rng(14)
        with T.precision("double"):
            x = T.Tensor(rng.standard_normal((6, 16)) * 3 + 5)
            out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
            assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
            assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x, g, b = leaf(rng, 3, 6), leaf(rng, 6), leaf(rng, 6)
            fd_check(lambda ls: T.tsum(T.mul(T.layer_norm(*ls), ls[0])), [x, g, b])


class TestEmbedding:
    def test_gather_and_scatter(self):
        rng = np.random.default_rng(16)
        with T.precision("double"):
            table = T.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            ids = np.array([[0, 2, 2], [4, 0, 1]])
            out = T.embedding(table, ids)
            assert out.data.shape == (2, 3, 3)
            assert np.array_equal(out.data[0, 1], table.data[2])
            T.backward(T.tsum(out))
            # row 2 used twice, row 0 twice, rows 1 and 4 once, row 3 never
            assert np.allclose(table.grad[2], 2.0)
            assert np.allclose(table.grad[0], 2.0)
            assert np.allclose(table.grad[3], 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(17)
        table = leaf(rng, 6, 4)
        ids = np.array([1, 1, 5, 0])
        fd_check(lambda ls: T.tsum(T.mul(T.embedding(ls[0], ids), T.embedding(ls[0], ids))), [table])

    def test_out_of_range(self):
        table = T.Tensor(np.ones((4, 2)))
        with pytest.raises(VocabularyError):
            T.embedding(table, np.array([0, 4]))
        with pytest.raises(VocabularyError):
            T.embedding(table, np.array([-1]))


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
            fd_check(lambda ls: T.tsum(T.mul(T.pick(T.softmax(ls[0]), ids), T.pick(ls[0], ids))), [x])

    def test_out_of_range_and_shape(self):
        x = T.Tensor(np.ones((2, 4)))
        with pytest.raises(ContractError):
            T.pick(x, np.array([0, 4]))
        with pytest.raises(ContractError):
            T.pick(x, np.array([-1, 0]))
        with pytest.raises(ShapeError):
            T.pick(x, np.array([0, 1, 2]))


class TestShapeOps:
    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(18)
        with T.precision("double"):
            a = T.Tensor(rng.standard_normal((2, 3)))
            b = T.Tensor(rng.standard_normal((2, 5)))
            cat = T.concat([a, b], axis=-1)
            assert np.array_equal(T.narrow(cat, -1, 0, 3).data, a.data)
            assert np.array_equal(T.narrow(cat, -1, 3, 5).data, b.data)

    def test_concat_gradients(self):
        rng = np.random.default_rng(19)
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 2)
        fd_check(lambda ls: T.tsum(T.mul(T.concat(ls, axis=-1), T.concat(ls, axis=-1))), [a, b])

    def test_narrow_gradients(self):
        rng = np.random.default_rng(20)
        a = leaf(rng, 4, 6)
        fd_check(lambda ls: T.tsum(T.mul(T.narrow(ls[0], 1, 2, 3), T.narrow(ls[0], 1, 2, 3))), [a])

    def test_narrow_bounds(self):
        a = T.Tensor(np.ones((2, 4)))
        with pytest.raises(ShapeError):
            T.narrow(a, 1, 2, 3)

    def test_transpose(self):
        rng = np.random.default_rng(21)
        with T.precision("double"):
            x = T.Tensor(rng.standard_normal((2, 3, 4)))
            assert np.array_equal(T.transpose(x, (0, 2, 1)).data, np.swapaxes(x.data, -1, -2))
            w = T.Tensor(rng.standard_normal((3, 4, 2)))
        a = leaf(rng, 3, 4)
        fd_check(lambda ls: T.tsum(T.mul(T.transpose(ls[0], (1, 0)), T.transpose(ls[0], (1, 0)))), [a])
        # (1, 2, 0) is not its own inverse, and the weights make every
        # output position's gradient distinct
        a = leaf(rng, 2, 3, 4)
        fd_check(lambda ls: T.tsum(T.mul(T.transpose(ls[0], (1, 2, 0)), w)), [a])

    def test_reshape_gradients(self):
        rng = np.random.default_rng(24)
        a = leaf(rng, 2, 3, 4)
        with T.precision("double"):
            w = T.Tensor(rng.standard_normal((6, 2, 2)))
            assert np.array_equal(T.reshape(a, (6, 2, 2)).data, a.data.reshape(6, 2, 2))
        fd_check(lambda ls: T.tsum(T.mul(T.reshape(ls[0], (6, 2, 2)), w)), [a])

    def test_reshape_rejects_wrong_size(self):
        a = T.Tensor(np.ones((2, 3)))
        for shape in ((4, 2), (7,), (-1, 6), (3, -2)):
            with pytest.raises(ShapeError):
                T.reshape(a, shape)

    def test_transpose_rejects_bad_axes(self):
        a = T.Tensor(np.ones((2, 3, 4)))
        for axes in ((0, 1), (0, 1, 1), (0, 1, 3), (2, 1, 0, 3), (-1, 0, 1)):
            with pytest.raises(ShapeError):
                T.transpose(a, axes)


def test_primitive_table_matches_the_ops_produced():
    # every primitive ends in one `_make(..., "<op>")`; the table must name
    # exactly those ops, so a deleted primitive cannot linger in it
    produced = set(re.findall(r'_make\(.*"(\w+)"\)', inspect.getsource(T)))
    assert len(T.PRIMITIVES) == len(set(T.PRIMITIVES))
    assert set(T.PRIMITIVES) == produced


class TestReductions:
    def test_sum_axis_gradients(self):
        rng = np.random.default_rng(22)
        a = leaf(rng, 3, 4)
        fd_check(lambda ls: T.tsum(T.mul(T.tsum(ls[0], axis=0), T.tsum(ls[0], axis=0))), [a])

    def test_mean_gradients(self):
        rng = np.random.default_rng(23)
        a = leaf(rng, 3, 4)
        fd_check(lambda ls: T.tmean(T.mul(ls[0], ls[0])), [a])
        a2 = leaf(rng, 2, 5)
        fd_check(lambda ls: T.tsum(T.mul(T.tmean(ls[0], axis=-1), T.tmean(ls[0], axis=-1))), [a2])

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


class TestDropout:
    def test_zero_rate_is_identity(self):
        x = T.Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inverted_scaling(self):
        rng = np.random.default_rng(25)
        x = T.Tensor(np.ones((200, 200)))
        out = T.dropout(x, 0.25, rng)
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)
        # survivor fraction near 75%
        frac = (out.data != 0.0).mean()
        assert abs(frac - 0.75) < 0.02

    def test_gradient_uses_same_mask(self):
        with T.precision("double"):
            rng = np.random.default_rng(26)
            x = T.Tensor(np.ones((10, 10)), requires_grad=True)
            out = T.dropout(x, 0.5, rng)
            T.backward(T.tsum(out))
            assert np.array_equal((x.grad != 0.0), (out.data != 0.0))


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
                out = T.tsum(T.softmax(T.matmul(x, x)))
                T.backward(out)
                results.append((out.data.copy(), x.grad.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_nan_detection(self):
        with pytest.raises(NumericError):
            T.log(T.Tensor([-1.0]))

    def test_precision_modes(self):
        with T.precision("single"):
            assert T.Tensor([1.0]).data.dtype == np.float32
        with T.precision("double"):
            assert T.Tensor([1.0]).data.dtype == np.float64
        assert T.active_dtype() == np.float32

    def test_grad_norm(self):
        with T.precision("double"):
            x = T.Tensor([3.0], requires_grad=True)
            y = T.Tensor([4.0], requires_grad=True)
            out = T.tsum(T.add(T.mul(x, x), T.mul(y, y)))
            T.backward(out)
            # grads are 6 and 8 -> norm 10
            assert np.isclose(clip_gradients([x, y], 0.0), 10.0)


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
        run_backward(losses.nll_sum(out.probabilities, response[:, 1:], np.ones((batch, 15))))
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
                h = T.affine(xx, ww, bb)
                h = T.relu(h)
                h = T.layer_norm(h, gg, nb)
                p = T.softmax(h, axis=-1)
                return T.tsum(T.mul(p, xx))

            fd_check(build, [x, w, b, ln_g, ln_b], rtol=1e-5)
