"""Closed-form oracle checks for every loss component and the optimizer."""

import contextlib
import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dialdistill import losses, optim, tensor as T
from dialdistill.errors import ContractError, DataError, NumericError, ShapeError
from dialdistill.model import ParameterSet
from dialdistill.optim import BETA1, BETA2, EPSILON, Adam


@pytest.fixture(autouse=True)
def double_precision():
    # closed-form oracles at 1e-9 tolerances need float64 throughout
    with T.precision("double"):
        yield


class RebindingAdam:
    """Adam as it was before the flat buffer: a moment dict per tensor,
    clipping that rebinds ``grad`` and an update that rebinds ``data``."""

    def __init__(self, targets, learning_rate: float, clip_norm: float = 2.0):
        self.targets = list(targets)
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self) -> float:
        for name, t in self.targets:
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                raise NumericError(f"non-finite gradient for {name!r}; step aborted")
        total = 0.0
        for _, t in self.targets:
            if t.grad is not None:
                total += float((t.grad.astype(np.float64) ** 2).sum())
        norm = math.sqrt(total)
        if self.clip_norm > 0 and norm > self.clip_norm:
            factor = self.clip_norm / norm
            for _, t in self.targets:
                if t.grad is not None:
                    t.grad = t.grad * factor
        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, t in self.targets:
            if t.grad is None:
                continue
            g = t.grad
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(t.data)
                v = np.zeros_like(t.data)
            else:
                v = self._v[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            m_hat = m / bc1
            v_hat = v / bc2
            t.data = t.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        return norm


def dist(data):
    return T.Tensor(np.asarray(data, dtype=T.active_dtype()))


class TestNll:
    """``nll_sum`` picks from log-probabilities."""

    def test_perfect_model_is_zero(self):
        targets = np.array([[1, 2, 0]])
        log_probs = np.full((1, 3, 4), -50.0)
        log_probs[0, np.arange(3), targets[0]] = 0.0
        out = losses.nll_sum(dist(log_probs), targets, np.ones((1, 3)))
        assert out.data == 0.0

    def test_uniform_model_closed_form(self):
        # uniform over |V| = 100, 5 unmasked tokens -> 5 ln 100
        v = 100
        log_probs = np.full((1, 5, v), -math.log(v))
        targets = np.array([[3, 7, 7, 0, 99]])
        mask = np.ones((1, 5))
        out = losses.nll_sum(dist(log_probs), targets, mask)
        assert abs(out.data - 5 * math.log(100)) < 1e-6

    def test_fully_masked_is_zero(self):
        log_probs = np.full((1, 4, 10), math.log(0.1))
        targets = np.zeros((1, 4), dtype=int)
        mask = np.zeros((1, 4))
        out = losses.nll_sum(dist(log_probs), targets, mask)
        assert out.data == 0.0

    def test_mask_excludes_positions(self):
        v = 10
        log_probs = np.full((1, 2, v), -math.log(v))
        targets = np.array([[1, 2]])
        out = losses.nll_sum(dist(log_probs), targets, np.array([[1.0, 0.0]]))
        assert abs(out.data - math.log(10)) < 1e-6

    def test_underflowed_probability_has_a_finite_loss(self):
        # the gold token's probability is exactly 0 in float32; its
        # log-probability, and so the loss, is finite and exact
        with T.precision("single"):
            log_probs = T.head(T.Tensor([[[1.0]]]), T.Tensor([[0.0, 0.0, -200.0]]), T.Tensor(np.zeros(3)))
            assert T.exp(log_probs).data[0, 0, 2] == 0.0
            out = losses.nll_sum(log_probs, np.array([[2]]), np.ones((1, 1)))
        assert abs(float(out.data) - (200.0 + math.log(2))) < 1e-4

    def test_gradient_is_correct(self):
        with T.precision("double"):
            rng = np.random.default_rng(0)
            logits = T.Tensor(rng.standard_normal((1, 2, 5)), requires_grad=True)
            log_probs = T.head(logits, np.eye(5), np.zeros(5))
            targets = np.array([[1, 3]])
            mask = np.ones((1, 2))
            out = losses.nll_sum(log_probs, targets, mask)
            T.backward(out)
            # d/dz of -log softmax(z)[gold] is p - onehot
            expected = np.exp(log_probs.data) - np.eye(5)[targets]
            assert np.allclose(logits.grad, expected, atol=1e-10)

    def test_target_outside_vocabulary_rejected(self):
        log_probs = np.full((1, 2, 4), math.log(0.25))
        for bad in (-1, 4):
            with pytest.raises(ContractError):
                losses.nll_sum(dist(log_probs), np.array([[0, bad]]), np.ones((1, 2)))

    @pytest.mark.parametrize("targets", [np.array([[0.0, 3.0]]), np.array([[True, False]])], ids=["float", "bool"])
    def test_targets_that_are_not_integers_rejected(self, targets):
        log_probs = np.full((1, 2, 4), math.log(0.25))
        with pytest.raises(ContractError, match="must be integers"):
            losses.nll_sum(dist(log_probs), targets, np.ones((1, 2)))

    def test_paper_vocabulary_without_dense_buffers(self):
        # reading one log-probability per position must not build a V x V
        # identity or (B, T, V) temporaries beyond the gradient itself
        rng = np.random.default_rng(6)
        with T.precision("single"):
            log_probs = T.Tensor(rng.random((2, 3, 20000)), requires_grad=True)
            targets = rng.integers(0, 20000, size=(2, 3))
            mask = np.ones((2, 3))
            tracemalloc.start()
            try:
                T.backward(losses.nll_sum(log_probs, targets, mask))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert log_probs.grad.shape == log_probs.data.shape
        assert peak < 10 * log_probs.data.nbytes


class TestPredictionImitation:
    def test_uniform_pair_gives_entropy(self):
        q = np.full((1, 1, 4), 0.25)
        out = losses.prediction_imitation_sum(q, dist(q), np.ones((1, 1)))
        assert abs(out.data - math.log(4)) < 1e-9

    def test_one_hot_teacher_half_mass_student(self):
        q = np.zeros((1, 1, 4))
        q[0, 0, 2] = 1.0
        p = np.array([[[0.2, 0.2, 0.5, 0.1]]])
        out = losses.prediction_imitation_sum(q, dist(p), np.ones((1, 1)))
        assert abs(out.data - math.log(2)) < 1e-9

    def test_masked_positions_contribute_zero(self):
        q = np.full((1, 2, 4), 0.25)
        out = losses.prediction_imitation_sum(q, dist(q), np.array([[1.0, 0.0]]))
        assert abs(out.data - math.log(4)) < 1e-9

    def test_shape_mismatch(self):
        q = np.full((1, 1, 4), 0.25)
        p = np.full((1, 1, 5), 0.2)
        with pytest.raises(ShapeError):
            losses.prediction_imitation_sum(q, dist(p), np.ones((1, 1)))

    def test_gibbs_inequality_seeded_sweep(self):
        # cross-entropy H(q, p) >= H(q), equality iff p = q
        rng = np.random.default_rng(1)
        with T.precision("double"):
            for _ in range(200):
                q = rng.random(8) + 1e-6
                q /= q.sum()
                p = rng.random(8) + 1e-6
                p /= p.sum()
                mask = np.ones((1, 1))
                ce = losses.prediction_imitation_sum(
                    q[None, None], dist(p[None, None]), mask
                ).data
                entropy = -(q * np.log(q)).sum()
                assert ce >= entropy - 1e-9
                ce_self = losses.prediction_imitation_sum(
                    q[None, None], dist(q[None, None]), mask
                ).data
                assert abs(ce_self - entropy) < 1e-9

    def test_no_gradient_into_teacher(self):
        with T.precision("double"):
            q = np.full((1, 1, 4), 0.25)
            student = T.Tensor(np.full((1, 1, 4), 0.25), requires_grad=True)
            out = losses.prediction_imitation_sum(q, student, np.ones((1, 1)))
            T.backward(out)
            assert student.grad is not None


class TestRepresentationImitation:
    def test_identical_hiddens_zero(self):
        h = np.random.default_rng(2).standard_normal((1, 3, 8))
        out = losses.representation_imitation_sum(
            [h], [dist(h)], alpha=0.01, mask=np.ones((1, 3))
        )
        assert out.data == 0.0

    def test_above_threshold_contributes_mse(self):
        # difference 0.2 everywhere: phi = 0.04 >= 0.01 -> contributes 0.04
        ht = np.zeros((1, 1, 16))
        hs = np.full((1, 1, 16), 0.2)
        out = losses.representation_imitation_sum(
            [ht], [dist(hs)], alpha=0.01, mask=np.ones((1, 1))
        )
        assert abs(out.data - 0.04) < 1e-9

    def test_below_threshold_exactly_zero(self):
        # difference 0.05: phi = 0.0025 < 0.01 -> exactly 0
        ht = np.zeros((1, 1, 16))
        hs = np.full((1, 1, 16), 0.05)
        out = losses.representation_imitation_sum(
            [ht], [dist(hs)], alpha=0.01, mask=np.ones((1, 1))
        )
        assert out.data == 0.0

    def test_gate_is_per_pair(self):
        # one position above, one below: only the first contributes
        ht = np.zeros((1, 2, 4))
        hs = np.stack([[np.full(4, 0.2), np.full(4, 0.05)]])
        out = losses.representation_imitation_sum(
            [ht], [dist(hs)], alpha=0.01, mask=np.ones((1, 2))
        )
        assert abs(out.data - 0.04) < 1e-9

    def test_layers_sum(self):
        ht = np.zeros((1, 1, 4))
        hs = np.full((1, 1, 4), 0.2)
        out = losses.representation_imitation_sum(
            [ht, ht], [dist(hs), dist(hs)], alpha=0.01, mask=np.ones((1, 1))
        )
        assert abs(out.data - 0.08) < 1e-9

    def test_layer_count_mismatch(self):
        h = np.zeros((1, 1, 4))
        with pytest.raises(ContractError):
            losses.representation_imitation_sum([h, h], [dist(h)], 0.01, np.ones((1, 1)))

    def test_below_threshold_gives_no_gradient(self):
        with T.precision("double"):
            ht = np.zeros((1, 1, 4))
            hs = T.Tensor(np.full((1, 1, 4), 0.05), requires_grad=True)
            out = losses.representation_imitation_sum([ht], [hs], 0.01, np.ones((1, 1)))
            T.backward(out)
            assert np.all(hs.grad == 0.0)


class TestCombined:
    def test_scalar_arithmetic(self):
        rng = np.random.default_rng(2)
        v, b, t, d = 5, 2, 3, 4
        sp = rng.random((b, t, v)) + 0.01
        sp /= sp.sum(axis=-1, keepdims=True)
        tp = rng.random((b, t, v)) + 0.01
        tp /= tp.sum(axis=-1, keepdims=True)
        # hidden states far apart so the gate keeps every pair
        sh = [T.Tensor(np.zeros((b, t, d))), T.Tensor(np.zeros((b, t, d)))]
        th = [np.full((b, t, d), 0.5), np.full((b, t, d), 1.5)]
        targets = rng.integers(0, v, size=(b, t))
        mask = np.ones((b, t))
        nll = -np.log(np.take_along_axis(sp, targets[..., None], axis=-1)).mean()
        il_prediction = -(tp * np.log(sp)).sum(axis=-1).mean()
        il_representation = 0.25 + 2.25
        _, bd = losses.total_loss(
            dist(sp), sh, targets, mask,
            teacher_probs=tp, teacher_hiddens=th, lambda1=2.0, alpha=0.01,
        )
        assert abs(bd.nll - nll) < 1e-12
        assert abs(bd.il_prediction - il_prediction) < 1e-12
        assert abs(bd.il_representation - il_representation) < 1e-12
        assert abs(bd.total - (nll + 2.0 * (il_prediction + il_representation))) < 1e-12

    def test_lambda1_zero_total_equals_nll(self):
        rng = np.random.default_rng(3)
        probs = rng.random((2, 3, 6)) + 0.01
        probs /= probs.sum(axis=-1, keepdims=True)
        targets = rng.integers(0, 6, size=(2, 3))
        mask = np.ones((2, 3))
        loss, bd = losses.total_loss(dist(probs), [], targets, mask, lambda1=0.0)
        assert loss.data == bd.nll == bd.total
        assert bd.il_prediction == 0.0 and bd.il_representation == 0.0

    def test_breakdown_identity(self):
        rng = np.random.default_rng(4)
        v, b, t, d = 6, 2, 3, 8
        sp = rng.random((b, t, v)) + 0.01
        sp /= sp.sum(axis=-1, keepdims=True)
        tp = rng.random((b, t, v)) + 0.01
        tp /= tp.sum(axis=-1, keepdims=True)
        sh = [T.Tensor(rng.standard_normal((b, t, d)), requires_grad=True) for _ in range(2)]
        th = [rng.standard_normal((b, t, d)) for _ in range(2)]
        targets = rng.integers(0, v, size=(b, t))
        mask = np.ones((b, t))
        loss, bd = losses.total_loss(
            dist(sp), sh, targets, mask,
            teacher_probs=tp, teacher_hiddens=th, lambda1=2.0, alpha=0.01,
        )
        recombined = bd.nll + 2.0 * (bd.il_prediction + bd.il_representation)
        assert abs(bd.total - recombined) < 1e-6
        assert abs(float(loss.data) - bd.total) < 1e-12
        assert bd.token_count == b * t

    def test_lm_term_added(self):
        rng = np.random.default_rng(5)
        v = 5
        sp = rng.random((1, 2, v)) + 0.01
        sp /= sp.sum(axis=-1, keepdims=True)
        lmp = rng.random((1, 2, v)) + 0.01
        lmp /= lmp.sum(axis=-1, keepdims=True)
        targets = rng.integers(0, v, size=(1, 2))
        mask = np.ones((1, 2))
        loss, bd = losses.total_loss(
            dist(sp), [], targets, mask, lambda1=0.0, lm_probs=lmp, lambda_lm=0.5
        )
        assert bd.lm_prediction is not None
        assert abs(bd.total - (bd.nll + 0.5 * bd.lm_prediction)) < 1e-9

    def test_empty_mask(self):
        probs = np.full((1, 2, 4), 0.25)
        loss, bd = losses.total_loss(dist(probs), [], np.zeros((1, 2), int), np.zeros((1, 2)))
        assert bd.total == 0.0 and bd.token_count == 0.0


def param_set(**values):
    """A ParameterSet of trainable tensors holding ``values``, in that order."""
    arrays = {name: np.asarray(v, dtype=T.active_dtype()) for name, v in values.items()}
    ps = ParameterSet([(name, a.shape, True) for name, a in arrays.items()])
    for name, a in arrays.items():
        ps[name].data[...] = a
    return ps


class TestAdam:
    def test_clip_example(self):
        # gradient (3, 4) has norm 5; clip 2 scales it to (1.2, 1.6)
        ps = param_set(w=[0.0, 0.0])
        ps["w"].grad = np.array([3.0, 4.0])
        opt = Adam(ps, clip_norm=2.0)
        norm = opt.step()
        assert abs(norm - 5.0) < 1e-12
        # the first step's moments are the clipped gradient and its square, scaled
        assert np.allclose(opt.m, (1.0 - BETA1) * np.array([1.2, 1.6]), rtol=0, atol=1e-12)
        assert np.allclose(opt.v, (1.0 - BETA2) * np.array([1.44, 2.56]), rtol=0, atol=1e-12)
        assert not opt.grad.any()

    def test_no_clip_below_threshold(self):
        ps = param_set(w=[0.0])
        ps["w"].grad = np.array([1.0])
        opt = Adam(ps, clip_norm=2.0)
        opt.step()
        assert opt.m[0] == 1.0 - BETA1 and opt.v[0] == 1.0 - BETA2

    def test_first_step_closed_form(self):
        # g = 1, lr = 0.001: bias-corrected update is -lr * 1/(1 + eps)
        ps = param_set(w=[0.5])
        ps["w"].grad = np.array([1.0])
        opt = Adam(ps, learning_rate=0.001, clip_norm=2.0)
        opt.step()
        assert abs((ps["w"].data[0] - 0.5) + 0.001) < 1e-9

    def test_zero_grads_fixpoint(self):
        ps = param_set(w=[1.0, 2.0])
        ps["w"].grad = np.zeros(2)
        opt = Adam(ps)
        opt.step()
        assert np.array_equal(ps["w"].data, [1.0, 2.0])
        assert np.all(opt.m == 0.0) and np.all(opt.v == 0.0)

    def test_none_grad_untouched(self):
        ps = param_set(w=[1.0])
        opt = Adam(ps)
        opt.step()
        assert ps["w"].data[0] == 1.0
        assert not opt.m.any() and not opt.v.any()

    def test_nan_grad_aborts(self):
        ps = param_set(w=[1.0])
        ps["w"].grad = np.array([np.nan])
        opt = Adam(ps)
        with pytest.raises(NumericError):
            opt.step()
        assert ps["w"].data[0] == 1.0

    def test_inf_grad_aborts_naming_the_tensor_before_any_update(self):
        ps = param_set(a=[1.0], b=[2.0, 3.0])
        ps["a"].grad, ps["b"].grad = np.array([5.0]), np.array([1.0, np.inf])
        opt = Adam(ps, clip_norm=2.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="for 'b'; step aborted"):
            opt.step()
        assert ps["a"].data[0] == 1.0 and ps["b"].data[1] == 3.0
        assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()

    def test_norm_overflow_with_finite_grads_still_steps(self):
        # float64 squares overflow, so the norm is inf although every
        # gradient is finite: no tensor to name, the clip zeroes the step
        ps = param_set(w=[1.0])
        ps["w"].grad = np.array([1e200])
        opt = Adam(ps)
        with np.errstate(over="ignore"):
            assert opt.step() == np.inf
        assert ps["w"].data[0] == 1.0 and opt.step_count == 1

    def test_matches_reference_implementation(self):
        # independent re-derivation of Adam with clipping, 10 steps on a
        # quadratic bowl f(w) = 0.5 ||w||^2 (gradient = w)
        rng = np.random.default_rng(6)
        w0 = rng.standard_normal(4) * 3
        ps = param_set(w=w0)
        t = ps["w"]
        opt = Adam(ps, learning_rate=0.01, clip_norm=2.0)

        ref = w0.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for k in range(1, 11):
            t.grad[...] = t.data
            opt.step()

            g_ref = ref.copy()
            norm = np.sqrt((g_ref**2).sum())
            if norm > 2.0:
                g_ref = g_ref * (2.0 / norm)
            m = 0.9 * m + 0.1 * g_ref
            v = 0.999 * v + 0.001 * g_ref**2
            ref = ref - 0.01 * (m / (1 - 0.9**k)) / (np.sqrt(v / (1 - 0.999**k)) + 1e-8)
            assert np.allclose(t.data, ref, atol=1e-12), f"diverged at step {k}"
            assert np.allclose(opt.m, m, rtol=0, atol=1e-12) and np.allclose(opt.v, v, rtol=0, atol=1e-12), k

    def test_in_place_moments_bitwise_equal_to_rebinding_ones(self):
        # float32, as in training; clipping fires on some steps, and one
        # tensor's gradient is zero on some steps
        shapes = [(5, 3), (3,), (4, 2, 2)]
        rng = np.random.default_rng(21)
        with T.precision("single"):
            ps = ParameterSet([(f"p{i}", shape, True) for i, shape in enumerate(shapes)])
            want = []
            for name, t in ps.items():
                t.data[...] = rng.standard_normal(t.data.shape)
                want.append((name, T.Tensor(t.data.copy(), requires_grad=True)))
        got = list(ps.items())
        opt, ref = Adam(ps, learning_rate=0.01), RebindingAdam(want, learning_rate=0.01)
        m0, v0, p0 = opt.m, opt.v, ps["p0"].data
        slices = [a.grad for _, a in got]
        rng = np.random.default_rng(22)
        for step in range(20):
            squares = []
            for (_, a), (_, b) in zip(got, want):
                g = (rng.standard_normal(a.data.shape) * rng.choice([0.1, 3.0])).astype(np.float32)
                if step % 3 == 1 and a is got[1][1]:
                    g[...] = 0.0
                a.grad[...], b.grad = g, g.copy()
                squares += [float(x) ** 2 for x in g.ravel()]  # each exact in float64
            # the norm against the correctly rounded sum of squares: n float64
            # adds of non-negative terms err by less than (n - 1) * 2**-53 of
            # the total, half that after the square root, which itself and
            # the oracle's own each round once more, so a bound of n * 2**-53
            norm, oracle = opt.step(), math.sqrt(math.fsum(squares))
            assert abs(norm - oracle) <= len(squares) * 2.0**-53 * oracle, step
            ref.step()  # clipped by its own norm, summed per target
            # the values and the moments are written in place, and every
            # gradient is its zeroed slice of the flat buffer again
            assert ps["p0"].data is p0 and np.shares_memory(p0, ps.values)
            assert opt.m is m0 and opt.v is v0
            assert all(a.grad is s for (_, a), s in zip(got, slices)) and not opt.grad.any()
            for (name, a), (_, b) in zip(got, want):
                span = ps.span(name)
                assert a.data.dtype == np.float32
                assert np.array_equal(a.data, b.data), (step, name)
                assert np.array_equal(opt.m[span], ref._m[name].ravel()), (step, name)
                assert np.array_equal(opt.v[span], ref._v[name].ravel()), (step, name)

    @pytest.mark.parametrize("split", [False, True], ids=["one-thread", "helper"])
    def test_no_float64_scratch_beyond_two_chunks_a_thread(self, split):
        # one target of eight chunks: the norm and the update each walk the
        # chunks, so no thread needs float64 room the size of the target, and
        # without a helper the caller's one room serves both halves
        with T.precision("single"):
            ps = ParameterSet([("w", (8 * optim.CHUNK,), True)])
        g = np.random.default_rng(4).standard_normal(ps.values.shape).astype(np.float32) * 1e-3
        with ThreadPoolExecutor(max_workers=1) as pool:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                opt = Adam(ps)
                for _ in range(2):
                    opt.grad[...] = g
                    with T.helper(pool) if split else contextlib.nullcontext():
                        opt.step()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert all(opt._chunks)
        # beyond m, v and grad: one scratch of 2 * CHUNK float64 per thread, and
        # less than one more such scratch for everything else
        scratch = 2 * optim.CHUNK * 8
        assert peak - 3 * ps.values.nbytes < (1 + split) * scratch + scratch, peak

    def test_non_targets_never_move(self):
        # a frozen tensor and a non-trainable one keep their values bitwise,
        # and their moments stay zero, even when their slices of the
        # gradient are not
        ps = ParameterSet([("a", (2,), True), ("table", (3,), False), ("frozen", (2,), True)])
        for name, t in ps.items():
            t.data[...] = np.arange(t.data.size) - 0.25
        ps.freeze(["frozen"])
        before = ps.values.copy()
        opt = Adam(ps, clip_norm=1.0)
        for _ in range(3):
            for _, t in ps.items():
                t.grad[...] = 1.0
            assert opt.step() > opt.clip_norm  # the step clips
        # the step zeroes the targets' gradient and leaves the others' slices,
        # which no pass writes, as they were: neither clipped nor zeroed
        assert not opt.grad[ps.span("a")].any()
        for name in ("table", "frozen"):
            span = ps.span(name)
            assert np.array_equal(opt.grad[span], np.ones(span.stop - span.start)), name
            assert np.array_equal(ps.values[span], before[span]), name
            assert not opt.m[span].any() and not opt.v[span].any()
        assert not np.array_equal(ps["a"].data, before[ps.span("a")])

    def test_clip_is_global_across_tensors(self):
        ps = param_set(a=[3.0], b=[4.0])
        ps["a"].grad = np.array([3.0])
        ps["b"].grad = np.array([4.0])
        opt = Adam(ps, learning_rate=0.001, clip_norm=2.0)
        norm = opt.step()
        assert abs(norm - 5.0) < 1e-12
        # both moved by the same bias-corrected unit step (sign aside),
        # because Adam normalizes per-parameter scale
        assert ps["a"].data[0] < 3.0 and ps["b"].data[0] < 4.0

    def test_gradients_are_slices_of_the_flat_buffer(self):
        # construction copies a gradient already held into the tensor's
        # slice; backward then adds into the slice in place
        ps = param_set(a=[1.0, 2.0], b=[3.0])
        ps["a"].grad = np.array([0.5, -0.5])
        opt = Adam(ps)
        for name, t in ps.items():
            assert np.shares_memory(t.grad, opt.grad[ps.span(name)]) and t.grad.shape == t.data.shape
        assert np.array_equal(opt.grad, [0.5, -0.5, 0.0])
        a, b = ps["a"], ps["b"]
        T.backward(T.tsum(T.add(T.mul(a, a), b)))
        assert np.array_equal(opt.grad, [2.5, 3.5, 2.0])  # b broadcasts over two entries
        assert a.grad.base is opt.grad and b.grad.base is opt.grad

    def test_rebound_gradient_is_a_contract_error_before_any_update(self):
        ps = param_set(a=[1.0], b=[2.0])
        opt = Adam(ps)
        ps["a"].grad[...] = 1.0
        ps["b"].grad = np.array([1.0])
        with pytest.raises(ContractError, match="'b' is no longer its slice"):
            opt.step()
        assert np.array_equal(ps.values, [1.0, 2.0]) and opt.step_count == 0
        assert not opt.m.any() and not opt.v.any()


class TestSplitAdam:
    """A step with a helper runs half of its chunks, for the norm and for the
    update, on the thread's helper; the chunks are made small so that a small
    step has several. Every result is bitwise that of one thread."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        monkeypatch.setattr(optim, "CHUNK", 64)

    @staticmethod
    def run(pool=None, steps=3, scale=1.0, spoil=None):
        """``steps`` float32 steps over four targets in eight chunks; returns
        the norms and the state, or the error a step raised and the state."""
        rng = np.random.default_rng(8)
        with T.precision("single"):
            ps = ParameterSet([("a", (40, 7), True), ("b", (3,), True), ("c", (130,), True), ("d", (9, 9), True)])
            ps.values[...] = rng.standard_normal(ps.values.shape)
            opt = Adam(ps, learning_rate=0.01, clip_norm=2.0)
        assert all(opt._chunks)
        norms = []
        try:
            for _ in range(steps):
                for _, t in ps.items():
                    t.grad[...] = rng.standard_normal(t.data.shape) * scale
                if spoil:
                    ps[spoil].grad[-1] = np.nan
                with T.helper(pool) if pool else contextlib.nullcontext():
                    norms.append(opt.step())
        except NumericError as e:
            norms.append(e)
        return norms, [ps.values.copy(), opt.m.copy(), opt.v.copy(), opt.grad.copy(), opt.step_count]

    @staticmethod
    def same(a, b):
        assert [str(x) for x in a[0]] == [str(x) for x in b[0]]
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a[1], b[1]))

    @pytest.fixture
    def pool(self, monkeypatch):
        """The helper, and the name of every task it is given."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.names = []
            real = pool.submit
            monkeypatch.setattr(pool, "submit", lambda fn, *a: pool.names.append(fn.__name__) or real(fn, *a))
            yield pool

    @pytest.mark.parametrize("scale", [0.01, 10.0], ids=["unclipped", "clipped"])
    def test_bitwise_the_one_thread_step(self, pool, scale):
        want = self.run(scale=scale)
        assert (want[0][-1] > 2.0) == (scale > 1)
        self.same(self.run(pool, scale=scale), want)
        assert len(pool.names) == 2 * 3  # the norms' half and the update's, each step

    @pytest.mark.parametrize("spoil", ["a", "d"], ids=["caller-half", "helper-half"])
    def test_a_nan_gradient_aborts_before_any_change(self, pool, spoil):
        want = self.run(steps=2, spoil=spoil)
        got = self.run(pool, steps=2, spoil=spoil)
        assert isinstance(got[0][0], NumericError) and got[1][4] == 0
        assert not got[1][1].any() and not got[1][2].any()
        self.same(got, want)

    @pytest.mark.parametrize("helped", [False, True], ids=["one-thread", "helper"])
    def test_the_norm_and_the_update_walk_the_same_halves(self, pool, monkeypatch, helped):
        seen = {"_square_sums": set(), "_update": set()}
        rooms = {}  # the scratch of each thread that ran a half
        for name, halves in seen.items():
            def record(opt, chunks, wide, *rest, real=getattr(Adam, name), halves=halves):
                halves.add(tuple((c.start, c.stop) for c in chunks))
                rooms.setdefault(threading.get_ident(), set()).add(id(wide))
                return real(opt, chunks, wide, *rest)

            monkeypatch.setattr(Adam, name, record)
        self.run(pool if helped else None, steps=2)
        assert len(seen["_update"]) == 2 and seen["_square_sums"] == seen["_update"]
        # one room a thread, kept from step to step; no two threads share one
        assert all(len(ids) == 1 for ids in rooms.values()) and len(set().union(*rooms.values())) == len(rooms)
        assert len(rooms) == 1 or helped

    def test_a_busy_helper_leaves_both_halves_here(self, pool):
        busy = threading.Event()
        release = threading.Timer(30, busy.set)  # a step that waits for the helper fails, not hangs
        release.start()
        pool.submit(busy.wait)
        try:
            got = self.run(pool)
            assert not busy.is_set()
        finally:
            busy.set()
            release.cancel()
        self.same(got, self.run())

    def test_an_error_in_the_helpers_half_reaches_the_caller(self, pool, monkeypatch):
        real = Adam._update

        def update(opt, chunks, wide, scale):
            if threading.current_thread() is not threading.main_thread():
                raise DataError("the helper's half failed")
            time.sleep(0.05)  # so the helper starts its half
            return real(opt, chunks, wide, scale)

        monkeypatch.setattr(Adam, "_update", update)
        with pytest.raises(DataError, match="helper's half"):
            self.run(pool)
