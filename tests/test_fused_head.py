"""The output head and its loss as two nodes, ``T.head`` and
``T.cross_entropy``, against the chain they replaced: ``affine`` then
``log_softmax``, then ``pick`` and one ``dot`` on the mixed soft target,
each masked, summed and negated. Loss values, logged terms and every
gradient are bitwise those of the chain, and so they stay when the output
projection's gradients run on the step's helper thread."""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dialdistill import losses, tensor as T
from dialdistill.model import DecodeOutput


def chain_log_softmax(x):
    """The ``log_softmax`` primitive that ``T.head`` took in, as it was."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    y -= np.log(np.exp(y).sum(axis=-1, keepdims=True))

    def bw(g):
        gx = np.exp(y)
        gx *= -g.sum(axis=-1, keepdims=True)
        gx += g
        return (gx,)

    return T._make(y, (x,), bw, "log_softmax")


def chain_dot(a, b):
    """The ``dot`` primitive that ``T.cross_entropy`` took in, as it was."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    data = np.einsum("...k,...k->...", a.data, b.data)

    def bw(g):
        g = g[..., None]
        return g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None

    return T._make(np.asarray(data), (a, b), bw, "dot")


def chain_total_loss(log_probs, hiddens, targets, mask, teacher_probs, teacher_hiddens, lambda1, lm_probs,
                     lambda_lm, alpha=0.01):
    """``losses.total_loss`` as it was over the chain."""
    count = float(mask.sum())
    inv = 1.0 / count

    def soft_sum(q, lp):
        return T.mul(T.tsum(T.mul(chain_dot(lp, q), mask)), -1.0)

    nll_mean = T.mul(T.mul(T.tsum(T.mul(T.pick(log_probs, targets), mask)), -1.0), inv)
    loss, values, mixed = nll_mean, {}, None
    if lambda1 > 0.0 and teacher_probs is not None:
        iri_mean = T.mul(losses.representation_imitation_sum(teacher_hiddens, hiddens, alpha, mask), inv)
        loss = T.add(loss, T.mul(iri_mean, lambda1))
        values["il_representation"] = float(iri_mean.data)
        values["il_prediction"] = float(soft_sum(teacher_probs, T.as_tensor(log_probs.data)).data) * inv
        mixed = lambda1 * teacher_probs
    if lm_probs is not None and lambda_lm > 0.0:
        values["lm_prediction"] = float(soft_sum(lm_probs, T.as_tensor(log_probs.data)).data) * inv
        mixed = lambda_lm * lm_probs if mixed is None else mixed + lambda_lm * lm_probs
    if mixed is not None:
        loss = T.add(loss, T.mul(soft_sum(mixed, log_probs), inv))
    values.update(nll=float(nll_mean.data), total=float(loss.data))
    return loss, values


# (batch, response positions, width, vocabulary): the desk head runs one
# product per sequence, the paper head one over all rows
SHAPES = {"desk": (16, 7, 64, 30), "paper": (32, 16, 256, 5000)}


def step_inputs(shape, seed=0):
    batch, t, d, v = shape
    rng = np.random.default_rng(seed)

    def probs():
        z = rng.standard_normal((batch, t, v)).astype(np.float32) * 2
        z = np.exp(z - z.max(-1, keepdims=True))
        return z / z.sum(-1, keepdims=True)

    lengths = rng.integers(1, t + 1, size=batch)
    lengths[0] = t
    return dict(
        x=rng.standard_normal((batch, t, d)).astype(np.float32),
        w=(rng.standard_normal((d, v)) * 0.05).astype(np.float32),
        b=(rng.standard_normal(v) * 0.1).astype(np.float32),
        h=rng.standard_normal((batch, t, d)).astype(np.float32),
        targets=rng.integers(0, v, size=(batch, t)),
        mask=(np.arange(t)[None, :] < lengths[:, None]).astype(np.float32),  # pads at row ends
        teacher_probs=probs(), lm_probs=probs(),
        teacher_hiddens=[rng.standard_normal((batch, t, d)).astype(np.float32)],
    )


TERMS = {
    "both": dict(lambda1=2.0, lambda_lm=0.5),
    "teacher": dict(lambda1=2.0, lambda_lm=0.5, lm_probs=None),
    "lm": dict(lambda1=0.0, lambda_lm=0.5),
    "nll": dict(lambda1=0.0, lambda_lm=0.5, lm_probs=None),
}


def step(inputs, fused, terms, pool=None):
    """One loss and backward; the loss's bytes, its logged terms and the
    gradients of the head's input, weight and bias and of the hidden state."""
    with T.precision("single"):
        x, w, b, h = (T.Tensor(inputs[k], requires_grad=True) for k in "xwbh")
        kwargs = dict(teacher_probs=inputs["teacher_probs"], teacher_hiddens=inputs["teacher_hiddens"],
                      lm_probs=inputs["lm_probs"])
        kwargs.update(terms)
        if fused:
            out = DecodeOutput(log_probs=T.head(x, w, b), hidden_states=[h])
            loss, breakdown = losses.total_loss(out, [h], inputs["targets"], inputs["mask"], **kwargs)
            values = {k: v for k, v in vars(breakdown).items() if k != "token_count" and v is not None}
            values = {k: v for k, v in values.items() if v != 0.0 or k in ("nll", "total")}
        else:
            log_probs = chain_log_softmax(T.affine(x, w, b))
            loss, values = chain_total_loss(log_probs, [h], inputs["targets"], inputs["mask"], **kwargs)
        if pool is None:
            T.backward(loss)
        else:
            with T.helper(pool):
                T.backward(loss)
        return loss.data.tobytes(), values, [None if t.grad is None else t.grad.tobytes() for t in (x, w, b, h)]


class TestEqualsTheChain:
    @pytest.mark.parametrize("terms", TERMS)
    @pytest.mark.parametrize("width", SHAPES)
    def test_value_terms_and_gradients_bitwise(self, width, terms):
        inputs = step_inputs(SHAPES[width])
        assert inputs["mask"].min() == 0.0  # some positions are pads
        want, got = step(inputs, False, TERMS[terms]), step(inputs, True, TERMS[terms])
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]

    def test_from_probabilities_as_from_the_output(self):
        # the gate's call: ``total_loss(out.probabilities, ...)`` reads the
        # same log-probabilities through ``T.log`` of their exp
        inputs = step_inputs(SHAPES["desk"], seed=1)
        with T.precision("single"):
            log_probs = T.head(inputs["x"], T.Tensor(inputs["w"], requires_grad=True), inputs["b"])
            out = DecodeOutput(log_probs=log_probs, hidden_states=[T.Tensor(inputs["h"])])
            args = (out.hidden_states, inputs["targets"], inputs["mask"])
            kwargs = dict(teacher_probs=inputs["teacher_probs"], teacher_hiddens=inputs["teacher_hiddens"],
                          lambda1=2.0, lm_probs=inputs["lm_probs"])
            a, b = losses.total_loss(out, *args, **kwargs), losses.total_loss(out.probabilities, *args, **kwargs)
        assert a[1] == b[1] and a[0].data.tobytes() == b[0].data.tobytes()
        for loss, _ in (a, b):
            nodes = T._topological_order(loss, grad_only=False)
            assert log_probs in nodes and not any(n._op in ("exp", "log") for n in nodes)


class TestOnTheHelper:
    """The step's helper computes the output projection's deferred weight and
    bias gradients while the backward goes on, bitwise."""

    @pytest.mark.parametrize("width", SHAPES)
    def test_deferred_head_gradients_equal_the_chain(self, monkeypatch, width):
        inputs = step_inputs(SHAPES[width], seed=2)
        want = step(inputs, False, TERMS["both"])
        handed = []
        run = T._LeafAdds._run

        def lagging(adds, item):
            handed.append(item[0].data.shape)
            time.sleep(0.01)  # the pass runs ahead of the helper
            return run(adds, item)

        monkeypatch.setattr(T._LeafAdds, "_run", lagging)
        with ThreadPoolExecutor(max_workers=1) as pool:
            got = step(inputs, True, TERMS["both"], pool)
        assert got == want
        assert inputs["w"].shape in handed
