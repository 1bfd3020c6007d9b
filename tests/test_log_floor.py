"""No log floor: the output head emits log-probabilities, every consumer
reads them, no module clamps a value before a log, and a probability that
underflows to exactly zero still scores finitely, as its log-probability."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dialdistill import decoding, tensor as T
from dialdistill.analysis import mean_teacher_student_kl
from dialdistill.corpus import EncodedExample, batchify, make_batch
from dialdistill.decoding import DecodeConfig, decode
from dialdistill.losses import total_loss
from dialdistill.metrics import corpus_ppl
from dialdistill.model import ModelConfig, TransformerModel
from dialdistill.training import forward_batch

PACKAGE = Path(T.__file__).parent
ZERO_TOKEN = 6  # its output bias makes its float32 probability exactly 0
ZERO_BIAS = -150.0  # float32 exp underflows to 0 below about -104


def floors(source: str) -> list:
    """The log-floor constants a module assigns and the logs of a clamped
    value (``np.log(np.maximum(...))`` and the like) it takes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name) and "FLOOR" in t.id.upper()]
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.log", "np.log2", "np.log10")
              and node.args and isinstance(node.args[0], ast.Call)
              and ast.unparse(node.args[0].func) in ("np.maximum", "np.clip")):
            found.append(ast.unparse(node))
    return found


class TestNoFloor:
    def test_no_module_defines_a_floor_or_clamps_before_a_log(self):
        offenders = {path.name: floors(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
        assert {name: found for name, found in offenders.items() if found} == {}

    def test_the_scan_finds_a_floor(self):
        found = floors("LOG_FLOOR = 1e-12\ny = np.log(np.maximum(a, LOG_FLOOR))\nz = np.log2(np.clip(b, 1e-9, 1))\n")
        assert found == ["LOG_FLOOR", "np.log(np.maximum(a, LOG_FLOOR))", "np.log2(np.clip(b, 1e-09, 1))"]

    def test_no_floor_or_softmax_in_the_tensor_module(self):
        assert not any(hasattr(T, name) for name in ("LOG_FLOOR", "floored_log", "softmax"))
        assert "softmax" not in T.PRIMITIVES and "log_softmax" in T.PRIMITIVES


def model(variant, seed):
    config = ModelConfig(
        vocab_size=12, model_dim=8, num_blocks=1, num_heads=2, ffn_dim=16,
        dropout_rate=0.0, max_sequence_length=32, variant=variant,
    )
    built = TransformerModel.build(config, seed)
    built.params["out_proj.b"].data[ZERO_TOKEN] = ZERO_BIAS
    return built


def examples(count=5, seed=8):
    rng = np.random.default_rng(seed)
    return [
        EncodedExample(
            history=[int(t) for t in rng.integers(4, 12, size=4)],
            response=[ZERO_TOKEN] + [int(t) for t in rng.integers(4, 12, size=3)],
            future=[int(t) for t in rng.integers(4, 12, size=4)],
        )
        for _ in range(count)
    ]


def head(m, batch):
    """The head's log-probabilities on ``batch``, and its probabilities."""
    with m.params.inference():
        out = forward_batch(m, batch)
        return out.log_probs.data, out.probabilities.data


class TestUnderflowedProbability:
    """Each consumer, on a model whose ZERO_TOKEN has float32 probability
    exactly 0, returns a finite value equal to one from the head's log-probs."""

    def batch(self):
        return batchify(examples(), 32, seed=None)[0]

    def test_the_probability_is_zero_and_its_log_finite(self):
        log_probs, probs = head(model("conventional", 2), self.batch())
        assert np.all(probs[..., ZERO_TOKEN] == 0.0)
        assert np.all(np.isfinite(log_probs)) and np.all(log_probs[..., ZERO_TOKEN] < -140.0)

    def test_decoding_scores_are_sums_of_the_head_log_probs(self, monkeypatch):
        m, history = model("conventional", 1), examples()[0].history
        heads, steps = [], []
        step_logprobs, model_decode = decoding._step_logprobs, m.decode

        def recording_decode(*args, **kwargs):
            out = model_decode(*args, **kwargs)
            heads.append(out.log_probs.data[:, -1, :].copy())
            return out

        def recording_step(*args):
            steps.append(step_logprobs(*args))
            return steps[-1]

        monkeypatch.setattr(m, "decode", recording_decode)
        monkeypatch.setattr(decoding, "_step_logprobs", recording_step)
        result = decode(m, history, DecodeConfig(max_length=4))
        score = 0.0
        for logp, head_logp, token in zip(steps, heads, result.token_ids):
            head_logp[:, [decoding.PAD_ID, decoding.BOS_ID]] = -np.inf
            assert np.array_equal(logp, head_logp)
            assert np.exp(logp[0, ZERO_TOKEN]) == 0.0 and np.isfinite(logp[0, ZERO_TOKEN])
            score += float(logp[0, token])
        assert len(steps) == len(result.token_ids) > 0
        assert np.isfinite(result.score) and result.score == score

    def test_corpus_ppl_equals_the_one_from_the_head_log_probs(self):
        m, batch = model("conventional", 2), self.batch()
        log_probs, _ = head(m, batch)
        picked = np.take_along_axis(log_probs, batch.response_target[..., None], axis=-1)[..., 0]
        mask = batch.target_mask.astype(np.float64)
        expected = np.mean(np.exp(-(picked * mask).sum(axis=1) / mask.sum(axis=1)))
        value = corpus_ppl(m, examples()).value
        assert np.isfinite(value) and value == pytest.approx(expected, rel=1e-12)

    def test_teacher_student_kl_equals_the_one_from_the_head_log_probs(self):
        teacher, student = model("scenario-based", 3), model("conventional", 4)
        batch = make_batch(examples(), include_future=True)
        log_q, q = head(teacher, batch)
        log_p, _ = head(student, batch)
        assert np.all(q[..., ZERO_TOKEN] == 0.0)
        mask = batch.target_mask.astype(np.float64)
        expected = float(((q * (log_q - log_p)).sum(axis=-1) * mask).sum() / mask.sum())
        value = mean_teacher_student_kl(teacher, student, examples())
        assert np.isfinite(value) and value == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# One soft-target term on the student's graph
# --------------------------------------------------------------------------

V = 20000


def paper_vocab_models():
    dims = dict(vocab_size=V, model_dim=8, num_blocks=1, num_heads=2, ffn_dim=16,
                dropout_rate=0.0, max_sequence_length=64)
    return [TransformerModel.build(ModelConfig(variant=v, **dims), seed)
            for seed, v in enumerate(("conventional", "scenario-based", "language-model"))]


def student_step_batch(rows=8):
    rng = np.random.default_rng(5)
    ids = lambda n: [int(t) for t in rng.integers(4, V, size=n)]  # noqa: E731
    return make_batch([EncodedExample(history=ids(12), response=ids(15), future=ids(12)) for _ in range(rows)],
                      include_future=True)


def targets(teacher, lm, batch):
    """The frozen teachers' probabilities and the teacher's hidden states."""
    with teacher.params.inference(), lm.params.inference():
        out = forward_batch(teacher, batch)
        lm_probs = forward_batch(lm, batch).probabilities.data
        return out.probabilities.data, [h.data for h in out.hidden_states], lm_probs


def student_loss(student, batch, t_probs, hiddens, lm_probs):
    out = forward_batch(student, batch, train=True, rng=np.random.default_rng(1))
    loss, breakdown = total_loss(out.probabilities, out.hidden_states, batch.response_target, batch.target_mask,
                                 teacher_probs=t_probs, teacher_hiddens=hiddens, lambda1=2.0, alpha=0.01,
                                 lm_probs=lm_probs, lambda_lm=0.5)
    return loss, breakdown


class TestOneSoftTargetTerm:
    def test_graph_holds_no_softmax_or_log_and_one_soft_target_node(self):
        student, teacher, lm = paper_vocab_models()
        batch = student_step_batch()
        loss, breakdown = student_loss(student, batch, *targets(teacher, lm, batch))
        full = (batch.size, batch.response_target.shape[1], V)
        nodes = T._topological_order(loss, grad_only=False)
        wide = sorted(n._op for n in nodes if n.data.shape == full)
        # the logits, their log-probabilities, and the one mixed soft target
        assert wide == ["affine", "leaf", "log_softmax"]
        assert sum(n._op == "dot" for n in nodes) == 1
        assert not any(n._op in ("log", "exp") for n in nodes)
        assert breakdown.il_prediction > 0.0 and breakdown.lm_prediction > 0.0

    def test_terms_share_one_node_so_the_graph_holds_no_array_per_term(self):
        # traced from the student's forward through the backward, with the
        # targets made before: a second teacher adds no (B, T, V) array
        student, teacher, lm = paper_vocab_models()
        batch = student_step_batch()
        t_probs, hiddens, lm_probs = targets(teacher, lm, batch)
        one_array = t_probs.nbytes
        held, peak = {}, {}
        for name, lm_targets in (("teacher", None), ("both", lm_probs)):
            tracemalloc.start()
            try:
                loss, _ = student_loss(student, batch, t_probs, hiddens, lm_targets)
                held[name] = tracemalloc.get_traced_memory()[0]
                T.backward(loss)
                del loss
                peak[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            student.params.zero_grads()
        # the logits, the log-probabilities and the mixed target; with a log
        # and a product per term, the graph held six such arrays and the step
        # peaked at ten
        assert held["both"] < 3.5 * one_array, held["both"] / one_array
        assert held["both"] - held["teacher"] < 0.25 * one_array, (held, one_array)
        assert peak["both"] < 6.5 * one_array, peak["both"] / one_array

    def test_matches_separate_terms_through_probabilities(self):
        # the one term equals the weighted sum of the per-term soft
        # cross-entropies computed the long way, from probabilities
        with T.precision("double"):
            student, teacher, lm = paper_vocab_models()
            batch = student_step_batch(rows=2)
            t_probs, hiddens, lm_probs = targets(teacher, lm, batch)
            _, b = student_loss(student, batch, t_probs, hiddens, lm_probs)
            with student.params.inference():
                p = forward_batch(student, batch).probabilities.data
            mask = batch.target_mask
            count = mask.sum()
            il = -float(((t_probs * np.log(p)).sum(-1) * mask).sum()) / count
            lm_term = -float(((lm_probs * np.log(p)).sum(-1) * mask).sum()) / count
        assert b.il_prediction == pytest.approx(il, rel=1e-9)
        assert b.lm_prediction == pytest.approx(lm_term, rel=1e-9)
        assert b.total == pytest.approx(b.nll + 2.0 * (il + b.il_representation) + 0.5 * lm_term, rel=1e-9)
