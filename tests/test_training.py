"""Trainer behavior: determinism, the lambda1=0 identity, frozen tensors,
hard transfer, and logging."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dialdistill import losses, optim, tensor as T
from dialdistill import training
from dialdistill.corpus import EncodedExample, batchify, encode_example, make_batch
from dialdistill.errors import ContractError, DataError, NumericError
from dialdistill.model import ModelConfig, TransformerModel, desk_config, paper_config
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary
from dialdistill.training import (
    TrainingConfig,
    forward_batch,
    hard_transfer_init,
    train_conventional,
    train_lm_teacher,
    train_student,
    train_teacher,
)


def small_config(variant):
    return ModelConfig(
        vocab_size=30,
        model_dim=16,
        num_blocks=1,
        num_heads=2,
        ffn_dim=32,
        dropout_rate=0.1,
        max_sequence_length=64,
        variant=variant,
    )


@pytest.fixture(scope="module")
def data():
    vocab = marker_vocabulary()
    examples = [encode_example(e, vocab) for e in future_marker_corpus(48, seed=0)]
    return examples[:40], examples[40:], vocab


def tcfg(**kw):
    base = dict(batch_size=8, seed=5, max_steps=20, val_every=10)
    base.update(kw)
    return TrainingConfig(**base)


class TestTrainingConfig:
    def test_rejects_negative_lm_weight_and_nonpositive_learning_rate(self):
        # a negative lambda_lm would switch the LM term off silently, and a
        # negative learning rate would make Adam climb the loss
        for bad in ({"lambda_lm": -0.5}, {"learning_rate": 0.0}, {"learning_rate": -1e-3}):
            with pytest.raises(ContractError):
                TrainingConfig(**bad)
        assert TrainingConfig(lambda_lm=0.0).lambda_lm == 0.0

    def test_defaults_and_validation(self):
        c = TrainingConfig()
        assert (c.learning_rate, c.grad_clip_norm, c.batch_size) == (0.001, 2.0, 128)
        assert (c.alpha, c.lambda1, c.lambda_lm) == (0.01, 2.0, 0.5)
        with pytest.raises(ContractError):
            TrainingConfig(alpha=-0.1)
        with pytest.raises(ContractError):
            TrainingConfig(lambda1=-1)
        with pytest.raises(ContractError):
            TrainingConfig(hard_transfer_scope="decoder")

    @pytest.mark.parametrize("name", ["learning_rate", "grad_clip_norm", "alpha", "lambda1", "lambda_lm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected_naming_the_field(self, name, value):
        # every comparison with NaN is false, so a NaN lambda1 used to pass
        # the range checks and switch the imitation terms off silently
        with pytest.raises(ContractError, match=name):
            TrainingConfig(**{name: value})

    def test_step_and_epoch_counts_must_be_positive(self):
        for bad in (dict(epochs=0), dict(max_steps=0), dict(max_steps=-3)):
            with pytest.raises(ContractError):
                TrainingConfig(**bad)
        assert TrainingConfig(epochs=1, max_steps=1).max_steps == 1

    def test_roundtrip(self):
        c = TrainingConfig(lambda1=3.0, seed=9)
        assert TrainingConfig(**c.to_dict()) == c


def test_desk_steps_record_every_primitive(data, monkeypatch):
    # a primitive that neither a teacher step nor a student step with both
    # teachers and dropout records has no caller; it must not come back. exp
    # and log serve the probability API (``DecodeOutput.probabilities`` and a
    # probability tensor given to the loss), which a step reads in log space
    train, _, vocab = data
    ops = set()
    backward = T.backward

    def recording_backward(loss):
        ops.update(n._op for n in T._topological_order(loss, grad_only=False) if n._parents)
        backward(loss)

    monkeypatch.setattr(T, "backward", recording_backward)
    one_step = tcfg(max_steps=1)
    teacher = train_teacher(train, [], desk_config(len(vocab), "scenario-based"), one_step).model
    lm = TransformerModel.build(desk_config(len(vocab), "language-model"), seed=1)
    train_student(train, [], teacher, desk_config(len(vocab)), one_step, lm_teacher=lm)
    assert ops == set(T.PRIMITIVES) - {"exp", "log"}


class TestTeacherTraining:
    def test_loss_decreases(self, data):
        train, val, _ = data
        res = train_teacher(train, val, small_config("scenario-based"), tcfg(max_steps=100))
        first = res.log[0]["nll"]
        last = np.mean([r["nll"] for r in res.log[-5:]])
        assert last < first - 0.5

    def test_determinism(self, data):
        train, val, _ = data
        runs = [
            train_teacher(train, val, small_config("scenario-based"), tcfg()).log
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_requires_scenario_variant(self, data):
        train, val, _ = data
        with pytest.raises(ContractError):
            train_teacher(train, val, small_config("conventional"), tcfg())

    def test_empty_corpus(self, data):
        _, val, _ = data
        with pytest.raises(DataError):
            train_teacher([], val, small_config("scenario-based"), tcfg())

    def test_best_checkpoint_is_minimum(self, data):
        train, val, _ = data
        res = train_teacher(train, val, small_config("scenario-based"), tcfg(max_steps=40))
        vals = [r["val_loss"] for r in res.log if "val_loss" in r]
        assert vals, "no validation happened"
        assert res.best_val_loss == min(vals)
        assert res.best_state is not None


class TestObjectiveIdentity:
    def test_lambda1_zero_equals_baseline(self, data):
        train, val, _ = data
        cfg = small_config("conventional")
        base = train_conventional(train, val, cfg, tcfg(max_steps=30))
        stu = train_student(train, val, None, cfg, tcfg(max_steps=30, lambda1=0.0))
        assert len(base.log) == len(stu.log) == 30
        for a, b in zip(base.log, stu.log):
            assert a["total"] == b["total"], f"step {a['step']} diverged"
            assert a["nll"] == b["nll"]
        for n, t in base.model.params.items():
            assert np.array_equal(t.data, stu.model.params[n].data), n


@pytest.fixture(scope="module")
def teacher(data):
    train, val, _ = data
    res = train_teacher(train, val, small_config("scenario-based"), tcfg(max_steps=40))
    return res.model


class TestStudentTraining:
    def test_imitation_terms_logged(self, data, teacher):
        train, val, _ = data
        res = train_student(
            train, val, teacher, small_config("conventional"), tcfg(max_steps=10)
        )
        rec = res.log[0]
        assert set(rec) >= {
            "step", "nll", "il_prediction", "il_representation", "total", "grad_norm", "clipped",
        }
        assert rec["il_prediction"] > 0.0
        # logged total decomposes as nll + lambda1 * (fpi + iri)
        assert abs(
            rec["total"] - (rec["nll"] + 2.0 * (rec["il_prediction"] + rec["il_representation"]))
        ) < 1e-6

    def test_teacher_bitwise_frozen(self, data, teacher):
        train, val, _ = data
        digest_before = _digest(teacher)
        train_student(train, val, teacher, small_config("conventional"), tcfg(max_steps=15))
        assert _digest(teacher) == digest_before

    def test_config_mismatch_rejected(self, data, teacher):
        train, val, _ = data
        wider = ModelConfig(
            vocab_size=30, model_dim=32, num_blocks=1, num_heads=2, ffn_dim=32,
            max_sequence_length=64, variant="conventional",
        )
        with pytest.raises(ContractError):
            train_student(train, val, teacher, wider, tcfg())

    def test_lambda1_without_teacher_rejected(self, data):
        train, val, _ = data
        with pytest.raises(ContractError):
            train_student(train, val, None, small_config("conventional"), tcfg(lambda1=2.0))

    def test_lm_teacher_term(self, data, teacher):
        train, val, _ = data
        lm = train_lm_teacher(
            train, val, small_config("language-model"), tcfg(max_steps=20)
        ).model
        res = train_student(
            train, val, teacher, small_config("conventional"),
            tcfg(max_steps=5), lm_teacher=lm,
        )
        assert len(res.log) == 5
        for rec in res.log:
            assert "lm_prediction" in rec and rec["lm_prediction"] > 0.0
            # both soft-target terms are one node on the graph and each term is
            # logged from the same log-probabilities off it, so the total is
            # their weighted sum to float32 rounding, not bitwise
            expected = rec["nll"] + 2.0 * (rec["il_prediction"] + rec["il_representation"])
            assert rec["total"] == pytest.approx(expected + 0.5 * rec["lm_prediction"], rel=1e-6), rec["step"]


@pytest.fixture(scope="module")
def lm_teacher(data):
    train, val, _ = data
    return train_lm_teacher(train, val, small_config("language-model"), tcfg(max_steps=20)).model


def _step_batches(examples, cfg: TrainingConfig) -> list:
    """The batch of every step of a ``max_steps`` run, drawn as the trainer draws them."""
    out, epoch = [], 0
    while len(out) < cfg.max_steps:
        out += batchify(examples, cfg.batch_size, seed=[cfg.seed, 7, epoch])
        epoch += 1
    return out[: cfg.max_steps]


def _spy_targets(monkeypatch) -> list:
    """Record the (teacher probabilities, teacher hiddens, LM probabilities)
    that every student step hands to ``total_loss``."""
    seen = []
    real = training.total_loss

    def spy(*args, **kw):
        seen.append((kw["teacher_probs"], kw["teacher_hiddens"], kw["lm_probs"]))
        return real(*args, **kw)

    monkeypatch.setattr(training, "total_loss", spy)
    return seen


def _count_forwards(monkeypatch, **models) -> dict:
    calls = dict.fromkeys(models, 0)
    for name, model in models.items():
        def counted(*args, _name=name, _real=model.forward, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(model, "forward", counted)
    return calls


def _fresh(model, batch):
    with model.params.inference():
        return forward_batch(model, batch)


def _variable_length_examples(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)

    def ids(lo, hi):
        return [int(t) for t in rng.integers(4, 30, size=int(rng.integers(lo, hi + 1)))]

    return [EncodedExample(history=ids(3, 12), response=ids(2, 9), future=ids(3, 12)) for _ in range(n)]


class TestTeacherTargetCache:
    """The frozen teachers run once per example; later epochs rebuild
    their targets from the rows the first epoch kept."""

    def test_every_step_sees_a_fresh_forwards_targets_bitwise(self, data, teacher, lm_teacher, monkeypatch):
        train, _, _ = data
        seen = _spy_targets(monkeypatch)
        calls = _count_forwards(monkeypatch, teacher=teacher, lm=lm_teacher)
        cfg = tcfg(max_steps=15)  # 5 batches of 8 per epoch: three epochs
        res = train_student(train, [], teacher, small_config("conventional"), cfg, lm_teacher=lm_teacher)
        assert calls == {"teacher": 5, "lm": 5}  # epoch 0 only
        # 40 examples of 6 rows, width 16: the teacher's one block and the LM's last
        assert (res.cached_examples, res.cache_bytes) == (40, 40 * 6 * 16 * 4 * 2)
        assert len(seen) == 15
        for batch, (t_probs, t_hidden, lm_probs) in zip(_step_batches(train, cfg), seen):
            mask = batch.target_mask > 0
            fresh, fresh_lm = _fresh(teacher, batch), _fresh(lm_teacher, batch)
            assert np.array_equal(t_probs[mask], fresh.probabilities.data[mask])
            assert len(t_hidden) == len(fresh.hidden_states)
            for got, want in zip(t_hidden, fresh.hidden_states):
                assert np.array_equal(got[mask], want.data[mask])
            assert np.array_equal(lm_probs[mask], fresh_lm.probabilities.data[mask])

    def test_variable_lengths_reuse_the_first_epochs_rows(self, teacher, lm_teacher, monkeypatch):
        train = _variable_length_examples(24, seed=3)
        seen = _spy_targets(monkeypatch)
        cfg = tcfg(max_steps=9)  # 3 batches of 8 per epoch: three epochs
        train_student(train, [], teacher, small_config("conventional"), cfg, lm_teacher=lm_teacher)
        first, widths = {}, {}
        for batch, (t_probs, t_hidden, lm_probs) in zip(_step_batches(train, cfg), seen):
            fresh, fresh_lm = _fresh(teacher, batch), _fresh(lm_teacher, batch)
            for row, i in enumerate(batch.index):
                n = int(batch.target_mask[row].sum())
                rows = [h[row, :n] for h in t_hidden]
                if i not in first:
                    first[i] = rows
                for got, kept in zip(rows, first[i]):
                    assert np.array_equal(got, kept)
                widths.setdefault(i, set()).add(batch.target_mask.shape[1])
                pairs = [(t_probs, fresh.probabilities), (lm_probs, fresh_lm.probabilities)]
                pairs += list(zip(t_hidden, fresh.hidden_states))
                for got, want in pairs:
                    np.testing.assert_allclose(got[row, :n], want.data[row, :n], rtol=0, atol=1e-5)
        assert len(first) == 24
        assert any(len(w) > 1 for w in widths.values())  # some rows were rebuilt under new padding

    def test_over_budget_every_step_runs_the_teachers_with_equal_results(
        self, data, teacher, lm_teacher, monkeypatch
    ):
        train, val, _ = data
        cfg = tcfg(max_steps=15)
        kept = train_student(train, val, teacher, small_config("conventional"), cfg, lm_teacher=lm_teacher)
        monkeypatch.setattr(training, "TARGET_CACHE_BYTES", kept.cache_bytes - 1)
        calls = _count_forwards(monkeypatch, teacher=teacher, lm=lm_teacher)
        plain = train_student(train, val, teacher, small_config("conventional"), cfg, lm_teacher=lm_teacher)
        assert calls == {"teacher": 15, "lm": 15}
        assert (plain.cached_examples, plain.cache_bytes) == (0, 0)
        assert plain.log == kept.log
        assert np.array_equal(plain.model.params.values, kept.model.params.values)
        assert np.array_equal(plain.best_state, kept.best_state)

    def test_cache_bytes_at_paper_width(self, monkeypatch):
        vocab = 40
        rng = np.random.default_rng(0)

        def ids(n):
            return [int(t) for t in rng.integers(4, vocab, size=n)]

        train = [EncodedExample(history=ids(60), response=ids(15), future=ids(60)) for _ in range(8)]
        teacher = TransformerModel.build(paper_config(vocab, "scenario-based"), 1)
        lm = TransformerModel.build(paper_config(vocab, "language-model"), 2)
        allocated = []
        real_init = training._TargetCache.__init__

        def traced_init(self, *args):
            tracemalloc.start()
            try:
                real_init(self, *args)
                allocated.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(training._TargetCache, "__init__", traced_init)
        seen = _spy_targets(monkeypatch)
        cfg = TrainingConfig(batch_size=4, max_steps=3, seed=0)
        res = train_student(train, [], teacher, paper_config(vocab), cfg, lm_teacher=lm)
        # 8 examples of 16 rows, width 256, float32: two teacher blocks and the LM's last
        expected = 8 * 16 * 256 * 4 * (2 + 1)
        assert (res.cached_examples, res.cache_bytes) == (8, expected)
        assert expected <= sum(allocated) <= expected + 4096
        # the third step's targets are rebuilt from the kept rows of both blocks
        batch, (t_probs, t_hidden, lm_probs) = _step_batches(train, cfg)[2], seen[2]
        fresh = _fresh(teacher, batch)
        assert np.array_equal(t_probs, fresh.probabilities.data)
        assert all(np.array_equal(a, b.data) for a, b in zip(t_hidden, fresh.hidden_states, strict=True))
        assert np.array_equal(lm_probs, _fresh(lm, batch).probabilities.data)


def _submitted(monkeypatch) -> list:
    """The qualified name of every task the run's worker is given."""
    names = []
    real = training.ThreadPoolExecutor.submit

    def submit(pool, fn, *args, **kwargs):
        names.append(fn.__qualname__)
        return real(pool, fn, *args, **kwargs)

    monkeypatch.setattr(training.ThreadPoolExecutor, "submit", submit)
    return names


TARGETS = "_train_loop.<locals>.targets"


class TestHelperDecision:
    """A run gets a helper thread when an FFN's product over its longest
    read input exceeds ``HELPER_GEMM``, decided once; else it starts no
    thread. The vocabulary never decides."""

    def test_desk_shape_gets_no_helper(self):
        vocab = marker_vocabulary()
        batch = batchify([encode_example(e, vocab) for e in future_marker_corpus(64, seed=0)], 16)[0]
        for variant in ("scenario-based", "language-model", "conventional"):
            # the marker corpus's 30 words, and a real corpus's default 20000
            for size in (len(vocab), 20000):
                assert not training._gets_helper(desk_config(size, variant), batch)

    def test_paper_width_gets_a_helper(self):
        # 60/15/60-token history, response and future
        rng = np.random.default_rng(0)
        examples = [EncodedExample(*(rng.integers(4, 5000, n).tolist() for n in (60, 15, 60))) for _ in range(32)]
        batch = batchify(examples, 32)[0]
        for variant in ("scenario-based", "language-model", "conventional"):
            assert training._gets_helper(paper_config(5000, variant), batch)

    @pytest.mark.parametrize("variant, tokens", [("scenario-based", 18), ("conventional", 10), ("language-model", 8)])
    def test_the_longest_read_input_decides(self, monkeypatch, variant, tokens):
        # two rows of 5 history, 3 + 1 response and 9 future tokens at width
        # 10 and FFN 6: the teacher's longest input is the future's 18 tokens,
        # the baseline's the history's 10, and the LM's the response's 8
        batch = make_batch([EncodedExample(history=[4] * 5, response=[4] * 3, future=[4] * 9)] * 2)
        config = ModelConfig(vocab_size=10**6, model_dim=10, ffn_dim=6, variant=variant)
        for gate, gets in ((tokens * 60 - 1, True), (tokens * 60, False)):
            monkeypatch.setattr(training, "HELPER_GEMM", gate)
            assert training._gets_helper(config, batch) == gets

    def test_a_desk_run_starts_no_thread(self, data, teacher, lm_teacher, monkeypatch):
        train, val, _ = data
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        submitted = _submitted(monkeypatch)
        train_teacher(train, val, small_config("scenario-based"), tcfg(max_steps=3, val_every=2))
        train_student(train, val, teacher, small_config("conventional"), tcfg(max_steps=3, val_every=2),
                      lm_teacher=lm_teacher)
        assert started == [] and submitted == []


class TestTargetWorker:
    """One worker thread computes the next step's frozen-teacher targets
    while the student's step runs, when the run has a helper; the size rule
    is lowered so that a desk run has one."""

    @pytest.fixture(autouse=True)
    def large(self, monkeypatch):
        monkeypatch.setattr(training, "HELPER_GEMM", 0)

    @pytest.fixture
    def started(self, monkeypatch):
        threads = []
        start = threading.Thread.start

        def counted(thread):
            threads.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return threads

    def test_one_thread_started_and_joined(self, data, teacher, lm_teacher, started):
        train, val, _ = data
        train_student(train, val, teacher, small_config("conventional"), tcfg(max_steps=7), lm_teacher=lm_teacher)
        assert len(started) == 1 and not started[0].is_alive()

    def test_no_targets_on_the_worker_without_frozen_teachers(self, data, monkeypatch):
        train, val, _ = data
        submitted = _submitted(monkeypatch)
        train_student(train, val, None, small_config("conventional"), tcfg(max_steps=3, lambda1=0.0))
        train_conventional(train, val, small_config("conventional"), tcfg(max_steps=3))
        assert submitted and TARGETS not in submitted  # the helper's other work goes on

    def test_no_thread_outlives_a_poisoned_teacher(self, data, started):
        train, _, _ = data
        poisoned = TransformerModel.build(small_config("scenario-based"), 4)
        poisoned.params["dec.0.ln_self.gain"].data[0] = np.nan
        with pytest.raises(NumericError, match="primitive 'layer_norm'"):
            train_student(train, [], poisoned, small_config("conventional"), tcfg(max_steps=7))
        assert len(started) == 1 and not started[0].is_alive()

    def test_no_thread_outlives_a_failed_student_step(self, data, teacher, started, monkeypatch):
        # the second step fails while the worker computes the third's targets
        train, _, _ = data
        real, calls = training.total_loss, []

        def failing(*args, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise DataError("step 2")
            return real(*args, **kw)

        monkeypatch.setattr(training, "total_loss", failing)
        with pytest.raises(DataError, match="step 2"):
            train_student(train, [], teacher, small_config("conventional"), tcfg(max_steps=7))
        assert len(started) == 1 and not started[0].is_alive()

    def test_worker_error_raised_at_its_step(self, data, teacher, monkeypatch):
        train, _, _ = data
        seen = _spy_targets(monkeypatch)
        real, calls = training._TargetCache.outputs, []

        def failing(cache, batch):
            calls.append(1)
            if len(calls) == 3:
                raise DataError("targets of step 3")
            return real(cache, batch)

        monkeypatch.setattr(training._TargetCache, "outputs", failing)
        with pytest.raises(DataError, match="targets of step 3"):
            train_student(train, [], teacher, small_config("conventional"), tcfg(max_steps=7))
        assert len(seen) == 2  # steps 1 and 2 ran; step 3 never reached its loss

    @pytest.mark.parametrize("steps", [1, 3])
    def test_no_targets_past_the_last_step(self, data, teacher, lm_teacher, monkeypatch, steps):
        train, _, _ = data
        calls = _count_forwards(monkeypatch, teacher=teacher, lm=lm_teacher)
        train_student(train, [], teacher, small_config("conventional"), tcfg(max_steps=steps),
                      lm_teacher=lm_teacher)
        assert calls == {"teacher": steps, "lm": steps}

    def test_no_targets_past_the_last_epoch(self, data, teacher, monkeypatch):
        train, _, _ = data
        outputs = []
        real = training._TargetCache.outputs
        monkeypatch.setattr(training._TargetCache, "outputs", lambda cache, batch: outputs.append(1) or real(cache, batch))
        cfg = TrainingConfig(batch_size=8, seed=5, epochs=2, val_every=100)
        res = train_student(train, [], teacher, small_config("conventional"), cfg)
        assert res.steps == len(outputs) == 10  # two epochs of 5 batches


def _optimizers(monkeypatch) -> list:
    """Every ``Adam`` the trainers build while the patch holds."""
    built, real = [], training.Adam
    monkeypatch.setattr(training, "Adam", lambda *a, **kw: built.append(real(*a, **kw)) or built[-1])
    return built


class TestForkedEncoders:
    """A teacher step with a helper encodes the history here and the future
    on the run's worker, forward and backward; the size rule is lowered so
    that a small teacher has a helper."""

    # the two hand-offs of a forked step: the future's encoder forward, then its backward
    FORWARD, BACKWARD = "TransformerModel._encode_both.<locals>.<lambda>", "backward.<locals>.<lambda>"

    @pytest.fixture
    def submitted(self, monkeypatch):
        return _submitted(monkeypatch)

    @classmethod
    def forks(cls, submitted) -> list:
        """The fork's hand-offs among the worker's tasks."""
        return [name for name in submitted if name in (cls.FORWARD, cls.BACKWARD)]

    @pytest.fixture
    def started(self, monkeypatch):
        threads = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: threads.append(thread) or start(thread))
        return threads

    @staticmethod
    def _run(data, monkeypatch, gate):
        train, val, _ = data
        monkeypatch.setattr(training, "HELPER_GEMM", gate)
        optimizers = _optimizers(monkeypatch)
        res = train_teacher(train, val, small_config("scenario-based"), tcfg(max_steps=4, val_every=2))
        opt = optimizers[-1]
        return res, [res.model.params.values.copy(), opt.m.copy(), opt.v.copy()]

    def test_bitwise_equal_to_the_encoders_in_turn(self, data, monkeypatch, submitted):
        assert small_config("scenario-based").dropout_rate > 0
        sequential, arrays = self._run(data, monkeypatch, 10**18)
        assert submitted == []
        forked, forked_arrays = self._run(data, monkeypatch, 0)
        assert self.forks(submitted) == [self.FORWARD, self.BACKWARD] * 4
        assert all(np.array_equal(a, b) for a, b in zip(arrays, forked_arrays))
        assert forked.log == sequential.log and len(forked.log) == 4

    def test_a_nan_in_a_forked_encoder_names_its_primitive(self, data, monkeypatch, started):
        train, _, _ = data
        monkeypatch.setattr(training, "HELPER_GEMM", 0)
        model = TransformerModel.build(small_config("scenario-based"), 4)
        model.params["enc.0.ln_attn.gain"].data[0] = np.nan
        with pytest.raises(NumericError, match="primitive 'layer_norm'"):
            training._train_loop(model, train, [], tcfg(max_steps=3))
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("where", ["forward", "backward"])
    def test_an_error_on_the_helper_reaches_the_caller(self, data, monkeypatch, started, where):
        train, _, _ = data
        monkeypatch.setattr(training, "HELPER_GEMM", 0)

        def on_helper():
            return threading.current_thread() is not threading.main_thread()

        if where == "forward":
            real = TransformerModel.encode

            def encode(model, token_ids, train=False, rng=None):
                if on_helper():
                    raise DataError("future encoder forward")
                return real(model, token_ids, train, rng)

            monkeypatch.setattr(TransformerModel, "encode", encode)
        else:
            real = T._propagate

            def propagate(nodes, adds):
                if on_helper():
                    raise DataError("future encoder backward")
                time.sleep(0.02)  # so the helper starts its branch
                return real(nodes, adds)

            monkeypatch.setattr(T, "_propagate", propagate)
        with pytest.raises(DataError, match=f"future encoder {where}"):
            train_teacher(train, [], small_config("scenario-based"), tcfg(max_steps=3))
        assert len(started) == 1 and not started[0].is_alive()

    def test_graph_free_passes_never_submit(self, data, teacher, monkeypatch, submitted):
        # validation and the frozen teacher's targets record no graph, so
        # they encode in turn even with a helper; of the passes, the worker
        # computes only the targets of a student run
        train, val, _ = data
        monkeypatch.setattr(training, "HELPER_GEMM", 0)
        forks = []
        real = T.fork
        monkeypatch.setattr(T, "fork", lambda *a: forks.append(T._recording.grad) or real(*a))
        train_teacher(train, val, small_config("scenario-based"), tcfg(max_steps=2, val_every=1))
        assert self.forks(submitted) == [self.FORWARD, self.BACKWARD] * 2 and TARGETS not in submitted
        assert forks == [True, False, True, False]  # each step, then its validation
        submitted.clear()
        forks.clear()
        train_student(train, val, teacher, small_config("conventional"), tcfg(max_steps=2, val_every=1))
        assert self.forks(submitted) == [] and submitted.count(TARGETS) == 2 and forks == [False] * 2


class TestHelperWork:
    """A step with a helper computes its parameter gradients and half of
    Adam's work on the run's worker; the size rule is lowered so that a
    desk-size run has a helper. Every run is bitwise the run with no helper
    at all."""

    @pytest.fixture(autouse=True)
    def lowered(self, monkeypatch):
        monkeypatch.setattr(training, "HELPER_GEMM", 0)
        monkeypatch.setattr(optim, "CHUNK", 256)

    @pytest.fixture
    def started(self, monkeypatch):
        threads = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: threads.append(thread) or start(thread))
        return threads

    RUNS = {
        "teacher": lambda data, teacher, lm: train_teacher(
            data[0], data[1], small_config("scenario-based"), tcfg(max_steps=4, val_every=2)),
        "lm": lambda data, teacher, lm: train_lm_teacher(
            data[0], data[1], small_config("language-model"), tcfg(max_steps=4, val_every=2)),
        "student": lambda data, teacher, lm: train_student(
            data[0], data[1], teacher, small_config("conventional"), tcfg(max_steps=4, val_every=2), lm_teacher=lm),
        "encoder-scope": lambda data, teacher, lm: train_student(
            data[0], data[1], teacher, small_config("conventional"),
            tcfg(max_steps=4, val_every=2, hard_transfer_scope="encoder")),
    }

    @staticmethod
    def _state(monkeypatch, run):
        optimizers = _optimizers(monkeypatch)
        res = run()
        return res.log, [res.model.params.values.copy(), optimizers[-1].m.copy(), optimizers[-1].v.copy()]

    @pytest.mark.parametrize("kind", list(RUNS))
    def test_bitwise_equal_to_a_run_without_a_helper(self, data, teacher, lm_teacher, monkeypatch, kind):
        run = functools.partial(self.RUNS[kind], data, teacher, lm_teacher)
        with monkeypatch.context() as m:
            m.setattr(training, "HELPER_GEMM", 10**18)
            names = _submitted(m)
            want_log, want = self._state(m, run)
        assert names == []
        names = _submitted(monkeypatch)
        log, got = self._state(monkeypatch, run)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        assert log == want_log and len(log) == 4 and "val_loss" in log[1]
        # deferred gradients, and Adam's two halves per step
        assert "_LeafAdds._run" in names and names.count("Adam._on_both.<locals>.<lambda>") == 2 * 4

    @pytest.mark.parametrize("where", ["gradient", "adam"])
    def test_an_error_on_the_helper_reaches_the_caller(self, data, monkeypatch, started, where):
        train, _, _ = data
        if where == "gradient":
            real_join = T._LeafAdds.join

            def run(adds, item):  # runs on the helper alone
                raise DataError("deferred gradient failed")

            monkeypatch.setattr(T._LeafAdds, "_run", run)
            # the pass lets the helper start before it joins
            monkeypatch.setattr(T._LeafAdds, "join", lambda adds, **kw: time.sleep(0.02) or real_join(adds, **kw))
        else:
            real_update = optim.Adam._update

            def update(opt, chunks, wide, scale):
                if threading.current_thread() is not threading.main_thread():
                    raise DataError("adam half failed")
                time.sleep(0.02)  # so the helper starts its half
                return real_update(opt, chunks, wide, scale)

            monkeypatch.setattr(optim.Adam, "_update", update)
        with pytest.raises(DataError, match="failed"):
            train_teacher(train, [], small_config("scenario-based"), tcfg(max_steps=3))
        assert len(started) == 1 and not started[0].is_alive()


class TestGradientLifetime:
    def test_parameter_gradients_are_zeroed_slices_at_every_pass(
        self, data, teacher, lm_teacher, monkeypatch
    ):
        # the student's forward and every validation pass run with each
        # parameter's gradient a zeroed slice of Adam's flat buffer, so no
        # other gradient array is live and none is left over from the step
        # before; after the run no gradient is held at all
        train, val, _ = data
        zeroed = []
        real_forward, real_validation = training.forward_batch, training.validation_nll
        optimizers = _optimizers(monkeypatch)

        def slices(model):
            flat = optimizers[-1].grad
            return all(t.grad.base is flat and np.shares_memory(t.grad, flat[model.params.span(n)])
                       and not t.grad.any() for n, t in model.params.items())

        def forward(model, batch, train=False, rng=None):
            if train:
                zeroed.append(slices(model))
            return real_forward(model, batch, train=train, rng=rng)

        def validation(model, val_batches):
            zeroed.append(slices(model))
            return real_validation(model, val_batches)

        monkeypatch.setattr(training, "forward_batch", forward)
        monkeypatch.setattr(training, "validation_nll", validation)
        res = train_student(train, val, teacher, small_config("conventional"),
                            tcfg(max_steps=6, val_every=2), lm_teacher=lm_teacher)
        assert len(optimizers) == 1
        assert zeroed == [True] * 9  # 6 steps, 3 validations
        assert all(t.grad is None for _, t in res.model.params.items())

    @pytest.mark.parametrize("trainer", ["teacher", "lm", "student", "encoder-transfer", "lambda1-zero"])
    def test_every_update_target_gets_a_gradient_on_every_step(
        self, data, teacher, lm_teacher, monkeypatch, trainer
    ):
        # so an optimizer step never meets a target without a gradient
        train, val, _ = data
        seen = []
        real_step = training.Adam.step

        def step(opt):
            seen.append([n for n, t in opt.params.update_targets() if not t.grad.any()])
            return real_step(opt)

        monkeypatch.setattr(training.Adam, "step", step)
        cfg = tcfg(max_steps=6)
        if trainer == "teacher":
            train_teacher(train, val, small_config("scenario-based"), cfg)
        elif trainer == "lm":
            train_lm_teacher(train, val, small_config("language-model"), cfg)
        elif trainer == "student":
            train_student(train, val, teacher, small_config("conventional"), cfg, lm_teacher=lm_teacher)
        elif trainer == "encoder-transfer":
            train_student(train, val, teacher, small_config("conventional"),
                          tcfg(max_steps=6, hard_transfer_scope="encoder"))
        else:
            train_student(train, val, teacher, small_config("conventional"), tcfg(max_steps=6, lambda1=0.0))
        assert seen == [[]] * 6

    def test_backward_stops_at_a_frozen_encoder(self, data, teacher, monkeypatch):
        # an encoder-scope student's memory needs no gradient, so backward
        # visits none of the encoder's nodes and writes nothing into the
        # frozen tensors' slices of Adam's flat gradient
        train, val, _ = data
        memories, visited, written = [], [], []
        real_encode, real_backward, real_step = TransformerModel.encode, T.backward, training.Adam.step

        def encode(model, token_ids, train=False, rng=None):
            memory = real_encode(model, token_ids, train, rng)
            if train:
                memories.append(memory)
            return memory

        def backward(loss):
            encoder = {id(n) for n in T._topological_order(memories.pop(), grad_only=False)}
            visited.append(sum(id(n) in encoder for n in T._topological_order(loss, grad_only=True)))
            real_backward(loss)

        def step(opt):
            frozen = opt.params.frozen
            written.append((len(frozen) > 0, [n for n in frozen if opt.grad[opt.params.span(n)].any()]))
            return real_step(opt)

        monkeypatch.setattr(TransformerModel, "encode", encode)
        monkeypatch.setattr(T, "backward", backward)
        monkeypatch.setattr(training.Adam, "step", step)
        train_student(train, val, teacher, small_config("conventional"),
                      tcfg(max_steps=3, hard_transfer_scope="encoder"))
        assert visited == [0] * 3 and written == [(True, [])] * 3

    def test_affine_skips_the_input_gradient_of_a_frozen_input(self, data, teacher):
        # in an encoder-scope student step, the affine nodes that read an input
        # needing no gradient (the frozen memory, the frozen embedding's
        # output) hand it none, and the trainable tensors' gradients equal
        # those of the same step with nothing frozen, where every affine does
        train, _, _ = data
        batch = batchify(train[:8], 8, seed=None)[0]
        grads, skipping = [], []
        for frozen in (True, False):
            student = TransformerModel.build(small_config("conventional"), 3)
            names = hard_transfer_init(student.params, teacher.params, "encoder")
            if not frozen:
                for n in names:
                    student.params[n].requires_grad = True
            out = forward_batch(student, batch, train=True, rng=np.random.default_rng(6))
            loss = losses.nll_sum(out.log_probs, batch.response_target, batch.target_mask)
            nodes = T._topological_order(loss, grad_only=True)
            affines = [n for n in nodes if n._op == "affine" and not n._parents[0].requires_grad]
            skipping.append([n._backward(np.ones_like(n.data))[0] is None for n in affines])
            T.backward(loss)
            grads.append({n: t.grad.copy() for n, t in student.params.update_targets() if n not in names})
        # the decoder block's self-attention q, k, v and cross-attention k, v
        assert skipping == [[True] * 5, []]
        assert grads[0].keys() == grads[1].keys()
        assert all(np.array_equal(grads[0][n], grads[1][n]) for n in grads[0])

    def test_two_passes_over_a_desk_student_loss_double_one_pass(self, data):
        train, _, vocab = data
        batch = batchify(train[:16], 16, seed=None)[0]
        teacher = TransformerModel.build(desk_config(len(vocab), "scenario-based"), 1)
        lm = TransformerModel.build(desk_config(len(vocab), "language-model"), 2)
        student = TransformerModel.build(desk_config(len(vocab)), 3)
        t, l = _fresh(teacher, batch), _fresh(lm, batch)
        out = forward_batch(student, batch, train=True, rng=np.random.default_rng(4))
        loss, _ = losses.total_loss(
            out.probabilities, out.hidden_states, batch.response_target, batch.target_mask,
            teacher_probs=t.probabilities.data, teacher_hiddens=[h.data for h in t.hidden_states],
            lambda1=2.0, alpha=0.01, lm_probs=l.probabilities.data, lambda_lm=0.5,
        )
        T.backward(loss)
        once = {n: p.grad.copy() for n, p in student.params.items() if p.grad is not None}
        T.backward(loss)
        assert len(once) == 88
        for name, g in once.items():
            assert np.array_equal(student.params[name].grad, 2 * g), name


# Two paper-width student steps (d=256, FFN 1024, V=5000, batch 32, 60/15/60
# tokens) with both teachers, in a fresh process; prints what the budget is
# made of, in bytes.
_PAPER_STEPS = textwrap.dedent("""
    import json, resource, sys
    import numpy as np
    from dialdistill import optim, tensor as T, training
    from dialdistill.corpus import EncodedExample
    from dialdistill.model import TransformerModel, paper_config

    def peak():  # ru_maxrss is in KiB, in bytes on macOS
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024)

    V = 5000
    rng = np.random.default_rng(0)
    ids = lambda n: [int(t) for t in rng.integers(4, V, size=n)]
    train = [EncodedExample(history=ids(60), response=ids(15), future=ids(60)) for _ in range(64)]
    base = peak()
    teacher = TransformerModel.build(paper_config(V, "scenario-based"), 1)
    lm = TransformerModel.build(paper_config(V, "language-model"), 2)
    activations = []
    backward = T.backward

    def counting_backward(loss):
        # every array the graph holds but the parameters, its requires_grad leaves
        nodes = T._topological_order(loss, grad_only=False)
        activations.append(sum(n.data.nbytes for n in nodes if n._parents or not n.requires_grad))
        backward(loss)

    T.backward = counting_backward
    cfg = training.TrainingConfig(batch_size=32, max_steps=2, seed=0)
    res = training.train_student(train, [], teacher, paper_config(V), cfg, lm_teacher=lm)
    print(json.dumps(dict(
        base=base, peak=peak(), steps=res.steps, activations=max(activations),
        frozen=teacher.params.values.nbytes + lm.params.values.nbytes,
        student=res.model.params.values.nbytes, cache=res.cache_bytes,
        scratch=2 * 2 * optim.CHUNK * 8, head=32 * 16 * V * 4,  # one (B, T, V) float32 array
    )))
""")


class TestPaperWidthMemory:
    def test_two_student_steps_stay_under_the_budget(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        # a child's ru_maxrss starts from its parent's RSS at the fork (Linux
        # keeps the high-water mark across exec), so the steps run in a
        # grandchild of a small launcher, not in a child of this process
        launcher = ("import subprocess, sys\n"
                    f"sys.exit(subprocess.run([sys.executable, '-c', {_PAPER_STEPS!r}]).returncode)")
        run = subprocess.run([sys.executable, "-c", launcher], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        m = json.loads(run.stdout)
        assert m["steps"] == 2 and m["cache"] > 0
        # the process before any model; the frozen teachers; four arrays laid
        # out like the student's values: the values and Adam's m, v and flat
        # gradient, which is also where backward writes every parameter
        # gradient; Adam's two float64 scratches of two chunks, one for each
        # thread that runs half of its step; the kept teacher targets; the
        # next step's teacher and LM probabilities, two (B, T, V) arrays that
        # the worker thread computes during this step, so that how far its
        # work overlaps the backward depends on the scheduler; and the
        # forward's arrays, which live through the backward, plus three
        # quarters as much again for what the backward holds besides them:
        # the arrays its closures keep (attention probabilities, dropout
        # masks, layer-norm statistics; about a quarter) and its frontier of
        # gradients still to be handed on. A pass that kept every interior
        # gradient to its end would hold about the forward's arrays again.
        # The graph's one (B, T, V) array is the head's log-probabilities
        # (no logits); the output head's other such arrays are counted on
        # their own, three at most at once: while the loss is built, this
        # step's teacher and LM probabilities and their mixed soft target,
        # which the loss node keeps; through the backward, that target and
        # the one gradient of the log-probabilities.
        budget = (m["base"] + m["frozen"] + 4 * m["student"] + m["scratch"] + m["cache"]
                  + 2 * m["head"] + 1.75 * m["activations"] + 3 * m["head"])
        assert m["peak"] < budget, (m["peak"] / 2**20, budget / 2**20)


class TestLmTeacher:
    def test_trains_and_is_deterministic(self, data):
        train, val, _ = data
        a = train_lm_teacher(train, val, small_config("language-model"), tcfg(max_steps=15))
        b = train_lm_teacher(train, val, small_config("language-model"), tcfg(max_steps=15))
        assert a.log == b.log
        assert a.log[-1]["nll"] < a.log[0]["nll"]

    def test_variant_enforced(self, data):
        train, val, _ = data
        with pytest.raises(ContractError):
            train_lm_teacher(train, val, small_config("conventional"), tcfg())


def _digest(model):
    h = hashlib.sha256()
    for name in model.params.names():
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pair():
    teacher = TransformerModel.build(small_config("scenario-based"), seed=1)
    student = TransformerModel.build(small_config("conventional"), seed=2)
    return teacher, student


class TestHardTransfer:
    def test_scope_none(self, pair):
        teacher, _ = pair
        student = TransformerModel.build(small_config("conventional"), seed=3)
        frozen = hard_transfer_init(student.params, teacher.params, "none")
        assert frozen == [] and student.params.frozen == set()

    def test_word_emb_copies_both_tables(self, pair):
        teacher, _ = pair
        student = TransformerModel.build(small_config("conventional"), seed=3)
        frozen = hard_transfer_init(student.params, teacher.params, "word-emb")
        assert set(frozen) == {"encoder_embedding", "decoder_embedding"}
        for n in frozen:
            assert np.array_equal(student.params[n].data, teacher.params[n].data)

    def test_encoder_scope_is_superset(self, pair):
        teacher, _ = pair
        student = TransformerModel.build(small_config("conventional"), seed=3)
        frozen = set(hard_transfer_init(student.params, teacher.params, "encoder"))
        assert {"encoder_embedding", "decoder_embedding"} < frozen
        assert all(n.startswith("enc.") for n in frozen - {"encoder_embedding", "decoder_embedding"})
        assert "enc.0.attn.wq" in frozen

    def test_frozen_bitwise_after_training(self, data):
        train, val, _ = data
        teacher = train_teacher(
            train, val, small_config("scenario-based"), tcfg(max_steps=20)
        ).model
        res = train_student(
            train, val, teacher, small_config("conventional"),
            tcfg(max_steps=25, hard_transfer_scope="encoder"),
        )
        for n in res.model.params.frozen:
            assert np.array_equal(res.model.params[n].data, teacher.params[n].data), n
        # non-frozen tensors did train
        assert not np.array_equal(
            res.model.params["out_proj.w"].data, teacher.params["out_proj.w"].data
        )

    def test_shape_mismatch_rejected(self, pair):
        teacher, _ = pair
        other = TransformerModel.build(
            ModelConfig(vocab_size=30, model_dim=32, num_blocks=1, num_heads=2,
                        ffn_dim=32, max_sequence_length=64, variant="conventional"),
            seed=4,
        )
        with pytest.raises(ContractError):
            hard_transfer_init(other.params, teacher.params, "word-emb")


class TestLogOutput:
    def test_jsonl_file(self, data, tmp_path):
        train, val, _ = data
        path = tmp_path / "train.log.jsonl"
        res = train_teacher(
            train, val, small_config("scenario-based"), tcfg(max_steps=12), log_path=path
        )
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(res.log) == 12
        recs = [json.loads(l) for l in lines]
        assert recs[0]["step"] == 1
        assert any("val_loss" in r for r in recs)
        assert all(isinstance(r["grad_norm"], float) and isinstance(r["clipped"], bool) for r in recs)

    def test_grad_norm_is_pre_clip(self, data):
        train, val, _ = data
        runs = {
            clip: train_teacher(
                train, val, small_config("scenario-based"), tcfg(max_steps=6, grad_clip_norm=clip)
            )
            for clip in (1e6, 1e-3)
        }
        # same first step either way: the norm is read before clipping
        assert runs[1e6].log[0]["grad_norm"] == runs[1e-3].log[0]["grad_norm"] > 0.0
        assert not any(r["clipped"] for r in runs[1e6].log)
        assert all(r["clipped"] for r in runs[1e-3].log)

    def test_log_every_thins_records(self, data):
        train, val, _ = data
        res = train_teacher(
            train, val, small_config("scenario-based"),
            tcfg(max_steps=20, log_every=5, val_every=100),
        )
        assert [r["step"] for r in res.log] == [5, 10, 15, 20]
