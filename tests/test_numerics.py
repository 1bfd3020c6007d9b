"""Where non-finite values are caught: at leaves, at the model's logits
and at the training loss, each naming the primitive that produced the
first NaN/Inf, and never by a scan in every primitive."""

import numpy as np
import pytest

from dialdistill import tensor as T
from dialdistill import training
from dialdistill.corpus import PAD_ID, batchify, encode_example
from dialdistill.decoding import DecodeConfig, decode, decode_many
from dialdistill.errors import NumericError
from dialdistill.losses import total_loss
from dialdistill.metrics import corpus_ppl
from dialdistill.model import DecodeState, ModelConfig, TransformerModel, key_padding_mask
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary
from dialdistill.training import TrainingConfig, train_lm_teacher, train_student


def config(variant, num_blocks=1):
    return ModelConfig(
        vocab_size=30, model_dim=16, num_blocks=num_blocks, num_heads=2, ffn_dim=32,
        dropout_rate=0.1, max_sequence_length=64, variant=variant,
    )


@pytest.fixture(scope="module")
def examples():
    vocab = marker_vocabulary()
    return [encode_example(e, vocab) for e in future_marker_corpus(24, seed=3)]


def tcfg(**kw):
    return TrainingConfig(**{"batch_size": 8, "seed": 2, "max_steps": 2, "val_every": 100, **kw})


def poison(model, name):
    """Write NaN into feature 0 of every row of a parameter, past the leaf check."""
    model.params[name].data[..., 0] = np.nan
    return model


def poisoned_builds(monkeypatch, name):
    build = TransformerModel.build.__func__
    monkeypatch.setattr(
        TransformerModel, "build", classmethod(lambda cls, c, seed: poison(build(cls, c, seed), name))
    )


# (parameter, the primitive whose output first holds the NaN)
POISONS = [
    ("dec.0.ffn.w1", "affine"),
    ("dec.0.ln_self.gain", "layer_norm"),
    ("decoder_embedding", "embedding"),
]


class TestGraphWalk:
    def test_names_affine_not_its_consumers(self):
        x = T.Tensor(np.ones((2, 3)))
        w = T.Tensor(np.ones((3, 4)), requires_grad=True)
        w.data[1, 2] = np.inf
        with np.errstate(invalid="ignore"):
            out = T.tsum(T.log_softmax(T.affine(T.mul(x, 2.0), w, np.zeros(4), relu=True)))
        with pytest.raises(NumericError, match="primitive 'affine'"):
            T.check_finite(out)

    def test_log_names_the_upstream_culprit(self):
        # the check walks back past log to the mul that overflowed first
        x = T.Tensor([3e38], requires_grad=True)  # float32 overflows at 3.4e38
        with np.errstate(over="ignore"):
            out = T.log(T.add(T.mul(x, 10.0), 1.0))
        with pytest.raises(NumericError, match="primitive 'mul'"):
            T.check_finite(out)

    def test_first_of_a_shared_subgraph(self):
        a = T.Tensor([1.0, 2.0])
        bad = T.mul(a, np.array([1.0, np.nan]))
        out = T.add(T.tsum(T.exp(bad)), T.tsum(T.add(bad, a)))
        with pytest.raises(NumericError, match="primitive 'mul'"):
            T.check_finite(out)

    def test_graph_free_failure_is_named_by_a_recorded_rerun(self):
        def run():
            with T.graph_free():
                a = T.Tensor([1.0, 2.0])
                return T.check_finite(T.add(T.tsum(T.mul(a, np.array([1.0, np.nan]))), 1.0))

        with pytest.raises(NumericError, match="primitive 'add' or one before it"):
            run()
        with pytest.raises(NumericError, match="primitive 'mul'$"):
            T.names_failures(run)()

    def test_non_finite_leaf_is_named_as_a_leaf(self):
        with pytest.raises(NumericError, match="primitive 'leaf'"):
            T.Tensor([1.0, np.nan])

    def test_primitives_do_not_check(self):
        out = T.mul(T.Tensor([1.0, 2.0]), np.inf)
        assert np.isinf(out.data).all()
        assert T.check_finite(T.Tensor([1.0])).data[0] == 1.0

    def test_backward_passes_non_finite_gradients_to_adam(self):
        x = T.Tensor([0.0], requires_grad=True)
        T.backward(T.tsum(T.mul(T.add(x, 1.0), np.inf)))
        assert not np.isfinite(x.grad).all()


class TestModelBoundaries:
    @pytest.mark.parametrize("name,op", POISONS)
    def test_train_student(self, monkeypatch, examples, name, op):
        poisoned_builds(monkeypatch, name)
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            train_student(examples, [], None, config("conventional"), tcfg(lambda1=0.0))

    @pytest.mark.parametrize("name,op", POISONS)
    def test_train_student_through_its_teacher(self, examples, name, op):
        teacher = poison(TransformerModel.build(config("scenario-based"), 4), name)
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            train_student(examples, [], teacher, config("conventional"), tcfg())

    @pytest.mark.parametrize("name,op", POISONS)
    def test_train_lm_teacher(self, monkeypatch, examples, name, op):
        poisoned_builds(monkeypatch, name)
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            train_lm_teacher(examples, [], config("language-model"), tcfg())

    def test_training_loss(self, monkeypatch, examples):
        def infinite_loss(*args, **kwargs):
            loss, breakdown = total_loss(*args, **kwargs)
            return T.mul(loss, np.inf), breakdown

        monkeypatch.setattr(training, "total_loss", infinite_loss)
        with pytest.raises(NumericError, match="primitive 'mul'"):
            training.train_conventional(examples, [], config("conventional"), tcfg())

    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 3)])
    @pytest.mark.parametrize("name,op", POISONS)
    def test_decode(self, examples, strategy, width, name, op):
        model = poison(TransformerModel.build(config("conventional"), 6), name)
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            decode(model, examples[0].history, DecodeConfig(strategy, width, max_length=4))

    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 3)])
    @pytest.mark.parametrize("name,op", POISONS)
    def test_decode_many(self, examples, strategy, width, name, op):
        model = poison(TransformerModel.build(config("conventional"), 6), name)
        histories = [ex.history for ex in examples[:5]]
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            decode_many(model, histories, DecodeConfig(strategy, width, max_length=4))

    @pytest.mark.parametrize("name,op", POISONS)
    def test_validation_nll(self, examples, name, op):
        model = poison(TransformerModel.build(config("conventional"), 6), name)
        batches = batchify(examples, 8, seed=None)
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            training.validation_nll(model, batches)

    @pytest.mark.parametrize("name,op", POISONS)
    def test_perplexity(self, examples, name, op):
        model = poison(TransformerModel.build(config("conventional"), 6), name)
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            corpus_ppl(model, examples)


class TestCheckCount:
    """Finiteness scans stay at the boundaries: a step's count of
    ``check_finite`` calls does not grow with the number of blocks."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        check = T.check_finite
        monkeypatch.setattr(T, "check_finite", lambda x: calls.append(x) or check(x))
        return calls

    def decode_step_checks(self, count, examples, num_blocks, rows):
        model = TransformerModel.build(config("conventional", num_blocks), 1)
        # ``rows`` histories of different lengths, right-padded as decoding pads them
        width = max(len(ex.history) for ex in examples[:rows])
        history = np.array([ex.history + [PAD_ID] * (width - len(ex.history)) for ex in examples[:rows]])
        with model.params.inference():
            memory = model.encode(history)
            state = DecodeState()
            model.decode(np.full((rows, 1), 1), memory, history_mask=key_padding_mask(history), state=state)
            count.clear()
            model.decode(np.full((rows, 1), 7), memory, history_mask=key_padding_mask(history), state=state)
        return len(count)

    def train_step_checks(self, count, examples, num_blocks):
        teacher = TransformerModel.build(config("scenario-based", num_blocks), 1)
        lm = TransformerModel.build(config("language-model", num_blocks), 2)
        student = config("conventional", num_blocks)
        per_run = []
        for steps in (1, 2):
            count.clear()
            train_student(examples, [], teacher, student, tcfg(max_steps=steps), lm_teacher=lm)
            per_run.append(len(count))
        return per_run[1] - per_run[0]

    def test_cached_greedy_decode_step(self, count, examples):
        checks = [self.decode_step_checks(count, examples, n, rows) for n in (1, 3) for rows in (1, 5)]
        assert checks == [1, 1, 1, 1]

    def test_desk_training_step(self, count, examples):
        checks = [self.train_step_checks(count, examples, n) for n in (1, 3)]
        assert checks[0] == checks[1] <= 8
