"""Trainers for the teacher, the student, the plain baseline, and the
language-model teacher.

The teacher, the baseline and the language model are fitted by one
trainer, :func:`train_nll`, on response NLL alone; the variant of the
model config picks its inputs. ``train_teacher``, ``train_conventional``
and ``train_lm_teacher`` are that trainer with the variant checked. The
student adds the imitation terms to the same NLL. All of them run one
loop, whose step is the same for every trainer: the frozen teachers'
targets when a student run gives them, the forward, the combined loss
from :mod:`dialdistill.losses` with the config's weights, global
gradient clipping and Adam. Around the step: deterministically shuffled
mini-batches, per-step loss logging, and periodic validation with
best-checkpoint tracking.

Randomness is namespaced off a single seed — parameter init uses the
seed itself, epoch shuffles use (seed, 7, epoch), and per-step dropout
uses (seed, 11, step) — so a student run with ``lambda1 == 0`` consumes
exactly the same random draws as a plain baseline run and reproduces it
step for step.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import atomic_write, batchify
from .errors import ContractError, DataError
from .losses import nll_sum, total_loss
from .model import MEMORIES, ModelConfig, ParameterSet, TransformerModel
from .optim import Adam

TRANSFER_SCOPES = ("none", "word-emb", "encoder")
WORD_EMB_TENSORS = ("encoder_embedding", "decoder_embedding")
TARGET_CACHE_BYTES = 256 << 20  # the most a student run keeps of its frozen teachers' targets


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    grad_clip_norm: float = 2.0
    batch_size: int = 128
    alpha: float = 0.01
    lambda1: float = 2.0
    lambda_lm: float = 0.5
    epochs: int = 1
    max_steps: int = None  # when set, cycles epochs until this many steps ran
    seed: int = 0
    hard_transfer_scope: str = "none"
    val_every: int = 100
    log_every: int = 1

    def __post_init__(self):
        for name in ("learning_rate", "grad_clip_norm", "alpha", "lambda1", "lambda_lm"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ContractError(f"alpha must be >= 0, got {self.alpha}")
        if self.lambda1 < 0:
            raise ContractError(f"lambda1 must be >= 0, got {self.lambda1}")
        if self.lambda_lm < 0:
            raise ContractError(f"lambda_lm must be >= 0, got {self.lambda_lm}")
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.hard_transfer_scope not in TRANSFER_SCOPES:
            raise ContractError(
                f"hard_transfer_scope {self.hard_transfer_scope!r} not in {TRANSFER_SCOPES}"
            )
        if self.batch_size < 1 or self.val_every < 1 or self.log_every < 1:
            raise ContractError("batch_size, val_every, and log_every must be >= 1")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ContractError(f"max_steps must be >= 1 when set, got {self.max_steps}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TrainResult:
    model: TransformerModel
    log: list = field(default_factory=list)
    best_val_loss: float = None
    best_state: np.ndarray = None  # a copy of ``params.values`` at the best validation point
    steps: int = 0
    cached_examples: int = 0  # training examples whose teacher targets a student run kept
    cache_bytes: int = 0

    def write_log(self, path) -> None:
        with atomic_write(path) as fh:
            for rec in self.log:
                fh.write(json.dumps(rec) + "\n")


def _empty_history(batch_rows: int) -> np.ndarray:
    return np.zeros((batch_rows, 0), dtype=np.int64)


def forward_batch(model: TransformerModel, batch, train: bool = False, rng=None):
    """Run the teacher-forced pass over one batch on the inputs its variant
    reads (``model.MEMORIES``); one that reads no history gets an empty one."""
    reads_history, reads_future = MEMORIES[model.config.variant]
    history = batch.history if reads_history else _empty_history(batch.size)
    future = batch.future if reads_future else None
    return model.forward(history, batch.response_in, future=future, train=train, rng=rng)


@T.names_failures
def validation_nll(model: TransformerModel, val_batches) -> float:
    """Per-token NLL over a batch list, dropout off, no graph retained."""
    total = 0.0
    count = 0.0
    for batch in val_batches:
        out = forward_batch(model, batch)
        total += float(nll_sum(out.log_probs, batch.response_target, batch.target_mask).data)
        count += batch.token_count
    return total / count if count else 0.0


def _schedule(train_examples: list, tcfg: TrainingConfig):
    """The run's (step, batch) pairs, numbered from 1: ``tcfg.epochs``
    epochs of shuffled batches, or with ``max_steps`` that many steps over
    as many epochs as they take."""
    step = 0
    for epoch in range(tcfg.epochs) if tcfg.max_steps is None else itertools.count():
        for batch in batchify(train_examples, tcfg.batch_size, seed=[tcfg.seed, 7, epoch]):
            step += 1
            yield step, batch
            if step == tcfg.max_steps:
                return


def _train_loop(
    model: TransformerModel,
    train_examples: list,
    val_examples: list,
    tcfg: TrainingConfig,
    teacher_cache=None,
    lm_cache=None,
    log_path=None,
) -> TrainResult:
    """The one mini-batch loop. Each step takes the frozen teachers'
    targets from their caches, when given, runs the model and the combined
    loss, then backward and Adam; with neither cache the loss is the NLL.

    The run has one worker thread, started on its first task (numpy
    releases the GIL in its BLAS calls and large loops). When the frozen
    teachers' work is large, as ``tensor.fork`` judges a pass, it computes
    the next step's targets while this step runs, and never a target past
    the last step. It is also the step's ``tensor.helper``, for a large
    step's forked encoders, parameter gradients and half of Adam's work.
    A worker's error is raised at the step it failed in, and the worker is
    joined on every way out of the loop."""
    if not train_examples:
        raise DataError("training example list is empty")
    opt = Adam(model.params, learning_rate=tcfg.learning_rate, clip_norm=tcfg.grad_clip_norm)
    val_batches = batchify(val_examples, tcfg.batch_size, seed=None) if val_examples else []
    result = TrainResult(model=model)
    best_val = None

    def targets(batch):
        teacher_probs, teacher_hiddens = teacher_cache.outputs(batch) if teacher_cache else (None, None)
        return teacher_probs, teacher_hiddens, lm_cache.outputs(batch)[0] if lm_cache else None

    def prefetch(batch):
        """A call that returns ``batch``'s targets, computed on the worker
        from now on when the frozen teachers' work is large."""
        cfg = model.config
        if (teacher_cache or lm_cache) and batch.history.size * cfg.model_dim * cfg.ffn_dim > T._FORK_GEMM:
            return T.submit(targets, batch).result
        return lambda: targets(batch)

    schedule = _schedule(train_examples, tcfg)
    upcoming = next(schedule)
    with ThreadPoolExecutor(max_workers=1) as worker, T.helper(worker):
        pending = prefetch(upcoming[1])
        while upcoming:
            step, batch = upcoming
            upcoming = next(schedule, None)
            teacher_probs, teacher_hiddens, lm_probs = pending()
            pending = prefetch(upcoming[1]) if upcoming else None
            rng = np.random.default_rng([tcfg.seed, 11, step])
            out = forward_batch(model, batch, train=True, rng=rng)
            loss, breakdown = total_loss(
                out, out.hidden_states, batch.response_target, batch.target_mask,
                teacher_probs=teacher_probs, teacher_hiddens=teacher_hiddens,
                lambda1=tcfg.lambda1, alpha=tcfg.alpha, lm_probs=lm_probs, lambda_lm=tcfg.lambda_lm,
            )
            del out, teacher_probs, teacher_hiddens, lm_probs
            T.check_finite(loss)
            T.backward(loss)
            del loss  # else the step's graph and targets stay alive through Adam and the next forward
            grad_norm = opt.step()

            record = None
            if step % tcfg.log_every == 0:
                record = breakdown.as_log_record(step)
            if val_batches and step % tcfg.val_every == 0:
                val = validation_nll(model, val_batches)
                if record is None:
                    record = breakdown.as_log_record(step)
                record["val_loss"] = val
                if best_val is None or val < best_val:
                    best_val = val
                    result.best_state = model.params.values.copy()
            if record is not None:
                record["grad_norm"] = grad_norm
                record["clipped"] = 0 < tcfg.grad_clip_norm < grad_norm
                result.log.append(record)
    model.params.zero_grads()  # the trained model keeps no slice of Adam's gradient buffer
    result.steps = step
    result.best_val_loss = best_val
    if log_path is not None:
        result.write_log(log_path)
    return result


# --------------------------------------------------------------------------
# Specific trainers
# --------------------------------------------------------------------------


def train_nll(
    train_examples, val_examples, config: ModelConfig, tcfg: TrainingConfig, log_path=None
) -> TrainResult:
    """Fit a model of any variant on response NLL alone; the variant picks
    the inputs (see :func:`forward_batch`)."""
    model = TransformerModel.build(config, tcfg.seed)
    return _train_loop(model, train_examples, val_examples, tcfg, log_path=log_path)


def _require_variant(config: ModelConfig, variant: str, role: str) -> None:
    if config.variant != variant:
        raise ContractError(f"{role} training requires the {variant} variant, got {config.variant!r}")


def train_teacher(train_examples, val_examples, config, tcfg, log_path=None) -> TrainResult:
    """Fit the scenario-based model on (history, future) -> response NLL."""
    _require_variant(config, "scenario-based", "teacher")
    return train_nll(train_examples, val_examples, config, tcfg, log_path)


def train_conventional(train_examples, val_examples, config, tcfg, log_path=None) -> TrainResult:
    """Plain history-only NLL baseline (also the lambda1=0 reference)."""
    _require_variant(config, "conventional", "baseline")
    return train_nll(train_examples, val_examples, config, tcfg, log_path)


def train_lm_teacher(train_examples, val_examples, config, tcfg, log_path=None) -> TrainResult:
    """Next-token language model over response sequences alone."""
    _require_variant(config, "language-model", "LM")
    return train_nll(train_examples, val_examples, config, tcfg, log_path)


def _configs_compatible(a: ModelConfig, b: ModelConfig) -> bool:
    da, db = a.to_dict(), b.to_dict()
    da.pop("variant")
    db.pop("variant")
    return da == db


def hard_transfer_init(
    student_params: ParameterSet, teacher_params: ParameterSet, scope: str
) -> list:
    """Copy teacher tensors into the student per ``scope`` and freeze them.

    ``word-emb`` copies both embedding tables; ``encoder`` additionally
    copies the whole encoder stack. Returns the frozen names.
    """
    if scope not in TRANSFER_SCOPES:
        raise ContractError(f"unknown hard-transfer scope {scope!r}")
    if scope == "none":
        return []
    names = list(WORD_EMB_TENSORS)
    if scope == "encoder":
        names += [n for n in student_params.names() if n.startswith("enc.")]
    for n in names:
        if n not in student_params or n not in teacher_params:
            raise ContractError(f"hard transfer: tensor {n!r} missing (configs must match)")
        src, dst = teacher_params[n].data, student_params[n].data
        if src.shape != dst.shape:
            raise ContractError(f"hard transfer: {n!r} shape {src.shape} != student {dst.shape}")
        dst[...] = src
    student_params.freeze(names)
    return names


class _TargetCache:
    """A frozen model's last ``blocks`` hidden states on each training
    example at the response's true positions, kept from the first batch
    that holds it; ``offsets[i]:offsets[i + 1]`` index example ``i``'s rows."""

    def __init__(self, model: TransformerModel, offsets: np.ndarray, blocks: int):
        self.model = model
        self.offsets = offsets
        self.layers = [np.empty((offsets[-1], model.config.model_dim), T.active_dtype())
                       for _ in range(blocks)]
        self.filled = np.zeros(len(offsets) - 1, dtype=bool)

    @T.names_failures
    def outputs(self, batch):
        """(probabilities, hidden states) on ``batch``, dropout off, the exp
        taken over the head's log-probabilities in place. A batch of kept
        examples is rebuilt from the rows, zeros at pad positions, and only
        the output head runs; the hidden states are the kept ones."""
        mask = batch.target_mask > 0
        rows = np.concatenate([np.arange(self.offsets[i], self.offsets[i + 1]) for i in batch.index])
        if self.layers and self.filled[batch.index].all():
            hidden = [np.zeros(mask.shape + layer.shape[1:], layer.dtype) for layer in self.layers]
            for h, layer in zip(hidden, self.layers):
                h[mask] = layer[rows]
            out = self.model._output_head(hidden[-1], hidden)
        else:
            out = forward_batch(self.model, batch)
            hidden = [h.data for h in out.hidden_states]
            for h, layer in zip(hidden[len(hidden) - len(self.layers):], self.layers):
                layer[rows] = h[mask]
            self.filled[batch.index] = True
        return np.exp(out.log_probs.data, out=out.log_probs.data), hidden


def train_student(
    train_examples,
    val_examples,
    teacher: TransformerModel,
    config: ModelConfig,
    tcfg: TrainingConfig,
    lm_teacher: TransformerModel = None,
    log_path=None,
) -> TrainResult:
    """Distill the teacher into a history-only student.

    Per batch: the teacher (forward-only on (history, future)) gives target
    distributions and hidden states; the student runs on the history
    alone; the combined loss imitates both. The frozen teachers run once
    per training example while the whole set's targets fit
    ``TARGET_CACHE_BYTES`` (see :class:`_TargetCache`), else once per
    batch. Their parameters are never touched. When ``lambda1 == 0`` the
    teacher is not even consulted and the run reduces to the baseline.
    """
    if config.variant != "conventional":
        raise ContractError(f"students use the conventional variant, got {config.variant!r}")
    if teacher is not None and teacher.config.variant != "scenario-based":
        raise ContractError("the teacher checkpoint must be the scenario-based variant")
    if teacher is not None and not _configs_compatible(teacher.config, config):
        raise ContractError(
            "teacher and student ModelConfigs must match apart from the variant"
        )
    if tcfg.lambda1 > 0.0 and teacher is None:
        raise ContractError("lambda1 > 0 requires a teacher")
    if lm_teacher is not None and lm_teacher.config.variant != "language-model":
        raise ContractError("lm_teacher must be the language-model variant")

    model = TransformerModel.build(config, tcfg.seed)
    if tcfg.hard_transfer_scope != "none":
        if teacher is None:
            raise ContractError("hard transfer requires a teacher")
        hard_transfer_init(model.params, teacher.params, tcfg.hard_transfer_scope)

    use_teacher = tcfg.lambda1 > 0.0
    use_lm = lm_teacher is not None and tcfg.lambda_lm > 0.0
    frozen = ([(teacher, teacher.config.num_blocks)] if use_teacher else []) + [(lm_teacher, 1)] * use_lm
    offsets = np.cumsum([0] + [len(ex.response) + 1 for ex in train_examples])
    cache_bytes = int(offsets[-1]) * np.dtype(T.active_dtype()).itemsize * sum(
        m.config.model_dim * blocks for m, blocks in frozen)
    keep = cache_bytes <= TARGET_CACHE_BYTES
    caches = [_TargetCache(m, offsets, blocks * keep) for m, blocks in frozen]
    result = _train_loop(model, train_examples, val_examples, tcfg, caches[0] if use_teacher else None,
                         caches[-1] if use_lm else None, log_path)
    if keep and caches:
        result.cached_examples, result.cache_bytes = int(caches[0].filled.sum()), cache_bytes
    return result
