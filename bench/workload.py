"""Workload shapes, seeded inputs, set-up, and one measured round.

A round is the whole pipeline once, closed loop, one caller: train the
teacher, the LM teacher and a student distilled from both; decode
greedy and beam responses; run ``evaluate`` and ``classify-informative``
through the CLI. Every round of a run does identical work, so rounds
after the first must reproduce the first one's outputs bitwise.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dialdistill import cli, training
from dialdistill.checkpoint import load_model, save_model
from dialdistill.corpus import EOS_ID, EncodedExample, Vocabulary, encode_example
from dialdistill.decoding import DecodeConfig, decode
from dialdistill.model import TransformerModel, desk_config, paper_config
from dialdistill.optim import Adam
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary

import checks

# greedy caps cycle so p50 falls inside the cap-15 calls and p90 inside the
# cap-30 calls; a 50/50 mix would put p50 in the gap between the two
GREEDY_CAPS = (15, 15, 30)
BEAM_WIDTH = 4
BEAM_CAP = 15
HISTORY_LEN = 60
TEXT_TYPES = 3000
GENERIC_POOL = 8
GENERIC_LEN = 12
# nine turns make three (3 + 1 + 3)-turn windows per dialogue; fixed lengths
# keep the token count, and so the work, equal across seeds
TURN_LENGTHS = (9, 20, 12, 17, GENERIC_LEN, 11, 19, 10, 16)
GENERIC_TURN = 4  # the middle window's response: a generic reply in every dialogue
# the evaluate split's vocabulary is cut to this many words; every seed's
# split has more distinct words, so the evaluated model's size is fixed
EVAL_VOCAB = 150


def _tiny_config(vocab_size, variant="conventional"):
    return desk_config(vocab_size, variant, model_dim=16, ffn_dim=32, num_blocks=1)


@dataclass(frozen=True)
class Shape:
    config: object  # desk_config or paper_config
    train_vocab: int  # 0 selects the future-marker corpus and its 30-token vocabulary
    train_examples: int
    batch: int
    steps: tuple  # optimizer steps per round for the teacher, LM and student phases
    learning_rate: float
    decode_vocab: int
    greedy_calls: int  # caps cycle through GREEDY_CAPS
    beam_calls: int  # on the first cap-15 histories
    eval_dialogues: int
    classify_dialogues: int
    command_repeats: int  # evaluate and classify runs per round


SHAPES = {
    # Python-overhead bound: V=30, a few hundred graph nodes per step.
    "desk": Shape(desk_config, 0, 64, 16, (25, 25, 25), 0.003, 2000, 12, 4, 6, 100, 1),
    # BLAS- and memory-bound: d=256, FFN 1024, the V x V one-hot in the loss.
    # V=5000 rather than the paper's 20000, so that a run holds two rounds
    # and enough steps for steady medians; at 20000 one round took 50 s.
    "paper": Shape(paper_config, 5000, 160, 32, (4, 8, 4), 0.001, 5000, 18, 6, 6, 100, 3),
}

TINY = {
    "desk": replace(SHAPES["desk"], config=_tiny_config, steps=(4, 4, 4), decode_vocab=200,
                    greedy_calls=4, beam_calls=2, classify_dialogues=8),
    "paper": replace(SHAPES["paper"], config=_tiny_config, train_vocab=200, steps=(3, 3, 3),
                     decode_vocab=200, greedy_calls=4, beam_calls=2, classify_dialogues=8,
                     command_repeats=1),
}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _zipf_sampler(rng, types: int, offset: int, exponent: float = 1.1):
    p = 1.0 / np.arange(1, types + 1) ** exponent
    p /= p.sum()
    return lambda n: [int(i) + offset for i in rng.choice(types, size=n, p=p)]


def training_examples(shape: Shape, seed: int) -> list:
    """Marker corpus (desk) or Zipf 60/15/60-token ids (paper)."""
    if shape.train_vocab == 0:
        vocab = marker_vocabulary()
        return [encode_example(e, vocab) for e in future_marker_corpus(shape.train_examples, seed)]
    draw = _zipf_sampler(np.random.default_rng([seed, 1]), shape.train_vocab - 4, 4)
    return [
        EncodedExample(history=draw(HISTORY_LEN), response=draw(15), future=draw(HISTORY_LEN))
        for _ in range(shape.train_examples)
    ]


def decode_histories(shape: Shape, seed: int) -> list:
    draw = _zipf_sampler(np.random.default_rng([seed, 2]), shape.decode_vocab - 4, 4)
    return [draw(HISTORY_LEN) for _ in range(shape.greedy_calls)]


def dialogue_text(n_dialogues: int, seed: int, salt: int) -> str:
    """Raw format-A dialogues: Zipf words over a few thousand types. One
    turn in nine is drawn from a small pool of generic replies that recur
    across dialogues, so word-overlap flags a non-trivial set."""
    rng = np.random.default_rng([seed, 3, salt])
    draw = _zipf_sampler(rng, TEXT_TYPES, 0)
    words = lambda n: " ".join(f"w{i}" for i in draw(n))
    generic = [words(GENERIC_LEN) for _ in range(GENERIC_POOL)]
    lines = []
    for _ in range(n_dialogues):
        turns = [words(n) for n in TURN_LENGTHS]
        turns[GENERIC_TURN] = generic[int(rng.integers(GENERIC_POOL))]
        lines.append(" __eou__ ".join(turns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def run_cli(argv) -> int:
    """``cli.main`` with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def training_config(shape: Shape, seed: int, steps: int) -> training.TrainingConfig:
    return training.TrainingConfig(
        batch_size=shape.batch, seed=seed, max_steps=steps, learning_rate=shape.learning_rate,
        val_every=10**9, lambda1=2.0, alpha=0.01, lambda_lm=0.5,
    )


@dataclass
class Setup:
    shape: Shape
    seed: int
    train: list
    train_vocab: int
    histories: list
    decoder: TransformerModel
    eval_ckpt: Path
    eval_dir: Path
    classify_dir: Path
    work: Path


def random_student(config, seed: int) -> TransformerModel:
    """A random-init student that never emits end-of-sequence: random
    weights emit it after a seed-dependent number of tokens, which would
    make the work depend on the seed. With its output bias at -30 every
    generation runs to its cap."""
    model = TransformerModel.build(config, seed)
    model.params["out_proj.b"].data[EOS_ID] = -30.0
    return model


def set_up(shape: Shape, seed: int, work: Path) -> Setup:
    """Inputs, ``prepare-data``, checkpoint writes, model builds and
    warm-up calls: everything the measured rounds need."""
    work.mkdir(parents=True)
    train = training_examples(shape, seed)
    train_vocab = shape.train_vocab or len(marker_vocabulary())
    histories = decode_histories(shape, seed)

    # evaluate trains skip-gram embeddings on its train split, so that split
    # stays small; classify's quadratic word-overlap wants a large one
    for salt, name, dialogues, fractions, extra in (
        (0, "eval", shape.eval_dialogues, ("0.1", "0.4"), ["--max-vocab", EVAL_VOCAB]),
        (1, "classify", shape.classify_dialogues, ("0.1", "0.1"), []),
    ):
        raw = work / f"{name}.txt"
        raw.write_text(dialogue_text(dialogues, seed, salt), encoding="utf-8")
        code = run_cli(["prepare-data", "--corpus", raw, "--out", work / name, "--seed", seed,
                        "--val-fraction", fractions[0], "--test-fraction", fractions[1], *extra])
        if code != 0:
            raise RuntimeError(f"prepare-data {name} exited {code}")

    # decoding student: random init, saved and reloaded as a user would
    save_model(random_student(shape.config(shape.decode_vocab), seed), work / "decode.ckpt")
    decoder, _ = load_model(work / "decode.ckpt")
    vocab = Vocabulary.load(work / "eval" / "vocab.txt")
    eval_ckpt = work / "eval.ckpt"
    # evaluate runs desk-size on every shape, as a user evaluates a desk student
    save_model(random_student(desk_config(len(vocab)), seed + 1), eval_ckpt,
               extra_configs={"vocab": vocab.content_tokens()})

    # warm-up: one distillation step and one decode call, outside the timed rounds
    teacher = TransformerModel.build(shape.config(train_vocab, "scenario-based"), seed + 2)
    lm = TransformerModel.build(shape.config(train_vocab, "language-model"), seed + 3)
    training.train_student(train, [], teacher, shape.config(train_vocab),
                           training_config(shape, seed, 1), lm_teacher=lm)
    decode(decoder, histories[0], DecodeConfig(max_length=2))
    return Setup(shape, seed, train, train_vocab, histories, decoder, eval_ckpt,
                 work / "eval", work / "classify", work)


# ---------------------------------------------------------------------------
# Timing against a reference loop
# ---------------------------------------------------------------------------

# The reference loop's time on the 2-vCPU Intel Xeon VM (2.1 GHz) that set
# the baseline, when nothing slowed it. On a shared host the speed of
# interpreter-bound code swings by up to 1.5x for seconds to minutes at a
# time. The reference loop runs between timed units and sees the same
# swing, so each unit's time is reported scaled to this speed.
REF_S = 1.12e-3
# a unit is scaled by the median reference run within this many seconds of
# it: enough runs to smooth a single run's noise, few enough to follow a swing
WINDOW_S = 1.0
_REF_VECTOR = np.ones(64)


def reference_s() -> float:
    """One run of a fixed loop of interpreter work and small numpy calls,
    the mix a Python-overhead-bound step is made of; its duration in s."""
    start = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i
    vec = _REF_VECTOR
    for _ in range(150):
        vec = vec * 1.0001 + 0.5
    return time.perf_counter() - start


class Reference:
    """Every reference run of a process, with the time it ended."""

    def __init__(self):
        self.ends, self.seconds = [], []

    def run(self) -> float:
        """Run the reference loop; returns the time after it."""
        self.seconds.append(reference_s())
        self.ends.append(time.perf_counter())
        return self.ends[-1]

    def scaled(self, samples) -> list:
        """(value, start, end) samples to values at the reference speed."""
        out = []
        for value, start, end in samples:
            lo = bisect.bisect_left(self.ends, start - WINDOW_S)
            hi = bisect.bisect_right(self.ends, end + WINDOW_S)
            out.append(value * REF_S / float(np.median(self.seconds[lo:hi])))
        return out


reference = Reference()


def unscaled(samples) -> list:
    """(value, start, end) samples to their raw values."""
    return [value for value, _, _ in samples]


class Stopwatch:
    """Times one unit of work between two reference runs; ``sample(value)``
    is a (value, start, end) sample for ``Reference.scaled``. A full garbage
    collection first means every run of a unit starts from the same
    collector state, so its collections fall at the same points each time."""

    def __enter__(self):
        gc.collect()
        self.start = reference.run()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.raw_s = self.end - self.start
        reference.run()

    def sample(self, value) -> tuple:
        return (value, self.start, self.end)


class StepClock:
    """Times every optimizer step of a training call while active: a step
    ends when ``Adam.step`` returns, a reference run follows, and the next
    step starts after it. The only hook an untraced round installs."""

    def __enter__(self):
        self._orig = Adam.step
        orig = self._orig
        self.starts, self.ends = [reference.run()], []

        def step(opt):
            norm = orig(opt)
            self.ends.append(time.perf_counter())
            self.starts.append(reference.run())
            return norm

        Adam.step = step
        return self

    def __exit__(self, *exc):
        Adam.step = self._orig

    def steps(self) -> list:
        """(seconds, start, end) per step, the first step dropped."""
        return [(end - start, start, end) for start, end in zip(self.starts, self.ends)][1:]


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


@dataclass
class Round:
    # every timing is a (value, start, end) sample; see ``Reference.scaled``
    step_s: dict = field(default_factory=dict)  # phase -> per-step seconds, first step dropped
    tokens_per_step: int = 0
    decode_ms_per_token: dict = field(default_factory=lambda: {"greedy": [], "beam": []})
    evaluate_s: list = field(default_factory=list)
    classify_s: list = field(default_factory=list)  # word-overlap
    ops_s: float = 0.0  # time inside the timed operations, checks excluded
    attempted: int = 0
    failures: list = field(default_factory=list)  # (layer, reason)
    outputs: dict = field(default_factory=dict)  # what the digests cover


class _Null:
    """Stands in for a tracer in untraced rounds."""

    def __init__(self):
        self.context = {}

    @contextlib.contextmanager
    def span(self, name, **tags):
        yield tags


def _attempt(rnd: Round, layer: str, fn):
    rnd.attempted += 1
    try:
        return fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        rnd.failures.append((layer, f"{type(exc).__name__}: {exc}"))
        return None


def _train_phase(rnd, tracer, phase, call):
    tracer.context.update(phase=phase, step=1)
    with StepClock() as clock, tracer.span(f"training.{phase}"):
        try:
            result = call()
        finally:
            rnd.ops_s += sum(end - start for start, end in zip(clock.starts, clock.ends))
    if result is None:
        return None
    rnd.step_s[phase] = clock.steps()
    rnd.attempted += len(clock.ends) - 1  # the call itself was counted once
    rnd.outputs[f"loss.{phase}"] = [rec["total"] for rec in result.log]
    reason = checks.loss_trace(result.log)
    if reason:
        rnd.failures.append(("training", f"{phase}: {reason}"))
    return result.model


def _decode(rnd, su, tracer, calls, outputs):
    tracer.context.update(phase="decode", step=None)
    for i, strategy, cap in calls:
        cfg = DecodeConfig(strategy=strategy, beam_width=BEAM_WIDTH if strategy == "beam" else 1,
                           max_length=cap)
        with Stopwatch() as sw, tracer.span("decoding.decode", history=i, strategy=strategy, cap=cap) as tags:
            res = _attempt(rnd, "decoding", lambda: decode(su.decoder, su.histories[i], cfg))
        rnd.ops_s += sw.raw_s
        outputs[strategy][i] = res
        if res is not None:
            tags["tokens"] = len(res.token_ids)
            rnd.decode_ms_per_token[strategy].append(sw.sample(sw.raw_s * 1000 / len(res.token_ids)))


def _commands(rnd, su, tracer):
    """``evaluate``, then word-overlap and exact-match ``classify-informative``."""
    report = su.work / "report.json"
    commands = [("evaluate", rnd.evaluate_s, ["evaluate", "--checkpoint", su.eval_ckpt, "--data",
                                              su.eval_dir, "--out", report, "--seed", su.seed])]
    for strategy in ("word-overlap", "exact-match"):
        commands.append((f"classify.{strategy}", rnd.classify_s if strategy == "word-overlap" else [],
                         ["classify-informative", "--data", su.classify_dir, "--strategy", strategy,
                          "--out", su.work / f"parts-{strategy}"]))
    for phase, samples, argv in commands:
        tracer.context.update(phase=phase)
        with Stopwatch() as sw, tracer.span(f"cli.{phase.partition('.')[0]}"):
            code = _attempt(rnd, "cli", lambda: run_cli(argv))
        rnd.ops_s += sw.raw_s
        samples.append(sw.sample(sw.raw_s))
        if code is not None and code != 0:
            rnd.failures.append(("cli", f"{argv[0]} exited {code}"))
        if code != 0:
            continue
        if phase == "evaluate":
            rnd.outputs["report"], reason = checks.report(report)
            layer = "metrics"
        else:
            rnd.outputs[f"flagged.{phase.partition('.')[2]}"], reason = checks.partition(
                su.classify_dir / "train.jsonl", argv[-1])
            layer = "informativeness"
        if reason:
            rnd.failures.append((layer, f"{phase}: {reason}"))


def run_round(su: Setup, tracer=None, check=True) -> Round:
    """Run the pipeline once. ``check`` runs the output oracles (rounds
    after the first are compared by digest instead).

    The decode calls and the commands do not depend on the training
    phases, so they are spread between them: a burst of load from
    elsewhere on the machine then hits a share of each metric's samples
    rather than all of one metric's."""
    tracer = tracer or _Null()
    shape = su.shape
    rnd = Round()
    rnd.tokens_per_step = shape.batch * (len(su.train[0].response) + 1)
    teacher_cfg, lm_cfg, student_cfg = (training_config(shape, su.seed, k) for k in shape.steps)
    v = su.train_vocab

    caps = [GREEDY_CAPS[i % len(GREEDY_CAPS)] for i in range(len(su.histories))]
    beam_index = [i for i, cap in enumerate(caps) if cap == BEAM_CAP][: shape.beam_calls]
    calls = [(i, "greedy", cap) for i, cap in enumerate(caps)] + [(i, "beam", BEAM_CAP) for i in beam_index]
    outputs = {"greedy": {}, "beam": {}}
    models = {}
    trainers = (
        ("teacher", lambda: training.train_teacher(su.train, [], shape.config(v, "scenario-based"), teacher_cfg)),
        ("lm", lambda: training.train_lm_teacher(su.train, [], shape.config(v, "language-model"), lm_cfg)),
        ("student", lambda: training.train_student(su.train, [], models["teacher"], shape.config(v),
                                                   student_cfg, lm_teacher=models["lm"])),
    )
    for part, (phase, train) in enumerate(trainers):
        if phase != "student" or None not in (models["teacher"], models["lm"]):
            models[phase] = _attempt(rnd, "training", lambda: _train_phase(rnd, tracer, phase, train))
        _decode(rnd, su, tracer, calls[part :: len(trainers)], outputs)
        if part < shape.command_repeats:
            _commands(rnd, su, tracer)
    tracer.context.update(phase=None)

    greedy = [outputs["greedy"].get(i) for i in range(len(caps))]
    beam = [outputs["beam"].get(i) for i in beam_index]
    rnd.outputs["greedy"] = [r and r.token_ids for r in greedy]
    rnd.outputs["beam"] = [r and r.token_ids for r in beam]
    if check:
        rnd.failures += checks.decode_outputs(su.decoder, su.histories, greedy, beam, beam_index)
    return rnd
