"""Command-line entry point.

Subcommands: prepare-data, train-teacher, train-student, train-lm,
generate, evaluate, analyze-robustness, analyze-wordfreq,
classify-informative.

Every option is one row of one table, ``COMMANDS``: its flag aliases,
its dotted config key, its type, its default, its help and its choices,
grouped under the subcommands that take it. ``build_parser``, the key
check and typing of ``RunConfig.apply`` and every default are read from
that table.

Configuration merges three layers, later winning: the table's defaults
(a preset's for model sizes and batch size), a JSON config file of flat
dotted keys (``{"training.lambda1": 2.0}``), then command-line flags. A
config file may set any key of the table; a null means the default. One
``--seed`` governs every random draw. Exit codes: 0 success, 2 usage
error, 1 any other failure (with a diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from .analysis import perturbation_analysis, write_perturbation_series
from .checkpoint import load_model, save_model
from .corpus import (
    DialogueExample,
    Vocabulary,
    atomic_write,
    build_vocabulary,
    corpus_token_stream,
    encode_example,
    length_filter,
    read_dialogues,
    read_lines,
    split_examples,
    tokenize,
    window_dialogues,
)
# bench/tracing.py times generation through the name decode_one
from .decoding import DecodeConfig, decode_many as decode_one
from .embeddings import WordEmbeddings, train_word_embeddings
from .errors import CheckpointFormatError, ContractError, DataError, DialDistillError
from .informativeness import STRATEGIES as INFORMATIVENESS_STRATEGIES
from .informativeness import classify_uninformative
from .metrics import (
    MetricsReport,
    bleu,
    coherence,
    corpus_ppl,
    distinct_n,
    embedding_metrics,
    kl_metric,
    word_distribution_similarity,
)
from .model import ModelConfig, desk_config, paper_config
from .training import TrainingConfig, train_nll, train_student

PRESETS = ("desk", "paper")
PRESET_BATCH = {"desk": 16, "paper": 128}


@dataclass(frozen=True)
class Option:
    """One row of the option table: a command-line flag and the config key
    it sets. ``type`` reads a flag's string or a config file's value; with
    none, a flag gives its string and a config file its raw JSON value. A
    default of None leaves the value to the preset or the config class."""

    flags: str  # space-separated aliases
    key: str
    type: type = None
    default: object = None
    help: str = None
    choices: tuple = None


@dataclass(frozen=True)
class Command:
    run: Callable
    help: str
    options: tuple


def _defaults(options) -> dict:
    return {option.key: option.default for option in options}


@dataclass
class RunConfig:
    """Everything a subcommand needs: the values a JSON config file, then
    flags, set, by dotted key, over the subcommand's table defaults."""

    values: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=lambda: _defaults(COMMON))

    def apply(self, dotted: str, value) -> None:
        option = OPTIONS.get(dotted)
        if option is None:
            hint = {
                "model.variant": " (the subcommand chooses the variant)",
                "training.seed": " (use the top-level 'seed')",
            }.get(dotted, "")
            raise ContractError(f"unknown configuration key {dotted!r}{hint}")
        if value is not None:  # null means the default
            try:  # read the way the flag reads its string
                value = value if option.type is None else option.type(str(value))
            except ValueError as exc:
                raise ContractError(
                    f"configuration key {dotted!r} needs {option.type.__name__}, got {value!r}"
                ) from exc
            if option.choices is not None and value not in option.choices:
                raise ContractError(f"unknown {dotted} {value!r}; expected one of {option.choices}")
        self.values[dotted] = value

    @classmethod
    def from_sources(cls, config_path, overrides: dict, defaults: dict = None) -> "RunConfig":
        cfg = cls() if defaults is None else cls(defaults=defaults)
        if config_path is not None:
            path = Path(config_path)
            if not path.is_file():
                raise DataError(f"config file not found: {path}")
            try:
                file_values = json.loads("".join(read_lines(path)))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid JSON: {exc}") from exc
            if not isinstance(file_values, dict):
                raise DataError(f"{path}: config must be a JSON object of dotted keys")
            for dotted in sorted(file_values):
                cfg.apply(dotted, file_values[dotted])
        for dotted, value in overrides.items():
            if value is not None:
                cfg.apply(dotted, value)
        return cfg

    def get(self, dotted: str):
        value = self.values.get(dotted)
        return self.defaults.get(dotted) if value is None else value

    def section(self, name: str) -> dict:
        """The values set under ``name.``, by field name, nulls left out."""
        prefix = name + "."
        return {key[len(prefix):]: value for key, value in self.values.items()
                if key.startswith(prefix) and value is not None}

    def to_flat(self) -> dict:
        """Every value set, with the preset and seed in use, by sorted key."""
        return dict(sorted({**self.values, "preset": self.get("preset"), "seed": self.get("seed")}.items()))

    # ---- resolution ------------------------------------------------------

    def model_config(self, vocab_size: int, variant: str) -> ModelConfig:
        factory = desk_config if self.get("preset") == "desk" else paper_config
        return factory(vocab_size, variant=variant, **self.section("model"))

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(**{"batch_size": PRESET_BATCH[self.get("preset")],
                                 **self.section("training"), "seed": self.get("seed")})

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(**self.section("decode"))

    def path(self, name: str):
        value = self.get(f"paths.{name}")
        return None if value is None else Path(value)

    def require_path(self, name: str) -> Path:
        value = self.path(name)
        if value is None:
            flag = OPTIONS[f"paths.{name}"].flags.split()[0]
            raise ContractError(f"missing required path 'paths.{name}' (flag {flag})")
        return value


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise DataError(f"file not found: {path}")
    return path


def _require_dir(path: Path) -> Path:
    if not path.is_dir():
        raise DataError(f"directory not found: {path}")
    return path


# ---------------------------------------------------------------------------
# Prepared-corpus files
# ---------------------------------------------------------------------------


def _write_examples(examples, path: Path) -> None:
    with atomic_write(path) as fh:
        for ex in examples:
            fh.write(json.dumps(vars(ex)) + "\n")  # the fields, in declaration order


def load_prepared_examples(data_dir: Path, split: str) -> list:
    path = _require_file(Path(data_dir) / f"{split}.jsonl")
    out = []
    for line_no, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise DataError("not a JSON object")
            for key, turns in (("history", rec["history"]), ("response", [rec["response"]]),
                               ("future", rec["future"])):
                if not isinstance(turns, list) or not all(
                    isinstance(t, list) and all(isinstance(w, str) for w in t) for t in turns
                ):
                    kind = "tokens" if key == "response" else "token lists"
                    raise DataError(f"{key!r} is not a list of {kind}")
            out.append(
                DialogueExample(
                    history=rec["history"],
                    response=rec["response"],
                    future=rec["future"],
                    dialogue_index=rec.get("dialogue_index", 0),
                    window_offset=rec.get("window_offset", 0),
                )
            )
        except (json.JSONDecodeError, KeyError, DataError) as exc:
            raise DataError(f"{path}:{line_no}: bad example record: {exc}") from exc
    return out


def _encode_all(examples, vocab: Vocabulary) -> list:
    return [encode_example(ex, vocab) for ex in examples]


def _vocab_from_checkpoint(configs: dict, path) -> Vocabulary:
    """The vocabulary a checkpoint carries, one token per id of its model."""
    if "vocab" not in configs:
        raise DataError(f"{path}: checkpoint carries no vocabulary; re-train to regenerate")
    tokens = configs["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointFormatError(f"{path}: 'vocab' must be a list of token strings")
    vocab = Vocabulary(tokens)
    if len(vocab) != configs["model"]["vocab_size"]:
        raise CheckpointFormatError(f"{path}: 'vocab' gives {len(vocab)} ids with the reserved ones, "
                                    f"but the model has vocab_size {configs['model']['vocab_size']}")
    return vocab


def _finalize_training(result, out_path: Path, tcfg, vocab) -> None:
    """Persist the best-validation parameters (final ones when no
    validation ran), with the vocabulary and training recipe embedded."""
    if result.best_state is not None:
        result.model.params.values[...] = result.best_state
    extras = {"training": tcfg.to_dict(), "vocab": vocab.content_tokens()}
    save_model(result.model, out_path, extra_configs=extras)


def _embedding_table(cfg: RunConfig, data_dir: Path) -> WordEmbeddings:
    """Load the configured embedding file, or train one on the train
    split (and persist it when a target path was named)."""
    emb_path = cfg.path("embeddings")
    if emb_path is not None and emb_path.is_file():
        return WordEmbeddings.load(emb_path)
    train_examples = load_prepared_examples(data_dir, "train")
    sentences = list(corpus_token_stream(train_examples))
    table = train_word_embeddings(
        sentences, dim=cfg.get("run.embedding_dim"), seed=cfg.get("seed")
    )
    if emb_path is not None:
        table.save(emb_path)
    return table


def _configured_split(cfg: RunConfig):
    """The prepared-data directory, the configured split's name and its
    examples, which must not be empty."""
    data_dir = _require_dir(cfg.require_path("data"))
    split = cfg.get("run.split")
    examples = load_prepared_examples(data_dir, split)
    if not examples:
        raise DataError(f"split {split!r} in {data_dir} is empty")
    return data_dir, split, examples


def _generate_token_responses(model, vocab, histories, decode_cfg):
    """Greedy/beam responses as token-string lists, one per history token list."""
    history_ids = [vocab.encode(history) for history in histories]
    if not all(history_ids):
        raise DataError("cannot generate from an empty history")
    return [vocab.decode(r.token_ids) for r in decode_one(model, history_ids, decode_cfg)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare_data(cfg: RunConfig) -> int:
    corpus_path = _require_file(cfg.require_path("corpus"))
    out_dir = cfg.require_path("out")
    dialogues = read_dialogues(corpus_path)
    tokenized = [[tokenize(turn) for turn in turns] for turns in dialogues]
    windows = window_dialogues(tokenized, stride=cfg.get("run.stride"))
    kept = length_filter(windows)
    if not kept:
        raise DataError("no usable windows after length filtering")
    train, val, test = split_examples(
        kept,
        cfg.get("run.val_fraction"),
        cfg.get("run.test_fraction"),
        cfg.get("seed"),
    )
    if not train:
        raise DataError("train split is empty; lower the val/test fractions")
    vocab = build_vocabulary(corpus_token_stream(train), cfg.get("run.max_vocab"))
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.txt")
    for name, split in (("train", train), ("val", val), ("test", test)):
        _write_examples(split, out_dir / f"{name}.jsonl")
    meta = {
        "dialogues": len(dialogues),
        "windows": len(windows),
        "kept": len(kept),
        "train": len(train),
        "val": len(val),
        "test": len(test),
        "vocab_size": len(vocab),
        "run_config": cfg.to_flat(),
    }
    with atomic_write(out_dir / "meta.json") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(
        f"prepared {len(kept)} windows from {len(dialogues)} dialogues -> "
        f"train {len(train)} / val {len(val)} / test {len(test)}, vocab {len(vocab)}"
    )
    return 0


def _training_inputs(cfg: RunConfig):
    data_dir = _require_dir(cfg.require_path("data"))
    vocab = Vocabulary.load(_require_file(data_dir / "vocab.txt"))
    train = _encode_all(load_prepared_examples(data_dir, "train"), vocab)
    val = _encode_all(load_prepared_examples(data_dir, "val"), vocab)
    return vocab, train, val


def _report_training(kind: str, result, out_path: Path, note: str = "") -> None:
    best = "n/a" if result.best_val_loss is None else f"{result.best_val_loss:.4f}"
    # the process's peak so far; ru_maxrss is in KiB (bytes on macOS)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak /= 1 << 20 if sys.platform == "darwin" else 1 << 10
    print(f"{kind}: {result.steps} steps, best val loss {best}, checkpoint {out_path}{note}, "
          f"peak RSS {peak:.1f} MiB")


def cmd_train_nll(cfg: RunConfig, variant: str, kind: str) -> int:
    """train-teacher and train-lm: fit ``variant`` on response NLL alone."""
    vocab, train, val = _training_inputs(cfg)
    out_path = cfg.require_path("out")
    tcfg = cfg.training_config()
    config = cfg.model_config(len(vocab), variant)
    log_path = cfg.path("log") or Path(f"{out_path}.log.jsonl")
    result = train_nll(train, val, config, tcfg, log_path=log_path)
    _finalize_training(result, out_path, tcfg, vocab)
    _report_training(kind, result, out_path)
    return 0


def _student_config(cfg: RunConfig, teacher, vocab_size: int) -> ModelConfig:
    """The student mirrors the teacher's dimensions exactly; explicit
    model overrides must agree with them."""
    if teacher.config.vocab_size != vocab_size:
        raise ContractError(
            f"teacher vocabulary size {teacher.config.vocab_size} does not match "
            f"the prepared corpus vocabulary ({vocab_size})"
        )
    derived = dict(teacher.config.to_dict())
    derived["variant"] = "conventional"
    for key, value in cfg.section("model").items():
        if derived.get(key) != value:
            raise ContractError(
                f"model override {key}={value!r} conflicts with the teacher's "
                f"{key}={derived.get(key)!r}"
            )
    return ModelConfig(**derived)


def cmd_train_student(cfg: RunConfig) -> int:
    vocab, train, val = _training_inputs(cfg)
    out_path = cfg.require_path("out")
    teacher, _ = load_model(_require_file(cfg.require_path("teacher")))
    if teacher.config.variant != "scenario-based":
        raise ContractError(
            f"--teacher must be a scenario-based checkpoint, got {teacher.config.variant!r}"
        )
    lm_teacher = None
    lm_path = cfg.path("lm_teacher")
    if lm_path is not None:
        lm_teacher, _ = load_model(_require_file(lm_path))
    tcfg = cfg.training_config()
    config = _student_config(cfg, teacher, len(vocab))
    log_path = cfg.path("log") or Path(f"{out_path}.log.jsonl")
    result = train_student(
        train, val, teacher, config, tcfg, lm_teacher=lm_teacher, log_path=log_path
    )
    _finalize_training(result, out_path, tcfg, vocab)
    _report_training("student", result, out_path, f", teacher targets kept for "
                     f"{result.cached_examples} examples ({result.cache_bytes} bytes)")
    return 0


def _history_only_model(cfg: RunConfig):
    path = _require_file(cfg.require_path("checkpoint"))
    model, configs = load_model(path)
    if model.config.variant != "conventional":
        raise ContractError(
            f"{path}: generation needs a history-only (conventional) checkpoint, "
            f"got {model.config.variant!r}"
        )
    return model, _vocab_from_checkpoint(configs, path), path


def cmd_generate(cfg: RunConfig) -> int:
    model, vocab, _ = _history_only_model(cfg)
    input_path = _require_file(cfg.require_path("input"))
    out_path = cfg.require_path("out")
    dialogues = read_dialogues(input_path)
    histories = [[tok for turn in turns for tok in tokenize(turn)] for turns in dialogues]
    marks = [time.perf_counter()]
    responses = _generate_token_responses(model, vocab, histories, cfg.decode_config())
    marks.append(time.perf_counter())
    lines = [" ".join(tokens) for tokens in responses]
    with atomic_write(out_path) as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"wrote {len(lines)} responses to {out_path}")
    _print_timings(("generation",), marks)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    model, vocab, ckpt_path = _history_only_model(cfg)
    data_dir, split, examples = _configured_split(cfg)
    out_path = cfg.path("out")
    decode_cfg = cfg.decode_config()

    references = [ex.response for ex in examples]
    histories = [ex.history_tokens for ex in examples]
    marks = [time.perf_counter()]
    generated = _generate_token_responses(model, vocab, histories, decode_cfg)
    marks.append(time.perf_counter())
    ppl_report = corpus_ppl(model, _encode_all(examples, vocab))
    marks.append(time.perf_counter())
    table = _embedding_table(cfg, data_dir)
    marks.append(time.perf_counter())

    flags = {}
    dist = {}
    for n in (1, 2, 3):
        value, defined = distinct_n(generated, n)
        dist[n] = value
        flags[f"dist{n}_no_ngrams"] = not defined
    flags["ppl_excluded_sentences"] = ppl_report.excluded
    emb = embedding_metrics(references, generated, table)
    flags["embedding_skipped_pairs"] = emb.skipped_pairs
    coh, coh_skipped = coherence(histories, generated, table)
    flags["coherence_skipped_pairs"] = coh_skipped

    report = MetricsReport(
        dist1=dist[1],
        dist2=dist[2],
        dist3=dist[3],
        kl_unigram=kl_metric(references, generated, 1),
        kl_bigram=kl_metric(references, generated, 2),
        ppl=ppl_report.value,
        bleu=bleu(references, generated),
        emb_average=emb.average,
        emb_greedy=emb.greedy,
        emb_extrema=emb.extrema,
        coherence=coh,
        generation=decode_cfg.to_dict(),
        corpus_id=f"{data_dir}:{split}",
        model_id=str(ckpt_path),
        flags=flags,
        run_config=cfg.to_flat(),
    )
    marks.append(time.perf_counter())
    report.save(out_path)
    print(
        f"evaluated {len(examples)} examples: ppl {report.ppl:.3f}, bleu {report.bleu:.2f}, "
        f"dist1 {report.dist1:.3f} -> {out_path}"
    )
    _print_timings(("generation", "perplexity", "embeddings", "metrics"), marks)
    return 0


def _print_timings(names, marks) -> None:
    # stdout only: output files must not vary from run to run
    stages = zip(names, marks, marks[1:])
    print("timing (s): " + ", ".join(f"{name} {end - start:.3f}" for name, start, end in stages))


def _parse_sigmas(raw) -> list:
    if isinstance(raw, (list, tuple)):
        return [float(s) for s in raw]
    try:
        return [float(s) for s in str(raw).split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ContractError(f"cannot parse sigma list {raw!r}") from exc


def cmd_analyze_robustness(cfg: RunConfig) -> int:
    path = _require_file(cfg.require_path("checkpoint"))
    model, configs = load_model(path)
    vocab = _vocab_from_checkpoint(configs, path)
    _, _, examples = _configured_split(cfg)
    out_path = cfg.path("out")
    records = perturbation_analysis(
        model,
        _encode_all(examples, vocab),
        _parse_sigmas(cfg.get("run.sigmas")),
        samples_per_sigma=cfg.get("run.samples_per_sigma"),
        seed=cfg.get("seed"),
    )
    write_perturbation_series(records, out_path)
    summary = ", ".join(f"σ={r['sigma']:g}: {r['mean_ppl']:.2f}" for r in records)
    print(f"perplexity under parameter noise -> {out_path} ({summary})")
    return 0


def cmd_analyze_wordfreq(cfg: RunConfig) -> int:
    model, vocab, _ = _history_only_model(cfg)
    _, split, examples = _configured_split(cfg)
    out_path = cfg.path("out")
    top_k = cfg.get("run.top_k")
    histories = [ex.history_tokens for ex in examples]
    marks = [time.perf_counter()]
    generated = _generate_token_responses(model, vocab, histories, cfg.decode_config())
    marks.append(time.perf_counter())
    references = [ex.response for ex in examples]
    similarity = word_distribution_similarity(generated, references, top_k=top_k)
    marks.append(time.perf_counter())
    payload = {
        "top_k": top_k,
        "similarity": similarity,
        "examples": len(examples),
        "split": split,
        "run_config": cfg.to_flat(),
    }
    with atomic_write(out_path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"word-frequency cosine over top-{top_k}: {similarity:.4f} -> {out_path}")
    _print_timings(("generation", "similarity"), marks)
    return 0


def cmd_classify_informative(cfg: RunConfig) -> int:
    marks = [time.perf_counter()]
    data_dir, _, examples = _configured_split(cfg)
    out_dir = cfg.path("out") or data_dir
    strategy = cfg.get("run.strategy")
    table = _embedding_table(cfg, data_dir) if strategy == "sentence-cluster" else None
    marks.append(time.perf_counter())
    uninformative, other = classify_uninformative(examples, strategy, table)
    marks.append(time.perf_counter())
    out_dir.mkdir(parents=True, exist_ok=True)
    uninf_path = out_dir / "uninformative.jsonl"
    inf_path = out_dir / "informative.jsonl"
    _write_examples([examples[i] for i in uninformative], uninf_path)
    _write_examples([examples[i] for i in other], inf_path)
    marks.append(time.perf_counter())
    print(
        f"{strategy}: {len(uninformative)} uninformative / {len(other)} informative "
        f"-> {uninf_path}, {inf_path}"
    )
    _print_timings(("load", "classify", "write"), marks)
    return 0


# ---------------------------------------------------------------------------
# The option table
# ---------------------------------------------------------------------------


def _path(name: str, help_text: str, default=None) -> Option:
    return Option(f"--{name.replace('_', '-')}", f"paths.{name}", str, default, help_text)


def _split(default: str) -> Option:
    return Option("--split", "run.split", default=default)


COMMON = (
    Option("--preset", "preset", default="desk", choices=PRESETS),
    Option("--seed", "seed", int, 0),
)
DATA = Option("--data --corpus", "paths.data", str, help="prepared-data directory (from prepare-data)")
HISTORY_ONLY = _path("checkpoint", "history-only checkpoint")
EMBEDDING_DIM = Option("--embedding-dim", "run.embedding_dim", int, 64)
MODEL = (
    Option("--model-dim", "model.model_dim", int),
    Option("--num-blocks", "model.num_blocks", int),
    Option("--num-heads", "model.num_heads", int),
    Option("--ffn-dim", "model.ffn_dim", int),
    Option("--dropout", "model.dropout_rate", float),
    Option("--max-sequence-length", "model.max_sequence_length", int),
)
TRAINING = (
    Option("--learning-rate", "training.learning_rate", float),
    Option("--grad-clip-norm", "training.grad_clip_norm", float),
    Option("--batch-size", "training.batch_size", int),
    Option("--alpha", "training.alpha", float),
    Option("--lambda1", "training.lambda1", float),
    Option("--lambda-lm", "training.lambda_lm", float),
    Option("--epochs", "training.epochs", int),
    Option("--max-steps", "training.max_steps", int),
    Option("--hard-transfer-scope", "training.hard_transfer_scope", str),
    Option("--val-every", "training.val_every", int),
    Option("--log-every", "training.log_every", int),
)
TRAIN_COMMAND = (
    DATA,
    _path("out", "checkpoint output path"),
    _path("log", "training log path (JSONL)"),
    *MODEL,
    *TRAINING,
)
DECODE = (
    Option("--decode-strategy", "decode.strategy", str),
    Option("--beam-width", "decode.beam_width", int),
    Option("--max-length", "decode.max_length", int),
    Option("--length-penalty", "decode.length_penalty", float),
)

COMMANDS = {
    "prepare-data": Command(cmd_prepare_data, "window, filter, split, and build the vocabulary", (
        _path("corpus", "raw dialogue corpus (format A or B)"),
        _path("out", "output directory for splits and vocab"),
        Option("--stride", "run.stride", int, 1),
        Option("--max-vocab", "run.max_vocab", int, 20000),
        Option("--val-fraction", "run.val_fraction", float, 0.1),
        Option("--test-fraction", "run.test_fraction", float, 0.1),
    )),
    "train-teacher": Command(partial(cmd_train_nll, variant="scenario-based", kind="teacher"),
                             "fit the future-aware teacher", TRAIN_COMMAND),
    "train-lm": Command(partial(cmd_train_nll, variant="language-model", kind="language model"),
                        "fit the response language model", TRAIN_COMMAND),
    "train-student": Command(cmd_train_student, "distill a history-only student from the teacher", (
        *TRAIN_COMMAND,
        _path("teacher", "teacher checkpoint"),
        _path("lm_teacher", "optional language-model checkpoint"),
    )),
    "generate": Command(cmd_generate, "decode one response per input history", (
        HISTORY_ONLY,
        _path("input", "histories file (format A or B)"),
        _path("out", "output file, one response per line"),
        *DECODE,
    )),
    "evaluate": Command(cmd_evaluate, "full metric battery over a prepared split", (
        HISTORY_ONLY,
        DATA,
        _path("embeddings", "embedding text file (trained if absent)"),
        _path("out", "metrics report path", "report.json"),
        _split("test"),
        EMBEDDING_DIM,
        *DECODE,
    )),
    "analyze-robustness": Command(cmd_analyze_robustness, "perplexity under parameter noise", (
        _path("checkpoint", "checkpoint to perturb"),
        DATA,
        _path("out", "output series (JSONL)", "robustness.jsonl"),
        _split("val"),
        Option("--sigmas", "run.sigmas", None, "0,0.01,0.05,0.1", "comma-separated, e.g. 0,0.01,0.1"),
        Option("--samples", "run.samples_per_sigma", int, 5),
    )),
    "analyze-wordfreq": Command(cmd_analyze_wordfreq, "generated-vs-reference word-frequency cosine", (
        HISTORY_ONLY,
        DATA,
        _path("out", "output JSON path", "wordfreq.json"),
        _split("test"),
        Option("--top-k", "run.top_k", int, 2350),
        *DECODE,
    )),
    "classify-informative": Command(cmd_classify_informative, "partition a split into uninformative/other", (
        DATA,
        _path("embeddings", "embedding file for sentence-cluster"),
        _path("out", "output directory for the two partition files"),
        _split("train"),
        Option("--strategy", "run.strategy", default="exact-match", choices=INFORMATIVENESS_STRATEGIES),
        EMBEDDING_DIM,
    )),
}
# the rows of one key agree on everything but default and help
OPTIONS = {option.key: option for command in COMMANDS.values() for option in COMMON + command.options}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialdistill",
        description="Train and evaluate future-aware dialogue teachers and distilled students.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file of flat dotted keys")
        for option in COMMON + command.options:
            p.add_argument(*option.flags.split(), dest=option.key, type=option.type,
                           choices=option.choices, help=option.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    options = COMMON + command.options
    overrides = {option.key: getattr(args, option.key) for option in options}
    try:
        cfg = RunConfig.from_sources(args.config, overrides, _defaults(options))
        return command.run(cfg)
    except (DialDistillError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
