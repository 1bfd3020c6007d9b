"""Command-line entry point.

Subcommands: prepare-data, train-teacher, train-student, train-lm,
generate, evaluate, analyze-robustness, analyze-wordfreq,
classify-informative.

Configuration merges three layers, later winning: built-in defaults
(per preset), a JSON config file of flat dotted keys
(``{"training.lambda1": 2.0}``), then command-line flags. One ``--seed``
governs every random draw. Exit codes: 0 success, 2 usage error,
1 any other failure (with a diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .analysis import perturbation_analysis, write_perturbation_series
from .checkpoint import load_model, save_model
from .corpus import (
    DialogueExample,
    Vocabulary,
    build_vocabulary,
    corpus_token_stream,
    encode_example,
    length_filter,
    read_dialogues,
    split_examples,
    tokenize,
    window_dialogues,
)
from .decoding import DecodeConfig, decode as decode_one
from .embeddings import WordEmbeddings, train_word_embeddings
from .errors import ContractError, DataError, DialDistillError
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

_MODEL_KEYS = frozenset(ModelConfig.__dataclass_fields__) - {"variant", "vocab_size"}
_TRAINING_KEYS = frozenset(TrainingConfig.__dataclass_fields__) - {"seed"}
_DECODE_KEYS = frozenset(DecodeConfig.__dataclass_fields__)
_PATH_KEYS = frozenset(
    ("corpus", "data", "out", "checkpoint", "teacher", "lm_teacher", "embeddings", "input", "log")
)
_RUN_KEYS = frozenset(
    (
        "split",
        "sigmas",
        "samples_per_sigma",
        "top_k",
        "strategy",
        "val_fraction",
        "test_fraction",
        "stride",
        "max_vocab",
        "embedding_dim",
    )
)

_RUN_DEFAULTS = {
    "sigmas": "0,0.01,0.05,0.1",
    "samples_per_sigma": 5,
    "top_k": 2350,
    "strategy": "exact-match",
    "val_fraction": 0.1,
    "test_fraction": 0.1,
    "stride": 1,
    "max_vocab": 20000,
    "embedding_dim": 64,
}


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from defaults, the JSON
    config file, then flags."""

    preset: str = "desk"
    seed: int = 0
    model: dict = field(default_factory=dict)  # overrides onto the preset
    training: dict = field(default_factory=dict)
    decode: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)  # command-specific knobs

    def apply(self, dotted: str, value) -> None:
        if dotted == "preset":
            if value not in PRESETS:
                raise ContractError(f"unknown preset {value!r}; expected one of {PRESETS}")
            self.preset = value
            return
        if dotted == "seed":
            self.seed = int(value)
            return
        section, _, key = dotted.partition(".")
        allowed = {
            "model": _MODEL_KEYS,
            "training": _TRAINING_KEYS,
            "decode": _DECODE_KEYS,
            "paths": _PATH_KEYS,
            "run": _RUN_KEYS,
        }.get(section)
        if allowed is None or key not in allowed:
            hint = ""
            if dotted in ("model.variant",):
                hint = " (the subcommand chooses the variant)"
            if dotted in ("training.seed",):
                hint = " (use the top-level 'seed')"
            raise ContractError(f"unknown configuration key {dotted!r}{hint}")
        getattr(self, section)[key] = value

    @classmethod
    def from_sources(cls, config_path, overrides: dict) -> "RunConfig":
        cfg = cls()
        if config_path is not None:
            path = Path(config_path)
            if not path.is_file():
                raise DataError(f"config file not found: {path}")
            try:
                file_values = json.loads(path.read_text(encoding="utf-8"))
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

    def to_flat(self) -> dict:
        flat = {"preset": self.preset, "seed": self.seed}
        for section in ("model", "training", "decode", "paths", "run"):
            for key, value in sorted(getattr(self, section).items()):
                flat[f"{section}.{key}"] = value
        return flat

    # ---- resolution ------------------------------------------------------

    def model_config(self, vocab_size: int, variant: str) -> ModelConfig:
        factory = desk_config if self.preset == "desk" else paper_config
        return factory(vocab_size, variant=variant, **self.model)

    def training_config(self) -> TrainingConfig:
        merged = {"batch_size": PRESET_BATCH[self.preset]}
        merged.update(self.training)
        merged["seed"] = self.seed
        return TrainingConfig(**merged)

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(**self.decode)

    def run_value(self, key: str, command_default=None):
        if key in self.run:
            return self.run[key]
        if key in _RUN_DEFAULTS:
            return _RUN_DEFAULTS[key]
        return command_default

    def path(self, key: str, default=None):
        value = self.paths.get(key, default)
        return None if value is None else Path(value)

    def require_path(self, key: str) -> Path:
        value = self.path(key)
        if value is None:
            raise ContractError(f"missing required path 'paths.{key}' (flag --{key.replace('_', '-')})")
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


def _example_record(ex: DialogueExample) -> dict:
    return {
        "history": ex.history,
        "response": ex.response,
        "future": ex.future,
        "dialogue_index": ex.dialogue_index,
        "window_offset": ex.window_offset,
    }


def _write_examples(examples, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(_example_record(ex)) + "\n")


def load_prepared_examples(data_dir: Path, split: str) -> list:
    path = _require_file(Path(data_dir) / f"{split}.jsonl")
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
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


def _load_vocab(data_dir: Path) -> Vocabulary:
    return Vocabulary.load(_require_file(Path(data_dir) / "vocab.txt"))


def _encode_all(examples, vocab: Vocabulary) -> list:
    return [encode_example(ex, vocab) for ex in examples]


def _vocab_from_checkpoint(configs: dict, path) -> Vocabulary:
    if "vocab" not in configs:
        raise DataError(f"{path}: checkpoint carries no vocabulary; re-train to regenerate")
    return Vocabulary(configs["vocab"])


def _finalize_training(result, out_path: Path, tcfg, vocab) -> None:
    """Persist the best-validation parameters (final ones when no
    validation ran), with the vocabulary and training recipe embedded."""
    if result.best_state is not None:
        result.model.params.load_state(result.best_state)
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
        sentences, dim=int(cfg.run_value("embedding_dim")), seed=cfg.seed
    )
    if emb_path is not None:
        table.save(emb_path)
    return table


def _generate_token_responses(model, vocab, histories, decode_cfg):
    """Greedy/beam responses as token-string lists, one per history token list."""
    outputs = []
    for history in histories:
        history_ids = vocab.encode(history)
        if not history_ids:
            raise DataError("cannot generate from an empty history")
        result = decode_one(model, history_ids, decode_cfg)
        outputs.append(vocab.decode(result.token_ids))
    return outputs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare_data(cfg: RunConfig) -> int:
    corpus_path = _require_file(cfg.require_path("corpus"))
    out_dir = cfg.require_path("out")
    dialogues = read_dialogues(corpus_path)
    tokenized = [[tokenize(turn) for turn in turns] for turns in dialogues]
    windows = window_dialogues(tokenized, stride=int(cfg.run_value("stride")))
    kept = length_filter(windows)
    if not kept:
        raise DataError("no usable windows after length filtering")
    train, val, test = split_examples(
        kept,
        float(cfg.run_value("val_fraction")),
        float(cfg.run_value("test_fraction")),
        cfg.seed,
    )
    if not train:
        raise DataError("train split is empty; lower the val/test fractions")
    vocab = build_vocabulary(corpus_token_stream(train), int(cfg.run_value("max_vocab")))
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
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(
        f"prepared {len(kept)} windows from {len(dialogues)} dialogues -> "
        f"train {len(train)} / val {len(val)} / test {len(test)}, vocab {len(vocab)}"
    )
    return 0


def _training_inputs(cfg: RunConfig):
    data_dir = _require_dir(cfg.require_path("data"))
    vocab = _load_vocab(data_dir)
    train = _encode_all(load_prepared_examples(data_dir, "train"), vocab)
    val = _encode_all(load_prepared_examples(data_dir, "val"), vocab)
    return data_dir, vocab, train, val


def _report_training(kind: str, result, out_path: Path) -> None:
    best = "n/a" if result.best_val_loss is None else f"{result.best_val_loss:.4f}"
    print(f"{kind}: {result.steps} steps, best val loss {best}, checkpoint {out_path}")


def cmd_train_nll(cfg: RunConfig, variant: str, kind: str) -> int:
    """train-teacher and train-lm: fit ``variant`` on response NLL alone."""
    _, vocab, train, val = _training_inputs(cfg)
    out_path = cfg.require_path("out")
    tcfg = cfg.training_config()
    config = cfg.model_config(len(vocab), variant)
    log_path = cfg.path("log", default=f"{out_path}.log.jsonl")
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
    for key, value in cfg.model.items():
        if derived.get(key) != value:
            raise ContractError(
                f"model override {key}={value!r} conflicts with the teacher's "
                f"{key}={derived.get(key)!r}"
            )
    return ModelConfig.from_dict(derived)


def cmd_train_student(cfg: RunConfig) -> int:
    _, vocab, train, val = _training_inputs(cfg)
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
    log_path = cfg.path("log", default=f"{out_path}.log.jsonl")
    result = train_student(
        train, val, teacher, config, tcfg, lm_teacher=lm_teacher, log_path=log_path
    )
    _finalize_training(result, out_path, tcfg, vocab)
    _report_training("student", result, out_path)
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
    responses = _generate_token_responses(model, vocab, histories, cfg.decode_config())
    lines = [" ".join(tokens) for tokens in responses]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"wrote {len(lines)} responses to {out_path}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    model, vocab, ckpt_path = _history_only_model(cfg)
    data_dir = _require_dir(cfg.require_path("data"))
    split = cfg.run_value("split", "test")
    out_path = cfg.path("out", default="report.json")
    examples = load_prepared_examples(data_dir, split)
    if not examples:
        raise DataError(f"split {split!r} in {data_dir} is empty")
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
    data_dir = _require_dir(cfg.require_path("data"))
    split = cfg.run_value("split", "val")
    out_path = cfg.path("out", default="robustness.jsonl")
    examples = _encode_all(load_prepared_examples(data_dir, split), vocab)
    if not examples:
        raise DataError(f"split {split!r} in {data_dir} is empty")
    records = perturbation_analysis(
        model,
        examples,
        _parse_sigmas(cfg.run_value("sigmas")),
        samples_per_sigma=int(cfg.run_value("samples_per_sigma")),
        seed=cfg.seed,
    )
    write_perturbation_series(records, out_path)
    summary = ", ".join(f"σ={r['sigma']:g}: {r['mean_ppl']:.2f}" for r in records)
    print(f"perplexity under parameter noise -> {out_path} ({summary})")
    return 0


def cmd_analyze_wordfreq(cfg: RunConfig) -> int:
    model, vocab, _ = _history_only_model(cfg)
    data_dir = _require_dir(cfg.require_path("data"))
    split = cfg.run_value("split", "test")
    out_path = cfg.path("out", default="wordfreq.json")
    top_k = int(cfg.run_value("top_k"))
    examples = load_prepared_examples(data_dir, split)
    if not examples:
        raise DataError(f"split {split!r} in {data_dir} is empty")
    histories = [ex.history_tokens for ex in examples]
    generated = _generate_token_responses(model, vocab, histories, cfg.decode_config())
    references = [ex.response for ex in examples]
    similarity = word_distribution_similarity(generated, references, top_k=top_k)
    payload = {
        "top_k": top_k,
        "similarity": similarity,
        "examples": len(examples),
        "split": split,
        "run_config": cfg.to_flat(),
    }
    Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"word-frequency cosine over top-{top_k}: {similarity:.4f} -> {out_path}")
    return 0


def cmd_classify_informative(cfg: RunConfig) -> int:
    data_dir = _require_dir(cfg.require_path("data"))
    split = cfg.run_value("split", "train")
    out_dir = cfg.path("out", default=data_dir)
    strategy = cfg.run_value("strategy")
    if strategy not in INFORMATIVENESS_STRATEGIES:
        raise ContractError(
            f"unknown strategy {strategy!r}; expected one of {INFORMATIVENESS_STRATEGIES}"
        )
    marks = [time.perf_counter()]
    examples = load_prepared_examples(data_dir, split)
    if not examples:
        raise DataError(f"split {split!r} in {data_dir} is empty")
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
# Argument parsing
# ---------------------------------------------------------------------------

_MODEL_FLAGS = (
    ("--model-dim", "model.model_dim", int),
    ("--num-blocks", "model.num_blocks", int),
    ("--num-heads", "model.num_heads", int),
    ("--ffn-dim", "model.ffn_dim", int),
    ("--dropout", "model.dropout_rate", float),
    ("--max-sequence-length", "model.max_sequence_length", int),
)
_TRAINING_FLAGS = (
    ("--learning-rate", "training.learning_rate", float),
    ("--grad-clip-norm", "training.grad_clip_norm", float),
    ("--batch-size", "training.batch_size", int),
    ("--alpha", "training.alpha", float),
    ("--lambda1", "training.lambda1", float),
    ("--lambda-lm", "training.lambda_lm", float),
    ("--epochs", "training.epochs", int),
    ("--max-steps", "training.max_steps", int),
    ("--hard-transfer-scope", "training.hard_transfer_scope", str),
    ("--val-every", "training.val_every", int),
    ("--log-every", "training.log_every", int),
)
_DECODE_FLAGS = (
    ("--decode-strategy", "decode.strategy", str),
    ("--beam-width", "decode.beam_width", int),
    ("--max-length", "decode.max_length", int),
    ("--length-penalty", "decode.length_penalty", float),
)


def _add_flags(parser, specs):
    for flag, dotted, kind in specs:
        parser.add_argument(flag, dest=dotted, type=kind, default=None, metavar=dotted)


def _add_path_flag(parser, name, help_text):
    parser.add_argument(
        f"--{name.replace('_', '-')}", dest=f"paths.{name}", default=None, help=help_text
    )


def _add_data_flag(parser):
    parser.add_argument(
        "--data",
        "--corpus",
        dest="paths.data",
        default=None,
        help="prepared-data directory (from prepare-data)",
    )


def _add_common(parser):
    parser.add_argument("--config", default=None, help="JSON file of flat dotted keys")
    parser.add_argument("--preset", dest="preset", choices=PRESETS, default=None)
    parser.add_argument("--seed", dest="seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialdistill",
        description="Train and evaluate future-aware dialogue teachers and distilled students.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="window, filter, split, and build the vocabulary")
    _add_common(p)
    _add_path_flag(p, "corpus", "raw dialogue corpus (format A or B)")
    _add_path_flag(p, "out", "output directory for splits and vocab")
    p.add_argument("--stride", dest="run.stride", type=int, default=None)
    p.add_argument("--max-vocab", dest="run.max_vocab", type=int, default=None)
    p.add_argument("--val-fraction", dest="run.val_fraction", type=float, default=None)
    p.add_argument("--test-fraction", dest="run.test_fraction", type=float, default=None)
    p.set_defaults(func=cmd_prepare_data)

    for name, variant, kind, help_text in (
        ("train-teacher", "scenario-based", "teacher", "fit the future-aware teacher"),
        ("train-lm", "language-model", "language model", "fit the response language model"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        _add_data_flag(p)
        _add_path_flag(p, "out", "checkpoint output path")
        _add_path_flag(p, "log", "training log path (JSONL)")
        _add_flags(p, _MODEL_FLAGS)
        _add_flags(p, _TRAINING_FLAGS)
        p.set_defaults(func=partial(cmd_train_nll, variant=variant, kind=kind))

    p = sub.add_parser("train-student", help="distill a history-only student from the teacher")
    _add_common(p)
    _add_data_flag(p)
    _add_path_flag(p, "out", "checkpoint output path")
    _add_path_flag(p, "log", "training log path (JSONL)")
    _add_path_flag(p, "teacher", "teacher checkpoint")
    _add_path_flag(p, "lm_teacher", "optional language-model checkpoint")
    _add_flags(p, _MODEL_FLAGS)
    _add_flags(p, _TRAINING_FLAGS)
    p.set_defaults(func=cmd_train_student)

    p = sub.add_parser("generate", help="decode one response per input history")
    _add_common(p)
    _add_path_flag(p, "checkpoint", "history-only checkpoint")
    _add_path_flag(p, "input", "histories file (format A or B)")
    _add_path_flag(p, "out", "output file, one response per line")
    _add_flags(p, _DECODE_FLAGS)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="full metric battery over a prepared split")
    _add_common(p)
    _add_path_flag(p, "checkpoint", "history-only checkpoint")
    _add_data_flag(p)
    _add_path_flag(p, "embeddings", "embedding text file (trained if absent)")
    _add_path_flag(p, "out", "metrics report path")
    p.add_argument("--split", dest="run.split", default=None)
    p.add_argument("--embedding-dim", dest="run.embedding_dim", type=int, default=None)
    _add_flags(p, _DECODE_FLAGS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-robustness", help="perplexity under parameter noise")
    _add_common(p)
    _add_path_flag(p, "checkpoint", "checkpoint to perturb")
    _add_data_flag(p)
    _add_path_flag(p, "out", "output series (JSONL)")
    p.add_argument("--split", dest="run.split", default=None)
    p.add_argument("--sigmas", dest="run.sigmas", default=None, help="comma-separated, e.g. 0,0.01,0.1")
    p.add_argument("--samples", dest="run.samples_per_sigma", type=int, default=None)
    p.set_defaults(func=cmd_analyze_robustness)

    p = sub.add_parser("analyze-wordfreq", help="generated-vs-reference word-frequency cosine")
    _add_common(p)
    _add_path_flag(p, "checkpoint", "history-only checkpoint")
    _add_data_flag(p)
    _add_path_flag(p, "out", "output JSON path")
    p.add_argument("--split", dest="run.split", default=None)
    p.add_argument("--top-k", dest="run.top_k", type=int, default=None)
    _add_flags(p, _DECODE_FLAGS)
    p.set_defaults(func=cmd_analyze_wordfreq)

    p = sub.add_parser("classify-informative", help="partition a split into uninformative/other")
    _add_common(p)
    _add_data_flag(p)
    _add_path_flag(p, "embeddings", "embedding file for sentence-cluster")
    _add_path_flag(p, "out", "output directory for the two partition files")
    p.add_argument("--split", dest="run.split", default=None)
    p.add_argument(
        "--strategy", dest="run.strategy", choices=INFORMATIVENESS_STRATEGIES, default=None
    )
    p.add_argument("--embedding-dim", dest="run.embedding_dim", type=int, default=None)
    p.set_defaults(func=cmd_classify_informative)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        key: value for key, value in vars(args).items() if "." in key or key in ("preset", "seed")
    }
    try:
        cfg = RunConfig.from_sources(args.config, overrides)
        return args.func(cfg)
    except DialDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
