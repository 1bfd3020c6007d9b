"""Spans around the calls into each module's public functions.

The tracer patches module and class attributes of ``dialdistill`` for
the length of a traced round and restores them afterwards; nothing in
``src/`` is instrumented. Spans stay in memory (name, start, end,
parent, tags such as phase, step and history id) and are written out
when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
import tracemalloc

import numpy as np

from dialdistill import cli, training
from dialdistill import tensor as T
from dialdistill.embeddings import train_word_embeddings
from dialdistill.model import TransformerModel
from dialdistill.optim import Adam

LAYERS = ("tensor", "model", "losses", "optim", "training", "corpus", "decoding", "metrics",
          "embeddings", "informativeness", "checkpoint", "cli")
PHASES = ("teacher", "lm", "student")
MB = 1024 * 1024
SKIPGRAM_EPOCHS = inspect.signature(train_word_embeddings).parameters["epochs"].default


class Span:
    __slots__ = ("name", "start", "end", "parent", "tags", "child_s", "failed")

    def __init__(self, name, parent, tags):
        self.name, self.parent, self.tags = name, parent, tags
        self.child_s = 0.0
        self.failed = False

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s

    def record(self, index_of):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": index_of.get(id(self.parent)), **self.tags}


def _graph_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _model_tags(args, kwargs, name):
    tags = {"variant": args[0].config.variant}
    if name == "model.decode":
        rows = np.atleast_2d(np.asarray(args[1]))
        tags["positions"] = int(rows.shape[0] * rows.shape[1])
    return tags


def _embedding_tags(args, kwargs, name):
    epochs = kwargs.get("epochs", SKIPGRAM_EPOCHS)
    return {"tokens": sum(len(s) for s in args[0]) * epochs}


def _classify_tags(args, kwargs, name):
    return {"strategy": args[1]}


# (owner, attribute, span name, tag function); training and cli call these
# through their own module globals, so patching those names catches the
# calls the program makes internally.
PATCHES = (
    (training, "batchify", "corpus.batchify", None),
    (training, "total_loss", "losses.total_loss", None),
    (T, "backward", "tensor.backward", None),
    (Adam, "step", "optim.adam_step", None),
    (TransformerModel, "forward", "model.forward", _model_tags),
    (TransformerModel, "encode", "model.encode", _model_tags),
    (TransformerModel, "decode", "model.decode", _model_tags),
    (cli, "load_model", "checkpoint.load_model", None),
    (cli, "load_prepared_examples", "corpus.load_prepared_examples", None),
    (cli, "decode_one", "decoding.decode", None),
    (cli, "corpus_ppl", "metrics.corpus_ppl", None),
    (cli, "train_word_embeddings", "embeddings.train_word_embeddings", _embedding_tags),
    (cli, "distinct_n", "metrics.ngram", None),
    (cli, "kl_metric", "metrics.ngram", None),
    (cli, "bleu", "metrics.ngram", None),
    (cli, "embedding_metrics", "metrics.embedding", None),
    (cli, "coherence", "metrics.embedding", None),
    (cli, "classify_uninformative", "informativeness.classify_uninformative", _classify_tags),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.context = {}  # round, phase, step: copied into every span's tags
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **tags):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, {**self.context, **tags})
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s.tags
        except Exception:
            s.failed = True
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.seconds
            self.spans.append(s)

    def _wrap(self, orig, name, tag_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tags = tag_fn(args, kwargs, name) if tag_fn else {}
            first_student_step = tracer.context.get("phase") == "student" and tracer.context.get("step") == 1
            if name == "tensor.backward" and first_student_step:
                tags["graph_nodes"] = _graph_nodes(args[0])
            # allocation peaks are taken on the first student step, which the
            # timings drop, so tracemalloc's cost never reaches a time
            measure = first_student_step and name in ("losses.total_loss", "tensor.backward")
            with tracer.span(name, **tags) as span_tags:
                if measure:
                    tracemalloc.start()
                try:
                    return orig(*args, **kwargs)
                finally:
                    if measure:
                        span_tags["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                        tracemalloc.stop()
                    if name == "optim.adam_step":
                        tracer.context["step"] += 1

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for owner, attr, name, tag_fn in PATCHES:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, tag_fn))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def dump(self, path) -> None:
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record(index_of)) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _median(values):
    return float(np.median(values)) if len(values) else float("nan")


def _per_step_ms(spans, phase, keep):
    """Median over steps (each call's first dropped) of the summed time of
    the spans ``keep`` selects."""
    per_step = {}
    for s in spans:
        t = s.tags
        if t.get("phase") == phase and (t.get("step") or 0) > 1 and keep(s):
            key = (t.get("round"), t["step"])
            per_step[key] = per_step.get(key, 0.0) + s.seconds
    return _median(list(per_step.values())) * 1000


def _named(name, variant=None):
    return lambda s: s.name == name and variant in (None, s.tags.get("variant"))


def _per_command_s(spans, phases, names):
    """Summed span time per CLI command run in ``phases``."""
    commands = sum(1 for s in spans if s.name.startswith("cli.") and s.tags.get("phase") in phases)
    total = sum(s.seconds for s in spans if s.name in names and s.tags.get("phase") in phases)
    return total / commands if commands else float("nan")


def layer_metrics(spans, untraced: dict) -> dict:
    """Per-layer values from traced-round spans. ``untraced`` holds the
    same run's untraced figures the accounting compares against:
    ``student_step_ms`` and ``evaluate_s``."""
    m = {}
    student = [s for s in spans if s.tags.get("phase") == "student"]
    m["model.teacher_forward_ms"] = _per_step_ms(student, "student", _named("model.forward", "scenario-based"))
    m["model.lm_forward_ms"] = _per_step_ms(student, "student", _named("model.forward", "language-model"))
    m["model.encode_ms.student"] = _per_step_ms(student, "student", _named("model.encode", "conventional"))
    m["model.decode_ms.student"] = _per_step_ms(student, "student", _named("model.decode", "conventional"))
    for phase in PHASES:
        m[f"losses.total_loss_ms.{phase}"] = _per_step_ms(spans, phase, _named("losses.total_loss"))
        m[f"tensor.backward_ms.{phase}"] = _per_step_ms(spans, phase, _named("tensor.backward"))
        m[f"optim.adam_step_ms.{phase}"] = _per_step_ms(spans, phase, _named("optim.adam_step"))
    peaks = {s.name: s.tags["peak_mb"] for s in student if "peak_mb" in s.tags}
    m["losses.total_loss_peak_mb"] = peaks.get("losses.total_loss", float("nan"))
    m["tensor.backward_peak_mb"] = peaks.get("tensor.backward", float("nan"))
    m["tensor.graph_nodes.student"] = next(
        (s.tags["graph_nodes"] for s in student if "graph_nodes" in s.tags), float("nan"))
    train_steps = sum(1 for s in spans if s.name == "optim.adam_step")
    batchify = sum(s.seconds for s in spans if s.name == "corpus.batchify")
    m["corpus.batchify_ms"] = batchify / train_steps * 1000 if train_steps else float("nan")

    calls = [s for s in spans if s.name == "decoding.decode" and s.tags.get("phase") == "decode"]
    inner = [s for s in spans if s.tags.get("phase") == "decode" and s.name.startswith("model.")]
    tokens = sum(s.tags.get("tokens", 0) for s in calls)
    decodes = [s for s in inner if s.name == "model.decode"]
    m["model.encode_ms_per_call"] = _median([s.seconds for s in inner if s.name == "model.encode"]) * 1000
    m["model.decode_ms_per_call"] = _median([s.seconds for s in decodes]) * 1000
    m["model.decode_calls_per_token"] = len(decodes) / tokens if tokens else float("nan")
    m["model.decode_positions_per_token"] = (
        sum(s.tags["positions"] for s in decodes) / tokens if tokens else float("nan"))
    for strategy in ("greedy", "beam"):
        mine = [s for s in calls if s.tags["strategy"] == strategy]
        n = sum(s.tags.get("tokens", 0) for s in mine)
        m[f"decoding.self_ms_per_token.{strategy}"] = (
            sum(s.self_s for s in mine) / n * 1000 if n else float("nan"))
    for cap in (15, 30):
        m[f"decoding.ms_per_token.cap{cap}"] = _median([
            s.seconds / s.tags["tokens"] * 1000 for s in calls
            if s.tags["strategy"] == "greedy" and s.tags["cap"] == cap and s.tags.get("tokens")])

    ev = ("evaluate",)
    m["decoding.generate_s"] = _per_command_s(spans, ev, ("decoding.decode",))
    m["metrics.ppl_s"] = _per_command_s(spans, ev, ("metrics.corpus_ppl",))
    m["metrics.ngram_s"] = _per_command_s(spans, ev, ("metrics.ngram",))
    m["metrics.embedding_s"] = _per_command_s(spans, ev, ("metrics.embedding",))
    emb = [s for s in spans if s.name == "embeddings.train_word_embeddings" and s.tags.get("phase") == "evaluate"]
    m["embeddings.train_s"] = _per_command_s(spans, ev, ("embeddings.train_word_embeddings",))
    m["embeddings.tokens_per_s"] = sum(s.tags["tokens"] for s in emb) / sum(s.seconds for s in emb) if emb else float("nan")
    m["checkpoint.load_s"] = _per_command_s(spans, ev, ("checkpoint.load_model",))
    m["corpus.load_prepared_s"] = _per_command_s(
        spans, ("evaluate", "classify.word-overlap"), ("corpus.load_prepared_examples",))
    for strategy in ("word-overlap", "exact-match"):
        m[f"informativeness.{strategy.replace('-', '_')}_s"] = _per_command_s(
            spans, (f"classify.{strategy}",), ("informativeness.classify_uninformative",))

    # accounting: traced stage times against the untraced figures of the same run
    stages = _per_step_ms(student, "student", lambda s: s.parent is not None and s.parent.name == "training.student")
    m["trace.accounted_pct.student_step"] = stages / untraced["student_step_ms"] * 100
    children = [s.seconds for s in spans if s.parent is not None and s.parent.name == "cli.evaluate"]
    evaluates = sum(1 for s in spans if s.name == "cli.evaluate")
    m["trace.accounted_pct.evaluate"] = sum(children) / evaluates / untraced["evaluate_s"] * 100
    return m
