"""End-to-end tests for the command-line interface.

One module-scoped pipeline runs every training command once on a tiny
synthetic corpus; the feature tests then drive the downstream commands
against those artifacts and check the files they leave behind.
"""

import json
import os
import re
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dialdistill.checkpoint import MAGIC, load_checkpoint, load_model, save_checkpoint
from dialdistill.cli import (
    COMMANDS,
    COMMON,
    OPTIONS,
    PRESET_BATCH,
    RunConfig,
    _parse_sigmas,
    build_parser,
    load_prepared_examples,
    main,
)
from dialdistill.corpus import Vocabulary, encode_example
from dialdistill.decoding import DecodeConfig
from dialdistill.errors import ContractError, DataError
from dialdistill.informativeness import classify_uninformative
from dialdistill.metrics import MetricsReport
from dialdistill.model import ModelConfig
from dialdistill.training import TrainingConfig, train_conventional

WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey", "xray",
]

# ten tokens per turn once tokenized: nine words plus the period
TURN_TOKENS = 10

MODEL_FLAGS = [
    "--model-dim", "16",
    "--num-blocks", "1",
    "--num-heads", "2",
    "--ffn-dim", "32",
    "--dropout", "0.0",
]
TRAIN_FLAGS = ["--max-steps", "3", "--batch-size", "4", "--val-every", "2"]


def random_turn(rng):
    words = [WORDS[int(rng.integers(len(WORDS)))] for _ in range(TURN_TOKENS - 1)]
    return " ".join(words) + " ."


PEAK_RSS = re.compile(r", peak RSS (\d+\.\d) MiB$")


def peak_rss_mib():
    """The process's ``ru_maxrss`` in MiB (KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def count_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    rng = np.random.default_rng(1234)

    corpus = root / "corpus.txt"
    lines = []
    for _ in range(12):
        turns = [random_turn(rng) for _ in range(8)]
        lines.append(" __eou__ ".join(turns))
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    data = root / "data"
    rc = main(
        [
            "prepare-data", "--corpus", str(corpus), "--out", str(data),
            "--seed", "0", "--val-fraction", "0.2", "--test-fraction", "0.2",
        ]
    )
    assert rc == 0

    teacher = root / "teacher.ckpt"
    rc = main(
        ["train-teacher", "--data", str(data), "--out", str(teacher), "--seed", "1"]
        + MODEL_FLAGS + TRAIN_FLAGS
    )
    assert rc == 0

    lm = root / "lm.ckpt"
    rc = main(
        ["train-lm", "--data", str(data), "--out", str(lm), "--seed", "1"]
        + MODEL_FLAGS + TRAIN_FLAGS
    )
    assert rc == 0

    student = root / "student.ckpt"
    rc = main(
        [
            "train-student", "--data", str(data), "--out", str(student),
            "--teacher", str(teacher), "--lm-teacher", str(lm), "--seed", "2",
        ]
        + MODEL_FLAGS + TRAIN_FLAGS
    )
    assert rc == 0

    histories = root / "histories.jsonl"
    with open(histories, "w", encoding="utf-8") as fh:
        for _ in range(4):
            fh.write(json.dumps({"turns": [random_turn(rng) for _ in range(3)]}) + "\n")

    # second corpus crafted for the informativeness partition: dialogues
    # one and two share their response turn behind different contexts
    shared = random_turn(rng)
    crafted = []
    for i in range(3):
        turns = [random_turn(rng) for _ in range(7)]
        if i < 2:
            turns[3] = shared
        crafted.append(" __eou__ ".join(turns))
    corpus2 = root / "corpus2.txt"
    corpus2.write_text("\n".join(crafted) + "\n", encoding="utf-8")
    data2 = root / "data2"
    rc = main(
        [
            "prepare-data", "--corpus", str(corpus2), "--out", str(data2),
            "--seed", "0", "--val-fraction", "0", "--test-fraction", "0",
        ]
    )
    assert rc == 0

    return {
        "root": root,
        "corpus": corpus,
        "data": data,
        "teacher": teacher,
        "lm": lm,
        "student": student,
        "histories": histories,
        "data2": data2,
    }


class TestPrepareData:
    def test_artifacts_exist(self, pipeline):
        data = pipeline["data"]
        for name in ("vocab.txt", "train.jsonl", "val.jsonl", "test.jsonl", "meta.json"):
            assert (data / name).is_file()

    def test_meta_counts_match_files(self, pipeline):
        data = pipeline["data"]
        meta = json.loads((data / "meta.json").read_text())
        assert meta["train"] == count_lines(data / "train.jsonl")
        assert meta["val"] == count_lines(data / "val.jsonl")
        assert meta["test"] == count_lines(data / "test.jsonl")
        assert meta["train"] + meta["val"] + meta["test"] == meta["kept"]
        assert meta["vocab_size"] == len(Vocabulary.load(data / "vocab.txt"))
        assert meta["run_config"]["seed"] == 0

    def test_windows_respect_length_bounds(self, pipeline):
        examples = load_prepared_examples(pipeline["data"], "train")
        assert examples
        for ex in examples:
            assert 5 <= len(ex.response) <= 25
            assert 25 <= len(ex.history_tokens) <= 80
            assert 25 <= len(ex.future_tokens) <= 80
            assert len(ex.history) == 3 and len(ex.future) == 3

    def test_rerun_is_deterministic(self, pipeline, tmp_path):
        out = tmp_path / "again"
        rc = main(
            [
                "prepare-data", "--corpus", str(pipeline["corpus"]), "--out", str(out),
                "--seed", "0", "--val-fraction", "0.2", "--test-fraction", "0.2",
            ]
        )
        assert rc == 0
        for name in ("vocab.txt", "train.jsonl", "val.jsonl", "test.jsonl"):
            assert (out / name).read_bytes() == (pipeline["data"] / name).read_bytes()


class TestTrainingCommands:
    def test_checkpoints_load_with_expected_variants(self, pipeline):
        teacher, t_configs = load_model(pipeline["teacher"])
        student, s_configs = load_model(pipeline["student"])
        lm, _ = load_model(pipeline["lm"])
        assert teacher.config.variant == "scenario-based"
        assert student.config.variant == "conventional"
        assert lm.config.variant == "language-model"
        assert teacher.config.model_dim == 16
        vocab = Vocabulary.load(pipeline["data"] / "vocab.txt")
        assert t_configs["vocab"] == vocab.content_tokens()
        assert s_configs["training"]["seed"] == 2
        assert s_configs["training"]["max_steps"] == 3

    def test_training_logs_are_json_lines(self, pipeline):
        for key in ("teacher", "lm", "student"):
            log_path = pipeline[key].with_name(pipeline[key].name + ".log.jsonl")
            assert log_path.is_file()
            records = [json.loads(l) for l in log_path.read_text().splitlines() if l.strip()]
            assert records and records[-1]["step"] == 3
            for rec in records:
                assert {"step", "nll", "total"} <= set(rec)

    def test_student_log_tracks_lm_component(self, pipeline):
        log_path = pipeline["student"].with_name(pipeline["student"].name + ".log.jsonl")
        records = [json.loads(l) for l in log_path.read_text().splitlines() if l.strip()]
        assert all("lm_prediction" in rec for rec in records)

    def test_student_summary_reports_kept_teacher_targets(self, pipeline, tmp_path, capsys):
        out = tmp_path / "s.ckpt"
        rc = main(
            [
                "train-student", "--data", str(pipeline["data"]), "--out", str(out),
                "--teacher", str(pipeline["teacher"]), "--lm-teacher", str(pipeline["lm"]),
            ]
            + MODEL_FLAGS + TRAIN_FLAGS
        )
        assert rc == 0
        train = load_prepared_examples(pipeline["data"], "train")
        # 3 steps of 4 examples; rows of width 16 for the teacher's one block and the LM's
        rows = sum(len(ex.response) + 1 for ex in train)
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("student: 3 steps, best val loss ")
        assert PEAK_RSS.search(line)
        assert PEAK_RSS.sub("", line).endswith(
            f", checkpoint {out}, teacher targets kept for {min(12, len(train))} examples "
            f"({rows * 16 * 4 * 2} bytes)"
        )

    @pytest.mark.parametrize(
        "command, kind", [("train-teacher", "teacher"), ("train-lm", "language model")]
    )
    def test_summary_ends_with_the_peak_rss(self, pipeline, tmp_path, capsys, command, kind):
        out = tmp_path / "m.ckpt"
        before = peak_rss_mib()
        rc = main(
            [command, "--data", str(pipeline["data"]), "--out", str(out)] + MODEL_FLAGS + TRAIN_FLAGS
        )
        after = peak_rss_mib()
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"{kind}: 3 steps, best val loss ")
        # the process's peak when the summary was printed, to 0.1 MiB
        assert before - 0.05 <= float(PEAK_RSS.search(line).group(1)) <= after + 0.05
        assert PEAK_RSS.sub("", line).endswith(f", checkpoint {out}")
        # the figure is not deterministic, so the log records leave it out
        records = [json.loads(l) for l in Path(f"{out}.log.jsonl").read_text().splitlines()]
        assert records and not any("rss" in key for rec in records for key in rec)

    def test_student_rejects_model_override_mismatch(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "train-student", "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "s.ckpt"), "--teacher", str(pipeline["teacher"]),
                "--model-dim", "32",
            ]
        )
        assert rc == 1
        assert "model_dim" in capsys.readouterr().err

    def test_nonpositive_step_counts_rejected(self, pipeline, tmp_path, capsys):
        for flag, value in (("--epochs", "0"), ("--max-steps", "0"), ("--max-steps", "-3")):
            out = tmp_path / "teacher.ckpt"
            rc = main(
                ["train-teacher", "--data", str(pipeline["data"]), "--out", str(out), flag, value]
                + MODEL_FLAGS
            )
            assert rc == 1
            assert capsys.readouterr().err.startswith("error:")
            assert not out.exists()

    def test_negative_lm_weight_and_nonpositive_learning_rate_rejected(self, pipeline, tmp_path, capsys):
        for flag, value in (("--lambda-lm", "-0.5"), ("--learning-rate", "0"), ("--learning-rate", "-1e-3")):
            out = tmp_path / "s.ckpt"
            rc = main(
                [
                    "train-student", "--data", str(pipeline["data"]), "--out", str(out),
                    "--teacher", str(pipeline["teacher"]), "--lm-teacher", str(pipeline["lm"]), f"{flag}={value}",
                ]
                + MODEL_FLAGS
            )
            assert rc == 1
            assert capsys.readouterr().err.startswith("error:")
            assert not out.exists()

    def test_malformed_checkpoint_header_rejected(self, pipeline, tmp_path, capsys):
        header = json.dumps({"configs": {}, "manifest": {"w": [2]}}).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        rc = main(
            [
                "train-student", "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "s.ckpt"), "--teacher", str(bad),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_heads_rejected(self, pipeline, tmp_path, capsys):
        out = tmp_path / "teacher.ckpt"
        rc = main(["train-teacher", "--data", str(pipeline["data"]), "--out", str(out),
                   "--preset", "desk", "--num-heads", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_heads" in err
        assert not out.exists()

    def test_student_rejects_conventional_teacher(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "train-student", "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "s.ckpt"), "--teacher", str(pipeline["student"]),
            ]
        )
        assert rc == 1
        assert "scenario-based" in capsys.readouterr().err


def timing_stages(stdout: str) -> dict:
    """The stages and seconds of the one ``timing (s):`` line a command prints."""
    timing = [line for line in stdout.splitlines() if line.startswith("timing (s): ")]
    assert len(timing) == 1
    stages = {name: float(v) for name, v in (item.split(" ") for item in timing[0][len("timing (s): "):].split(", "))}
    assert all(v >= 0.0 for v in stages.values())
    return stages


class TestGenerate:
    def test_one_response_per_history(self, pipeline, tmp_path):
        out = tmp_path / "responses.txt"
        rc = main(
            [
                "generate", "--checkpoint", str(pipeline["student"]),
                "--input", str(pipeline["histories"]), "--out", str(out),
                "--max-length", "6",
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        vocab = Vocabulary.load(pipeline["data"] / "vocab.txt")
        for line in lines:
            for tok in line.split():
                assert tok in vocab

    def test_generation_is_deterministic(self, pipeline, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = main(
                [
                    "generate", "--checkpoint", str(pipeline["student"]),
                    "--input", str(pipeline["histories"]), "--out", str(out),
                    "--max-length", "6",
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_beam_strategy_accepted(self, pipeline, tmp_path):
        out = tmp_path / "beam.txt"
        rc = main(
            [
                "generate", "--checkpoint", str(pipeline["student"]),
                "--input", str(pipeline["histories"]), "--out", str(out),
                "--decode-strategy", "beam", "--beam-width", "2", "--max-length", "6",
            ]
        )
        assert rc == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 4

    def test_prints_generation_timing_outside_the_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "responses.txt"
        rc = main(
            [
                "generate", "--checkpoint", str(pipeline["student"]),
                "--input", str(pipeline["histories"]), "--out", str(out),
                "--max-length", "6",
            ]
        )
        assert rc == 0
        assert list(timing_stages(capsys.readouterr().out)) == ["generation"]
        assert "timing" not in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("vocab", ["alpha bravo", [1, 2], None, [], ["alpha"]])
    def test_bad_checkpoint_vocabulary_rejected_naming_the_file(self, pipeline, tmp_path, vocab, capsys):
        # not a list of strings, or fewer tokens than the model has ids
        params, configs = load_checkpoint(pipeline["student"])
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(params, {**configs, "vocab": vocab}, forged)
        rc = main(["generate", "--checkpoint", str(forged), "--input", str(pipeline["histories"]),
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{forged}: 'vocab'" in err

    def test_huge_block_count_rejected_within_a_memory_limit(self, pipeline, tmp_path):
        # a layout of a million blocks would exhaust memory before it could be
        # compared with the manifest; the run gets 1 GiB of address space
        params, configs = load_checkpoint(pipeline["student"])
        configs["model"]["num_blocks"] = 10**6
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(params, configs, forged)
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from dialdistill.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", code, "generate", "--checkpoint", str(forged),
                              "--input", str(pipeline["histories"]), "--out", str(tmp_path / "x.txt")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error:") and "Traceback" not in run.stderr, run.stderr
        assert "1000000 blocks" in run.stderr

    def test_scenario_checkpoint_rejected(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "generate", "--checkpoint", str(pipeline["teacher"]),
                "--input", str(pipeline["histories"]), "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert rc == 1
        assert "history-only" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report_path(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "report.json"
    emb = pipeline["root"] / "eval_embeddings.txt"
    rc = main(
        [
            "evaluate", "--checkpoint", str(pipeline["student"]),
            "--data", str(pipeline["data"]), "--split", "test",
            "--out", str(out), "--embeddings", str(emb),
            "--embedding-dim", "8", "--max-length", "5",
        ]
    )
    assert rc == 0
    assert emb.is_file()  # trained on demand and persisted
    return out


class TestEvaluate:
    def test_report_round_trips(self, report_path):
        report = MetricsReport(**json.loads(report_path.read_text()))
        for name in ("dist1", "dist2", "dist3", "kl_unigram", "kl_bigram",
                      "ppl", "bleu", "emb_average", "emb_greedy", "emb_extrema",
                      "coherence"):
            assert np.isfinite(getattr(report, name))
        assert 0.0 <= report.dist1 <= 1.0
        assert report.ppl > 1.0

    def test_report_embeds_run_identifiers(self, pipeline, report_path):
        report = MetricsReport(**json.loads(report_path.read_text()))
        assert report.run_config["decode.max_length"] == 5
        assert report.run_config["run.split"] == "test"
        assert report.generation["strategy"] == "greedy"
        assert report.corpus_id.endswith(":test")
        assert report.model_id == str(pipeline["student"])
        assert "ppl_excluded_sentences" in report.flags

    def test_prints_stage_timings_outside_the_report(self, pipeline, report_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate", "--checkpoint", str(pipeline["student"]),
                "--data", str(pipeline["data"]), "--out", str(out),
                "--embeddings", str(pipeline["root"] / "eval_embeddings.txt"), "--max-length", "5",
            ]
        )
        assert rc == 0
        assert list(timing_stages(capsys.readouterr().out)) == ["generation", "perplexity", "embeddings", "metrics"]
        assert json.loads(out.read_text()).keys() == json.loads(report_path.read_text()).keys()


class TestAnalysisCommands:
    def test_robustness_series(self, pipeline, tmp_path):
        out = tmp_path / "robustness.jsonl"
        rc = main(
            [
                "analyze-robustness", "--checkpoint", str(pipeline["student"]),
                "--data", str(pipeline["data"]), "--out", str(out),
                "--sigmas", "0,0.05", "--samples", "2", "--seed", "3",
            ]
        )
        assert rc == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["sigma"] for r in records] == [0.0, 0.05]
        assert records[0]["std_ppl"] == 0.0
        assert all(np.isfinite(r["mean_ppl"]) for r in records)

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_reports_error(self, pipeline, tmp_path, sigma, capsys):
        rc = main(
            [
                "analyze-robustness", "--checkpoint", str(pipeline["student"]),
                "--data", str(pipeline["data"]), "--out", str(tmp_path / "robustness.jsonl"),
                "--sigmas", f"0,{sigma}", "--samples", "1",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and sigma in err.splitlines()[0]
        assert "Traceback" not in err

    def test_wordfreq_report(self, pipeline, tmp_path):
        out = tmp_path / "wordfreq.json"
        rc = main(
            [
                "analyze-wordfreq", "--checkpoint", str(pipeline["student"]),
                "--data", str(pipeline["data"]), "--out", str(out),
                "--top-k", "50", "--max-length", "5",
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["top_k"] == 50
        assert -1.0 <= payload["similarity"] <= 1.0
        assert payload["split"] == "test"

    def test_wordfreq_prints_stage_timings_outside_the_report(self, pipeline, tmp_path, capsys):
        out = tmp_path / "wordfreq.json"
        rc = main(
            [
                "analyze-wordfreq", "--checkpoint", str(pipeline["student"]),
                "--data", str(pipeline["data"]), "--out", str(out),
                "--top-k", "50", "--max-length", "5",
            ]
        )
        assert rc == 0
        assert list(timing_stages(capsys.readouterr().out)) == ["generation", "similarity"]
        assert set(json.loads(out.read_text())) == {"top_k", "similarity", "examples", "split", "run_config"}

    def test_classify_exact_match_partition(self, pipeline, tmp_path):
        out_dir = tmp_path / "parts"
        rc = main(
            [
                "classify-informative", "--data", str(pipeline["data2"]),
                "--strategy", "exact-match", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        n_un = count_lines(out_dir / "uninformative.jsonl")
        n_in = count_lines(out_dir / "informative.jsonl")
        assert n_un == 2 and n_in == 1
        flagged = [json.loads(l) for l in (out_dir / "uninformative.jsonl").read_text().splitlines()]
        assert flagged[0]["response"] == flagged[1]["response"]

    def test_classify_word_overlap_partition(self, pipeline, tmp_path):
        out_dir = tmp_path / "parts"
        rc = main(
            [
                "classify-informative", "--data", str(pipeline["data"]),
                "--strategy", "word-overlap", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        records = (pipeline["data"] / "train.jsonl").read_text().splitlines()
        flagged = (out_dir / "uninformative.jsonl").read_text().splitlines()
        kept = (out_dir / "informative.jsonl").read_text().splitlines()
        assert sorted(flagged + kept) == sorted(records)
        uninformative, _ = classify_uninformative(
            load_prepared_examples(pipeline["data"], "train"), "word-overlap"
        )
        assert flagged == [records[i] for i in uninformative]

    def test_classify_prints_stage_timings_outside_the_parts(self, pipeline, tmp_path, capsys):
        outputs = []
        for run in ("first", "second"):
            out_dir = tmp_path / run
            rc = main(
                [
                    "classify-informative", "--data", str(pipeline["data2"]),
                    "--strategy", "word-overlap", "--out", str(out_dir),
                ]
            )
            assert rc == 0
            timing = [l for l in capsys.readouterr().out.splitlines() if l.startswith("timing (s): ")]
            assert len(timing) == 1
            stages = dict(item.split(" ") for item in timing[0][len("timing (s): "):].split(", "))
            assert list(stages) == ["load", "classify", "write"]
            assert all(float(v) >= 0.0 for v in stages.values())
            outputs.append([(out_dir / f).read_bytes() for f in ("uninformative.jsonl", "informative.jsonl")])
        assert outputs[0] == outputs[1]

    def test_classify_cluster_strategy_partitions(self, pipeline, tmp_path):
        out_dir = tmp_path / "parts"
        emb = tmp_path / "emb2.txt"
        rc = main(
            [
                "classify-informative", "--data", str(pipeline["data2"]),
                "--strategy", "sentence-cluster", "--out", str(out_dir),
                "--embeddings", str(emb), "--embedding-dim", "8",
            ]
        )
        assert rc == 0
        total = count_lines(out_dir / "uninformative.jsonl") + count_lines(out_dir / "informative.jsonl")
        assert total == count_lines(pipeline["data2"] / "train.jsonl")


class TestLambdaZeroParity:
    def test_student_at_lambda_zero_matches_plain_baseline(self, pipeline, tmp_path):
        student = tmp_path / "student0.ckpt"
        rc = main(
            [
                "train-student", "--data", str(pipeline["data"]), "--out", str(student),
                "--teacher", str(pipeline["teacher"]), "--seed", "5", "--lambda1", "0",
            ]
            + MODEL_FLAGS + TRAIN_FLAGS
        )
        assert rc == 0
        log_path = student.with_name(student.name + ".log.jsonl")
        cli_totals = [
            json.loads(l)["total"] for l in log_path.read_text().splitlines() if l.strip()
        ]

        vocab = Vocabulary.load(pipeline["data"] / "vocab.txt")
        train = [encode_example(ex, vocab) for ex in load_prepared_examples(pipeline["data"], "train")]
        val = [encode_example(ex, vocab) for ex in load_prepared_examples(pipeline["data"], "val")]
        config = ModelConfig(
            vocab_size=len(vocab), model_dim=16, num_blocks=1, num_heads=2,
            ffn_dim=32, dropout_rate=0.0, variant="conventional",
        )
        tcfg = TrainingConfig(batch_size=4, seed=5, max_steps=3, val_every=2)
        result = train_conventional(train, val, config, tcfg)
        base_totals = [rec["total"] for rec in result.log]

        assert len(cli_totals) == len(base_totals) == 3
        np.testing.assert_allclose(cli_totals, base_totals, rtol=0, atol=1e-6)


class TestConfigLayer:
    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"training.lambda1": 0.5, "decode.max_length": 4}))
        cfg = RunConfig.from_sources(cfg_file, {"training.lambda1": 1.5})
        assert cfg.get("training.lambda1") == 1.5
        assert cfg.get("decode.max_length") == 4

    def test_unknown_keys_rejected(self, tmp_path):
        for key in ("model.variant", "training.seed", "nonsense", "run.bogus"):
            with pytest.raises(ContractError):
                RunConfig().apply(key, 1)

    def test_bad_config_files(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(DataError):
            RunConfig.from_sources(missing, {})
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(DataError):
            RunConfig.from_sources(bad, {})
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(DataError):
            RunConfig.from_sources(listy, {})

    def test_preset_controls_defaults(self):
        cfg = RunConfig.from_sources(None, {"preset": "paper", "seed": 9})
        assert cfg.training_config().batch_size == PRESET_BATCH["paper"]
        assert cfg.training_config().seed == 9
        model = cfg.model_config(100, "conventional")
        assert model.model_dim == 256 and model.vocab_size == 100
        with pytest.raises(ContractError):
            RunConfig.from_sources(None, {"preset": "galactic"})

    def test_model_overrides_reach_config(self):
        cfg = RunConfig.from_sources(None, {"model.model_dim": 16, "decode.beam_width": 3})
        assert cfg.model_config(50, "conventional").model_dim == 16
        decode = cfg.decode_config()
        assert decode.beam_width == 3 and decode.strategy == "greedy"

    def test_to_flat_is_sorted_and_complete(self):
        cfg = RunConfig.from_sources(None, {"training.lambda1": 2.0, "paths.out": "x"})
        flat = cfg.to_flat()
        assert flat["preset"] == "desk" and flat["seed"] == 0
        assert flat["training.lambda1"] == 2.0 and flat["paths.out"] == "x"

    def test_sigma_parsing(self):
        assert _parse_sigmas("0,0.01,0.1") == [0.0, 0.01, 0.1]
        assert _parse_sigmas([0, 0.5]) == [0.0, 0.5]
        with pytest.raises(ContractError):
            _parse_sigmas("0,abc")

    def test_corpus_alias_for_data(self):
        args = build_parser().parse_args(["evaluate", "--corpus", "somewhere"])
        assert getattr(args, "paths.data") == "somewhere"


def sample_value(option):
    """A value ``option`` accepts: as its flag's text and as a config file's JSON value."""
    if option.choices:
        return option.choices[-1], option.choices[-1]
    if option.type is int:
        return "3", 3
    if option.type is float:
        return "0.25", 0.25
    return "somewhere", "somewhere"


def first_command_with(key):
    return next(name for name, command in COMMANDS.items()
                if any(option.key == key for option in COMMON + command.options))


class TestOptionTable:
    """Every row of ``cli.COMMANDS`` reaches ``RunConfig`` the same way from
    its flag and from its config key."""

    def test_rows_of_one_key_agree(self):
        for command in COMMANDS.values():
            for option in COMMON + command.options:
                shared = OPTIONS[option.key]
                assert (option.flags, option.type, option.choices) == (
                    shared.flags, shared.type, shared.choices), option.key

    def test_types_agree_with_defaults_and_config_classes(self):
        for key, option in OPTIONS.items():
            default = option.default
            assert default is None or type(default) is (option.type or str), key
        for section, cls, chosen_elsewhere in (("model", ModelConfig, {"variant", "vocab_size"}),
                                              ("training", TrainingConfig, {"seed"}),
                                              ("decode", DecodeConfig, set())):
            fields = {name: f.type for name, f in cls.__dataclass_fields__.items()
                      if name not in chosen_elsewhere}
            table = {key.partition(".")[2]: option.type.__name__
                     for key, option in OPTIONS.items() if key.startswith(section + ".")}
            assert table == {name: getattr(t, "__name__", t) for name, t in fields.items()}

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_flag_and_config_key_give_the_same_value(self, name, tmp_path):
        options = COMMON + COMMANDS[name].options
        config = tmp_path / "run.json"
        for option in options:
            text, value = sample_value(option)
            config.write_text(json.dumps({option.key: value}), encoding="utf-8")
            by_key = RunConfig.from_sources(config, {})
            for flag in option.flags.split():
                args = build_parser().parse_args([name, flag, text])
                by_flag = RunConfig.from_sources(None, {o.key: getattr(args, o.key) for o in options})
                assert by_flag.get(option.key) == by_key.get(option.key) == value, flag
                assert type(by_flag.get(option.key)) is type(value), flag
                assert by_flag.to_flat() == by_key.to_flat()

    @pytest.mark.parametrize(
        "key", sorted(key for key, option in OPTIONS.items() if option.type in (int, float))
    )
    def test_numeric_key_rejects_text_naming_the_key(self, key, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: "x"}), encoding="utf-8")
        assert main([first_command_with(key), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    def test_null_means_the_default(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": None, "preset": None, "training.max_steps": None,
                                      "model.model_dim": None}), encoding="utf-8")
        cfg = RunConfig.from_sources(config, {})
        assert (cfg.get("seed"), cfg.get("preset")) == (0, "desk")
        assert cfg.training_config().max_steps is None
        assert cfg.model_config(50, "conventional").model_dim == 64
        assert cfg.to_flat()["training.max_steps"] is None

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_help_lists_every_flag(self, name, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([name, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        flags = ["--config"] + [f for o in COMMON + COMMANDS[name].options for f in o.flags.split()]
        assert [f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", out)] == []

    def test_module_entry_point_lists_the_subcommands(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-m", "dialdistill", "--help"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert all(name in run.stdout for name in COMMANDS)


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["train-teacher", "--warp-factor", "9"])
        assert err.value.code == 2

    def test_missing_required_path_reports_error(self, capsys):
        rc = main(["train-teacher"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_data_directory_reports_error(self, tmp_path, capsys):
        rc = main(
            ["train-teacher", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "t.ckpt")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            "[1, 2]",
            '"a string"',
            '{"history": [["a"]], "response": ["b"], "future": null}',
            '{"history": ["a", "b"], "response": ["b"], "future": [["c"]]}',
            '{"history": [["a"]], "response": "b c", "future": [["c"]]}',
            '{"history": [["a"]], "response": [["b"]], "future": [["c"]]}',
            '{"history": [["a", 1]], "response": ["b"], "future": [["c"]]}',
        ],
    )
    def test_malformed_prepared_record_reports_error(self, tmp_path, record, capsys):
        good = '{"history": [["a"]], "response": ["b"], "future": [["c"]]}'
        (tmp_path / "train.jsonl").write_text(good + "\n" + record + "\n", encoding="utf-8")
        rc = main(["classify-informative", "--data", str(tmp_path), "--strategy", "exact-match"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{tmp_path / 'train.jsonl'}:2:" in err

    def test_missing_checkpoint_reports_error(self, tmp_path, capsys):
        rc = main(
            [
                "generate", "--checkpoint", str(tmp_path / "ghost.ckpt"),
                "--input", str(tmp_path / "h.txt"), "--out", str(tmp_path / "o.txt"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["corpus", "prepared", "config", "vocab", "embeddings"])
    def test_non_utf8_input_reports_error_naming_the_file(self, tmp_path, reader, capsys):
        good = '{"history": [["a"]], "response": ["b"], "future": [["c"]]}\n'
        files = {"train.jsonl": good, "vocab.txt": "a\nb\n"}
        bad_name = {"corpus": "corpus.txt", "prepared": "train.jsonl", "config": "run.json",
                    "vocab": "vocab.txt", "embeddings": "emb.txt"}[reader]
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        bad = tmp_path / bad_name
        bad.write_bytes(b"ok\n\xff\n")
        data = ["--data", str(tmp_path)]
        argv = {
            "corpus": ["prepare-data", "--corpus", str(bad), "--out", str(tmp_path / "out")],
            "prepared": ["classify-informative", *data],
            "config": ["classify-informative", *data, "--config", str(bad)],
            "vocab": ["train-teacher", *data, "--out", str(tmp_path / "t.ckpt")],
            "embeddings": ["classify-informative", *data, "--strategy", "sentence-cluster",
                           "--embeddings", str(bad), "--out", str(tmp_path / "out")],
        }[reader]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad}: not UTF-8" in err

    @pytest.mark.parametrize(
        "command, key",
        [
            ("prepare-data", "seed"),
            ("prepare-data", "run.stride"),
            ("train-teacher", "training.batch_size"),
            ("train-teacher", "model.model_dim"),
        ],
    )
    def test_mistyped_config_value_reports_error_naming_the_key(
        self, pipeline, tmp_path, command, key, capsys
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: "x"}), encoding="utf-8")
        source = ["--corpus", str(pipeline["corpus"])] if command == "prepare-data" else [
            "--data", str(pipeline["data"])]
        rc = main([command, *source, "--out", str(tmp_path / "out"), "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag, field", [
        ("train-student", "--lambda1", "lambda1"),
        ("prepare-data", "--val-fraction", "val_fraction"),
    ])
    def test_non_finite_float_flag_reports_error(
        self, pipeline, tmp_path, command, flag, field, value, capsys
    ):
        source = ["--corpus", str(pipeline["corpus"])] if command == "prepare-data" else [
            "--data", str(pipeline["data"]), "--teacher", str(pipeline["teacher"])]
        out = tmp_path / "out"
        assert main([command, *source, "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    def test_non_string_config_path_is_read_as_a_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"paths.data": 5}), encoding="utf-8")
        assert main(["classify-informative", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: directory not found: 5\n"
