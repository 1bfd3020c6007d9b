"""End-to-end tests for the command-line interface.

One module-scoped pipeline runs every training command once on a tiny
synthetic corpus; the feature tests then drive the downstream commands
against those artifacts and check the files they leave behind.
"""

import json

import numpy as np
import pytest

from dialdistill.checkpoint import load_model
from dialdistill.cli import (
    PRESET_BATCH,
    RunConfig,
    _parse_sigmas,
    build_parser,
    load_prepared_examples,
    main,
)
from dialdistill.corpus import Vocabulary, encode_example
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

    def test_student_rejects_conventional_teacher(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "train-student", "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "s.ckpt"), "--teacher", str(pipeline["student"]),
            ]
        )
        assert rc == 1
        assert "scenario-based" in capsys.readouterr().err


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
        report = MetricsReport.load(report_path)
        for name in ("dist1", "dist2", "dist3", "kl_unigram", "kl_bigram",
                      "ppl", "bleu", "emb_average", "emb_greedy", "emb_extrema",
                      "coherence"):
            assert np.isfinite(getattr(report, name))
        assert 0.0 <= report.dist1 <= 1.0
        assert report.ppl > 1.0

    def test_report_embeds_run_identifiers(self, pipeline, report_path):
        report = MetricsReport.load(report_path)
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
        timing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("timing (s): ")]
        assert len(timing) == 1
        stages = dict(item.split(" ") for item in timing[0][len("timing (s): "):].split(", "))
        assert list(stages) == ["generation", "perplexity", "embeddings", "metrics"]
        assert all(float(v) >= 0.0 for v in stages.values())
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
        assert cfg.training["lambda1"] == 1.5
        assert cfg.decode["max_length"] == 4

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
