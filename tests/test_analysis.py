"""Parameter-perturbation robustness and teacher/student divergence."""

import json

import numpy as np
import pytest

from dialdistill.analysis import (
    mean_teacher_student_kl,
    perturbation_analysis,
    write_perturbation_series,
)
from dialdistill.corpus import EncodedExample
from dialdistill.errors import ContractError
from dialdistill.metrics import corpus_ppl
from dialdistill.model import ModelConfig, TransformerModel


def build_model(variant="conventional", seed=21):
    config = ModelConfig(
        vocab_size=14,
        model_dim=8,
        num_blocks=1,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.0,
        max_sequence_length=48,
        variant=variant,
    )
    return TransformerModel.build(config, seed=seed)


def examples(seed=30, count=6):
    rng = np.random.default_rng(seed)
    return [
        EncodedExample(
            history=[int(t) for t in rng.integers(4, 14, size=4)],
            response=[int(t) for t in rng.integers(4, 14, size=rng.integers(2, 6))],
            future=[int(t) for t in rng.integers(4, 14, size=4)],
        )
        for _ in range(count)
    ]


class TestPerturbation:
    def test_sigma_zero_reproduces_base_ppl_exactly(self):
        model = build_model()
        exs = examples()
        base = corpus_ppl(model, exs).value
        series = perturbation_analysis(model, exs, [0.0, 0.05], samples_per_sigma=2, seed=1)
        assert series[0]["sigma"] == 0.0
        assert series[0]["mean_ppl"] == base
        assert series[0]["std_ppl"] == 0.0

    def test_one_record_per_sigma(self):
        model = build_model()
        series = perturbation_analysis(
            model, examples(), [0.0, 0.01, 0.1], samples_per_sigma=2, seed=0
        )
        assert [r["sigma"] for r in series] == [0.0, 0.01, 0.1]

    def test_parameters_restored_bitwise(self):
        model = build_model()
        before = {name: t.data.copy() for name, t in model.params.items()}
        perturbation_analysis(model, examples(), [0.0, 0.5], samples_per_sigma=3, seed=2)
        for name, t in model.params.items():
            assert np.array_equal(t.data, before[name]), name

    def test_noise_actually_changes_scores(self):
        model = build_model()
        series = perturbation_analysis(model, examples(), [0.0, 1.0], samples_per_sigma=3, seed=3)
        assert series[1]["mean_ppl"] != series[0]["mean_ppl"]
        assert series[1]["std_ppl"] > 0.0

    def test_deterministic_given_seed(self):
        model = build_model()
        a = perturbation_analysis(model, examples(), [0.0, 0.1], samples_per_sigma=3, seed=7)
        b = perturbation_analysis(model, examples(), [0.0, 0.1], samples_per_sigma=3, seed=7)
        c = perturbation_analysis(model, examples(), [0.0, 0.1], samples_per_sigma=3, seed=8)
        assert a == b
        assert a[1]["mean_ppl"] != c[1]["mean_ppl"]

    def test_grid_validation(self):
        model = build_model()
        exs = examples()
        with pytest.raises(ContractError):
            perturbation_analysis(model, exs, [])
        with pytest.raises(ContractError):
            perturbation_analysis(model, exs, [0.01, 0.1])  # must start at 0
        with pytest.raises(ContractError):
            perturbation_analysis(model, exs, [0.0, 0.1, 0.05])  # unsorted
        with pytest.raises(ContractError):
            perturbation_analysis(model, exs, [0.0], samples_per_sigma=0)

    def test_series_file_round_trip(self, tmp_path):
        model = build_model()
        series = perturbation_analysis(model, examples(), [0.0, 0.1], samples_per_sigma=2, seed=4)
        path = tmp_path / "series.jsonl"
        write_perturbation_series(series, path)
        assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == series


class TestTeacherStudentKL:
    def test_model_against_itself_is_zero(self):
        model = build_model()
        assert mean_teacher_student_kl(model, model, examples()) == 0.0

    def test_distinct_models_diverge_positively(self):
        teacher = build_model(variant="scenario-based", seed=5)
        student = build_model(variant="conventional", seed=6)
        value = mean_teacher_student_kl(teacher, student, examples())
        assert value > 0.0
        assert np.isfinite(value)

    def test_no_positions_rejected(self):
        teacher = build_model(seed=5)
        student = build_model(seed=6)
        with pytest.raises(Exception):
            mean_teacher_student_kl(teacher, student, [])
