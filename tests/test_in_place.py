"""Parameters are written in place: only ``tensor`` assigns a tensor's
``data`` attribute, so every parameter stays a view of its set's flat
``values`` through training, checkpoint loads, hard transfer and analysis."""

import ast
from pathlib import Path

import numpy as np

from dialdistill import tensor as T
from dialdistill.analysis import perturbation_analysis
from dialdistill.corpus import encode_example
from dialdistill.model import desk_config
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary
from dialdistill.training import TrainingConfig, train_student, train_teacher

PACKAGE = Path(T.__file__).parent


def data_assignments(source: str) -> list:
    """Line numbers of every assignment to an attribute named ``data``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr == "data" and isinstance(leaf.ctx, ast.Store):
                    found.append(node.lineno)
    return found


class TestNoRebinding:
    def test_only_tensor_assigns_data(self):
        offenders = {
            path.name: data_assignments(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "tensor.py"
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}

    def test_the_scan_finds_rebinds(self):
        assert data_assignments((PACKAGE / "tensor.py").read_text(encoding="utf-8"))
        assert data_assignments("t.data = t.data - u\na, b.data = 1, 2\nt.data += 1\n") == [1, 2, 3]
        assert data_assignments("t.data[...] = u\nt.data[0] += 1\nx = t.data\n") == []


def test_parameters_stay_views_of_values():
    vocab = marker_vocabulary()
    examples = [encode_example(e, vocab) for e in future_marker_corpus(24, seed=2)]
    tcfg = TrainingConfig(batch_size=8, seed=4, max_steps=4, val_every=2)
    teacher = train_teacher(examples, examples, desk_config(len(vocab), "scenario-based"), tcfg).model
    tcfg = TrainingConfig(batch_size=8, seed=4, max_steps=4, val_every=2, hard_transfer_scope="encoder")
    student = train_student(examples, examples, teacher, desk_config(len(vocab)), tcfg).model
    perturbation_analysis(student, examples[:4], [0.0, 0.1], samples_per_sigma=1)
    for model in (teacher, student):
        for name, t in model.params.items():
            assert np.shares_memory(t.data, model.params.values), name
