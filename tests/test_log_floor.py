"""The one log floor: only ``tensor`` defines a floor or clamps before a
log, and every log of a probability taken off the graph equals ``T.log``'s
on the graph, bitwise."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dialdistill import tensor as T
from dialdistill.analysis import mean_teacher_student_kl
from dialdistill.corpus import EncodedExample
from dialdistill.decoding import DecodeConfig, decode
from dialdistill.metrics import corpus_ppl
from dialdistill.model import ModelConfig, TransformerModel

PACKAGE = Path(T.__file__).parent
ZERO_TOKEN = 6  # its output bias makes its probability exactly 0


def floors(source: str) -> list:
    """The log-floor constants a module assigns and the logs of a clamped
    value (``np.log(np.maximum(...))`` and the like) it takes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name) and "FLOOR" in t.id.upper()]
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.log", "np.log2", "np.log10")
              and node.args and isinstance(node.args[0], ast.Call)
              and ast.unparse(node.args[0].func) in ("np.maximum", "np.clip")):
            found.append(ast.unparse(node))
    return found


class TestOneFloor:
    def test_only_tensor_defines_a_log_floor(self):
        offenders = {
            path.name: floors(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "tensor.py"
        }
        assert {name: found for name, found in offenders.items() if found} == {}

    def test_the_scan_finds_tensors_floor(self):
        found = floors((PACKAGE / "tensor.py").read_text(encoding="utf-8"))
        assert "LOG_FLOOR" in found
        assert "np.log(np.maximum(a, LOG_FLOOR))" in found

    def test_log_has_no_floor_parameter(self):
        with pytest.raises(TypeError):
            T.log(T.Tensor([0.5]), floor=1e-12)


def model(variant, seed):
    config = ModelConfig(
        vocab_size=12, model_dim=8, num_blocks=1, num_heads=2, ffn_dim=16,
        dropout_rate=0.0, max_sequence_length=32, variant=variant,
    )
    built = TransformerModel.build(config, seed)
    built.params["out_proj.b"].data[ZERO_TOKEN] = -1e4
    return built


def examples(count=5, seed=8):
    rng = np.random.default_rng(seed)
    return [
        EncodedExample(
            history=[int(t) for t in rng.integers(4, 12, size=4)],
            response=[ZERO_TOKEN] + [int(t) for t in rng.integers(4, 12, size=3)],
            future=[int(t) for t in rng.integers(4, 12, size=4)],
        )
        for _ in range(count)
    ]


CONSUMERS = {
    "decoding": lambda: decode(model("conventional", 1), examples()[0].history, DecodeConfig(max_length=3)),
    "metrics": lambda: corpus_ppl(model("conventional", 2), examples()),
    "analysis": lambda: mean_teacher_student_kl(model("scenario-based", 3), model("conventional", 4), examples()),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_numpy_logs_equal_the_graph_log_bitwise(monkeypatch, consumer):
    floored = []
    floored_log = T.floored_log

    def spy(a):
        out = floored_log(a)
        assert out.dtype == a.dtype and np.array_equal(out, T.log(a).data)
        floored.append(bool((a < T.LOG_FLOOR).any()))
        return out

    monkeypatch.setattr(T, "floored_log", spy)
    CONSUMERS[consumer]()
    assert any(floored)  # the consumer took its logs here, a zero among them
