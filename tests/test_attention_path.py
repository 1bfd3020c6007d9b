"""One attention path and one training step: the package calls
``T.attention`` in one place, ``model.attention_sublayer``, so encoder
self-attention, decoder self-attention (cached or not) and
cross-attention cannot drift apart; and it calls ``total_loss`` in one
place, ``training._train_loop``, so every trainer runs the same step. That
loop is also the one place that builds ``Adam``, whose flat buffer holds
every parameter gradient, and calls ``zero_grads``, which lets go of it.
The allocator policy is set in one place too, when the package is
imported, so no module can set a second one. And inference has one way
in: the package enters ``graph_free`` only through ``names_failures``,
so a failed check in any inference pass is named by a recorded rerun.
Each residual is normalized by one ``layer_norm`` node that takes the
sublayer's branch, and each embedding adds its positions and draws its
dropout in one ``embedding`` node, so a training graph holds no chain of
elementwise nodes between the model's inputs and its loss. Work goes
to the helper thread through ``tensor.submit``, ``tensor.both`` and the
backward's leaf adds alone, so every split of work between the caller and
the helper is one ``both`` over one partition."""

import ast
from pathlib import Path

from dialdistill import tensor as T, training
from dialdistill.corpus import encode_example
from dialdistill.model import desk_config
from dialdistill.synthetic import future_marker_corpus, marker_vocabulary

PACKAGE = Path(T.__file__).parent


def calls_to(source: str, function: str) -> list:
    """The dotted scope (enclosing classes and functions) of every call to
    a function named ``function``, bare or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == function:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def package_calls_to(function: str) -> list:
    return [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in calls_to(path.read_text(encoding="utf-8"), function)
    ]


def test_attention_is_called_only_from_the_sublayer():
    assert package_calls_to("attention") == ["model.attention_sublayer"]


def test_residuals_and_embeddings_are_built_and_dropped_out_in_one_place_each():
    assert package_calls_to("layer_norm") == ["model.TransformerModel._residual"]
    assert package_calls_to("embedding") == ["model.TransformerModel._embed"]
    # one keep-mask draw serves both, and there is no dropout of its own
    assert package_calls_to("_keep_mask") == ["tensor.layer_norm", "tensor.embedding"]
    assert "dropout" not in T.PRIMITIVES


# the ops a model's forward records: the teacher's merge alone adds `concat`
MODEL_OPS = {"embedding", "affine", "attention", "layer_norm", "head"}
LOSS_OPS = {"cross_entropy", "pick", "mean_square", "mul", "sum", "add"}


def test_a_desk_training_graph_holds_only_the_fused_nodes(monkeypatch):
    # each trainer's recorded graph, in topological order: the model's nodes,
    # then the loss's
    vocab = marker_vocabulary()
    train = [encode_example(e, vocab) for e in future_marker_corpus(16, seed=3)]
    graphs = []
    backward = T.backward

    def recording_backward(loss):
        graphs.append([n._op for n in T._topological_order(loss, grad_only=False) if n._parents])
        backward(loss)

    monkeypatch.setattr(T, "backward", recording_backward)
    one = training.TrainingConfig(batch_size=16, max_steps=1, seed=0)
    teacher = training.train_teacher(train, [], desk_config(len(vocab), "scenario-based"), one).model
    lm = training.train_lm_teacher(train, [], desk_config(len(vocab), "language-model"), one).model
    training.train_student(train, [], teacher, desk_config(len(vocab)), one, lm_teacher=lm)
    assert len(graphs) == 3
    for ops, model_ops in zip(graphs, (MODEL_OPS | {"concat"}, MODEL_OPS, MODEL_OPS)):
        n = next(i for i, op in enumerate(ops) if op not in model_ops)
        assert set(ops[:n]) == model_ops
        assert ops[n:] and set(ops[n:]) <= LOSS_OPS


def test_total_loss_is_called_only_from_the_training_loop():
    assert package_calls_to("total_loss") == ["training._train_loop"]


def test_adam_is_built_and_let_go_of_only_in_the_training_loop():
    assert package_calls_to("Adam") == ["training._train_loop"]
    assert package_calls_to("zero_grads") == ["training._train_loop"]


def test_the_allocator_policy_is_set_only_at_import():
    assert package_calls_to("mallopt") == ["__init__._keep_freed_memory"]


def test_graph_free_is_entered_only_by_names_failures_and_inference():
    assert package_calls_to("graph_free") == ["model.ParameterSet.inference", "tensor.names_failures.call"]


def test_work_is_submitted_to_a_pool_only_by_the_tensor_hand_offs():
    assert package_calls_to("submit") == [
        "tensor.submit", "tensor.both", "tensor._LeafAdds.__call__", "training._train_loop.prefetch"]


def test_no_package_module_calls_inference():
    # every package inference entry point is decorated with names_failures instead
    assert package_calls_to("inference") == []


def test_the_scan_finds_attention_calls():
    assert calls_to("def f(q, k, v):\n    return T.attention(q, k, v, None, 2)\n", "attention") == ["f"]
    assert calls_to(
        "class C:\n    def g(self):\n        return [attention(a) for a in b]\n", "attention"
    ) == ["C.g"]
    assert calls_to("x = T.attention(q, k, v, m, 2)\n", "attention") == [""]
    assert calls_to("T.attention_mask(x)\nattend(x)\ndef attention(q):\n    pass\n", "attention") == []


def test_the_scan_matches_only_the_named_function():
    source = "def f(m):\n    def g(b):\n        return total_loss(p, h)\n    return attention(g)\n"
    assert calls_to(source, "total_loss") == ["f.g"]
    assert calls_to(source, "attention") == ["f"]
