"""One attention path: the package calls ``T.attention`` in one place,
``model.attention_sublayer``, so encoder self-attention, decoder
self-attention (cached or not) and cross-attention cannot drift apart."""

import ast
from pathlib import Path

from dialdistill import tensor as T

PACKAGE = Path(T.__file__).parent


def attention_calls(source: str) -> list:
    """The dotted scope (enclosing classes and functions) of every call to
    a function named ``attention``, bare or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "attention":
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_attention_is_called_only_from_the_sublayer():
    calls = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in attention_calls(path.read_text(encoding="utf-8"))
    ]
    assert calls == ["model.attention_sublayer"]


def test_the_scan_finds_attention_calls():
    assert attention_calls("def f(q, k, v):\n    return T.attention(q, k, v, None, 2)\n") == ["f"]
    assert attention_calls(
        "class C:\n    def g(self):\n        return [attention(a) for a in b]\n"
    ) == ["C.g"]
    assert attention_calls("x = T.attention(q, k, v, m, 2)\n") == [""]
    assert attention_calls("T.attention_mask(x)\nattend(x)\ndef attention(q):\n    pass\n") == []
