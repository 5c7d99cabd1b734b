"""The number of settable values in src/matchctl may not rise.

A settable value is a default a caller can override: a defaulted
parameter of a public function or method (dunder methods such as
__init__ and nested functions included), or a defaulted field of a
dataclass.  Folding an option nobody sets into a constant lowers the
count; lower SETTABLE with it.  Adding one needs a caller that sets it.
"""
import ast
import pathlib

import matchctl

SETTABLE = 80
SRC = pathlib.Path(matchctl.__file__).parent


def _public(name: str) -> bool:
    return not name.startswith("_") or name.endswith("__")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settable(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name):
                args = node.args
                found += [node.name] * (len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and stmt.value is not None]
    return found


def test_settable_values_do_not_rise():
    found = [name for path in sorted(SRC.rglob("*.py"))
             for name in _settable(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == SETTABLE, sorted(found)
