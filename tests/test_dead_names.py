"""Every module-level name and every parameter in ``src/istlab`` has a reader.

A function, class or constant defined at the top level of a library
module must be loaded somewhere in ``src/``, ``tests/`` or
``perfbench/``: as a bare name, as an attribute or as an imported name.
A name nothing reads is dead code and should be deleted.  Likewise a
parameter of a library function must be loaded in that function's body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "istlab"
READERS = ("src", "tests", "perfbench")


def _defined(path: Path):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _loaded() -> set:
    names = set()
    for path in (f for d in READERS for f in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_module_level_name_is_read():
    loaded = _loaded()
    dead = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _defined(path)
        if not name.startswith("__") and name not in loaded
    ]
    assert not dead, "names nothing reads: " + ", ".join(dead)


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno}: {p.arg}" for p in params
                       if p.arg not in read and p.arg not in ("self", "cls")
                       and not p.arg.startswith("_")]
    assert not unread, "parameters no body reads: " + ", ".join(unread)
