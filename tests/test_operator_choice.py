"""Only ``kspace`` picks between the monomial and the dense operator route.

``kspace._operator`` decides, per matrix or per stack, whether products go through a
``_Monomial`` (gathers) or a ``_Dense`` (matrix products).  Every other
module calls the operator it returns without asking which one it got, so
neither class is named anywhere in ``src/istlab`` outside ``kspace.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "istlab"
ROUTES = {"_Monomial", "_Dense"}


def _names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, getattr(node, "lineno", 0)


def test_only_kspace_names_an_operator_route():
    forks = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "kspace.py"
        for name, line in _names(path)
        if name in ROUTES
    ]
    assert not forks, "operator routes named outside kspace: " + ", ".join(forks)
