"""Every library tolerance lives in the table at the top of ``kspace``.

Outside ``kspace`` (the table) and ``verify`` (whose acceptance criteria
define their own thresholds) no module may spell a tiny or huge float
literal: such a number is a tolerance and belongs in the table.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "istlab"
EXEMPT = {"kspace.py", "verify.py"}


def _tolerance_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            v = abs(node.value)
            if 0 < v <= 1e-6 or v >= 1e6:
                yield f"{path.name}:{node.lineno}: {node.value!r}"


def test_no_tolerance_literals_outside_the_table():
    files = sorted(f for f in SRC.glob("*.py") if f.name not in EXEMPT)
    assert files
    found = [hit for f in files for hit in _tolerance_literals(f)]
    assert not found, "tolerance literals outside kspace: " + ", ".join(found)
