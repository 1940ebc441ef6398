"""No ``np.einsum`` call in the package takes three or more operands.

numpy runs a three-operand contraction through its generic loop, several
times slower than the same 2x2 products written out (see
``maps._conjugated_jacobian``, which writes them plane by plane into the
component-major layout of ``lattice._empty2x2``).  Two-operand calls are
fine.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosov_lab"


def long_einsums(source: str, name: str = "<string>"):
    """``name:line`` of every einsum call in ``source`` with three or more
    operands; the subscripts string is the first argument, not an operand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "einsum" and len(node.args) - 1 >= 3:
                found.append(f"{name}:{node.lineno}")
    return found


def test_no_einsum_with_three_operands():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += long_einsums(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_detector_sees_three_operands():
    assert long_einsums('np.einsum("nij,jk,nkl->nil", a, b, c)') == ["<string>:1"]
    assert long_einsums('einsum("ij,jk,kl->il", a, b, c)') == ["<string>:1"]
    assert long_einsums('np.einsum("nij,nj->ni", a, b)') == []
