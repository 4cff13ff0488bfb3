"""Source scans: where the package may do linear algebra.

No module calls LAPACK (a linalg attribute or import), and no numpy product
goes through BLAS except the Dormand-Prince stage sums, the two matrix
products of flow._dp_step.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "deformflow"
PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}
MATMUL_HOME = "_dp_step"


def linear_algebra(source: str) -> list[str]:
    """Line and construct of each linalg use, numpy product call, and @ outside MATMUL_HOME in source."""
    tree = ast.parse(source)
    homes = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == MATMUL_HOME]
    home = {id(n) for f in homes for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"{node.lineno}: linalg")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any("linalg" in name.split(".") or name in PRODUCTS for name in names):
                found.append(f"{node.lineno}: import of {', '.join(filter(None, names))}")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in PRODUCTS:
                found.append(f"{node.lineno}: {name}()")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult) and id(node) not in home:
            found.append(f"{node.lineno}: @")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_linear_algebra_stays_in_the_stage_sums(path):
    assert linear_algebra(path.read_text(encoding="utf-8")) == []


def test_the_stage_sums_are_matrix_products():
    # the scan's one exemption names a function that exists and holds both of its @ products
    tree = ast.parse((SRC / "flow.py").read_text(encoding="utf-8"))
    (home,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == MATMUL_HOME]
    assert sum(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult) for n in ast.walk(home)) == 2


@pytest.mark.parametrize(
    "source, want",
    [
        ("a, b = np.linalg.solve(m, v)", ["1: linalg"]),
        ("x = numpy.linalg.det(m)", ["1: linalg"]),
        ("from numpy import linalg", ["1: import of numpy, linalg"]),
        ("from numpy.linalg import solve", ["1: import of numpy.linalg, solve"]),
        ("import numpy.linalg", ["1: import of numpy.linalg"]),
        ("from numpy import einsum", ["1: import of numpy, einsum"]),
        ("y = np.dot(a, b)\nz = a.dot(b)", ["1: dot()", "2: dot()"]),
        ("y = np.einsum('ij,j', a, b) + np.matmul(a, b)", ["1: einsum()", "1: matmul()"]),
        ("y = np.inner(a, b) * np.vdot(a, b) * np.tensordot(a, b)", ["1: inner()", "1: vdot()", "1: tensordot()"]),
        ("def f(a, b):\n    a @= b\n    return a @ b", ["2: @", "3: @"]),
        ("def _dp_step(a, b):\n    return a @ b", []),
        ("y = np.add.reduce(a * b, axis=1)", []),
    ],
    ids=["linalg", "numpy-linalg", "import-linalg", "from-linalg", "import-module", "import-product", "dot",
         "einsum-matmul", "inner-vdot-tensordot", "matmul-operator", "stage-sums", "streamed-sum"],
)
def test_the_scan_finds_each_construct(source, want):
    assert sorted(linear_algebra(source)) == sorted(want)
