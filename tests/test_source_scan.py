"""Source scans: the package deduplicates edge keys by sorting, never through
the hash path numpy's ``np.unique`` takes on int64 without ``return_*``."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "heatnet")
SORTING = {"return_index", "return_inverse", "return_counts"}


def _hash_path_calls(tree: ast.AST) -> list[str]:
    bad = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in ("unique", "union1d")
                and not SORTING & {kw.arg for kw in node.keywords}):
            bad.append(f"line {node.lineno}: np.{node.func.attr}")
    return bad


def test_scan_flags_only_hash_path_calls():
    tree = ast.parse("np.unique(a)\nnp.union1d(a, b)\nnp.unique(a, return_counts=True)\n"
                     "np.unique(a, axis=0)\nnp.sort(a)\n")
    assert _hash_path_calls(tree) == ["line 1: np.unique", "line 2: np.union1d",
                                      "line 4: np.unique"]


def test_no_hash_path_unique_in_the_package():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                bad = _hash_path_calls(ast.parse(fh.read()))
            if bad:
                found[name] = bad
    assert found == {}, "use hetgraph._unique_sorted instead of " + repr(found)
