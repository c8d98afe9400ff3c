"""Source scans: the package deduplicates edge keys by sorting, never through
the hash path numpy's ``np.unique`` takes on int64 without ``return_*``,
defines no function or class that nothing in it names, and keeps no
``__slots__`` attribute that nothing in it reads."""

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


def _unnamed_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module:line: name`` of each function or class (dunder methods
    aside) defined in ``sources`` (module name -> text) whose name no
    name or attribute in them reads, and that is not in ``exported``."""
    defined, named = [], set(exported)
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{module}:{line}: {name}" for module, line, name in defined if name not in named]


def test_scan_flags_only_unnamed_definitions():
    sources = {"a": "def used():\n    pass\ndef dead():\n    pass\ndef api():\n    pass\n"
                    "class Box:\n    def __len__(self):\n        return 0\n"
                    "    def read(self):\n        return used()\n    def idle(self):\n        pass\n",
               "b": "Box().read()\n"}
    assert _unnamed_definitions(sources, {"api"}) == ["a:3: dead", "a:12: idle"]


def _package_sources() -> dict[str, str]:
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    return sources


def test_every_definition_is_named_in_the_package():
    sources = _package_sources()
    exported = {alias.name for node in ast.walk(ast.parse(sources["__init__.py"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert _unnamed_definitions(sources, exported) == []


def _unread_slots(sources: dict[str, str]) -> list[str]:
    """``module:line: Class.name`` of each ``__slots__`` name of a class in
    ``sources`` (module name -> text) that no attribute load in them reads:
    state that is written but never used."""
    slots, read = [], set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)):
                        slots += [(module, stmt.lineno, node.name, name)
                                  for name in ast.literal_eval(stmt.value)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}:{line}: {cls}.{name}" for module, line, cls, name in slots
            if name not in read]


def test_slot_scan_flags_only_unread_slots():
    sources = {"a": "class Box:\n    __slots__ = ('kept', 'written', 'elsewhere')\n"
                    "    def __init__(self):\n        self.kept = self.written = 1\n"
                    "        self.elsewhere = 2\n    def get(self):\n        return self.kept\n"
                    "class Plain:\n    written = 0\n",
               "b": "print(Box().elsewhere)\n"}
    assert _unread_slots(sources) == ["a:2: Box.written"]


def test_every_slot_is_read_in_the_package():
    assert _unread_slots(_package_sources()) == []
